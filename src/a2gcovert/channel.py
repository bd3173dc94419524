"""Fading, path loss and noise-uncertainty layer.

All powers are linear milliwatts; all gain/loss factors are linear ratios.
The module holds the fading, path-loss and noise laws, the Rician factor
of an elevation, ``link_states``, ``_state_rule`` and the samplers, which
take an explicit numpy Generator (the paper's surrogate CDFs are in
``surrogate``).  ``link_states`` describes the discrete states of one link
(LoS, and in mode "dm" the receive lobe) once, with the receiver's noise
power and the band; every primary metric is evaluated over it.
``_state_rule`` is the one fading quadrature: a composite Gauss-Legendre
rule on one fixed window in the amplitude per state, the same for both
laws, at whose nodes it forms the state's Rician or gamma amplitude
density, and which the warden's DEP and the ergodic capacity both average
their kernels with.  It needs numpy and ``specfun`` only: the Rician
density's Bessel factor is ``specfun.i0e`` and the gamma density's
Stirling correction ``specfun._stirlerr``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .errors import DomainError, QuadratureError
from .geometry import alice_main_lobe_covers_willie, lobe_gains
from .specfun import GAMMA_SHAPE_MAX, _stirlerr, i0e

if TYPE_CHECKING:
    from .scenario import Scenario

__all__ = [
    "RicianLaw",
    "NakagamiLaw",
    "PathLoss",
    "NoiseModel",
    "LinkStates",
    "link_states",
    "rician_factor",
    "path_loss",
    "sample_rician_power",
    "sample_nakagami_power",
    "sample_noise_exponent",
]


@dataclass(frozen=True)
class RicianLaw:
    """Elevation law of the Rician factor, anchored at 0 and pi/2."""

    k0: float
    k_half_pi: float

    def __post_init__(self):
        if not (self.k_half_pi >= self.k0 > 0):
            raise DomainError("Rician law requires k_half_pi >= k0 > 0")


@dataclass(frozen=True)
class NakagamiLaw:
    """Integer Nakagami shape per channel state (LoS / NLoS), at most
    ``specfun.GAMMA_SHAPE_MAX``."""

    s_los: int
    s_nlos: int

    def __post_init__(self):
        for name in ("s_los", "s_nlos"):
            v = getattr(self, name)
            if not (isinstance(v, (int, np.integer))
                    and 1 <= v <= GAMMA_SHAPE_MAX):
                raise DomainError(f"{name} must be an integer in [1, "
                                  f"{GAMMA_SHAPE_MAX}], got {v!r}")


@dataclass(frozen=True)
class PathLoss:
    """Power-law path loss L(d) = beta * d^(-alpha)."""

    beta: float
    alpha: float

    def __post_init__(self):
        if not (self.beta > 0 and self.alpha > 0):
            raise DomainError("path-loss constants must be positive")


@dataclass(frozen=True)
class NoiseModel:
    """Bounded log-uniform noise power around the nominal sigma_n2 > 0 (mW),
    rho > 1: the one check of the noise model's domain."""

    sigma_n2: float
    rho: float

    def __post_init__(self):
        if not self.sigma_n2 > 0:
            raise DomainError("nominal noise power must be positive")
        if not self.rho > 1:
            raise DomainError("noise uncertainty factor rho must exceed 1")

    def power(self, u):
        """Noise power sigma_n2 * rho^u at exponent(s) u in [-1, 1].

        Formed as sigma_n2 * exp(u ln rho), in place in the one array it
        returns: no ``pow`` per element and no temporary.
        """
        p = np.array(u, dtype=float)
        p *= math.log(self.rho)
        np.exp(p, out=p)
        p *= self.sigma_n2
        return p[()]


def rician_factor(theta_rad: float, law: RicianLaw, los: bool) -> float:
    """Rician factor k(theta) = k0 * exp(eta2 * theta) on LoS, 0 on NLoS."""
    if not (0 <= theta_rad <= math.pi / 2):
        raise DomainError("elevation angle must be in [0, pi/2] radians")
    if not los:
        return 0.0
    eta2 = (2.0 / math.pi) * math.log(law.k_half_pi / law.k0)
    return law.k0 * math.exp(eta2 * theta_rad)


def path_loss(d: float, pl: PathLoss) -> float:
    """Large-scale loss beta * d^(-alpha) for d > 0.

    The power law does not hold where that gain overflows a float, as
    d^(-alpha) does below 1 m at a large alpha: ``DomainError``.
    """
    if d <= 0:
        raise DomainError("distance must be positive")
    try:
        loss = pl.beta * d ** (-pl.alpha)
    except OverflowError:
        loss = math.inf
    if loss == math.inf:
        raise DomainError(f"path loss beta * d^(-alpha) overflows at "
                          f"d = {d:g} m, alpha = {pl.alpha:g}")
    return loss


@dataclass(frozen=True)
class LinkStates:
    """The discrete states of one link in one mode, with their fading laws.

    State i occurs with probability probs[i] and is called labels[i]: "los"
    and "nlos" in mode "om"; "main/los", "main/nlos", "side/los" and
    "side/nlos" in mode "dm", by the receive lobe.  Its unit-mean fading
    power follows ``law``: "rician" with Rice factor params[i], or "gamma"
    with integer shape params[i].  Its mean received power per mW of
    transmit power is tx_gain * rx_gains[i] * losses[i], against the
    receiver's nominal noise power sigma_n2 (mW) in the band bandwidth_hz.
    A table is checked when it is built, so no kernel checks it again.
    """

    law: str
    labels: tuple[str, ...]
    probs: tuple[float, ...]
    params: tuple[float, ...]
    tx_gain: float
    rx_gains: tuple[float, ...]
    losses: tuple[float, ...]
    sigma_n2: float
    bandwidth_hz: float

    def __post_init__(self):
        if self.law not in ("rician", "gamma"):
            raise DomainError(f"unknown fading law {self.law!r}")
        if len({len(col) for col in (self.labels, self.probs, self.params,
                                     self.rx_gains, self.losses)}) != 1:
            raise DomainError("state table columns differ in length")
        if not all(0 <= p < math.inf if self.law == "rician" else
                   1 <= p <= GAMMA_SHAPE_MAX and float(p).is_integer()
                   for p in self.params):
            raise DomainError("a Rice factor must be finite and >= 0, a "
                              f"shape an integer in [1, {GAMMA_SHAPE_MAX}]")
        if not (all(v >= 0 for v in (*self.probs, self.tx_gain,
                                     *self.rx_gains, *self.losses))
                and self.sigma_n2 > 0 and self.bandwidth_hz > 0):
            raise DomainError("probabilities, gains and losses must be >= 0, "
                              "the noise power and the band > 0")

    def received(self, p_a: float) -> list[float]:
        """Mean received power of each state at transmit power p_a (mW)."""
        return [p_a * self.tx_gain * g * loss
                for g, loss in zip(self.rx_gains, self.losses)]


def link_states(scn: Scenario, mode: str, receiver: str) -> LinkStates:
    """State table of the link from ``scn.alice`` to "bob" or "willie".

    In mode "dm" Alice's beam is steered at Bob: Bob sees her main lobe,
    Willie her main lobe only inside it (``alice_main_lobe_covers_willie``)
    and her side lobe otherwise.  The receiver's own lobe is random, main
    with its pointing probability.
    """
    if mode not in ("om", "dm"):
        raise DomainError(f"unknown mode {mode!r}")
    if receiver not in ("bob", "willie"):
        raise DomainError(f"unknown receiver {receiver!r}")
    band = scn.band(mode)
    link = scn.link(scn.alice, getattr(scn, receiver))
    probs = (link.p_los, 1.0 - link.p_los)
    losses = (path_loss(link.d, band.pl_los), path_loss(link.d, band.pl_nlos))
    sigma_n2, w = scn.noise.sigma_n2, band.bandwidth_hz
    if mode == "om":
        return LinkStates("rician", ("los", "nlos"), probs, tuple(
            rician_factor(link.theta_rad, band.rician, los)
            for los in (True, False)), 1.0, (1.0, 1.0), losses, sigma_n2, w)
    a_tab = lobe_gains(scn.ant_alice)
    covered = receiver == "bob" or alice_main_lobe_covers_willie(
        scn.alice, scn.bob, scn.willie, scn.ant_alice)
    rx = lobe_gains(getattr(scn, f"ant_{receiver}"))
    return LinkStates(
        "gamma", ("main/los", "main/nlos", "side/los", "side/nlos"),
        tuple(p_lobe * p for p_lobe in (rx.p_main, rx.p_side) for p in probs),
        (band.nakagami.s_los, band.nakagami.s_nlos) * 2,
        a_tab.g_main if covered else a_tab.g_side,
        (rx.g_main,) * 2 + (rx.g_side,) * 2, losses * 2, sigma_n2, w)


def _check_point(states: LinkStates, p_a: float, rho: float) -> NoiseModel:
    """The operating point of a state-table kernel: p_a >= 0, and the
    noise model of the table's noise power at ``rho``."""
    if not p_a >= 0:
        raise DomainError("transmit power must be nonnegative")
    return NoiseModel(states.sigma_n2, rho)


# composite Gauss-Legendre rule: (panels, nodes per panel, nodes per panel
# of the error-estimate rule on the same panels)
_RULE = (4, 24, 16)
# ratio of consecutive panels graded toward the window start
_GRADE = 4.0
# half-width of every state's window in the amplitude b, around its centre
_HALF_WIDTH = 12.0
# the least branch-point distance the grading aims at: 1 / (4 delta) is
# finite from it on
_TINY = 2.0 ** -1025


@lru_cache(maxsize=None)
def _layout(rule: tuple[int, ...], graded: int) -> tuple[np.ndarray, ...]:
    """Nodes on [0, 1] of ``rule`` and of its estimate rule, then each
    rule's weights (zero at the other's nodes).

    The panels are the rule's uniform ones, the first of them split
    ``graded`` times geometrically toward 0.
    """
    panels, n, n_est = rule
    t, w = np.polynomial.legendre.leggauss(n)
    t_est, w_est = np.polynomial.legendre.leggauss(n_est)
    first = 1.0 / panels
    edges = np.concatenate((
        [0.0], first * _GRADE ** -np.arange(graded, 0, -1.0),
        np.linspace(first, 1.0, panels)))
    half = 0.5 * np.diff(edges)[:, None]
    out = (edges[:-1, None] + half + half * np.concatenate((t, t_est)),
           half * np.concatenate((w, 0.0 * w_est)),
           half * np.concatenate((0.0 * w, w_est)))
    out = tuple(arr.ravel() for arr in out)
    for arr in out:
        arr.flags.writeable = False
    return out


@lru_cache(maxsize=None)
def _gamma_law(s: int) -> tuple[float, float]:
    """Mode m = sqrt(2 (2s - 1)) of the amplitude density of shape s and
    the log-density there, 1/2 - stirlerr(s) - ln sqrt(2 pi)
    + (s - 1/2) ln(1 - 1/(2s)) by ``specfun._stirlerr``: no s ln s term
    cancels against ln (s-1)!."""
    log_peak = (0.5 - _stirlerr(s) - 0.5 * math.log(2.0 * math.pi)
                + (s - 0.5) * math.log1p(-0.5 / s))
    return math.sqrt(2.0 * (2 * s - 1)), log_peak


class _StateRule(NamedTuple):
    """The fading rule of a state table.  Row i of ``x`` holds state i's
    fading power at the nodes and row i of ``dens`` its amplitude density
    there, times the window's width; ``w_val`` and ``w_est`` are the nodes'
    weights in the value and the estimate rule."""

    states: LinkStates
    lo: list[float]
    width: list[float]
    x: np.ndarray
    dens: np.ndarray
    w_val: np.ndarray
    w_est: np.ndarray

    def average(self, f: np.ndarray, what: str, atol: float, rtol: float,
                info) -> tuple[list[float], list[float]]:
        """Each state's average of the kernel values f (states x nodes)
        and its error estimate.

        An estimate above atol + rtol |average| raises ``QuadratureError``
        naming the metric ``what``, the state, ``info(i)`` and the window;
        an average that is not finite, where the kernel overflowed,
        ``DomainError``.
        """
        f = f * self.dens
        val = f @ self.w_val
        err = np.abs(val - f @ self.w_est).tolist()
        val = val.tolist()
        over = [e - atol - rtol * abs(v) if math.isfinite(v) else math.inf
                for v, e in zip(val, err)]
        i = max(range(len(over)), key=over.__getitem__)
        if over[i] > 0.0:
            law = self.states.law
            state = (f"{law} state {self.states.labels[i]!r}, "
                     f"{'k' if law == 'rician' else 's'} = "
                     f"{self.states.params[i]:g}, {info(i)}")
            if over[i] == math.inf:
                raise DomainError(f"{what} kernel overflows: {state}")
            raise QuadratureError(
                f"{what} fading average did not converge: {state}, window "
                f"b in [{self.lo[i]:.6g}, {self.lo[i] + self.width[i]:.6g}"
                f"], error estimate {err[i]:.3g} > "
                f"{atol + rtol * abs(val[i]):.3g}")
        return val, err


def _state_rule(states: LinkStates, branch, ends=None) -> _StateRule:
    """The composite Gauss rule ``_RULE`` on each state's fading window.

    State i of the table, of fading law "rician" with Rice factor
    k = params[i] or "gamma" with integer shape s = params[i], is
    integrated in its amplitude b = sqrt(k2 x) on
    [max(0, a - 12), a + 12], 24 wide whatever the parameter:

    - a Rician state has k2 = 2 (k+1), centre a = sqrt(2k) and density
      b exp(-(b - a)^2 / 2) i0e(a b), with the mass outside below 1e-30;
    - a gamma state has k2 = 4s, centre a = 2 sqrt(s) near the mode
      m = sqrt(2 (2s - 1)) and density f_x(b^2 / 4s) b / 2s, formed as
      the density at m (``_gamma_law``) times
      exp((m^2 / 2) (ln(1 + d) - d) - (b - m)^2 / 4), d = (b - m) / m,
      with ln(1 + d) as ln(b / m) below b = m / 2; the mass outside is at
      most e^-49 = 5.2e-22, at s = 1.

    ``ends[i]``, when given, cuts state i's window at x = ends[i], which is
    then the last panel edge.  The kernel is analytic but for a branch
    point at x = -branch[i]; its distance from the window start is at
    least branch[i] / e_i of the window's width in x, where e_i is the cut
    ends[i] when given and finite and else the window's end in x, and so
    at least the square root of that in b.  The first panel is split
    geometrically toward the start until it is no wider than the smallest
    such distance, or than 2^-1025 where that is smaller (a branch point
    at 0); an empty window (a cut at 0) is not split for.
    """
    rician = states.law == "rician"
    lo, width, cols = [], [], []
    rel = math.inf
    for i, p in enumerate(states.params):
        cut = math.inf if ends is None else ends[i]
        a, k2 = ((math.sqrt(2.0 * p), 2.0 * (p + 1.0)) if rician
                 else (2.0 * math.sqrt(p), 4.0 * p))
        start = max(a - _HALF_WIDTH, 0.0)
        end = min(a + _HALF_WIDTH, math.sqrt(k2 * cut))
        e = cut if cut < math.inf else end * end / k2
        if branch[i] < math.inf and e > 0.0:
            rel = min(rel, branch[i] / e)
        lo.append(start)
        width.append(max(end - start, 0.0))
        cols.append((a, k2) if rician else (a, k2, *_gamma_law(int(p))))
    delta = max(math.sqrt(rel), _TINY)
    graded = (0 if delta == math.inf
              else math.ceil(math.log(1.0 / (_RULE[0] * delta), _GRADE)))
    nodes, w_val, w_est = _layout(_RULE, max(0, graded))
    w = np.array(width)[:, None]
    b = np.array(lo)[:, None] + w * nodes  # states x nodes
    a, k2, *law = np.array(cols).T[..., None]
    if rician:
        dens = b * np.exp(-0.5 * (b - a) ** 2) * i0e(a * b)
    else:
        m, log_peak = law
        d = (b - m) / m
        with np.errstate(divide="ignore"):  # b = 0 on an empty window
            log_r = np.log1p(d)
            np.log(b / m, out=log_r, where=d < -0.5)
        half_m2 = 0.5 * k2 - 1.0  # m^2 / 2 = 2s - 1
        dens = np.exp(log_peak + half_m2 * (log_r - d) - 0.25 * (b - m) ** 2)
    return _StateRule(states, lo, width, b * b / k2, dens * w, w_val, w_est)


def sample_rician_power(k, rng: np.random.Generator, size=None, out=None):
    """Unit-mean Rician power draws; k may be a scalar or an array.  A
    scalar k = 0 draws the exponential law, any other k two normals; the
    draws fill ``out`` when it is given."""
    k = np.asarray(k, dtype=float)
    if np.any(k < 0):
        raise DomainError("Rician factor must be nonnegative")
    if k.ndim == 0 and k == 0.0:
        return rng.standard_exponential(size, out=out)
    shape = np.broadcast_shapes(k.shape, () if size is None else (size,))
    scale = 1.0 / np.sqrt(2.0 * (k + 1.0))
    out = rng.standard_normal(shape if out is None else None, out=out)
    out *= scale
    out += np.sqrt(k / (k + 1.0))
    np.square(out, out=out)
    g2 = rng.standard_normal(out.shape)
    g2 *= scale
    out += np.square(g2, out=g2)
    return out if out.ndim else float(out)


def sample_nakagami_power(s, rng: np.random.Generator, size=None, out=None):
    """Unit-mean gamma power draws, standard gamma(s) / s; s may be a scalar
    or an array of shapes.  The draws fill ``out`` when it is given."""
    s = np.asarray(s, dtype=float)
    if np.any(s < 1):
        raise DomainError("Nakagami shape must be >= 1")
    if out is None:
        return rng.standard_gamma(s, s.shape or None if size is None
                                  else size) / s
    rng.standard_gamma(s, out=out)
    out /= s
    return out


def sample_noise_exponent(rng: np.random.Generator, size=None):
    """Exponent u ~ U[-1, 1] of the log-uniform noise power sigma_n2 * rho^u.

    One draw of u serves every rho: ``NoiseModel.power(u)`` maps it.
    """
    return rng.uniform(-1.0, 1.0, size=size)

