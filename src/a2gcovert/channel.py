"""Fading, path loss and noise-uncertainty layer.

All powers are linear milliwatts; all gain/loss factors are linear ratios.
Distribution evaluators are pure; samplers take an explicit numpy Generator.
``link_states`` describes the discrete states of one link (LoS, and in mode
"dm" the receive lobe) once; every primary metric is evaluated over it.
``_state_rule`` is the one fading quadrature: a composite Gauss-Legendre
rule on a fixed window per state, which the warden's DEP and the ergodic
capacity both average their kernels with.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING, NamedTuple

import numpy as np
from scipy import special

from .errors import DomainError, QuadratureError
from .geometry import NodePosition, alice_main_lobe_covers_willie, lobe_gains
from .specfun import bessel_i0_scaled, marcum_q1_approx, marcum_q1_exact

if TYPE_CHECKING:
    from .scenario import Scenario

__all__ = [
    "RicianLaw",
    "NakagamiLaw",
    "PathLoss",
    "NoiseModel",
    "LinkStates",
    "link_states",
    "nakagami_xi",
    "rician_factor",
    "rician_power_pdf",
    "rician_power_cdf",
    "nakagami_power_pdf",
    "nakagami_power_cdf",
    "noise_power_pdf",
    "path_loss",
    "sample_rician_power",
    "sample_nakagami_power",
    "sample_noise_exponent",
    "sample_noise_power",
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
    """Integer Nakagami shape per channel state (LoS / NLoS)."""

    s_los: int
    s_nlos: int

    def __post_init__(self):
        for name in ("s_los", "s_nlos"):
            v = getattr(self, name)
            if not (isinstance(v, (int, np.integer)) and v >= 1):
                raise DomainError(f"{name} must be an integer >= 1, got {v!r}")

    def shape(self, los: bool) -> int:
        return self.s_los if los else self.s_nlos


@dataclass(frozen=True)
class PathLoss:
    """Power-law path loss L(d) = beta * d^(-alpha)."""

    beta: float
    alpha: float

    def __post_init__(self):
        if self.beta <= 0 or self.alpha <= 0:
            raise DomainError("path-loss constants must be positive")


@dataclass(frozen=True)
class NoiseModel:
    """Bounded log-uniform noise power around the nominal sigma_n2 (mW)."""

    sigma_n2: float
    rho: float

    def __post_init__(self):
        if self.sigma_n2 <= 0:
            raise DomainError("nominal noise power must be positive")
        if self.rho < 1:
            raise DomainError("noise uncertainty factor rho must be >= 1")

    @property
    def support(self) -> tuple[float, float]:
        return (self.sigma_n2 / self.rho, self.sigma_n2 * self.rho)

    def power(self, u):
        """Noise power sigma_n2 * rho^u at exponent(s) u in [-1, 1]."""
        return self.sigma_n2 * self.rho ** u


def nakagami_xi(s: int) -> float:
    """Alzer constant xi = S * (S!)^(-1/S) of the tight gamma-CDF bound."""
    return s * math.factorial(s) ** (-1.0 / s)


def rician_factor(theta_rad: float, law: RicianLaw, los: bool) -> float:
    """Rician factor k(theta) = k0 * exp(eta2 * theta) on LoS, 0 on NLoS."""
    if not (0 <= theta_rad <= math.pi / 2):
        raise DomainError("elevation angle must be in [0, pi/2] radians")
    if not los:
        return 0.0
    eta2 = (2.0 / math.pi) * math.log(law.k_half_pi / law.k0)
    return law.k0 * math.exp(eta2 * theta_rad)


def rician_power_pdf(x, k: float):
    """PDF of the unit-mean Rician power |h|^2 (noncentral chi-square)."""
    if k < 0:
        raise DomainError("Rician factor must be nonnegative")
    x = np.asarray(x, dtype=float)
    if np.any(x < 0):
        raise DomainError("power must be nonnegative")
    arg = 2.0 * np.sqrt(k * (k + 1.0) * x)
    # log-space assembly: (k+1) * exp(-k - (k+1)x + arg) * i0e(arg)
    out = (k + 1.0) * np.exp(-k - (k + 1.0) * x + arg) * bessel_i0_scaled(arg)
    return out[()] if x.ndim == 0 else out


def rician_power_cdf(x: float, k: float, exact: bool = True) -> float:
    """CDF of the unit-mean Rician power, 1 - Q1(sqrt(2k), sqrt(2(k+1)x))."""
    if x < 0 or k < 0:
        raise DomainError("rician_power_cdf requires x >= 0 and k >= 0")
    a = math.sqrt(2.0 * k)
    b = math.sqrt(2.0 * (k + 1.0) * x)
    q = marcum_q1_exact(a, b) if exact else marcum_q1_approx(a, b)
    return min(1.0, max(0.0, 1.0 - q))


def nakagami_power_pdf(x, s: int):
    """PDF of the unit-mean gamma power: shape s, scale 1/s."""
    x = np.asarray(x, dtype=float)
    out = np.where(
        x > 0,
        np.exp(
            s * math.log(s)
            + (s - 1) * np.log(np.where(x > 0, x, 1.0))
            - s * x
            - special.gammaln(s)
        ),
        float(s == 1),
    )
    return out[()] if x.ndim == 0 else out


def nakagami_power_cdf(x, s: int):
    """Alzer/binomial CDF sum_{r=0..S} C(S,r) (-1)^r exp(-r xi x)."""
    if not (isinstance(s, (int, np.integer)) and s >= 1):
        raise DomainError("Nakagami shape must be an integer >= 1")
    x = np.asarray(x, dtype=float)
    if np.any(x < 0):
        raise DomainError("power must be nonnegative")
    xi = nakagami_xi(int(s))
    out = np.zeros_like(x)
    for r in range(0, s + 1):
        out = out + math.comb(s, r) * (-1.0) ** r * np.exp(-r * xi * x)
    out = np.clip(out, 0.0, 1.0)
    return out[()] if x.ndim == 0 else out


def noise_power_pdf(x, n: NoiseModel):
    """Log-uniform density 1/(2 ln(rho) x) on [sigma^2/rho, rho sigma^2]."""
    x = np.asarray(x, dtype=float)
    lo, hi = n.support
    if n.rho == 1.0:
        raise DomainError("density degenerates to a point mass at rho = 1")
    out = np.where((x >= lo) & (x <= hi), 1.0 / (2.0 * math.log(n.rho) * x), 0.0)
    return out[()] if x.ndim == 0 else out


def path_loss(d: float, pl: PathLoss) -> float:
    """Large-scale loss beta * d^(-alpha) for d > 0."""
    if d <= 0:
        raise DomainError("distance must be positive")
    return pl.beta * d ** (-pl.alpha)


@dataclass(frozen=True)
class LinkStates:
    """The discrete states of one link in one mode, with their fading laws.

    State i occurs with probability probs[i] and is called labels[i]: "los"
    and "nlos" in mode "om"; "main/los", "main/nlos", "side/los" and
    "side/nlos" in mode "dm", by the receive lobe.  Its unit-mean fading
    power follows ``law``: "rician" with Rice factor params[i], or "gamma"
    with integer shape params[i].  Its mean received power per mW of
    transmit power is tx_gain * rx_gains[i] * losses[i].
    """

    law: str
    labels: tuple[str, ...]
    probs: tuple[float, ...]
    params: tuple[float, ...]
    tx_gain: float
    rx_gains: tuple[float, ...]
    losses: tuple[float, ...]

    def received(self, p_a: float) -> list[float]:
        """Mean received power of each state at transmit power p_a (mW)."""
        return [p_a * self.tx_gain * g * loss
                for g, loss in zip(self.rx_gains, self.losses)]


def link_states(scn: Scenario, mode: str, alice: NodePosition | None,
                receiver: str) -> LinkStates:
    """State table of the link from ``alice`` (None: ``scn.alice``) to
    "bob" or "willie".

    In mode "dm" Alice's beam is steered at Bob: Bob sees her main lobe,
    Willie her main lobe only inside it (``alice_main_lobe_covers_willie``)
    and her side lobe otherwise.  The receiver's own lobe is random, main
    with its pointing probability.
    """
    if mode not in ("om", "dm"):
        raise DomainError(f"unknown mode {mode!r}")
    if receiver not in ("bob", "willie"):
        raise DomainError(f"unknown receiver {receiver!r}")
    alice = scn.alice if alice is None else alice
    band = scn.band(mode)
    link = scn.link(alice, getattr(scn, receiver))
    probs = (link.p_los, 1.0 - link.p_los)
    losses = (path_loss(link.d, band.pl_los), path_loss(link.d, band.pl_nlos))
    if mode == "om":
        return LinkStates("rician", ("los", "nlos"), probs, tuple(
            rician_factor(link.theta_rad, band.rician, los)
            for los in (True, False)), 1.0, (1.0, 1.0), losses)
    a_tab = lobe_gains(scn.ant_alice)
    covered = receiver == "bob" or alice_main_lobe_covers_willie(
        alice, scn.bob, scn.willie, scn.ant_alice)
    rx = lobe_gains(getattr(scn, f"ant_{receiver}"))
    return LinkStates(
        "gamma", ("main/los", "main/nlos", "side/los", "side/nlos"),
        tuple(p_lobe * p for p_lobe in (rx.p_main, rx.p_side) for p in probs),
        (band.nakagami.s_los, band.nakagami.s_nlos) * 2,
        a_tab.g_main if covered else a_tab.g_side,
        (rx.g_main,) * 2 + (rx.g_side,) * 2, losses * 2)


def _composite_rule(panels: int, n: int, n_est: int) -> tuple[int, ...]:
    """A composite Gauss-Legendre rule: n nodes on each of ``panels``
    panels, and n_est nodes on the same panels for the error estimate."""
    return panels, n, n_est


_RULE = _composite_rule(panels=4, n=24, n_est=16)
# ratio of consecutive panels graded toward the window start
_GRADE = 4.0
# half-width of the Rician window in the amplitude b, around sqrt(2k)
_RICIAN_HALF_WIDTH = 12.0
# probability left out below and above the gamma window
_GAMMA_TAIL = 1e-18


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
def _gamma_law(s: int) -> tuple[float, float, float]:
    """Log-density constant and the window's quantiles for shape s."""
    return (s * math.log(s) - math.lgamma(s),
            float(special.gammaincinv(s, _GAMMA_TAIL)) / s,
            float(special.gammainccinv(s, _GAMMA_TAIL)) / s)


class _StateRule(NamedTuple):
    """The fading rule of a list of states.  Row i of ``x`` holds state i's
    fading power at the nodes and row i of ``dens`` its density there,
    times the window's width; ``w_val`` and ``w_est`` are the nodes' weights
    in the value and the estimate rule."""

    law: str
    params: tuple[float, ...] | list[float]
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
        naming the metric ``what``, the state, ``info(i)`` and the window.
        """
        f = f * self.dens
        val = f @ self.w_val
        err = np.abs(val - f @ self.w_est).tolist()
        val = val.tolist()
        over = [e - atol - rtol * abs(v) for v, e in zip(val, err)]
        i = max(range(len(over)), key=over.__getitem__)
        if over[i] > 0.0:
            name, var = ("k", "b") if self.law == "rician" else ("s", "x")
            raise QuadratureError(
                f"{what} fading average did not converge: {self.law} state "
                f"{name} = {self.params[i]:g}, {info(i)}, window {var} in "
                f"[{self.lo[i]:.6g}, {self.lo[i] + self.width[i]:.6g}], error "
                f"estimate {err[i]:.3g} > {atol + rtol * abs(val[i]):.3g}")
        return val, err


def _state_rule(rule: tuple[int, ...], law: str, params, branch,
                ends=None) -> _StateRule:
    """The composite Gauss rule ``rule`` on each state's fading window.

    State i has the fading law ``law`` ("rician" with Rice factor
    params[i], or "gamma" with integer shape params[i]):

    - a Rician state is integrated in the amplitude b = sqrt(2 (k+1) x),
      where the density is b exp(-(b - a)^2 / 2) i0e(a b) with
      a = sqrt(2k), on [max(0, a - 12), a + 12]: 24 wide for every k, with
      the mass outside below 1e-30;
    - a gamma state is integrated in x between the law's 1e-18 quantiles.

    ``ends[i]``, when given, cuts state i's window at x = ends[i], which is
    then the last panel edge.  The kernel is analytic but for a branch
    point at x = -branch[i]; its distance from the window start is at
    least branch[i] / e_i of the window's width in x, where e_i is the cut
    ends[i] when given and else the window's end in x, and at least the
    square root of that in b.  The first panel is split geometrically
    toward the start until it is no wider than the smallest such distance.
    """
    rician = law == "rician"
    lo, width, cols = [], [], []
    rel = math.inf
    for i, p in enumerate(params):
        cut = math.inf if ends is None else ends[i]
        if rician:
            if p < 0:
                raise DomainError("Rician factor must be nonnegative")
            a = math.sqrt(2.0 * p)
            k2 = 2.0 * (p + 1.0)
            start = max(a - _RICIAN_HALF_WIDTH, 0.0)
            end = min(a + _RICIAN_HALF_WIDTH, math.sqrt(k2 * cut))
            x_end = end * end / k2
            cols.append((a, k2))
        else:
            if p < 1:
                raise DomainError("Nakagami shape must be >= 1")
            const, start, end = _gamma_law(int(p))
            end = x_end = min(cut, end)
            cols.append((const, p))
        if branch[i] < math.inf:
            rel = min(rel, branch[i] / (x_end if ends is None else cut))
        lo.append(start)
        width.append(max(end - start, 0.0))
    delta = math.sqrt(rel) if rician else rel
    graded = (0 if delta == math.inf
              else math.ceil(math.log(1.0 / (rule[0] * delta), _GRADE)))
    nodes, w_val, w_est = _layout(rule, max(0, graded))
    w = np.array(width)[:, None]
    y = np.array(lo)[:, None] + w * nodes  # states x nodes
    if rician:
        a, k2 = np.array(cols).T[..., None]
        dens = y * np.exp(-0.5 * (y - a) ** 2) * special.i0e(a * y)
        x = y * y / k2
    else:
        const, s = np.array(cols).T[..., None]
        dens = np.exp(const + (s - 1.0) * np.log(y) - s * y)
        x = y
    return _StateRule(law, params, lo, width, x, dens * w, w_val, w_est)


def sample_rician_power(k, rng: np.random.Generator, size=None):
    """Unit-mean Rician power draws; k may be a scalar or an array."""
    k = np.asarray(k, dtype=float)
    if np.any(k < 0):
        raise DomainError("Rician factor must be nonnegative")
    shape = np.broadcast_shapes(k.shape, () if size is None else (size,))
    g1 = rng.standard_normal(shape)
    g2 = rng.standard_normal(shape)
    scale = 1.0 / np.sqrt(2.0 * (k + 1.0))
    los = np.sqrt(k / (k + 1.0))
    out = (los + g1 * scale) ** 2 + (g2 * scale) ** 2
    return out if size is not None or k.ndim else float(out)


def sample_nakagami_power(s, rng: np.random.Generator, size=None):
    """Unit-mean gamma power draws; s may be a scalar or an array of shapes."""
    s = np.asarray(s, dtype=float)
    if np.any(s < 1):
        raise DomainError("Nakagami shape must be >= 1")
    out = rng.gamma(shape=s, scale=1.0 / s, size=size if size is not None else s.shape or None)
    return out


def sample_noise_exponent(rng: np.random.Generator, size=None):
    """Exponent u ~ U[-1, 1] of the log-uniform noise power sigma_n2 * rho^u.

    One draw of u serves every rho: ``NoiseModel.power(u)`` maps it.
    """
    return rng.uniform(-1.0, 1.0, size=size)


def sample_noise_power(n: NoiseModel, rng: np.random.Generator, size=None):
    """Log-uniform noise power sigma^2 = sigma_n2 * rho^u with u ~ U[-1, 1]."""
    return n.power(sample_noise_exponent(rng, size))
