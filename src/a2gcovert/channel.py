"""Fading, path loss and noise-uncertainty layer.

All powers are linear milliwatts; all gain/loss factors are linear ratios.
Distribution evaluators are pure; samplers take an explicit numpy Generator.
``link_states`` describes the discrete states of one link (LoS, and in mode
"dm" the receive lobe) once; every primary metric is evaluated over it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np
from scipy import special

from .errors import DomainError
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
    "rician_scalar_pdf",
    "rician_power_cdf",
    "nakagami_power_pdf",
    "nakagami_scalar_pdf",
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


def rician_scalar_pdf(k: float):
    """``rician_power_pdf`` at fixed k as a float -> float function of x >= 0.

    Built once per channel state for quadrature integrands: k is checked
    here, and each evaluation uses ``math`` and one scalar ``i0e`` call.
    """
    if k < 0:
        raise DomainError("Rician factor must be nonnegative")
    k1 = k + 1.0
    kk1 = k * k1
    exp, sqrt, i0e = math.exp, math.sqrt, special.i0e

    def pdf(x: float) -> float:
        arg = 2.0 * sqrt(kk1 * x)
        return k1 * exp(-k - k1 * x + arg) * i0e(arg)

    return pdf


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


def nakagami_scalar_pdf(s: int):
    """``nakagami_power_pdf`` at fixed s as a float -> float function of x.

    Built once per channel state for quadrature integrands: s >= 1 is
    checked here and the constant s ln s - ln Gamma(s) is folded in once.
    """
    if not s >= 1:
        raise DomainError("Nakagami shape must be >= 1")
    const = s * math.log(s) - math.lgamma(s)
    at_zero = float(s == 1)
    exp, log = math.exp, math.log

    def pdf(x: float) -> float:
        if x > 0:
            return exp(const + (s - 1) * log(x) - s * x)
        return at_zero

    return pdf


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
