"""Fading, path loss and noise-uncertainty layer.

All powers are linear milliwatts; all gain/loss factors are linear ratios.
Distribution evaluators are pure; samplers take an explicit numpy Generator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from .errors import DomainError
from .specfun import bessel_i0_scaled, marcum_q1_approx, marcum_q1_exact

__all__ = [
    "RicianLaw",
    "NakagamiLaw",
    "PathLoss",
    "NoiseModel",
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


def sample_noise_power(n: NoiseModel, rng: np.random.Generator, size=None):
    """Log-uniform noise power sigma^2 = sigma_n2 * rho^u with u ~ U[-1, 1]."""
    u = rng.uniform(-1.0, 1.0, size=size)
    return n.sigma_n2 * n.rho ** u
