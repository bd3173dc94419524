"""Receiver-side performance: outage probability, ECR and ergodic capacity.

The microwave outage is a closed form built on the exponential-type Marcum-Q
surrogate plus the log-uniform noise average; the mmWave outage averages the
exact regularized gamma CDF over the noise with a fixed 64-node Gauss-Legendre
rule.  The ergodic (Shannon) capacity integrates the dilogarithm kernel
spence(1 + c y) against the exact fading density by adaptive quadrature.  The
density is a float -> float function built once per channel state
(``rician_scalar_pdf`` / ``nakagami_scalar_pdf``), so the integrand does plain
float arithmetic and its domain is checked once, before the quadrature.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import integrate, special

from .channel import (
    nakagami_scalar_pdf,
    nakagami_xi,
    path_loss,
    rician_factor,
    rician_scalar_pdf,
)
from .errors import DomainError, QuadratureError
from .geometry import lobe_gains
from .scenario import NodePosition, Scenario
from .specfun import exp_integral_ei, marcum_mu_nu

__all__ = [
    "snr_threshold",
    "outage_om",
    "outage_dm",
    "outage_dm_closed_form",
    "outage",
    "ecr",
    "csc_om",
    "csc_dm",
    "csc",
]


def snr_threshold(r_b: float, bandwidth_hz: float):
    """Outage SNR threshold gamma_th = 2^(R_b / W) - 1."""
    if bandwidth_hz <= 0:
        raise DomainError("bandwidth must be positive")
    r_b = np.asarray(r_b, dtype=float)
    if np.any(r_b < 0):
        raise DomainError("target rate must be nonnegative")
    out = np.expm1(np.log(2.0) * r_b / bandwidth_hz)
    return out[()] if r_b.ndim == 0 else out


def _noise_bounds(scn: Scenario, rho: float | None) -> tuple[float, float, float]:
    rho = scn.noise.rho if rho is None else rho
    if rho <= 1:
        raise DomainError("noise uncertainty factor rho must exceed 1")
    return rho, scn.noise.sigma_n2 * rho, scn.noise.sigma_n2 / rho


def outage_om(scn: Scenario, alice: NodePosition | None = None,
              p_a=None, gamma_th=None, rho: float | None = None):
    """Outage probability at the receiver in the microwave mode.

    ``p_a`` and ``gamma_th`` broadcast, so callers can evaluate a whole
    power-rate grid in one shot.
    """
    alice = alice if alice is not None else scn.alice
    p_a = np.asarray(scn.p_a if p_a is None else p_a, dtype=float)
    gamma_th = np.asarray(
        snr_threshold(scn.r_b, scn.om.bandwidth_hz) if gamma_th is None
        else gamma_th, dtype=float)
    if np.any(p_a < 0) or np.any(gamma_th < 0):
        raise DomainError("p_a and gamma_th must be nonnegative")
    rho, hi, lo = _noise_bounds(scn, rho)
    link = scn.link(alice, scn.bob)
    p_a_b, g_b = np.broadcast_arrays(p_a, gamma_th)
    scalar = p_a_b.ndim == 0
    p_a_b = np.atleast_1d(p_a_b).astype(float)
    g_b = np.atleast_1d(g_b).astype(float)
    total = np.zeros(p_a_b.shape)
    for los in (True, False):
        p_state = link.p_los if los else 1.0 - link.p_los
        loss = path_loss(link.d, scn.om.pathloss(los))
        k = rician_factor(link.theta_rad, scn.om.rician, los)
        c = marcum_mu_nu(math.sqrt(2.0 * k))
        prob = np.ones(p_a_b.shape)
        active = (p_a_b > 0) & (g_b > 0)
        if np.any(active):
            base = 2.0 * (k + 1.0) * g_b[active] / (p_a_b[active] * loss)
            f_hi = exp_integral_ei(
                -math.exp(c.mu) * (base * hi) ** (c.nu / 2.0)) / (
                c.nu * math.log(rho))
            f_lo = exp_integral_ei(
                -math.exp(c.mu) * (base * lo) ** (c.nu / 2.0)) / (
                c.nu * math.log(rho))
            prob[active] = np.clip(1.0 - f_hi + f_lo, 0.0, 1.0)
        prob[g_b == 0] = 0.0
        total += p_state * prob
    total = np.clip(total, 0.0, 1.0)
    return float(total[0]) if scalar else total.reshape(
        np.broadcast(p_a, gamma_th).shape)


# Gauss-Legendre rule for the bounded log-uniform noise average; the
# integrand is analytic in the log-noise variable, so 64 nodes are far
# beyond the accuracy needed anywhere in this package.
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(64)


def outage_dm(scn: Scenario, alice: NodePosition | None = None,
              p_a=None, gamma_th=None, rho: float | None = None):
    """Outage probability in the mmWave mode, averaged over the receiver's
    lobe state and the LoS/NLoS state.

    Evaluates the exact regularized gamma CDF under the log-uniform noise
    average by fixed-order quadrature; the binomial-exponential closed form
    is available as ``outage_dm_closed_form``.
    """
    alice = alice if alice is not None else scn.alice
    p_a = np.asarray(scn.p_a if p_a is None else p_a, dtype=float)
    gamma_th = np.asarray(
        snr_threshold(scn.r_b, scn.dm.bandwidth_hz) if gamma_th is None
        else gamma_th, dtype=float)
    if np.any(p_a < 0) or np.any(gamma_th < 0):
        raise DomainError("p_a and gamma_th must be nonnegative")
    rho, hi, lo = _noise_bounds(scn, rho)
    link = scn.link(alice, scn.bob)
    a_tab = lobe_gains(scn.ant_alice)
    b_tab = lobe_gains(scn.ant_bob)
    nak = scn.dm.nakagami
    # noise draws sigma_b^2 = sigma_n2 * rho^u with u uniform on [-1, 1]
    noise_nodes = scn.noise.sigma_n2 * rho ** _GL_NODES
    p_a_b, g_b = np.broadcast_arrays(p_a, gamma_th)
    scalar = p_a_b.ndim == 0
    p_a_b = np.atleast_1d(p_a_b).astype(float)
    g_b = np.atleast_1d(g_b).astype(float)
    flat_p = p_a_b.reshape(-1)
    flat_g = g_b.reshape(-1)
    total = np.zeros(flat_p.shape)
    for p_lobe, g_bob in ((b_tab.p_main, b_tab.g_main),
                          (b_tab.p_side, b_tab.g_side)):
        for los in (True, False):
            p_state = p_lobe * (link.p_los if los else 1.0 - link.p_los)
            loss = path_loss(link.d, scn.dm.pathloss(los))
            s = nak.shape(los)
            gain = a_tab.g_main * g_bob * loss
            prob = np.ones(flat_p.shape)
            active = (flat_p > 0) & (flat_g > 0)
            if np.any(active):
                arg = (s * flat_g[active, None] * noise_nodes[None, :]
                       / (flat_p[active, None] * gain))
                cdf = special.gammainc(s, arg)
                prob[active] = 0.5 * cdf @ _GL_WEIGHTS
            prob[flat_g == 0] = 0.0
            total += p_state * prob
    total = np.clip(total, 0.0, 1.0).reshape(p_a_b.shape)
    return float(total[0]) if scalar else total.reshape(
        np.broadcast(p_a, gamma_th).shape)


def outage_dm_closed_form(scn: Scenario, alice: NodePosition | None = None,
                          p_a=None, gamma_th=None, rho: float | None = None):
    """Binomial-exponential closed form of the mmWave outage probability.

    Built on the tight exponential bound of the gamma CDF; deviates from the
    exact mixture by up to about five absolute percentage points at
    mid-range outage levels, so use ``outage_dm`` for accuracy-sensitive
    work.
    """
    alice = alice if alice is not None else scn.alice
    p_a = np.asarray(scn.p_a if p_a is None else p_a, dtype=float)
    gamma_th = np.asarray(
        snr_threshold(scn.r_b, scn.dm.bandwidth_hz) if gamma_th is None
        else gamma_th, dtype=float)
    if np.any(p_a < 0) or np.any(gamma_th < 0):
        raise DomainError("p_a and gamma_th must be nonnegative")
    rho, hi, lo = _noise_bounds(scn, rho)
    link = scn.link(alice, scn.bob)
    a_tab = lobe_gains(scn.ant_alice)
    b_tab = lobe_gains(scn.ant_bob)
    nak = scn.dm.nakagami
    p_a_b, g_b = np.broadcast_arrays(p_a, gamma_th)
    scalar = p_a_b.ndim == 0
    p_a_b = np.atleast_1d(p_a_b).astype(float)
    g_b = np.atleast_1d(g_b).astype(float)
    total = np.zeros(p_a_b.shape)
    for p_lobe, g_bob in ((b_tab.p_main, b_tab.g_main),
                          (b_tab.p_side, b_tab.g_side)):
        for los in (True, False):
            p_state = p_lobe * (link.p_los if los else 1.0 - link.p_los)
            loss = path_loss(link.d, scn.dm.pathloss(los))
            s = nak.shape(los)
            xi = nakagami_xi(s)
            gain = a_tab.g_main * g_bob * loss
            prob = np.ones(p_a_b.shape)
            active = (p_a_b > 0) & (g_b > 0)
            if np.any(active):
                base = g_b[active] / (p_a_b[active] * gain)
                acc = np.ones(base.shape)
                for r in range(1, s + 1):
                    coef = math.comb(s, r) * (-1.0) ** r / (2.0 * math.log(rho))
                    acc = acc + coef * (exp_integral_ei(-r * xi * base * hi)
                                        - exp_integral_ei(-r * xi * base * lo))
                prob[active] = np.clip(acc, 0.0, 1.0)
            prob[g_b == 0] = 0.0
            total += p_state * prob
    total = np.clip(total, 0.0, 1.0)
    return float(total[0]) if scalar else total.reshape(
        np.broadcast(p_a, gamma_th).shape)


def outage(scn: Scenario, mode: str, alice: NodePosition | None = None,
           p_a=None, gamma_th=None, rho: float | None = None):
    if mode == "om":
        return outage_om(scn, alice=alice, p_a=p_a, gamma_th=gamma_th, rho=rho)
    if mode == "dm":
        return outage_dm(scn, alice=alice, p_a=p_a, gamma_th=gamma_th, rho=rho)
    raise DomainError(f"unknown mode {mode!r}")


def ecr(scn: Scenario, mode: str, alice: NodePosition | None = None,
        p_a=None, r_b=None, rho: float | None = None):
    """Effective covert rate R_b * (1 - P_out) in bits/s."""
    r_b = np.asarray(scn.r_b if r_b is None else r_b, dtype=float)
    gamma_th = snr_threshold(r_b, scn.band(mode).bandwidth_hz)
    p_out = outage(scn, mode, alice=alice, p_a=p_a, gamma_th=gamma_th, rho=rho)
    out = r_b * (1.0 - np.asarray(p_out))
    return float(out[()]) if out.ndim == 0 else out


def _li2_fading_average(unit_power: float, x: float, pdf) -> float:
    """Quadrature of Li2(-unit_power * x * y) against a unit-mean power pdf.

    ``pdf`` is a float -> float density from ``rician_scalar_pdf`` or
    ``nakagami_scalar_pdf``.  Li2(-c y) = spence(1 + c y) for c y >= 0, so
    the sign of c is checked once here instead of at every node.
    """
    if unit_power == 0.0:
        return 0.0
    c = unit_power * x
    if not c >= 0.0:
        raise DomainError("dilogarithm argument scale must be nonnegative")
    spence = special.spence

    def integrand(y):
        return spence(1.0 + c * y) * pdf(y)

    val, err = integrate.quad(integrand, 0.0, np.inf,
                              points=None, limit=300,
                              epsabs=1e-12, epsrel=1e-9)
    if not math.isfinite(val):
        raise QuadratureError("dilogarithm fading average did not converge")
    if abs(err) > 1e-6 * max(1.0, abs(val)):
        raise QuadratureError(
            f"dilogarithm fading average error estimate too large: {err:g}")
    return val


def csc_om(scn: Scenario, alice: NodePosition | None = None,
           p_a: float | None = None, rho: float | None = None) -> float:
    """Ergodic covert Shannon capacity (bits/s) in the microwave mode."""
    alice = alice if alice is not None else scn.alice
    p_a = scn.p_a if p_a is None else float(p_a)
    if p_a < 0:
        raise DomainError("transmit power must be nonnegative")
    if p_a == 0.0:
        return 0.0
    rho, hi, lo = _noise_bounds(scn, rho)
    link = scn.link(alice, scn.bob)
    w = scn.om.bandwidth_hz
    total = 0.0
    for los in (True, False):
        p_state = link.p_los if los else 1.0 - link.p_los
        loss = path_loss(link.d, scn.om.pathloss(los))
        k = rician_factor(link.theta_rad, scn.om.rician, los)
        unit = p_a * loss
        pdf = rician_scalar_pdf(k)
        f_lo = _li2_fading_average(unit, 1.0 / hi, pdf)
        f_hi = _li2_fading_average(unit, rho / scn.noise.sigma_n2, pdf)
        total += w * p_state * (f_lo - f_hi) / (2.0 * math.log(2.0) * math.log(rho))
    return max(0.0, total)


def csc_dm(scn: Scenario, alice: NodePosition | None = None,
           p_a: float | None = None, rho: float | None = None) -> float:
    """Ergodic covert Shannon capacity (bits/s) in the mmWave mode."""
    alice = alice if alice is not None else scn.alice
    p_a = scn.p_a if p_a is None else float(p_a)
    if p_a < 0:
        raise DomainError("transmit power must be nonnegative")
    if p_a == 0.0:
        return 0.0
    rho, hi, lo = _noise_bounds(scn, rho)
    link = scn.link(alice, scn.bob)
    a_tab = lobe_gains(scn.ant_alice)
    b_tab = lobe_gains(scn.ant_bob)
    nak = scn.dm.nakagami
    w = scn.dm.bandwidth_hz
    total = 0.0
    for p_lobe, g_bob in ((b_tab.p_main, b_tab.g_main),
                          (b_tab.p_side, b_tab.g_side)):
        for los in (True, False):
            p_state = p_lobe * (link.p_los if los else 1.0 - link.p_los)
            loss = path_loss(link.d, scn.dm.pathloss(los))
            s = nak.shape(los)
            unit = p_a * a_tab.g_main * g_bob * loss
            pdf = nakagami_scalar_pdf(s)
            f_lo = _li2_fading_average(unit, 1.0 / hi, pdf)
            f_hi = _li2_fading_average(unit, rho / scn.noise.sigma_n2, pdf)
            total += (w * p_state * (f_lo - f_hi)
                      / (2.0 * math.log(2.0) * math.log(rho)))
    return max(0.0, total)


def csc(scn: Scenario, mode: str, alice: NodePosition | None = None,
        p_a: float | None = None, rho: float | None = None) -> float:
    if mode == "om":
        return csc_om(scn, alice=alice, p_a=p_a, rho=rho)
    if mode == "dm":
        return csc_dm(scn, alice=alice, p_a=p_a, rho=rho)
    raise DomainError(f"unknown mode {mode!r}")
