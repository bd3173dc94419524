"""Receiver-side performance: outage probability, ECR and ergodic capacity.

Each metric is a kernel over the state table of Alice's link to Bob
(``channel.link_states``): ``outage_over_states`` and ``csc_over_states``.
The public functions build the table and call the kernel; the planner
builds it once per solve and calls the kernels directly.

In a Rician ("om") state the outage is a closed form built on the
exponential-type Marcum-Q surrogate plus the log-uniform noise average; its
exponent is formed in log space, so no power of it overflows.  In a gamma
("dm") state the exact regularized gamma CDF is averaged over the noise
with a fixed 64-node Gauss-Legendre rule; for integer shapes up to 64 the
CDF is a finite Poisson sum (``specfun.gammainc_int``).  The ergodic
(Shannon) capacity integrates the dilogarithm kernel spence(1 + c y)
against the exact fading density by adaptive quadrature.  The density is a
float -> float function built once per channel state
(``rician_scalar_pdf`` / ``nakagami_scalar_pdf``), so the integrand does
plain float arithmetic and its domain is checked once, before the
quadrature.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import integrate, special

from .channel import (
    LinkStates,
    link_states,
    nakagami_scalar_pdf,
    nakagami_xi,
    rician_scalar_pdf,
)
from .errors import DomainError, QuadratureError
from .scenario import NodePosition, Scenario
from .specfun import exp_integral_ei, gammainc_int, marcum_mu_nu

__all__ = [
    "snr_threshold",
    "outage_over_states",
    "outage_om",
    "outage_dm",
    "outage_dm_closed_form",
    "outage",
    "ecr",
    "csc_over_states",
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


# Gauss-Legendre rule for the bounded log-uniform noise average; the
# integrand is analytic in the log-noise variable, so 64 nodes are far
# beyond the accuracy needed anywhere in this package.
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(64)
# Ei(-e^z) is 0 in floating point from z = 6.7 on, and gamma + z below -40
_EI_Z_MAX, _EI_Z_MIN = 6.7, -40.0


def _rician_outage(k: float, unit: float, log_ratio, sigma_n2: float,
                   rho: float):
    """Surrogate outage of a Rician state at log(gamma_th / p_a).

    It is the mean of 1 - exp(-e^z), z = ln(e^mu (2 (k+1) gamma_th noise /
    (p_a unit))^(nu/2)), over the noise, where z spans nu ln(rho): the Ei
    difference below, or where that cancels (span < 4) a Gauss rule in z.
    """
    c = marcum_mu_nu(math.sqrt(2.0 * k))
    width = c.nu * math.log(rho)
    z = c.mu + 0.5 * c.nu * (
        log_ratio + math.log(2.0 * (k + 1.0) * sigma_n2 / unit))
    if width < 4.0:
        zs = np.minimum(z[:, None] + 0.5 * width * _GL_NODES, _EI_Z_MAX)
        return 0.5 * (-np.expm1(-np.exp(zs)) @ _GL_WEIGHTS)
    zs = z[:, None] + [0.5 * width, -0.5 * width]
    # the clipped argument is never 0, where Ei is singular
    ei = special.expi(-np.exp(np.minimum(np.maximum(zs, _EI_Z_MIN),
                                         _EI_Z_MAX)))
    ei += np.minimum(zs - _EI_Z_MIN, 0.0)
    out = 1.0 - (ei[:, 0] - ei[:, 1]) / width
    return np.minimum(np.maximum(out, 0.0), 1.0)


def _gamma_outage(s: int, unit: float, log_ratio, sigma_n2: float,
                  rho: float):
    """Exact outage of a gamma state at log(gamma_th / p_a), averaged over
    the noise by the Gauss-Legendre rule."""
    # s gamma_th / (p_a unit), capped where the CDF is 1 at every node
    scale = np.exp(np.minimum(log_ratio + math.log(s / unit), 700.0))
    x = scale[:, None] * (sigma_n2 * rho ** _GL_NODES)
    return 0.5 * (gammainc_int(s, x) @ _GL_WEIGHTS)


def _alzer_outage(s: int, unit: float, log_ratio, sigma_n2: float,
                  rho: float):
    """Outage of a gamma state under Alzer's bound of its CDF."""
    xi = nakagami_xi(s)
    base = np.exp(log_ratio) / unit
    acc = 1.0
    for r in range(1, s + 1):
        coef = math.comb(s, r) * (-1.0) ** r / (2.0 * math.log(rho))
        acc = acc + coef * (exp_integral_ei(-r * xi * base * (sigma_n2 * rho))
                            - exp_integral_ei(-r * xi * base * (sigma_n2 / rho)))
    return np.clip(acc, 0.0, 1.0)


def _mixture(states: LinkStates, p_a, gamma_th, sigma_n2: float, rho: float,
             state_outage):
    """Outage over the states; ``state_outage(param, unit,
    log(gamma_th / p_a), sigma_n2, rho)`` gives each state's."""
    p_a, gamma_th = np.broadcast_arrays(np.asarray(p_a, dtype=float),
                                        np.asarray(gamma_th, dtype=float))
    if (p_a < 0).any() or (gamma_th < 0).any():
        raise DomainError("p_a and gamma_th must be nonnegative")
    if rho <= 1:
        raise DomainError("noise uncertainty factor rho must exceed 1")
    p, g = p_a.ravel(), gamma_th.ravel()
    # a silent transmitter is in outage in every state, a zero rate in none
    total = np.where(g > 0, sum(states.probs), 0.0)
    active = (p > 0) & (g > 0)
    if active.any():
        log_ratio = np.log(g[active]) - np.log(p[active])
        acc = 0.0
        for prob, param, unit in zip(states.probs, states.params,
                                     states.received(1.0)):
            acc = acc + prob * state_outage(param, unit, log_ratio, sigma_n2,
                                            rho)
        total[active] = acc
    total = np.minimum(np.maximum(total, 0.0), 1.0)
    return float(total[0]) if p_a.ndim == 0 else total.reshape(p_a.shape)


def outage_over_states(states: LinkStates, p_a, gamma_th, sigma_n2: float,
                       rho: float):
    """Outage probability P(SNR < gamma_th) over the states of Bob's link.

    ``p_a`` and ``gamma_th`` broadcast, so callers can evaluate a whole
    power-rate grid in one shot; two scalars give a float.
    """
    return _mixture(states, p_a, gamma_th, sigma_n2, rho,
                    _rician_outage if states.law == "rician"
                    else _gamma_outage)


def outage(scn: Scenario, mode: str, alice: NodePosition | None = None,
           p_a=None, gamma_th=None, rho: float | None = None):
    """Outage probability at the receiver in mode "om" or "dm", averaged
    over its link states; ``gamma_th`` defaults to that of the rate r_b."""
    states = link_states(scn, mode, alice, "bob")
    if gamma_th is None:
        gamma_th = snr_threshold(scn.r_b, scn.band(mode).bandwidth_hz)
    return outage_over_states(states, scn.p_a if p_a is None else p_a,
                              gamma_th, scn.noise.sigma_n2,
                              scn.noise.rho if rho is None else rho)


def outage_om(scn: Scenario, alice: NodePosition | None = None,
              p_a=None, gamma_th=None, rho: float | None = None):
    """Outage probability in the microwave mode (Marcum-Q surrogate)."""
    return outage(scn, "om", alice=alice, p_a=p_a, gamma_th=gamma_th, rho=rho)


def outage_dm(scn: Scenario, alice: NodePosition | None = None,
              p_a=None, gamma_th=None, rho: float | None = None):
    """Outage probability in the mmWave mode: the exact gamma CDF under the
    noise average; the binomial-exponential closed form is
    ``outage_dm_closed_form``."""
    return outage(scn, "dm", alice=alice, p_a=p_a, gamma_th=gamma_th, rho=rho)


def outage_dm_closed_form(scn: Scenario, alice: NodePosition | None = None,
                          p_a=None, gamma_th=None, rho: float | None = None):
    """Binomial-exponential closed form of the mmWave outage probability.

    Built on the tight exponential bound of the gamma CDF; deviates from the
    exact mixture by up to about five absolute percentage points at
    mid-range outage levels, so use ``outage_dm`` for accuracy-sensitive
    work.
    """
    if gamma_th is None:
        gamma_th = snr_threshold(scn.r_b, scn.dm.bandwidth_hz)
    return _mixture(link_states(scn, "dm", alice, "bob"),
                    scn.p_a if p_a is None else p_a, gamma_th,
                    scn.noise.sigma_n2, scn.noise.rho if rho is None else rho,
                    _alzer_outage)


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


def csc_over_states(states: LinkStates, p_a: float, sigma_n2: float,
                    rho: float, bandwidth_hz: float) -> float:
    """Ergodic covert Shannon capacity (bits/s) over the states of Bob's
    link, each averaged by QUADPACK against its exact fading density."""
    if p_a < 0:
        raise DomainError("transmit power must be nonnegative")
    if p_a == 0.0:
        return 0.0
    if rho <= 1:
        raise DomainError("noise uncertainty factor rho must exceed 1")
    pdf_of = rician_scalar_pdf if states.law == "rician" else nakagami_scalar_pdf
    total = 0.0
    for prob, param, unit in zip(states.probs, states.params,
                                 states.received(p_a)):
        pdf = pdf_of(param)
        f_lo = _li2_fading_average(unit, 1.0 / (sigma_n2 * rho), pdf)
        f_hi = _li2_fading_average(unit, rho / sigma_n2, pdf)
        total += (bandwidth_hz * prob * (f_lo - f_hi)
                  / (2.0 * math.log(2.0) * math.log(rho)))
    return max(0.0, total)


def csc(scn: Scenario, mode: str, alice: NodePosition | None = None,
        p_a: float | None = None, rho: float | None = None) -> float:
    """Ergodic covert Shannon capacity (bits/s) in mode "om" or "dm"."""
    states = link_states(scn, mode, alice, "bob")
    return csc_over_states(states, scn.p_a if p_a is None else float(p_a),
                           scn.noise.sigma_n2, scn.noise.rho if rho is None
                           else rho, scn.band(mode).bandwidth_hz)


def csc_om(scn: Scenario, alice: NodePosition | None = None,
           p_a: float | None = None, rho: float | None = None) -> float:
    """Ergodic covert Shannon capacity (bits/s) in the microwave mode."""
    return csc(scn, "om", alice=alice, p_a=p_a, rho=rho)


def csc_dm(scn: Scenario, alice: NodePosition | None = None,
           p_a: float | None = None, rho: float | None = None) -> float:
    """Ergodic covert Shannon capacity (bits/s) in the mmWave mode."""
    return csc(scn, "dm", alice=alice, p_a=p_a, rho=rho)
