"""Receiver-side performance: outage probability, ECR and ergodic capacity.

Each metric is a kernel over the state table of Alice's link to Bob, at
Bob's noise power and in the band it carries (``channel.link_states``):
``outage_over_states`` and ``csc_over_states``.  The scenario-level
functions build the table and call the kernel; the planner and the
validation grid build each table once and call the kernels directly.

In a Rician ("om") state the outage is a closed form built on the
exponential-type Marcum-Q surrogate plus the log-uniform noise average; its
exponent is formed in log space, so no power of it overflows, and where
the noise spans a wide range it is a difference of exponential integrals
Ei(-x) = -E1(x) (``specfun.expint_e1``, where ``scipy.special.expi``
served before).  In a gamma ("dm") state the exact regularized gamma CDF
is averaged over the noise with a fixed 64-node Gauss-Legendre rule, at
arguments formed in log space (``_noise_nodes``, which the surrogate's
Alzer outage uses too); the CDF of integer shape is a Poisson tail sum
(``specfun.gammainc_int``, where ``scipy.special.gammainc`` served above
shape 64).  The module needs numpy and ``specfun`` only; scipy is
imported by ``surrogate`` and the tests alone.  The ergodic (Shannon)
capacity averages ln(1 + SNR) over the fading with the composite Gauss
rule that the warden's DEP uses (``channel._state_rule``) and over the
noise with the same 64-node Gauss-Legendre rule; the integrand is
positive and nothing cancels, so low SNR keeps full relative accuracy.
The paper's closed-form mmWave outage, built on Alzer's bound of the gamma
CDF, is in ``surrogate``.
"""

from __future__ import annotations

import math

import numpy as np

from .channel import LinkStates, _check_point, _state_rule, link_states
from .errors import DomainError
from .scenario import Scenario
from .specfun import expint_e1, gammainc_int, marcum_mu_nu

__all__ = [
    "snr_threshold",
    "outage_over_states",
    "outage",
    "ecr",
    "csc_over_states",
    "csc",
]


def __getattr__(name):
    # bench/spans.py replaces each layer's ``integrate`` to count quadrature
    # calls; load scipy.integrate only when a traced run reads it.
    if name == "integrate":
        from scipy import integrate
        return integrate
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def snr_threshold(r_b: float, bandwidth_hz: float):
    """Outage SNR threshold gamma_th = 2^(R_b / W) - 1, inf on overflow."""
    if bandwidth_hz <= 0:
        raise DomainError("bandwidth must be positive")
    r_b = np.asarray(r_b, dtype=float)
    if np.any(r_b < 0):
        raise DomainError("target rate must be nonnegative")
    with np.errstate(over="ignore"):
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
    # ln(2 (k+1) sigma^2 / unit) as a sum of logs, so that no quotient
    # under- or overflows
    log_q = math.log(2.0 * (k + 1.0)) + math.log(sigma_n2) - math.log(unit)
    z = c.mu + 0.5 * c.nu * (log_ratio + log_q)
    if width < 4.0:
        zs = np.minimum(z[:, None] + 0.5 * width * _GL_NODES, _EI_Z_MAX)
        return 0.5 * (-np.expm1(-np.exp(zs)) @ _GL_WEIGHTS)
    zs = z[:, None] + [0.5 * width, -0.5 * width]
    # Ei(-x) = -E1(x); the clipped argument is never 0, where it is singular
    ei = -expint_e1(np.exp(np.minimum(np.maximum(zs, _EI_Z_MIN), _EI_Z_MAX)))
    ei += np.minimum(zs - _EI_Z_MIN, 0.0)
    out = 1.0 - (ei[:, 0] - ei[:, 1]) / width
    return np.minimum(np.maximum(out, 0.0), 1.0)


def _noise_nodes(log_scale, sigma_n2: float, rho: float):
    """x = e^log_scale sigma^2 rho^u at the Gauss-Legendre noise nodes u, one
    row per entry of ``log_scale``, formed in log space with ln x capped at
    700, where a CDF of x is 1, so that no product overflows."""
    return np.exp(np.minimum(log_scale[:, None] + (
        math.log(sigma_n2) + math.log(rho) * _GL_NODES), 700.0))


def _gamma_outage(s: int, unit: float, log_ratio, sigma_n2: float,
                  rho: float):
    """Exact outage of a gamma state at log(gamma_th / p_a), averaged over
    the noise by the Gauss-Legendre rule: the CDF at x = s gamma_th sigma^2
    rho^u / (p_a unit)."""
    x = _noise_nodes(log_ratio + (math.log(s) - math.log(unit)), sigma_n2,
                     rho)
    return 0.5 * (gammainc_int(s, x) @ _GL_WEIGHTS)


def _mixture(states: LinkStates, p_a, gamma_th, rho: float, state_outage):
    """Outage over the states; ``state_outage(param, unit,
    log(gamma_th / p_a), sigma_n2, rho)`` gives each state's; a state of
    mean received power 0 is in outage."""
    p_a, gamma_th = np.broadcast_arrays(np.asarray(p_a, dtype=float),
                                        np.asarray(gamma_th, dtype=float))
    _check_point(p_a.min(initial=0.0), rho)
    if not gamma_th.min(initial=0.0) >= 0:
        raise DomainError("gamma_th must be nonnegative")
    p, g = p_a.ravel(), gamma_th.ravel()
    # a silent transmitter is in outage in every state, a zero rate in none
    total = np.where(g > 0, sum(states.probs), 0.0)
    active = (p > 0) & (g > 0)
    if active.any():
        log_ratio = np.log(g[active]) - np.log(p[active])
        acc = 0.0
        for prob, param, unit in zip(states.probs, states.params,
                                     states.received(1.0)):
            acc = acc + prob * (1.0 if unit == 0.0 else state_outage(
                param, unit, log_ratio, states.sigma_n2, rho))
        total[active] = acc
    total = np.minimum(np.maximum(total, 0.0), 1.0)
    return float(total[0]) if p_a.ndim == 0 else total.reshape(p_a.shape)


def outage_over_states(states: LinkStates, p_a, gamma_th, rho: float):
    """Outage probability P(SNR < gamma_th) over the states of Bob's link.

    ``p_a`` and ``gamma_th`` broadcast, so callers can evaluate a whole
    power-rate grid in one shot; two scalars give a float.
    """
    return _mixture(states, p_a, gamma_th, rho,
                    _rician_outage if states.law == "rician"
                    else _gamma_outage)


def outage(scn: Scenario, mode: str) -> float:
    """Outage probability at the receiver in mode "om" or "dm" at the rate
    r_b, averaged over its link states."""
    bob = link_states(scn, mode, "bob")
    return outage_over_states(bob, scn.p_a,
                              snr_threshold(scn.r_b, bob.bandwidth_hz),
                              scn.noise.rho)


def ecr(scn: Scenario, mode: str) -> float:
    """Effective covert rate R_b * (1 - P_out) in bits/s."""
    return scn.r_b * (1.0 - outage(scn, mode))


# largest error estimate a state's capacity average may carry, relative
# to the average
_REL_TOL = 1e-9


def csc_over_states(states: LinkStates, p_a: float, rho: float) -> float:
    """Ergodic covert Shannon capacity (bits/s) over the states of Bob's
    link, in its band W = ``states.bandwidth_hz``.

    A state with mean SNR g at the nominal noise ``states.sigma_n2``
    contributes W / ln 2 E[ln(1 + g x rho^-u)], over its fading power x
    and the noise exponent u ~ U[-1, 1]: the fading rule of
    ``channel._state_rule``, graded toward the window start by the
    branch point x = -1 / (g rho) of the logarithm at u = -1, and the
    64-node Gauss-Legendre rule in u.  An error estimate above 1e-9 of a
    state's value raises ``QuadratureError`` naming the state.
    """
    _check_point(p_a, rho)
    if p_a == 0.0:
        return 0.0
    gains = [unit / states.sigma_n2 for unit in states.received(p_a)]
    rule = _state_rule(states, [1.0 / (g * rho) if g > 0.0 else math.inf
                                for g in gains])
    noise = rho ** -_GL_NODES
    with np.errstate(over="ignore", invalid="ignore"):
        # state by state: nodes x noise nodes, not states x both
        f = np.array([np.log1p(np.outer(g * x, noise)) @ (0.5 * _GL_WEIGHTS)
                      for g, x in zip(gains, rule.x)])
        val, _ = rule.average(f, "capacity", 0.0, _REL_TOL,
                              lambda i: f"mean SNR {gains[i]:.6g}")
    return (states.bandwidth_hz / math.log(2.0)
            * float(np.dot(states.probs, val)))


def csc(scn: Scenario, mode: str) -> float:
    """Ergodic covert Shannon capacity (bits/s) in mode "om" or "dm"."""
    return csc_over_states(link_states(scn, mode, "bob"), scn.p_a,
                           scn.noise.rho)
