"""Receiver-side performance: outage probability, ECR and ergodic capacity.

Each metric is a kernel over the state table of Alice's link to Bob, at
Bob's noise power and in the band it carries (``channel.link_states``):
``outage_over_states``, ``ecr_over_states`` and ``csc_over_states``.  The
scenario-level functions build the table and call the kernel; the planner
and the validation grid build each table once and call the kernels
directly.

Every noise average is ``_noise_average``: the mean over the log-uniform
noise of a function of a log variable, on 16-node Gauss-Legendre panels
at most 2 units of the integrand's own scale wide, where a span needs
more than one only where the integrand differs from a closed form.  In
the default scenario every span is one panel.  A fading law enters the
outage only as its power CDF in t = ln x, with that scale and the t
outside which it is 0 or 1 (``_rician_cdf``: the
exponential-type Marcum-Q surrogate; ``_gamma_cdf``: the exact CDF of
integer shape, ``specfun.gammainc_int``), and ``_mixture`` averages it
over the states and the noise.  The ergodic (Shannon) capacity averages
ln(1 + SNR) in ln SNR, over the fading by the DEP's rule
(``channel._state_rule``): nothing cancels, so low SNR keeps full
relative accuracy.  The module needs numpy and ``specfun`` only.  The
paper's closed-form mmWave outage, Alzer's bound of the gamma CDF as a
third law, is in ``surrogate``.
"""

from __future__ import annotations

import math

import numpy as np

from .channel import (_HALF_WIDTH, LinkStates, _check_point, _state_rule,
                      link_states)
from .errors import DomainError
from .scenario import Scenario
from .specfun import gammainc_int, marcum_mu_nu

__all__ = [
    "snr_threshold",
    "outage_over_states",
    "outage",
    "ecr_over_states",
    "ecr",
    "csc_over_states",
    "csc",
]


# bench/spans.py replaces each layer's ``integrate`` to count quadrature
# calls; no module calls it, so there is nothing to load
integrate = None


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


# One Gauss-Legendre panel of the log-uniform noise averages.  Each
# integrand is analytic in its log variable, and 16 nodes keep its mean to
# rounding on a panel up to _PANEL units of its own scale wide.  The
# weights are rounded to multiples of 2^-52, the middle pair taking the
# remainder, so that they sum to 2 exactly in any order: a constant
# integrand averages to itself.
_GL_NODES, _w = np.polynomial.legendre.leggauss(16)
_w = np.ldexp(np.round(np.ldexp(_w[:8], 52)), -52)
_w[7] = 1.0 - _w[:7].sum()
_GL_WEIGHTS = np.concatenate((_w, _w[::-1]))
_PANEL = 2.0
# ln of the level below which a CDF counts as 0, and its complement as 1
_LOG_TINY = math.log(1e-17)


def _noise_average(mid, half: float, f, scale: float, lo: float, hi: float,
                   outside=None):
    """Mean of f(mid + half u) over the noise exponent u ~ U[-1, 1], one
    entry per entry of ``mid``; f maps a (rows x nodes) array.

    A span 2 half up to _PANEL units of f's own ``scale`` wide is one
    16-node panel.  A wider one is integrated by equal panels at most that
    wide on [lo, hi] only, u in [u_lo, u_hi], outside which f is a closed
    form to rounding: ``outside(mid, half, u_lo, u_hi)`` gives the mean's
    part from there, by default a CDF's (0 below, 1 above).  Each panel is
    summed on its own, so that a constant f gives itself exactly.
    """
    if half * scale <= 0.5 * _PANEL:
        return 0.5 * (f(mid[:, None] + half * _GL_NODES) @ _GL_WEIGHTS)
    u_lo = np.clip((lo - mid) / half, -1.0, 1.0)
    u_hi = np.clip((hi - mid) / half, -1.0, 1.0)
    length = u_hi - u_lo
    n = max(1, math.ceil(float(length.max()) * half * scale / _PANEL))
    t = (half * length / n)[:, None] * (
        np.arange(n)[:, None] + 0.5 + 0.5 * _GL_NODES).ravel()
    t += (mid + half * u_lo)[:, None]
    rest = (0.5 * (1.0 - u_hi) if outside is None
            else outside(mid, half, u_lo, u_hi))
    panels = f(t).reshape(len(t), n, _GL_NODES.size) @ _GL_WEIGHTS
    return length * panels.sum(axis=1) / (4 * n) + rest


# 1 - exp(-e^z) is below 1e-17 from z = -40 down and 1 from z = 6.7 up
_Z_LO, _Z_HI = -40.0, 6.7


def _rician_cdf(k: float):
    """Surrogate power CDF of a Rician state, 1 - exp(-e^z) with z = mu +
    nu/2 (ln 2(k+1) + t) by the exponential-type Marcum-Q form, at scale
    nu/2 per unit of t = ln x, and the t where z leaves [-40, 6.7]."""
    c = marcum_mu_nu(math.sqrt(2.0 * k))
    log_q, half_nu = math.log(2.0 * (k + 1.0)), 0.5 * c.nu
    return (lambda t: -np.expm1(-np.exp(np.minimum(
        c.mu + half_nu * (log_q + t), _Z_HI))), half_nu,
        (_Z_LO - c.mu) / half_nu - log_q, (_Z_HI - c.mu) / half_nu - log_q)


def _gamma_cdf(s: int):
    """Exact power CDF P(s, s e^t) of a gamma state of integer shape s in
    t = ln x, at scale sqrt(s), ln(s x) capped at 700, where it is 1; and
    the t below which P(s, s x) <= (s x)^s / s! is under 1e-17, or where
    the amplitude window b = 2 sqrt(s x) of ``channel._state_rule``
    starts, and the t at its end, above which P is 1 to rounding."""
    log_s, root, half = math.log(s), math.sqrt(s), 0.5 * _HALF_WIDTH
    lo = (math.lgamma(s + 1.0) + _LOG_TINY) / s
    if root > half:
        lo = max(lo, 2.0 * math.log(root - half))
    return (lambda t: gammainc_int(s, np.exp(np.minimum(t + log_s, 700.0))),
            root, lo - log_s, 2.0 * math.log(root + half) - log_s)


def _mixture(states: LinkStates, p_a, gamma_th, rho: float, law):
    """Outage over the states: each state's power CDF, ``law(param) ->
    (F, scale, lo, hi)`` in t = ln x (``_noise_average``), averaged over
    the noise at x = gamma_th sigma^2 rho^u / (p_a unit), formed as a sum
    of logs so that no quotient under- or overflows; a state of mean
    received power 0 is in outage."""
    p_a, gamma_th = np.broadcast_arrays(np.asarray(p_a, dtype=float),
                                        np.asarray(gamma_th, dtype=float))
    _check_point(states, p_a.min(initial=0.0), rho)
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
            acc = acc + prob * (1.0 if unit == 0.0 else _noise_average(
                log_ratio + (math.log(states.sigma_n2) - math.log(unit)),
                math.log(rho), *law(param)))
        total[active] = acc
    total = np.minimum(np.maximum(total, 0.0), 1.0)
    return float(total[0]) if p_a.ndim == 0 else total.reshape(p_a.shape)


def outage_over_states(states: LinkStates, p_a, gamma_th, rho: float):
    """Outage probability P(SNR < gamma_th) over the states of Bob's link.

    ``p_a`` and ``gamma_th`` broadcast, so callers can evaluate a whole
    power-rate grid in one shot; two scalars give a float.
    """
    return _mixture(states, p_a, gamma_th, rho,
                    _rician_cdf if states.law == "rician" else _gamma_cdf)


def outage(scn: Scenario, mode: str) -> float:
    """Outage probability at the receiver in mode "om" or "dm" at the rate
    r_b, averaged over its link states."""
    bob = link_states(scn, mode, "bob")
    return outage_over_states(bob, scn.p_a,
                              snr_threshold(scn.r_b, bob.bandwidth_hz),
                              scn.noise.rho)


def ecr_over_states(states: LinkStates, p_a, r_b, rho: float):
    """Effective covert rate R_b * (1 - P_out) in bits/s over the states of
    Bob's link, in its band; ``p_a`` and ``r_b`` broadcast as in
    ``outage_over_states``."""
    return r_b * (1.0 - outage_over_states(
        states, p_a, snr_threshold(r_b, states.bandwidth_hz), rho))


def ecr(scn: Scenario, mode: str) -> float:
    """Effective covert rate R_b * (1 - P_out) in bits/s."""
    return ecr_over_states(link_states(scn, mode, "bob"), scn.p_a, scn.r_b,
                           scn.noise.rho)


# largest error estimate a state's capacity average may carry, relative
# to the average
_REL_TOL = 1e-9


# ln(1 + e^t) is e^t to rounding from t = -37 down and t from 37 up
_T_LO, _T_HI = -37.0, 37.0


def _log1p_exp_outside(mid, half: float, u_lo, u_hi):
    """The part of the noise mean of ln(1 + e^t), t = mid + half u, from
    u outside [u_lo, u_hi], in closed form: e^t below, t above."""
    below = (np.exp(mid + half * u_lo) - np.exp(mid - half)) / half
    # the mean of t above is at least _T_HI where there is a part above;
    # the bound keeps mid = -inf (a zero SNR) from giving 0 * inf
    above = (1.0 - u_hi) * np.maximum(mid + 0.5 * half * (1.0 + u_hi), _T_HI)
    return 0.5 * (below + above)


def csc_over_states(states: LinkStates, p_a: float, rho: float) -> float:
    """Ergodic covert Shannon capacity (bits/s) over the states of Bob's
    link, in its band W = ``states.bandwidth_hz``.

    A state with mean SNR g at the nominal noise ``states.sigma_n2``
    contributes W / ln 2 E[ln(1 + g x rho^-u)], over its fading power x
    and the noise exponent u ~ U[-1, 1]: the fading rule of
    ``channel._state_rule``, graded toward the window start by the
    branch point x = -1 / (g rho) of the logarithm at u = -1, and the
    noise rule ``_noise_average`` in t = ln(g x rho^-u), at scale 1/2 per
    unit of t, with ln(1 + e^t) as e^t below t = -37 and as t above 37
    where a span is wider than 4.  An error estimate above 1e-9 of a
    state's value raises ``QuadratureError`` naming the state.
    """
    _check_point(states, p_a, rho)
    if p_a == 0.0:
        return 0.0
    gains = [unit / states.sigma_n2 for unit in states.received(p_a)]
    rule = _state_rule(states, [1.0 / (g * rho) if g > 0.0 else math.inf
                                for g in gains])
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        # state by state: nodes x noise nodes, not states x both
        f = np.array([_noise_average(
            np.log(g * x), math.log(rho),
            lambda t: np.log1p(np.exp(t, out=t), out=t), 0.5, _T_LO, _T_HI,
            _log1p_exp_outside) for g, x in zip(gains, rule.x)])
        val, _ = rule.average(f, "capacity", 0.0, _REL_TOL,
                              lambda i: f"mean SNR {gains[i]:.6g}")
    return (states.bandwidth_hz / math.log(2.0)
            * float(np.dot(states.probs, val)))


def csc(scn: Scenario, mode: str) -> float:
    """Ergodic covert Shannon capacity (bits/s) in mode "om" or "dm"."""
    return csc_over_states(link_states(scn, mode, "bob"), scn.p_a,
                           scn.noise.rho)
