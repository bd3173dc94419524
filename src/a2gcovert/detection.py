"""Warden detection layer: error probabilities and their channel averages.

The warden runs a radiometer with threshold ``tau`` under bounded log-uniform
noise uncertainty.  Conditioned on the received covert-signal power ``k_a``,
the false-alarm and missed-detection probabilities are piecewise logarithmic
in ``tau``; their sum has a closed-form minimum over ``tau``.  Averaging that
minimum over fading and over the discrete channel / lobe states gives the
covertness metric the transmitter can actually evaluate.

``dep_over_states`` averages over the warden link's state table
(``channel.link_states``), for the public function and the planner alike,
by ``_state_averages``: the composite Gauss-Legendre fading rule of
``channel._state_rule`` (the one the ergodic capacity uses too), applied to
all states in one array operation.  The DEP cutoff is a panel edge, and
panels are graded toward 0 when the noise uncertainty rho is large.  A
16-node rule on the same panels gives each state an error estimate;
``ExpectedDep.abs_err`` carries their weighted sum, and an estimate above
1e-8 raises ``QuadratureError``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# ``integrate`` is unused here but kept as a module attribute: bench/spans.py
# counts quadrature calls per module by replacing it.
from scipy import integrate  # noqa: F401

from .channel import (
    _RULE,
    LinkStates,
    _composite_rule,  # noqa: F401
    _state_rule,
    link_states,
    nakagami_xi,
)
from .errors import DomainError
from .scenario import NodePosition, Scenario
from .specfun import lower_inc_gamma, marcum_mu_nu

__all__ = [
    "DepResult",
    "ExpectedDep",
    "false_alarm_probability",
    "missed_detection_probability",
    "dep_at_threshold",
    "threshold_breakpoints",
    "min_dep",
    "min_dep_values",
    "varrho",
    "dep_over_states",
    "truncated_mean_rician",
    "truncated_mean_nakagami",
    "expected_min_dep",
    "expected_min_dep_om_closed_form",
    "expected_min_dep_dm_closed_form",
]


@dataclass(frozen=True)
class DepResult:
    """Minimum detection error probability and the minimising threshold set.

    ``tau_lo == tau_hi`` when the minimiser is a single point; otherwise every
    threshold in [tau_lo, tau_hi] attains the minimum.
    """

    value: float
    tau_lo: float
    tau_hi: float


@dataclass(frozen=True)
class ExpectedDep:
    """Fading-averaged minimum DEP with its per-state breakdown.

    ``terms`` maps a state label (e.g. "los", "main/nlos") to that state's
    contribution; the contributions sum to ``value``.  ``abs_err`` is the
    quadrature error estimate of ``value``: each state's estimate times the
    state's probability, summed; 0 for the closed forms and for a silent
    transmitter.
    """

    value: float
    terms: dict[str, float]
    abs_err: float = 0.0


def _check_noise(sigma_n2: float, rho: float):
    if sigma_n2 <= 0:
        raise DomainError("nominal noise power must be positive")
    if rho <= 1:
        raise DomainError("noise uncertainty factor rho must exceed 1")


def false_alarm_probability(tau, sigma_n2: float, rho: float):
    """P(radiometer trips with no transmission), piecewise in tau."""
    _check_noise(sigma_n2, rho)
    tau = np.asarray(tau, dtype=float)
    mid = 1.0 - (np.log(rho * np.maximum(tau, sigma_n2 / (2 * rho)))
                 - math.log(sigma_n2)) / (2.0 * math.log(rho))
    out = np.where(tau < sigma_n2 / rho, 1.0,
                   np.where(tau > rho * sigma_n2, 0.0, mid))
    return out[()] if tau.ndim == 0 else out


def missed_detection_probability(tau, k_a, sigma_n2: float, rho: float):
    """P(radiometer stays quiet during transmission) for received power k_a."""
    _check_noise(sigma_n2, rho)
    tau = np.asarray(tau, dtype=float)
    k_a = np.asarray(k_a, dtype=float)
    if np.any(k_a < 0):
        raise DomainError("received signal power k_a must be nonnegative")
    excess = tau - k_a
    mid = (np.log(rho * np.maximum(excess, sigma_n2 / (2 * rho)))
           - math.log(sigma_n2)) / (2.0 * math.log(rho))
    out = np.where(excess < sigma_n2 / rho, 0.0,
                   np.where(excess > rho * sigma_n2, 1.0, mid))
    shape0 = tau.ndim == 0 and k_a.ndim == 0
    return out[()] if shape0 else out


def dep_at_threshold(tau, k_a, sigma_n2: float, rho: float):
    """Total detection error P_FA(tau) + P_MD(tau)."""
    return (false_alarm_probability(tau, sigma_n2, rho)
            + missed_detection_probability(tau, k_a, sigma_n2, rho))


def threshold_breakpoints(k_a: float, sigma_n2: float, rho: float) -> np.ndarray:
    """The four thresholds where the error pieces change, sorted ascending."""
    _check_noise(sigma_n2, rho)
    return np.sort(np.array([
        sigma_n2 / rho,
        rho * sigma_n2,
        k_a + sigma_n2 / rho,
        k_a + rho * sigma_n2,
    ]))


def min_dep_values(k_a, sigma_n2: float, rho: float, out=None):
    """Vectorised minimum DEP 1 - log1p(rho k_a / sigma_n2) / (2 ln rho),
    exactly 0 from the cutoff (rho^2 - 1) sigma_n2 / rho on, at received
    power(s) k_a; computed in place on ``out`` (k_a itself allowed)."""
    _check_noise(sigma_n2, rho)
    k_a = np.asarray(k_a, dtype=float)
    if k_a.min(initial=0.0) < 0:
        raise DomainError("received signal power k_a must be nonnegative")
    above = k_a >= (rho * rho - 1.0) * sigma_n2 / rho
    out = np.multiply(k_a, rho / sigma_n2,
                      out=np.empty_like(k_a) if out is None else out)
    np.log1p(out, out=out)
    out *= -0.5 / math.log(rho)
    out += 1.0
    np.maximum(out, 0.0, out=out)
    np.copyto(out, 0.0, where=above)
    return out[()] if out.ndim == 0 else out


def min_dep(k_a: float, sigma_n2: float, rho: float) -> DepResult:
    """Minimum DEP and the warden's optimal threshold interval.

    When the received power exceeds the noise-uncertainty window the error is
    exactly zero for any threshold between the pure-noise ceiling and the
    signal-plus-noise floor; otherwise the unique minimiser is the
    signal-plus-noise floor itself.
    """
    value = float(min_dep_values(k_a, sigma_n2, rho))
    hi = k_a + sigma_n2 / rho
    if rho * sigma_n2 < hi:
        return DepResult(value=value, tau_lo=rho * sigma_n2, tau_hi=hi)
    return DepResult(value=value, tau_lo=hi, tau_hi=hi)


def varrho(p_received_unit: float, sigma_n2: float, rho: float) -> float:
    """Fading cutoff: power gains below it leave the warden a nonzero DEP.

    ``p_received_unit`` is the received power for unit fading gain, i.e. the
    transmit power times every deterministic loss and antenna factor.
    """
    _check_noise(sigma_n2, rho)
    if p_received_unit < 0:
        raise DomainError("received unit power must be nonnegative")
    if p_received_unit == 0.0:
        return math.inf
    return (rho * rho - 1.0) * sigma_n2 / (rho * p_received_unit)


def truncated_mean_rician(a: float, k: float) -> float:
    """Truncated mean over [0, a] of the exponential-type Rician surrogate law.

    The law is F(x) = 1 - exp(-e^mu (2 (k+1) x)^(nu/2)) with (mu, nu) from
    ``marcum_mu_nu(sqrt(2k))``, the Marcum-Q surrogate of the unit-mean
    Rician power CDF, so the value is consistent with the closed-form
    averages built on the same surrogate.  It is not the truncated mean of
    the exact Rician law: for 0 < sqrt(2k) < 10 the coefficients minimise
    the worst deviation from it over the fitted range, and that minimax
    floor of the two-parameter family is 0.0085 at k = 5 and 0.020 at
    k = 30.
    """
    if a < 0 or k < 0:
        raise DomainError("truncated_mean_rician requires a >= 0 and k >= 0")
    if a == 0.0:
        return 0.0
    c = marcum_mu_nu(math.sqrt(2.0 * k))
    if math.isinf(a):
        z = math.inf
    else:
        z = math.exp(c.mu) * (2.0 * a * (k + 1.0)) ** (c.nu / 2.0)
    head = float(lower_inc_gamma(2.0 / c.nu, z)) / (
        (k + 1.0) * c.nu * math.exp(2.0 * c.mu / c.nu))
    tail = 0.0 if math.isinf(a) else a * math.exp(-z)
    return head - tail


def truncated_mean_nakagami(a: float, s: int) -> float:
    """Truncated mean over [0, a] of the Alzer surrogate of the gamma law.

    The law is F(x) = (1 - e^(-xi x))^s with xi = s (s!)^(-1/s), Alzer's
    lower bound on the CDF of the unit-mean gamma power law of shape s; the
    value is its alternating binomial closed form.  It is not the truncated
    mean of the exact gamma law.  Because the surrogate CDF never exceeds
    the exact one, the value exceeds the exact truncated mean by at most
    the surrogate's full-mean bias beta_s = H_s (s!)^(1/s) / s - 1, with H_s
    the s-th harmonic number: 0 for s = 1 (the law is exact), 0.061 for
    s = 2 and 0.110 for s = 3.
    """
    if a < 0:
        raise DomainError("truncation point must be nonnegative")
    if not (isinstance(s, (int, np.integer)) and s >= 1):
        raise DomainError("Nakagami shape must be an integer >= 1")
    if a == 0.0:
        return 0.0
    xi = nakagami_xi(int(s))
    total = 0.0
    for r in range(1, s + 1):
        rx = r * xi
        if math.isinf(a):
            total += math.comb(s, r) * (-1.0) ** r * (-1.0 / rx)
        else:
            total += math.comb(s, r) * (-1.0) ** r * (
                a * math.exp(-rx * a) - (1.0 - math.exp(-rx * a)) / rx)
    return total


# largest error estimate a state average may carry
_ABS_TOL = 1e-8


def _state_averages(law: str, params, units, sigma_n2: float,
                    rho: float) -> tuple[list[float], list[float]]:
    """Fading averages of the minimum-DEP kernel over a list of states.

    State i has the fading law ``law`` with parameter params[i] (see
    ``channel._state_rule``) and the received unit power units[i].  With
    g = rho unit / sigma^2 the kernel is 1 - ln(1 + g x) / (2 ln rho) below
    the cutoff x = varrho, where the window is cut, and zero above it.
    Returns the averages, clipped to [0, 1], and their error estimates; an
    estimate above 1e-8 raises ``QuadratureError`` naming the state.
    """
    _check_noise(sigma_n2, rho)
    if min(units) < 0:
        raise DomainError("received unit power must be nonnegative")
    gains = [rho * unit / sigma_n2 for unit in units]
    rule = _state_rule(_RULE, law, params,
                       [1.0 / g if g > 0.0 else math.inf for g in gains],
                       [(rho * rho - 1.0) / g if g > 0.0 else math.inf
                        for g in gains])
    f = 1.0 - np.log1p(np.array(gains)[:, None] * rule.x) / (
        2.0 * math.log(rho))
    val, err = rule.average(f, "DEP", _ABS_TOL, 0.0,
                            lambda i: f"unit power {units[i]:.6g}")
    return [min(1.0, max(0.0, v)) for v in val], err


def dep_over_states(states: LinkStates, p_a: float, sigma_n2: float,
                    rho: float) -> ExpectedDep:
    """Fading-averaged minimum DEP over the states of the warden's link.

    Each state's exact fading density is integrated against the minimum-DEP
    kernel by ``_state_averages``; a silent transmitter leaves the warden
    erring with certainty in every state.
    """
    if p_a < 0:
        raise DomainError("transmit power must be nonnegative")
    if p_a == 0.0:
        vals, errs = [1.0] * len(states.probs), [0.0] * len(states.probs)
    else:
        vals, errs = _state_averages(states.law, states.params,
                                     states.received(p_a), sigma_n2, rho)
    terms = {label: p * v for label, p, v in zip(states.labels, states.probs,
                                                  vals)}
    return ExpectedDep(value=sum(terms.values()), terms=terms,
                       abs_err=sum(p * e for p, e in zip(states.probs, errs)))


def _closed_form(scn: Scenario, mode: str, alice: NodePosition | None,
                 p_a: float | None, rho: float | None,
                 surrogate) -> ExpectedDep:
    """DEP state mixture under a surrogate law: ``surrogate(param, cutoff)``
    gives its CDF at the cutoff and its truncated mean below it."""
    p_a = scn.p_a if p_a is None else p_a
    rho = scn.noise.rho if rho is None else rho
    sigma_n2 = scn.noise.sigma_n2
    if p_a < 0:
        raise DomainError("transmit power must be nonnegative")
    states = link_states(scn, mode, alice, "willie")
    terms: dict[str, float] = {}
    for label, p_state, param, unit in zip(states.labels, states.probs,
                                           states.params,
                                           states.received(p_a)):
        term = 1.0  # a silent transmitter
        if p_a > 0.0:
            # CDF weight at the cutoff times the log-average error level
            cdf, t = surrogate(param, varrho(unit, sigma_n2, rho))
            level = 1.0 - (math.log(rho * unit * t + sigma_n2)
                           - math.log(sigma_n2)) / (2.0 * math.log(rho))
            term = cdf * min(1.0, max(0.0, level))
        terms[label] = p_state * term
    return ExpectedDep(value=sum(terms.values()), terms=terms)


def _rician_surrogate(k: float, cut: float) -> tuple[float, float]:
    c = marcum_mu_nu(math.sqrt(2.0 * k))
    z = math.exp(c.mu) * (2.0 * cut * (k + 1.0)) ** (c.nu / 2.0)
    return 1.0 - math.exp(-z), truncated_mean_rician(cut, k)


def _gamma_surrogate(s: int, cut: float) -> tuple[float, float]:
    xi = nakagami_xi(s)
    cdf = sum(math.comb(s, r) * (-1.0) ** r * math.exp(-r * xi * cut)
              for r in range(0, s + 1))
    return min(1.0, max(0.0, cdf)), truncated_mean_nakagami(cut, s)


def expected_min_dep_om_closed_form(scn: Scenario,
                                    alice: NodePosition | None = None,
                                    p_a: float | None = None,
                                    rho: float | None = None) -> ExpectedDep:
    """Closed-form microwave DEP average built on the exponential-type CDF
    surrogate and its truncated-mean companion.

    Kept for reference and speed comparisons; the surrogate misstates the
    lower fading tail at large Rician factors, so this can deviate from the
    exact average by more than a tenth in absolute DEP at high power.  Use
    ``expected_min_dep(scn, "om")`` for accuracy-sensitive work.
    """
    return _closed_form(scn, "om", alice, p_a, rho, _rician_surrogate)


def expected_min_dep_dm_closed_form(scn: Scenario,
                                    alice: NodePosition | None = None,
                                    p_a: float | None = None,
                                    rho: float | None = None) -> ExpectedDep:
    """Closed-form mmWave DEP average built on the binomial-exponential CDF
    bound of the gamma law.

    Kept for reference; the bound deviates from the true CDF by up to about
    five absolute percentage points at mid-range arguments, so use
    ``expected_min_dep(scn, "dm")`` for accuracy-sensitive work.
    """
    return _closed_form(scn, "dm", alice, p_a, rho, _gamma_surrogate)


def expected_min_dep(scn: Scenario, mode: str,
                     alice: NodePosition | None = None,
                     p_a: float | None = None,
                     rho: float | None = None) -> ExpectedDep:
    """Fading-averaged minimum DEP in mode "om" or "dm".

    A mixture over the states of the transmitter-warden link, each with its
    exact fading density: LoS/NLoS with Rician power in mode "om"; in mode
    "dm" also the warden's receive lobe, with gamma power.  The
    transmitter's lobe toward the warden is deterministic given the beam
    steered at the intended receiver.
    """
    return dep_over_states(link_states(scn, mode, alice, "willie"),
                           scn.p_a if p_a is None else p_a, scn.noise.sigma_n2,
                           scn.noise.rho if rho is None else rho)
