"""Warden detection layer: error probabilities and their channel averages.

The warden runs a radiometer with threshold ``tau`` under bounded log-uniform
noise uncertainty.  Conditioned on the received covert-signal power ``k_a``,
the false-alarm and missed-detection probabilities are piecewise logarithmic
in ``tau``; their sum has a closed-form minimum over ``tau``.  Averaging that
minimum over fading and over the discrete channel / lobe states gives the
covertness metric the transmitter can actually evaluate.

``dep_over_states`` averages over the warden link's state table
(``channel.link_states``), at the noise power it carries, for the
scenario-level function, the planner and the validation grid alike, with
the composite Gauss-Legendre fading rule of ``channel._state_rule`` (the
one the ergodic capacity uses too), applied to all states in one array
operation.  The DEP cutoff is a panel edge, and panels are graded toward 0
when the noise uncertainty rho is large.  A 16-node rule on the same
panels gives each state an error estimate;
``ExpectedDep.abs_err`` carries their weighted sum, and an estimate above
1e-8 raises ``QuadratureError``.  The paper's closed-form DEP averages,
built on surrogate fading laws, are in ``surrogate``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import (LinkStates, NoiseModel, _check_point, _state_rule,
                      link_states)
from .errors import DomainError
from .scenario import Scenario

__all__ = [
    "DepResult",
    "ExpectedDep",
    "false_alarm_probability",
    "missed_detection_probability",
    "dep_at_threshold",
    "threshold_breakpoints",
    "min_dep",
    "min_dep_values",
    "dep_over_states",
    "expected_min_dep",
]


# bench/spans.py replaces each layer's ``integrate`` to count quadrature
# calls; no module calls it, so there is nothing to load
integrate = None


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


def _noise_cdf(x, sigma_n2: float, rho: float, out) -> np.ndarray:
    """P(sigma_n2 rho^U <= x) for U uniform on [-1, 1], written to ``out``
    (x itself allowed): 0 below sigma_n2 / rho, 1 above rho sigma_n2,
    logarithmic between."""
    below, above = x < sigma_n2 / rho, x > rho * sigma_n2
    np.maximum(x, sigma_n2 / (2 * rho), out=out)
    out *= rho
    np.log(out, out=out)
    out -= math.log(sigma_n2)
    out /= 2.0 * math.log(rho)
    np.copyto(out, 0.0, where=below)
    np.copyto(out, 1.0, where=above)
    return out


def false_alarm_probability(tau, sigma_n2: float, rho: float):
    """P(radiometer trips with no transmission), piecewise in tau."""
    NoiseModel(sigma_n2, rho)
    tau = np.asarray(tau, dtype=float)
    out = _noise_cdf(tau, sigma_n2, rho, np.empty_like(tau))
    np.subtract(1.0, out, out=out)
    return out[()] if tau.ndim == 0 else out


def missed_detection_probability(tau, k_a, sigma_n2: float, rho: float):
    """P(radiometer stays quiet during transmission) for received power k_a."""
    NoiseModel(sigma_n2, rho)
    tau = np.asarray(tau, dtype=float)
    k_a = np.asarray(k_a, dtype=float)
    if np.any(k_a < 0):
        raise DomainError("received signal power k_a must be nonnegative")
    excess = np.asarray(tau - k_a)
    out = _noise_cdf(excess, sigma_n2, rho, excess)
    return out[()] if out.ndim == 0 else out


def dep_at_threshold(tau, k_a, sigma_n2: float, rho: float):
    """Total detection error P_FA(tau) + P_MD(tau)."""
    out = missed_detection_probability(tau, k_a, sigma_n2, rho)
    out += false_alarm_probability(tau, sigma_n2, rho)
    return out


def threshold_breakpoints(k_a: float, sigma_n2: float, rho: float) -> np.ndarray:
    """The four thresholds where the error pieces change, sorted ascending."""
    NoiseModel(sigma_n2, rho)
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
    NoiseModel(sigma_n2, rho)
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


# largest error estimate a state average may carry
_ABS_TOL = 1e-8


def dep_over_states(states: LinkStates, p_a: float, rho: float) -> ExpectedDep:
    """Fading-averaged minimum DEP over the states of the warden's link.

    At a state's received unit power and the table's noise power, the
    conditional DEP ``min_dep_values(unit x)`` is averaged over the state's
    exact fading density by ``channel._state_rule``, on a window cut at its
    cutoff x = (rho^2 - 1) / g, g = rho unit / sigma^2, above which it is
    0, and clipped to [0, 1].  A silent transmitter leaves the warden
    erring with certainty in every state; a state whose g overflows has
    its cutoff, and so its DEP, at 0.  An error estimate above 1e-8 raises
    ``QuadratureError`` naming the state.
    """
    _check_point(states, p_a, rho)
    if p_a == 0.0:
        vals, errs = [1.0] * len(states.probs), [0.0] * len(states.probs)
    else:
        units = states.received(p_a)
        gains = [rho * unit / states.sigma_n2 for unit in units]
        cuts = [(rho * rho - 1.0) / g if g > 0.0 else math.inf
                for g in gains]
        for label, cut in zip(states.labels, cuts):
            if not cut >= 0.0:
                raise DomainError(f"DEP cutoff of state {label!r} is inf / "
                                  "inf: rho^2 and its mean SNR overflow")
        rule = _state_rule(states, [1.0 / g if g > 0.0 else math.inf
                                    for g in gains], cuts)
        # an overflowed unit power's window is empty, maybe at x = 0: the
        # largest float keeps inf * 0 out
        with np.errstate(over="ignore"):
            f = min_dep_values(np.minimum(units, np.finfo(float).max)[:, None]
                               * rule.x, states.sigma_n2, rho)
        val, errs = rule.average(f, "DEP", _ABS_TOL, 0.0,
                                 lambda i: f"unit power {units[i]:.6g}")
        vals = [min(1.0, max(0.0, v)) for v in val]
    terms = {label: p * v for label, p, v in zip(states.labels, states.probs,
                                                  vals)}
    return ExpectedDep(value=sum(terms.values()), terms=terms,
                       abs_err=sum(p * e for p, e in zip(states.probs, errs)))


def expected_min_dep(scn: Scenario, mode: str) -> ExpectedDep:
    """Fading-averaged minimum DEP in mode "om" or "dm" at the scenario's
    position, transmit power and noise.

    A mixture over the states of the transmitter-warden link, each with its
    exact fading density: LoS/NLoS with Rician power in mode "om"; in mode
    "dm" also the warden's receive lobe, with gamma power.  The
    transmitter's lobe toward the warden is deterministic given the beam
    steered at the intended receiver.
    """
    return dep_over_states(link_states(scn, mode, "willie"), scn.p_a,
                           scn.noise.rho)
