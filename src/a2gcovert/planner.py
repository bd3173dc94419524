"""Covertness-constrained optimization of ECR and CSC, plus mode selection.

Both problems are monotone in transmit power (throughput rises, expected DEP
falls), so the optimal power is the covertness limit capped at the power
budget: the covert end of a bracketed root search in ln p, within 1e-8 of
the root, found in about 5 DEP kernel calls and cached per warden state
table, so the ECR and CSC solves at one point share it.  The ECR problem
additionally searches the target rate, since the rate objective need not be
concave: on a deterministic grid, then by a vectorised bracket refinement
that evaluates 33 rates between the best point's neighbours in one ECR
kernel call per round.

A solve builds the state tables of the warden's and the receiver's link
(``channel.link_states``) once; the power search, the rate grid and the
refinement call the DEP, ECR and CSC kernels on them directly.  The
module uses numpy alone; it needs no scalar optimiser.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .channel import LinkStates, link_states
from .detection import dep_over_states
from .errors import DomainError
from .scenario import Scenario
from .throughput import csc_over_states, ecr_over_states

__all__ = [
    "OptimizationResult",
    "ModeDecision",
    "CONSTRAINT_SLACK",
    "maximize_ecr",
    "maximize_csc",
    "select_mode",
]

# absorbs floating-point noise when the covertness constraint sits exactly
# on the boundary
CONSTRAINT_SLACK = 1e-9

# width in ln p of the covert-power search's final bracket
_LOG_BRACKET = 1e-8
# rate grid points, refinement rounds, and rates evaluated per round
_N_RATE = 128
_REFINE_ROUNDS = 3
_REFINE_POINTS = 33


@dataclass(frozen=True)
class OptimizationResult:
    """Outcome of one constrained maximization.

    ``binding`` names the active constraint at the reported optimizer:
    "covertness" when the DEP constraint is tight, "power" when the power cap
    is, "none" when the optimum is interior.  ``feasible`` is always true,
    since a small enough power is always covert; it stays a column of the
    ``optimize`` output.
    """

    p_a_opt: float
    r_b_opt: float | None
    objective: float
    binding: str
    feasible: bool


@dataclass(frozen=True)
class ModeDecision:
    """Per-position mode choice with both candidate objectives."""

    indicator: str  # "om" or "dm"
    objective_om: float
    objective_dm: float
    metric: str  # "ecr" or "csc"

    @property
    def objective(self) -> float:
        return max(self.objective_om, self.objective_dm)


def _covert_power_limit(scn: Scenario, mode: str) -> tuple[float, str]:
    """Largest transmit power satisfying the covertness constraint, capped at
    P_max: ``_covert_power`` on the warden's state table.

    Returns (power, binding constraint name).  An unknown mode raises
    ``DomainError`` (from ``link_states``).
    """
    return _covert_power(link_states(scn, mode, "willie"), scn.noise.rho,
                         scn.epsilon, scn.p_max)


def _log_expm1(x: float) -> float:
    """ln(e^x - 1) for x > 0, without overflow."""
    return x + math.log(-math.expm1(-x))


@lru_cache(maxsize=1024)
def _covert_power(willie: LinkStates, rho: float, epsilon: float,
                  p_max: float) -> tuple[float, str]:
    """The largest covert power in [lo, P_max] (expected DEP is
    nonincreasing in power), within 1e-8 in ln p, in about 5 DEP kernel
    calls.

    lo is P_max * 1e-12, or lower where that power is not covert: since
    ln(1 + y) <= y and the fading has unit mean, 1 - DEP <= p sum_i prob_i
    rho unit_i / (2 sigma^2 ln rho), and half the power at which that bound
    reaches epsilon is covert (where that underflows to 0, the result is 0,
    covert).  The search is a root search in u = ln p on
    g(u) = ln(rho^(2 (1 - DEP)) - 1) - ln(rho^(2 (epsilon + slack)) - 1).
    rho^(2 (1 - DEP)) - 1 is proportional to p at a fixed fading power, and
    by Jensen's inequality the mixture stays below a p, a = rho sum_i
    prob_i unit_i / sigma^2, with equality as p -> 0: g is close to linear.
    The search starts where that line reaches the target and runs regula
    falsi with Anderson-Bjorck weights, bisecting where a step would not be
    shorter than half the one before the last, until an evaluated covert
    power and a non-covert one lie within 1e-8 in u; the covert one is
    the result.  Cached by the state table, which carries the noise power.
    """
    target = 1.0 - epsilon - CONSTRAINT_SLACK
    dep = dep_over_states(willie, p_max, rho).value
    if dep >= target:
        return p_max, "power"
    two_ln_rho = 2.0 * math.log(rho)
    mean_unit = float(np.dot(willie.probs, willie.received(1.0)))
    log_a = math.log(rho * mean_unit / willie.sigma_n2)
    g_ref = _log_expm1(two_ln_rho * (epsilon + CONSTRAINT_SLACK))

    def g_at(dep: float, u: float) -> float:
        # where 1 - DEP rounds to 0, the line the mixture stays below
        return (_log_expm1(two_ln_rho * (1.0 - dep)) if dep < 1.0
                else u + log_a) - g_ref

    lo = min(p_max * 1e-12, epsilon * math.log(rho)
             * willie.sigma_n2 / (rho * mean_unit))
    if lo == 0.0:  # the covert power underflows: 0 is the largest covert one
        return 0.0, "covertness"
    # the bracket: lo (not evaluated, so it takes the line's g) and p_max
    p_lo, u_lo, u_hi = lo, math.log(lo), math.log(p_max)
    g_lo, g_hi = g_at(1.0, u_lo), g_at(dep, u_hi)
    u, u_prev, last = g_ref - log_a, u_hi, None
    step = step_before = math.inf
    while u_hi - u_lo > _LOG_BRACKET:
        u = min(max(u, u_lo + 0.5 * _LOG_BRACKET), u_hi - 0.5 * _LOG_BRACKET)
        p = math.exp(u)
        dep = dep_over_states(willie, p, rho).value
        g, covert = g_at(dep, u), dep >= target
        if covert == last:  # the other end stays again: weigh it down
            end = g_lo if covert else g_hi
            m = 1.0 - g / end if g * end > 0.0 else 0.0
            m = m if m > 0.0 else 0.5
            if covert:
                g_hi *= m
            else:
                g_lo *= m
        if covert:
            p_lo, u_lo, g_lo = p, u, g
        else:
            u_hi, g_hi = u, g
        last, step, step_before, u_prev = covert, abs(u - u_prev), step, u
        if g_hi <= 0.0 or g_lo >= 0.0:  # by rounding, an end reads as the root
            u = u_hi if g_hi <= 0.0 else u_lo
        else:
            u = u_hi - g_hi * (u_hi - u_lo) / (g_hi - g_lo)
        if abs(u - u_prev) >= 0.5 * step_before:  # too slow: bisect
            u = 0.5 * (u_lo + u_hi)
    return p_lo, "covertness"


def maximize_ecr(scn: Scenario, mode: str) -> OptimizationResult:
    """Maximize R_b * (1 - P_out) under the covertness and power-cap
    constraints.

    The outage probability is strictly decreasing in transmit power, so the
    objective is maximized at the covert power limit; what remains is a 1-D
    search over the rate, on a 128-point grid up to the capacity
    W log2(1 + rho SNR) of the strongest state at unit fading gain, that
    power and the best noise power sigma^2 / rho, then refined: each round
    evaluates 33 evenly spaced rates between the best point's neighbours in
    one ECR kernel call, and three rounds narrow the bracket by 16^3.
    """
    p_opt, binding = _covert_power_limit(scn, mode)
    rho, bob = scn.noise.rho, link_states(scn, mode, "bob")
    # the strongest state need not be state 0 (LoS, main lobes): an NLoS
    # state can receive more; log1p keeps an SNR below the float epsilon
    r_hi = bob.bandwidth_hz * math.log1p(
        rho * (max(bob.received(p_opt)) / bob.sigma_n2)) / math.log(2.0)
    rates = np.linspace(r_hi / _N_RATE, r_hi, _N_RATE)
    obj = ecr_over_states(bob, p_opt, rates, rho)
    j = int(np.argmax(obj))
    r_opt, objective = float(rates[j]), float(obj[j])
    for _ in range(_REFINE_ROUNDS):
        rates = np.linspace(rates[max(j - 1, 0)],
                            rates[min(j + 1, len(rates) - 1)],
                            _REFINE_POINTS)
        obj = ecr_over_states(bob, p_opt, rates, rho)
        j = int(np.argmax(obj))
        if obj[j] > objective:
            r_opt, objective = float(rates[j]), float(obj[j])
    return OptimizationResult(p_a_opt=p_opt, r_b_opt=r_opt,
                              objective=objective, binding=binding,
                              feasible=True)


def maximize_csc(scn: Scenario, mode: str) -> OptimizationResult:
    """Largest covert power (capacity is monotone in power)."""
    p_opt, binding = _covert_power_limit(scn, mode)
    objective = csc_over_states(link_states(scn, mode, "bob"), p_opt,
                                scn.noise.rho)
    return OptimizationResult(p_a_opt=p_opt, r_b_opt=None,
                              objective=objective, binding=binding,
                              feasible=True)


def select_mode(scn: Scenario, metric: str) -> ModeDecision:
    """Pick the better transmission mode at this position; ties go to OM."""
    if metric == "ecr":
        obj_om = maximize_ecr(scn, "om").objective
        obj_dm = maximize_ecr(scn, "dm").objective
    elif metric == "csc":
        obj_om = maximize_csc(scn, "om").objective
        obj_dm = maximize_csc(scn, "dm").objective
    else:
        raise DomainError(f"unknown metric {metric!r}")
    indicator = "om" if obj_om >= obj_dm else "dm"
    return ModeDecision(indicator=indicator, objective_om=obj_om,
                        objective_dm=obj_dm, metric=metric)
