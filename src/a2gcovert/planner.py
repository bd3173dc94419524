"""Covertness-constrained optimization of ECR and CSC, plus mode selection.

Both problems are monotone in transmit power (throughput rises, expected DEP
falls), so the optimal power is the covertness limit capped at the power
budget, found by geometric bisection.  The ECR problem additionally searches
the target rate, since the rate objective need not be concave: on a
deterministic grid, then by a vectorised bracket refinement that evaluates
33 rates between the best point's neighbours in one outage call per round.

A solve builds the state tables of the warden's and the receiver's link
(``channel.link_states``) once; the bisection, the rate grid and the
refinement call the DEP, outage and CSC kernels on them directly.  The
module uses numpy alone; it needs no scalar optimiser.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import link_states
from .detection import dep_over_states
from .errors import DomainError
from .scenario import Scenario
from .throughput import csc_over_states, outage_over_states, snr_threshold

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

# relative width at which the covert-power bisection stops
_POWER_REL_TOL = 1e-6
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
    P_max; geometric bisection (expected DEP is nonincreasing in power).

    Returns (power, binding constraint name).  The bracket starts at
    P_max * 1e-12, or lower where that power is not covert: since
    ln(1 + y) <= y and the fading has unit mean, the expected DEP at p is at
    least 1 - p sum_i prob_i rho unit_i / (2 sigma^2 ln rho), so half the
    power at which that bound reaches 1 - epsilon is covert.  An unknown
    mode raises ``DomainError`` (from ``link_states``).
    """
    willie = link_states(scn, mode, "willie")
    rho = scn.noise.rho

    def is_covert(p_a: float) -> bool:
        dep = dep_over_states(willie, p_a, rho).value
        return dep >= 1.0 - scn.epsilon - CONSTRAINT_SLACK

    if is_covert(scn.p_max):
        return scn.p_max, "power"
    mean_unit = float(np.dot(willie.probs, willie.received(1.0)))
    lo = min(scn.p_max * 1e-12, scn.epsilon * math.log(rho)
             * willie.sigma_n2 / (rho * mean_unit))
    hi = scn.p_max
    while (hi - lo) > _POWER_REL_TOL * hi:
        mid = math.sqrt(lo * hi)
        if is_covert(mid):
            lo = mid
        else:
            hi = mid
    return lo, "covertness"


def maximize_ecr(scn: Scenario, mode: str) -> OptimizationResult:
    """Maximize R_b * (1 - P_out) under the covertness and power-cap
    constraints.

    The outage probability is strictly decreasing in transmit power, so the
    objective is maximized at the covert power limit; what remains is a 1-D
    search over the rate, on a 128-point grid up to the capacity of the
    most favourable state (LoS, main lobes) at unit fading gain and that
    power, then refined: each round evaluates 33 evenly spaced rates
    between the best point's neighbours in one outage call, and three
    rounds narrow the bracket by 16^3.
    """
    p_opt, binding = _covert_power_limit(scn, mode)
    bob = link_states(scn, mode, "bob")
    w = bob.bandwidth_hz
    # state 0 is the LoS state (in the main lobe in mode "dm")
    r_hi = w * math.log2(1.0 + bob.received(p_opt)[0] / bob.sigma_n2)

    def ecr(rates: np.ndarray) -> np.ndarray:
        return rates * (1.0 - outage_over_states(
            bob, p_opt, snr_threshold(rates, w), scn.noise.rho))

    rates = np.linspace(r_hi / _N_RATE, r_hi, _N_RATE)
    obj = ecr(rates)
    j = int(np.argmax(obj))
    r_opt, objective = float(rates[j]), float(obj[j])
    for _ in range(_REFINE_ROUNDS):
        rates = np.linspace(rates[max(j - 1, 0)],
                            rates[min(j + 1, len(rates) - 1)],
                            _REFINE_POINTS)
        obj = ecr(rates)
        j = int(np.argmax(obj))
        if obj[j] > objective:
            r_opt, objective = float(rates[j]), float(obj[j])
    return OptimizationResult(p_a_opt=p_opt, r_b_opt=r_opt,
                              objective=objective, binding=binding,
                              feasible=True)


def maximize_csc(scn: Scenario, mode: str) -> OptimizationResult:
    """Largest covert power (capacity is monotone in power), by bisection."""
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
