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
from .scenario import NodePosition, Scenario
from .throughput import csc_over_states, outage_over_states, snr_threshold

__all__ = [
    "OptimizationResult",
    "ModeDecision",
    "CONSTRAINT_SLACK",
    "max_rate",
    "maximize_ecr",
    "maximize_csc",
    "select_mode",
]

# absorbs floating-point noise when the covertness constraint sits exactly
# on the boundary
CONSTRAINT_SLACK = 1e-9

# rate refinement: rounds, and rates evaluated per round
_REFINE_ROUNDS = 3
_REFINE_POINTS = 33


@dataclass(frozen=True)
class OptimizationResult:
    """Outcome of one constrained maximization.

    ``binding`` names the active constraint at the reported optimizer:
    "covertness" when the DEP constraint is tight, "power" when the power cap
    is, "none" when the optimum is interior.
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


def max_rate(scn: Scenario, mode: str, alice: NodePosition | None = None) -> float:
    """Upper edge of the rate grid: capacity at P_max with unit fading gain.

    Uses the LoS path loss and (for the directional mode) both main lobes,
    i.e. the most favourable deterministic link, so the true optimum rate is
    always inside the grid.
    """
    bob = link_states(scn, mode, alice, "bob")
    # state 0 is the LoS state (in the main lobe in mode "dm")
    snr = bob.received(scn.p_max)[0] / scn.noise.sigma_n2
    return scn.band(mode).bandwidth_hz * math.log2(1.0 + snr)


def _covert_power_limit(scn: Scenario, mode: str, alice: NodePosition | None,
                        rel_tol: float = 1e-6) -> tuple[float, str] | None:
    """Largest transmit power satisfying the covertness constraint, capped at
    P_max; geometric bisection (expected DEP is nonincreasing in power).

    Returns (power, binding constraint name), or None when even vanishing
    power is not covert at this geometry.  An unknown mode raises
    ``DomainError`` (from ``link_states``).
    """
    willie = link_states(scn, mode, alice, "willie")
    sigma_n2, rho = scn.noise.sigma_n2, scn.noise.rho

    def is_covert(p_a: float) -> bool:
        dep = dep_over_states(willie, p_a, sigma_n2, rho).value
        return dep >= 1.0 - scn.epsilon - CONSTRAINT_SLACK

    if is_covert(scn.p_max):
        return scn.p_max, "power"
    lo = scn.p_max * 1e-12
    if not is_covert(lo):
        return None
    hi = scn.p_max
    while (hi - lo) > rel_tol * hi:
        mid = math.sqrt(lo * hi)
        if is_covert(mid):
            lo = mid
        else:
            hi = mid
    return lo, "covertness"


def maximize_ecr(scn: Scenario, mode: str, alice: NodePosition | None = None,
                 n_rate: int = 128, refine: bool = True) -> OptimizationResult:
    """Maximize R_b * (1 - P_out) under the covertness and power-cap
    constraints.

    The outage probability is strictly decreasing in transmit power, so the
    objective is maximized at the covert power limit; what remains is a 1-D
    search over the rate, done on a grid and optionally refined: each round
    evaluates 33 evenly spaced rates between the best point's neighbours in
    one outage call, and three rounds narrow the bracket by 16^3.
    """
    if n_rate < 2:
        raise DomainError("rate grid needs at least two points")
    limit = _covert_power_limit(scn, mode, alice)
    if limit is None:
        return OptimizationResult(p_a_opt=0.0, r_b_opt=0.0, objective=0.0,
                                  binding="covertness", feasible=False)
    p_opt, binding = limit
    band = scn.band(mode)
    bob = link_states(scn, mode, alice, "bob")
    sigma_n2, rho = scn.noise.sigma_n2, scn.noise.rho
    r_hi = max_rate(scn, mode, alice)

    def ecr(rates: np.ndarray) -> np.ndarray:
        gammas = snr_threshold(rates, band.bandwidth_hz)
        return rates * (1.0 - outage_over_states(bob, p_opt, gammas,
                                                 sigma_n2, rho))

    rates = np.linspace(r_hi / n_rate, r_hi, n_rate)
    obj = ecr(rates)
    j = int(np.argmax(obj))
    r_opt, objective = float(rates[j]), float(obj[j])
    for _ in range(_REFINE_ROUNDS if refine else 0):
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


def maximize_csc(scn: Scenario, mode: str, alice: NodePosition | None = None,
                 rel_tol: float = 1e-6) -> OptimizationResult:
    """Largest covert power (capacity is monotone in power), by bisection."""
    limit = _covert_power_limit(scn, mode, alice, rel_tol=rel_tol)
    if limit is None:
        # vanishing power cannot satisfy the constraint at this geometry
        return OptimizationResult(p_a_opt=0.0, r_b_opt=None, objective=0.0,
                                  binding="covertness", feasible=False)
    p_opt, binding = limit
    objective = csc_over_states(link_states(scn, mode, alice, "bob"), p_opt,
                                scn.noise.sigma_n2, scn.noise.rho,
                                scn.band(mode).bandwidth_hz)
    return OptimizationResult(p_a_opt=p_opt, r_b_opt=None,
                              objective=objective, binding=binding,
                              feasible=True)


def select_mode(scn: Scenario, metric: str,
                alice: NodePosition | None = None) -> ModeDecision:
    """Pick the better transmission mode at this position; ties go to OM."""
    if metric == "ecr":
        obj_om = maximize_ecr(scn, "om", alice=alice).objective
        obj_dm = maximize_ecr(scn, "dm", alice=alice).objective
    elif metric == "csc":
        obj_om = maximize_csc(scn, "om", alice=alice).objective
        obj_dm = maximize_csc(scn, "dm", alice=alice).objective
    else:
        raise DomainError(f"unknown metric {metric!r}")
    indicator = "om" if obj_om >= obj_dm else "dm"
    return ModeDecision(indicator=indicator, objective_om=obj_om,
                        objective_dm=obj_dm, metric=metric)
