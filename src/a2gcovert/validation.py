"""Analytic-vs-Monte-Carlo validation grid.

Each cell places the UAV on the sweep line, fixes a transmit power and a
noise-uncertainty factor, and compares one closed-form metric against the
sampling oracle.  Tolerances widen to three standard errors when the
statistical noise exceeds the base tolerance.  The cells at one UAV
position and mode share one state table per link, which the analytic
kernels and the oracle both read, and the oracle's draws (see
``run_validation``).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .channel import link_states
from .detection import dep_over_states
from .oracle import derived_seed, mc_dep_points, mc_receiver_points
from .scenario import NodePosition, Scenario, db_to_linear, dbm_to_mw
from .throughput import csc_over_states, outage_over_states, snr_threshold

__all__ = [
    "CellReport",
    "GRID_X_A",
    "GRID_P_A_DBM",
    "GRID_RHO_DB",
    "GRID_R_B",
    "run_validation",
]

GRID_X_A = (400.0, 1000.0, 1360.0, 2000.0)
GRID_P_A_DBM = (5.0, 15.0, 25.0)
GRID_RHO_DB = (2.0, 4.0)
GRID_R_B = (0.5e6, 1.0e6, 2.0e6)

DEP_ABS_TOL = 0.02
OUTAGE_ABS_TOL = 0.02
CSC_REL_TOL = 0.05


@dataclass(frozen=True)
class CellReport:
    """One grid cell: analytic value, oracle estimate, tolerance, verdict."""

    metric: str  # "dep" | "outage" | "csc"
    mode: str
    x_a: float
    p_a_dbm: float
    rho_db: float
    r_b: float | None
    analytic: float
    mc_mean: float
    mc_std_error: float
    tolerance: float
    gap: float
    passed: bool


# Links of a draw group, placed in its seed entropy.
_WILLIE, _BOB = 0, 1


def _report(metric, mode, x_a, p_a_dbm, rho_db, r_b, analytic, est,
            base_abs_tol=None, rel_tol=None) -> CellReport:
    if rel_tol is not None:
        base = rel_tol * abs(analytic)
    else:
        base = base_abs_tol
    tol = max(base, 3.0 * est.std_error)
    gap = abs(analytic - est.mean)
    return CellReport(metric=metric, mode=mode, x_a=x_a, p_a_dbm=p_a_dbm,
                      rho_db=rho_db, r_b=r_b, analytic=analytic,
                      mc_mean=est.mean, mc_std_error=est.std_error,
                      tolerance=tol, gap=gap, passed=bool(gap <= tol))


def run_validation(scn: Scenario, n: int = 10**6,
                   workers: int = 1) -> list[CellReport]:
    """Run the analytic-vs-oracle grid; returns one report per cell.

    The grid is ``GRID_X_A`` x ``GRID_P_A_DBM`` x ``GRID_RHO_DB`` x both
    modes, with each outage cell at every rate of ``GRID_R_B``.  Each (UAV
    position, mode) is a group, numbered in loop order.  A group builds the
    state tables of Willie's and Bob's links once, at ``scn`` with Alice
    moved to the position, and passes the same tables to the analytic DEP,
    outage and CSC kernels and to the oracle.  It draws Willie's link once
    and Bob's link once, n draws each, from oracle seeds ``derived_seed``
    (``scn.seed``, group index, link); every (p_a, rho) cell of the group,
    each rate threshold and the capacity are estimated on those draws.
    Each cell's estimate is unbiased with its own n-draw standard
    error, but the cells of a group are correlated: e.g. the MC outage is
    exactly non-increasing in p_a.  The report is reproducible and
    independent of the worker count.
    """
    cells = [(p_dbm, rho_db) for p_dbm in GRID_P_A_DBM
             for rho_db in GRID_RHO_DB]
    ops = [(dbm_to_mw(p_dbm), db_to_linear(rho_db)) for p_dbm, rho_db in cells]
    modes = ("om", "dm")
    reports: list[CellReport] = []
    group = 0
    for x_a in GRID_X_A:
        point = replace(scn, alice=NodePosition(x_a, scn.alice.y, scn.alice.h))
        tables, dep_est, bob_est = {}, {}, {}
        for mode in modes:
            willie, bob = (link_states(point, mode, "willie"),
                           link_states(point, mode, "bob"))
            gammas = snr_threshold(np.array(GRID_R_B), bob.bandwidth_hz)
            tables[mode] = (willie, bob, gammas)
            dep_est[mode] = mc_dep_points(
                willie, ops, n, derived_seed(scn.seed, group, _WILLIE),
                workers)
            bob_est[mode] = mc_receiver_points(
                bob, [(p_a, rho, tuple(gammas)) for p_a, rho in ops], n,
                derived_seed(scn.seed, group, _BOB), workers, capacity=True)
            group += 1
        for c, (p_dbm, rho_db) in enumerate(cells):
            p_a, rho = ops[c]
            for mode in modes:
                willie, bob, gammas = tables[mode]
                reports.append(_report(
                    "dep", mode, x_a, p_dbm, rho_db, None,
                    dep_over_states(willie, p_a, rho).value,
                    dep_est[mode][c], base_abs_tol=DEP_ABS_TOL))
                p_out = outage_over_states(bob, p_a, gammas, rho)
                for r_b, ana, est in zip(GRID_R_B, p_out,
                                         bob_est[mode][c].outage):
                    reports.append(_report(
                        "outage", mode, x_a, p_dbm, rho_db, r_b, float(ana),
                        est, base_abs_tol=OUTAGE_ABS_TOL))
                reports.append(_report(
                    "csc", mode, x_a, p_dbm, rho_db, None,
                    csc_over_states(bob, p_a, rho),
                    bob_est[mode][c].capacity, rel_tol=CSC_REL_TOL))
    return reports
