"""Analytic-vs-Monte-Carlo validation grid.

Each cell places the UAV on the sweep line, fixes a transmit power and a
noise-uncertainty factor, and compares one closed-form metric against the
sampling oracle.  Tolerances widen to three standard errors when the
statistical noise exceeds the base tolerance.  The cells at one UAV
position and mode share the oracle's draws (see ``run_validation``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .detection import expected_min_dep
from .oracle import mc_dep_points, mc_receiver_points
from .scenario import NodePosition, Scenario, db_to_linear, dbm_to_mw
from .throughput import csc, outage, snr_threshold

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


def _group_seed(seed: int, group: int, link: int) -> int:
    return int(np.random.SeedSequence(
        entropy=(int(seed), int(group), int(link))).generate_state(1)[0])


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


def run_validation(scn: Scenario, n: int = 10**6, seed: int | None = None,
                   workers: int = 1,
                   metrics: tuple[str, ...] = ("dep", "outage", "csc"),
                   x_a_values: tuple[float, ...] = GRID_X_A,
                   p_a_dbm_values: tuple[float, ...] = GRID_P_A_DBM,
                   rho_db_values: tuple[float, ...] = GRID_RHO_DB,
                   r_b_values: tuple[float, ...] = GRID_R_B) -> list[CellReport]:
    """Run the analytic-vs-oracle grid; returns one report per cell.

    The cells share draws.  Each (UAV position, mode) is a group, numbered
    in loop order.  A group draws Willie's link once and Bob's link once,
    n draws each, from oracle seeds derived from (seed, group index, link);
    every (p_a, rho) cell of the group, each rate threshold and the
    capacity are evaluated on those draws.  Each cell's estimate is
    unbiased with its own n-draw standard error, but the cells of a group
    are correlated: e.g. the MC outage is exactly non-increasing in p_a.
    A link that no requested metric needs is not drawn.  The report is
    reproducible, independent of the worker count, and its rows equal the
    same rows of a run that requests more metrics.
    """
    seed = scn.seed if seed is None else int(seed)
    cells = [(p_dbm, rho_db) for p_dbm in p_a_dbm_values
             for rho_db in rho_db_values]
    ops = [(dbm_to_mw(p_dbm), db_to_linear(rho_db)) for p_dbm, rho_db in cells]
    modes = ("om", "dm")
    gammas = {mode: tuple(float(snr_threshold(r_b, scn.band(mode).bandwidth_hz))
                          for r_b in r_b_values) for mode in modes}
    want_dep = "dep" in metrics and bool(cells)
    want_bob = bool(cells) and (
        ("outage" in metrics and bool(r_b_values)) or "csc" in metrics)
    reports: list[CellReport] = []
    group = 0
    for x_a in x_a_values:
        alice = NodePosition(x_a, scn.alice.y, scn.alice.h)
        dep_est, bob_est = {}, {}
        for mode in modes:
            if want_dep:
                dep_est[mode] = mc_dep_points(
                    scn, ops, alice=alice, mode=mode, n=n,
                    seed=_group_seed(seed, group, _WILLIE), workers=workers)
            if want_bob:
                g = gammas[mode] if "outage" in metrics else ()
                bob_est[mode] = mc_receiver_points(
                    scn, [(p_a, rho, g) for p_a, rho in ops], alice=alice,
                    mode=mode, n=n, seed=_group_seed(seed, group, _BOB),
                    workers=workers, capacity="csc" in metrics)
            group += 1
        for c, (p_dbm, rho_db) in enumerate(cells):
            p_a, rho = ops[c]
            for mode in modes:
                if "dep" in metrics:
                    ana = expected_min_dep(scn, mode, alice=alice,
                                           p_a=p_a, rho=rho).value
                    reports.append(_report(
                        "dep", mode, x_a, p_dbm, rho_db, None, ana,
                        dep_est[mode][c], base_abs_tol=DEP_ABS_TOL))
                if "outage" in metrics:
                    for r_b, g, est in zip(r_b_values, gammas[mode],
                                           bob_est[mode][c].outage):
                        ana = float(outage(scn, mode, alice=alice, p_a=p_a,
                                           gamma_th=g, rho=rho))
                        reports.append(_report(
                            "outage", mode, x_a, p_dbm, rho_db, r_b, ana,
                            est, base_abs_tol=OUTAGE_ABS_TOL))
                if "csc" in metrics:
                    ana = csc(scn, mode, alice=alice, p_a=p_a, rho=rho)
                    reports.append(_report(
                        "csc", mode, x_a, p_dbm, rho_db, None, ana,
                        bob_est[mode][c].capacity, rel_tol=CSC_REL_TOL))
    return reports
