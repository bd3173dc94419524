import itertools
from dataclasses import replace

import pytest

from a2gcovert import validation
from a2gcovert.channel import NoiseModel
from a2gcovert.detection import expected_min_dep
from a2gcovert.oracle import BATCH_SIZE
from a2gcovert.scenario import NodePosition, db_to_linear, dbm_to_mw
from a2gcovert.throughput import csc, outage
from a2gcovert.validation import run_validation

N = 20_000


@pytest.fixture(scope="module")
def grid(scn):
    return run_validation(replace(scn, seed=5), n=N)


class TestSharedDraws:
    def test_mc_outage_and_csc_are_monotone_in_power(self, grid):
        series = {}
        for r in grid:
            if r.metric == "dep":
                continue
            key = (r.metric, r.mode, r.x_a, r.rho_db, r.r_b)
            series.setdefault(key, []).append((r.p_a_dbm, r.mc_mean))
        assert len(series) == len(validation.GRID_X_A) * 2 * 2 * (3 + 1)
        for (metric, *_), points in series.items():
            means = [m for _, m in sorted(points)]
            assert len(means) == len(validation.GRID_P_A_DBM)
            for lo, hi in itertools.pairwise(means):
                if metric == "outage":
                    assert hi <= lo
                else:
                    assert hi >= lo

    def test_report_order(self, scn, grid):
        keys = [(r.x_a, r.p_a_dbm, r.rho_db, r.mode, r.metric, r.r_b)
                for r in grid]
        want = []
        for x_a, p, rho, mode in itertools.product(
                validation.GRID_X_A, validation.GRID_P_A_DBM,
                validation.GRID_RHO_DB, ("om", "dm")):
            want.append((x_a, p, rho, mode, "dep", None))
            want += [(x_a, p, rho, mode, "outage", r_b)
                     for r_b in validation.GRID_R_B]
            want.append((x_a, p, rho, mode, "csc", None))
        assert keys == want
        # each cell's analytic value, taken from the state-table kernels,
        # is the scenario-level metric at the cell's operating point
        metrics = {"dep": lambda s, m: expected_min_dep(s, m).value,
                   "outage": outage, "csc": csc}
        for r in grid:
            point = replace(
                scn, alice=NodePosition(r.x_a, scn.alice.y, scn.alice.h),
                p_a=dbm_to_mw(r.p_a_dbm),
                noise=NoiseModel(scn.noise.sigma_n2, db_to_linear(r.rho_db)),
                r_b=scn.r_b if r.r_b is None else r.r_b)
            assert r.analytic == pytest.approx(
                metrics[r.metric](point, r.mode), rel=1e-12, abs=0.0), r

    def test_worker_count_does_not_change_reports(self, scn):
        # more batches than workers, so the pool splits every draw set
        n = 2 * BATCH_SIZE + 5
        assert (run_validation(scn, n=n, workers=1)
                == run_validation(scn, n=n, workers=8))
