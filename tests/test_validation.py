import itertools

from a2gcovert import validation
from a2gcovert.oracle import BATCH_SIZE
from a2gcovert.validation import run_validation

N = 20_000
X_A = (400.0, 1360.0)


def _grid(scn, metrics, **kwargs):
    kwargs = {"n": N, "x_a_values": X_A, **kwargs}
    return run_validation(scn, seed=5, metrics=metrics, **kwargs)


class TestSharedDraws:
    def test_mc_outage_and_csc_are_monotone_in_power(self, scn):
        reports = _grid(scn, ("outage", "csc"))
        series = {}
        for r in reports:
            key = (r.metric, r.mode, r.x_a, r.rho_db, r.r_b)
            series.setdefault(key, []).append((r.p_a_dbm, r.mc_mean))
        assert len(series) == 2 * 2 * 2 * (3 + 1)
        for (metric, *_), points in series.items():
            means = [m for _, m in sorted(points)]
            assert len(means) == len(validation.GRID_P_A_DBM)
            for lo, hi in itertools.pairwise(means):
                if metric == "outage":
                    assert hi <= lo
                else:
                    assert hi >= lo

    def test_dep_only_run_draws_no_receiver_samples(self, scn, monkeypatch):
        def no_receiver(*args, **kwargs):
            raise AssertionError("drew receiver samples for a DEP-only grid")

        monkeypatch.setattr(validation, "mc_receiver_points", no_receiver)
        reports = _grid(scn, ("dep",))
        assert len(reports) == len(X_A) * 3 * 2 * 2
        assert {r.metric for r in reports} == {"dep"}

    def test_metric_subsets_reproduce_the_full_run(self, scn):
        full = _grid(scn, ("dep", "outage", "csc"), p_a_dbm_values=(15.0,))
        for metric in ("dep", "outage", "csc"):
            part = _grid(scn, (metric,), p_a_dbm_values=(15.0,))
            assert part == [r for r in full if r.metric == metric]

    def test_report_order(self, scn):
        reports = _grid(scn, ("dep", "outage", "csc"),
                        p_a_dbm_values=(5.0, 25.0))
        keys = [(r.x_a, r.p_a_dbm, r.rho_db, r.mode, r.metric, r.r_b)
                for r in reports]
        want = []
        for x_a, p, rho, mode in itertools.product(
                X_A, (5.0, 25.0), validation.GRID_RHO_DB, ("om", "dm")):
            want.append((x_a, p, rho, mode, "dep", None))
            want += [(x_a, p, rho, mode, "outage", r_b)
                     for r_b in validation.GRID_R_B]
            want.append((x_a, p, rho, mode, "csc", None))
        assert keys == want

    def test_worker_count_does_not_change_reports(self, scn):
        # more batches than workers, so the pool splits every draw set
        kwargs = {"n": 2 * BATCH_SIZE + 5, "x_a_values": (400.0,),
                  "p_a_dbm_values": (15.0,)}
        one = _grid(scn, ("dep", "outage", "csc"), workers=1, **kwargs)
        eight = _grid(scn, ("dep", "outage", "csc"), workers=8, **kwargs)
        assert one == eight
