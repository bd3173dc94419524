import numpy as np
import pytest
from scipy import optimize

from a2gcovert.channel import link_states
from a2gcovert.detection import expected_min_dep
from a2gcovert.errors import DomainError
from a2gcovert.planner import (
    CONSTRAINT_SLACK,
    max_rate,
    maximize_csc,
    maximize_ecr,
    select_mode,
)
from a2gcovert.scenario import NodePosition, default_scenario
from a2gcovert.throughput import csc, outage_over_states, snr_threshold
from a2gcovert.validation import GRID_X_A


class TestMaxRate:
    def test_positive_and_dm_exceeds_om_gainwise(self, scn):
        r_om = max_rate(scn, "om")
        r_dm = max_rate(scn, "dm")
        assert r_om > 0 and r_dm > 0


class TestMaximizeEcr:
    def test_feasible_at_defaults(self, scn):
        for mode in ("om", "dm"):
            res = maximize_ecr(scn, mode)
            assert res.feasible
            assert 0.0 < res.p_a_opt <= scn.p_max
            assert 0.0 < res.r_b_opt <= max_rate(scn, mode)
            assert res.objective > 0.0

    def test_optimum_is_covert(self, scn):
        for mode in ("om", "dm"):
            res = maximize_ecr(scn, mode)
            dep = expected_min_dep(scn, mode, p_a=res.p_a_opt).value
            assert dep >= 1.0 - scn.epsilon - CONSTRAINT_SLACK

    def test_binding_labels(self, scn):
        # near the warden the covertness constraint caps power below p_max
        near = NodePosition(1000.0, 0.0, 500.0)
        res = maximize_ecr(scn, "om", alice=near)
        assert res.binding == "covertness"
        assert res.p_a_opt < scn.p_max
        # far away the power budget binds first
        far = NodePosition(2000.0, 0.0, 500.0)
        res = maximize_ecr(scn, "om", alice=far)
        assert res.binding == "power"
        assert res.p_a_opt == pytest.approx(scn.p_max)

    def test_infeasible_when_power_floor_is_not_covert(self):
        # with a huge budget the smallest searched power (p_max * 1e-12) is
        # still loud enough to be detected, so the problem reports infeasible
        strict = default_scenario(p_max=1e15, epsilon=0.01)
        res = maximize_ecr(strict, "om")
        assert not res.feasible
        assert res.objective == 0.0
        assert res.binding == "covertness"

    def test_refinement_never_worse_than_grid(self, scn):
        coarse = maximize_ecr(scn, "om", n_rate=16, refine=False)
        refined = maximize_ecr(scn, "om", n_rate=16, refine=True)
        assert refined.objective >= coarse.objective

    @pytest.mark.parametrize("mode", ["om", "dm"])
    @pytest.mark.parametrize("x_a", GRID_X_A)
    def test_refinement_reaches_a_bounded_brent_polish(self, scn, x_a,
                                                      mode):
        # reference: the 128-point grid polished by bounded Brent between
        # the best point's neighbours, to xatol = r_hi * 1e-9
        alice = NodePosition(x_a, scn.alice.y, scn.alice.h)
        res = maximize_ecr(scn, mode, alice=alice)
        bob = link_states(scn, mode, alice, "bob")
        w = scn.band(mode).bandwidth_hz
        sigma_n2, rho = scn.noise.sigma_n2, scn.noise.rho

        def ecr(r):
            return r * (1.0 - outage_over_states(
                bob, res.p_a_opt, snr_threshold(r, w), sigma_n2, rho))

        r_hi = max_rate(scn, mode, alice)
        rates = np.linspace(r_hi / 128, r_hi, 128)
        obj = ecr(rates)
        j = int(np.argmax(obj))
        sol = optimize.minimize_scalar(
            lambda r: -float(ecr(r)),
            bounds=(rates[max(j - 1, 0)], rates[min(j + 1, 127)]),
            method="bounded", options={"xatol": r_hi * 1e-9})
        ref = max(float(obj[j]), -sol.fun)
        assert res.objective >= (1.0 - 1e-9) * ref

    def test_validation(self, scn):
        with pytest.raises(DomainError):
            maximize_ecr(scn, "fm")
        with pytest.raises(DomainError):
            maximize_ecr(scn, "om", n_rate=1)


class TestMaximizeCsc:
    def test_objective_matches_capacity_at_optimum(self, scn):
        for mode in ("om", "dm"):
            res = maximize_csc(scn, mode)
            assert res.feasible
            assert res.r_b_opt is None
            assert res.objective == pytest.approx(
                csc(scn, mode, p_a=res.p_a_opt))

    def test_constraint_tight_when_covertness_binds(self, scn):
        res = maximize_csc(scn, "om")
        assert res.binding == "covertness"
        dep = expected_min_dep(scn, "om", p_a=res.p_a_opt).value
        assert dep == pytest.approx(1.0 - scn.epsilon, abs=1e-4)

    def test_power_binding_far_from_warden(self, scn):
        far = NodePosition(2000.0, 0.0, 500.0)
        res = maximize_csc(scn, "om", alice=far)
        assert res.binding == "power"
        assert res.p_a_opt == pytest.approx(scn.p_max)

    def test_infeasible_when_power_floor_is_not_covert(self):
        strict = default_scenario(p_max=1e15, epsilon=0.01)
        res = maximize_csc(strict, "om")
        assert not res.feasible
        assert res.p_a_opt == 0.0

    def test_unknown_mode(self, scn):
        with pytest.raises(DomainError):
            maximize_csc(scn, "fm")


class TestSelectMode:
    def test_indicator_matches_objectives(self, scn):
        for metric in ("ecr", "csc"):
            dec = select_mode(scn, metric)
            if dec.objective_om >= dec.objective_dm:
                assert dec.indicator == "om"
            else:
                assert dec.indicator == "dm"
            assert dec.objective == max(dec.objective_om, dec.objective_dm)
            assert dec.metric == metric

    def test_unknown_metric(self, scn):
        with pytest.raises(DomainError):
            select_mode(scn, "snr")
