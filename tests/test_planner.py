import math
from dataclasses import replace

import numpy as np
import pytest
from scipy import optimize

from a2gcovert import planner
from a2gcovert.channel import NoiseModel, link_states
from a2gcovert.detection import dep_over_states, expected_min_dep
from a2gcovert.errors import DomainError
from a2gcovert.planner import (
    CONSTRAINT_SLACK,
    maximize_csc,
    maximize_ecr,
    select_mode,
)
from a2gcovert.scenario import NodePosition, dbm_to_mw, scenario_from_flat
from a2gcovert.throughput import csc, outage_over_states, snr_threshold
from a2gcovert.validation import GRID_X_A


def _los_rate(scn, mode, p_a):
    """Capacity of the LoS (main-lobe) state at unit fading gain and p_a."""
    bob = link_states(scn, mode, "bob")
    return scn.band(mode).bandwidth_hz * math.log2(
        1.0 + bob.received(p_a)[0] / scn.noise.sigma_n2)


def _dep_at(scn, mode, p_a):
    return expected_min_dep(replace(scn, p_a=p_a), mode).value


def _assert_no_better_rate(scn, mode):
    """A fine scan of rates up to four times the capacity of the strongest
    state, at the optimal power and the best noise power sigma^2 / rho,
    finds no ECR above the planner's."""
    res = maximize_ecr(scn, mode)
    bob = link_states(scn, mode, "bob")
    w, rho = bob.bandwidth_hz, scn.noise.rho
    top = w * math.log1p(rho * max(bob.received(res.p_a_opt))
                         / bob.sigma_n2) / math.log(2.0)
    rates = np.linspace(4.0 * top / 80_000, 4.0 * top, 80_000)
    best = np.max(rates * (1.0 - outage_over_states(
        bob, res.p_a_opt, snr_threshold(rates, w), rho)))
    assert best <= (1.0 + 1e-9) * res.objective, (scn.alice, mode)


class TestCovertPowerLimit:
    @pytest.mark.parametrize("p_max_dbm", [150.0, 200.0])
    def test_huge_power_cap_keeps_the_covert_limit(self, scn, p_max_dbm):
        # p_max * 1e-12 is not covert here; the power search then starts
        # at a power that the first-order DEP bound shows to be covert
        loud = replace(scn, p_max=dbm_to_mw(p_max_dbm))
        want = maximize_csc(scn, "om").p_a_opt
        for maximize in (maximize_ecr, maximize_csc):
            res = maximize(loud, "om")
            assert res.feasible and res.binding == "covertness"
            assert res.p_a_opt == pytest.approx(want, rel=1e-6)
            res = maximize(loud, "dm")
            assert res.feasible and res.binding == "covertness"
            assert _dep_at(loud, "dm", res.p_a_opt) == pytest.approx(
                1.0 - scn.epsilon, abs=1e-4)


def _is_covert(scn, mode, p_a):
    dep = dep_over_states(link_states(scn, mode, "willie"), p_a,
                          scn.noise.rho).value
    return dep >= 1.0 - scn.epsilon - CONSTRAINT_SLACK


def _bisection(scn, mode):
    """The covert-power search as a plain geometric bisection, one DEP
    kernel call per step, to a relative 1e-6: the reference for the
    planner's search."""
    if _is_covert(scn, mode, scn.p_max):
        return scn.p_max, "power"
    willie = link_states(scn, mode, "willie")
    rho = scn.noise.rho
    mean_unit = float(np.dot(willie.probs, willie.received(1.0)))
    lo = min(scn.p_max * 1e-12, scn.epsilon * math.log(rho)
             * willie.sigma_n2 / (rho * mean_unit))
    hi = scn.p_max
    while (hi - lo) > 1e-6 * hi:
        mid = math.sqrt(lo * hi)
        if _is_covert(scn, mode, mid):
            lo = mid
        else:
            hi = mid
    return lo, "covertness"


def _outcome(search, scn, mode):
    try:
        return search(scn, mode)
    except Exception as exc:  # the two must fail alike, too
        return type(exc).__name__


@pytest.fixture
def dep_calls(monkeypatch):
    """The powers at which the planner calls the DEP kernel, from a cold
    power-search cache."""
    calls = []

    def counting(states, p_a, rho):
        calls.append(p_a)
        return dep_over_states(states, p_a, rho)

    monkeypatch.setattr(planner, "dep_over_states", counting)
    planner._covert_power.cache_clear()
    yield calls
    planner._covert_power.cache_clear()


class TestCovertPowerSearch:
    def test_covert_end_within_the_bracket_of_the_limit(self):
        # the search returns the covert end of a bracket 1e-8 wide in ln p:
        # a covert power whose (1 + 2e-8) multiple is not covert, at the
        # bisection's power and binding to that reference's relative 1e-6
        rng = np.random.default_rng(19)
        bound = 0
        for _ in range(300):
            scn = scenario_from_flat({
                "alice.x": rng.uniform(-1000.0, 4000.0),
                "alice.h": rng.uniform(20.0, 500.0),
                "epsilon": math.exp(rng.uniform(math.log(1e-6),
                                                math.log(0.99))),
                "p_max_dbm": rng.uniform(-30.0, 150.0),
                "noise.rho_db": math.exp(rng.uniform(math.log(0.01),
                                                     math.log(15.0)))})
            for mode in ("om", "dm"):
                planner._covert_power.cache_clear()
                got = _outcome(planner._covert_power_limit, scn, mode)
                want = _outcome(_bisection, scn, mode)
                if isinstance(want, str):
                    assert got == want, (scn, mode)
                    continue
                (power, binding), (ref_power, ref_binding) = got, want
                assert binding == ref_binding, (scn, mode)
                assert power == pytest.approx(ref_power, rel=1e-6)
                if binding == "covertness":
                    bound += 1
                    assert _is_covert(scn, mode, power), (scn, mode)
                    assert not _is_covert(scn, mode, power * (1.0 + 2e-8)), (
                        scn, mode)
        planner._covert_power.cache_clear()
        assert bound >= 300

    def test_calls_per_solve_on_the_track(self, scn, dep_calls):
        # the 20 positions of the mode-map track from -200 m to 2200 m
        bound = 0
        for x_a in np.linspace(-200.0, 2200.0, 20):
            point = replace(scn, alice=NodePosition(float(x_a), scn.alice.y,
                                                    scn.alice.h))
            for mode in ("om", "dm"):
                planner._covert_power.cache_clear()
                before = len(dep_calls)
                binding = maximize_ecr(point, mode).binding
                calls = len(dep_calls) - before
                if binding == "covertness":
                    bound += 1
                    assert calls <= 8, (x_a, mode, calls)
                else:
                    assert calls == 1
        assert bound >= 10

    def test_one_search_per_state_table(self, scn, dep_calls):
        maximize_ecr(scn, "om")
        assert len(dep_calls) > 1
        before = len(dep_calls)
        assert maximize_csc(scn, "om").binding == "covertness"
        assert len(dep_calls) == before
        noise = scn.noise
        for other in (
                replace(scn, noise=NoiseModel(2.0 * noise.sigma_n2,
                                              noise.rho)),
                replace(scn, noise=NoiseModel(noise.sigma_n2,
                                              1.1 * noise.rho))):
            before = len(dep_calls)
            maximize_csc(other, "om")
            assert len(dep_calls) > before + 1


    @pytest.mark.parametrize("mode", ["om", "dm"])
    def test_power_whose_square_underflows(self, mode):
        # at sigma^2 = 1e-300 mW the covert limit is near 1e-290 mW, where
        # the bisection's lo * hi underflows to 0; it used to loop forever
        scn = scenario_from_flat({"noise.sigma_n2_dbm": -3000.0})
        res = maximize_csc(scn, mode)
        assert res.binding == "covertness"
        assert 0.0 < res.p_a_opt < 1e-280
        assert _dep_at(scn, mode, res.p_a_opt) >= (
            1.0 - scn.epsilon - CONSTRAINT_SLACK)

    def test_covert_power_that_underflows_is_zero(self):
        # at sigma^2 = 1e-308 mW and a LoS gain 1e24 the covert limit is
        # near 1e-327 mW; the search's lower end underflowed to 0 and
        # math.log raised ValueError
        scn = scenario_from_flat({"noise.sigma_n2_dbm": -3080.0,
                                  "dm.beta_los": 7.76e23,
                                  "dm.alpha_los": 2e-8})
        for solve in (maximize_ecr, maximize_csc):
            res = solve(scn, "dm")
            assert (res.p_a_opt, res.binding) == (0.0, "covertness")
            assert res.objective == 0.0


class TestMaximizeEcr:
    def test_feasible_at_defaults(self, scn):
        for mode in ("om", "dm"):
            res = maximize_ecr(scn, mode)
            assert res.feasible
            assert 0.0 < res.p_a_opt <= scn.p_max
            assert 0.0 < res.r_b_opt <= _los_rate(scn, mode, scn.p_max)
            assert res.objective > 0.0

    def test_optimum_is_covert(self, scn):
        for mode in ("om", "dm"):
            res = maximize_ecr(scn, mode)
            dep = _dep_at(scn, mode, res.p_a_opt)
            assert dep >= 1.0 - scn.epsilon - CONSTRAINT_SLACK

    def test_binding_labels(self, scn):
        # near the warden the covertness constraint caps power below p_max
        near = NodePosition(1000.0, 0.0, 500.0)
        res = maximize_ecr(replace(scn, alice=near), "om")
        assert res.binding == "covertness"
        assert res.p_a_opt < scn.p_max
        # far away the power budget binds first
        far = NodePosition(2000.0, 0.0, 500.0)
        res = maximize_ecr(replace(scn, alice=far), "om")
        assert res.binding == "power"
        assert res.p_a_opt == pytest.approx(scn.p_max)

    def test_optimum_does_not_depend_on_a_slack_power_cap(self, scn):
        # once the cap lies above the covert limit the optimum stays put:
        # the rate grid tops out at the covert power, not at the cap; the
        # powers agree to the power search's relative 1e-6, the objectives
        # to 1e-5
        for mode in ("om", "dm"):
            covert = [res for res in (
                maximize_ecr(replace(scn, p_max=dbm_to_mw(p)), mode)
                for p in (20.0, 60.0, 100.0)) if res.binding == "covertness"]
            assert len(covert) >= 2
            for res in covert[1:]:
                assert res.p_a_opt == pytest.approx(covert[0].p_a_opt,
                                                    rel=1e-6)
                assert res.objective == pytest.approx(covert[0].objective,
                                                      rel=1e-5)

    @pytest.mark.parametrize("mode", ["om", "dm"])
    @pytest.mark.parametrize("x_a", GRID_X_A)
    def test_refinement_reaches_a_bounded_brent_polish(self, scn, x_a,
                                                      mode):
        # reference: the 128-point grid polished by bounded Brent between
        # the best point's neighbours, to xatol = r_hi * 1e-9
        point = replace(scn, alice=NodePosition(x_a, scn.alice.y,
                                                scn.alice.h))
        res = maximize_ecr(point, mode)
        bob = link_states(point, mode, "bob")
        w = bob.bandwidth_hz
        rho = scn.noise.rho

        def ecr(r):
            return r * (1.0 - outage_over_states(
                bob, res.p_a_opt, snr_threshold(r, w), rho))

        r_hi = _los_rate(point, mode, res.p_a_opt)
        rates = np.linspace(r_hi / 128, r_hi, 128)
        obj = ecr(rates)
        j = int(np.argmax(obj))
        sol = optimize.minimize_scalar(
            lambda r: -float(ecr(r)),
            bounds=(rates[max(j - 1, 0)], rates[min(j + 1, 127)]),
            method="bounded", options={"xatol": r_hi * 1e-9})
        ref = max(float(obj[j]), -sol.fun)
        assert res.objective >= (1.0 - 1e-9) * ref

    @pytest.mark.parametrize("rho_db", [6.0, 10.0, 20.0])
    def test_rate_grid_reaches_the_optimum_at_large_rho(self, rho_db):
        # from about rho = 5 dB the best rate lies above the LoS capacity
        # at the nominal noise; the grid tops out at the LoS capacity at
        # the best noise power sigma^2 / rho
        scn = scenario_from_flat({"noise.rho_db": rho_db})
        for x_a in GRID_X_A:
            point = replace(scn, alice=NodePosition(x_a, scn.alice.y,
                                                    scn.alice.h))
            for mode in ("om", "dm"):
                _assert_no_better_rate(point, mode)

    @pytest.mark.parametrize("mode, flat", [
        ("om", {"om.beta_nlos": 1e-4, "om.alpha_nlos": 1.64,
                "scurve.sigma": 30.0, "scurve.f": 0.05}),
        ("dm", {"dm.beta_nlos": 1e-4, "dm.alpha_nlos": 2.0})])
    def test_rate_grid_reaches_the_optimum_where_nlos_is_strongest(self, mode,
                                                                   flat):
        # an NLoS state receives more than the LoS one: a grid topped at
        # the LoS capacity read 34,511 b/s (om) and 1,037,683 b/s (dm)
        scn = scenario_from_flat(flat)
        received = link_states(scn, mode, "bob").received(1.0)
        assert max(received) > received[0]
        _assert_no_better_rate(scn, mode)

    def test_validation(self, scn):
        with pytest.raises(DomainError):
            maximize_ecr(scn, "fm")


class TestMaximizeCsc:
    def test_objective_matches_capacity_at_optimum(self, scn):
        for mode in ("om", "dm"):
            res = maximize_csc(scn, mode)
            assert res.feasible
            assert res.r_b_opt is None
            assert res.objective == pytest.approx(
                csc(replace(scn, p_a=res.p_a_opt), mode))

    def test_constraint_tight_when_covertness_binds(self, scn):
        res = maximize_csc(scn, "om")
        assert res.binding == "covertness"
        dep = _dep_at(scn, "om", res.p_a_opt)
        assert dep == pytest.approx(1.0 - scn.epsilon, abs=1e-4)

    def test_power_binding_far_from_warden(self, scn):
        far = NodePosition(2000.0, 0.0, 500.0)
        res = maximize_csc(replace(scn, alice=far), "om")
        assert res.binding == "power"
        assert res.p_a_opt == pytest.approx(scn.p_max)

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
