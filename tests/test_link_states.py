"""The link-state table and the metrics evaluated over it."""

import math
import warnings
from dataclasses import replace

import pytest
from scipy import special

from a2gcovert.channel import (
    LinkStates,
    NoiseModel,
    link_states,
    path_loss,
    rician_factor,
)
from a2gcovert.detection import dep_over_states, expected_min_dep
from a2gcovert.errors import DomainError
from a2gcovert.geometry import alice_main_lobe_covers_willie, lobe_gains
from a2gcovert.oracle import mc_dep_points, mc_receiver_points
from a2gcovert.planner import maximize_csc, maximize_ecr
from a2gcovert.scenario import (
    NodePosition,
    db_to_linear,
    dbm_to_mw,
    scenario_from_flat,
)
from a2gcovert.throughput import (
    csc,
    csc_over_states,
    ecr_over_states,
    outage,
    outage_over_states,
)


class TestTable:
    def test_hand_computed_warden_link(self, scn):
        # Alice 500 m straight above Willie: elevation 90 degrees
        d, theta = 500.0, 90.0
        p_los = 1.0 / (1.0 + 4.88 * math.exp(-0.429 * (theta - 4.88)))
        om = link_states(scn, "om", "willie")
        assert om.law == "rician" and om.labels == ("los", "nlos")
        assert om.probs == pytest.approx((p_los, 1.0 - p_los), abs=1e-15)
        # Rice factor law k0 exp(eta2 theta) at theta = pi/2 is k_half_pi
        assert om.params == pytest.approx((10.0 ** 1.5, 0.0), rel=1e-12)
        assert om.received(1.0) == pytest.approx(
            [1e-6 * d ** -1.64, 1e-7 * d ** -2.71], rel=1e-14)

        dm = link_states(scn, "dm", "willie")
        w_tab = lobe_gains(scn.ant_willie)
        assert dm.law == "gamma"
        assert dm.labels == ("main/los", "main/nlos", "side/los", "side/nlos")
        assert dm.params == (3, 2, 3, 2)
        assert dm.probs == pytest.approx(
            (w_tab.p_main * p_los, w_tab.p_main * (1.0 - p_los),
             w_tab.p_side * p_los, w_tab.p_side * (1.0 - p_los)), abs=1e-15)
        losses = [10.0 ** -6.11 * d ** -2.0, 10.0 ** -7.18 * d ** -3.0]
        a_tab = lobe_gains(scn.ant_alice)
        g_a = (a_tab.g_main if alice_main_lobe_covers_willie(
            scn.alice, scn.bob, scn.willie, scn.ant_alice) else a_tab.g_side)
        gains = [g_a * g_w for g_w in (w_tab.g_main, w_tab.g_main,
                                       w_tab.g_side, w_tab.g_side)]
        assert dm.received(1.0) == pytest.approx(
            [g * loss for g, loss in zip(gains, losses * 2)], rel=1e-14)

    def test_receiver_link_sees_both_main_lobes(self, scn):
        link = scn.link(scn.alice, scn.bob)
        dm = link_states(scn, "dm", "bob")
        a_tab, b_tab = lobe_gains(scn.ant_alice), lobe_gains(scn.ant_bob)
        assert dm.received(2.0)[0] == pytest.approx(
            2.0 * a_tab.g_main * b_tab.g_main * path_loss(link.d,
                                                          scn.dm.pl_los),
            rel=1e-15)
        om = link_states(scn, "om", "bob")
        assert om.params[0] == rician_factor(link.theta_rad, scn.om.rician,
                                             True)

    @pytest.mark.parametrize("mode", ["om", "dm"])
    @pytest.mark.parametrize("receiver", ["bob", "willie"])
    @pytest.mark.parametrize("x_a", [-800.0, 400.0, 1000.0, 2000.0])
    def test_probabilities_sum_to_one(self, scn, mode, receiver, x_a):
        table = link_states(
            replace(scn, alice=NodePosition(x_a, 0.0, 500.0)), mode, receiver)
        assert sum(table.probs) == pytest.approx(1.0, abs=1e-15)
        assert len(table.labels) == len(table.params) == len(table.probs)

    @pytest.mark.parametrize("mode", ["om", "dm"])
    def test_table_carries_noise_power_and_band(self, scn, mode):
        for receiver in ("bob", "willie"):
            table = link_states(scn, mode, receiver)
            assert table.sigma_n2 == scn.noise.sigma_n2
            assert table.bandwidth_hz == scn.band(mode).bandwidth_hz
        # tables that differ only in the noise power are unequal
        base = link_states(scn, mode, "bob")
        louder = link_states(replace(scn, noise=NoiseModel(
            2.0 * scn.noise.sigma_n2, scn.noise.rho)), mode, "bob")
        assert louder != base
        assert replace(louder, sigma_n2=base.sigma_n2) == base

    def test_bad_mode_or_receiver(self, scn):
        with pytest.raises(DomainError):
            link_states(scn, "fm", "bob")
        with pytest.raises(DomainError):
            link_states(scn, "om", "eve")


# the six kernels over a state table, at an operating point (p_a, rho)
_KERNELS = {
    "dep": lambda t, p_a, rho: dep_over_states(t, p_a, rho),
    "outage": lambda t, p_a, rho: outage_over_states(t, p_a, 1.0, rho),
    "ecr": lambda t, p_a, rho: ecr_over_states(t, p_a, 1e6, rho),
    "csc": lambda t, p_a, rho: csc_over_states(t, p_a, rho),
    "mc_dep": lambda t, p_a, rho: mc_dep_points(t, [(p_a, rho)], 1000, 0),
    "mc_receiver": lambda t, p_a, rho: mc_receiver_points(
        t, [(p_a, rho, (1.0,))], 1000, 0, capacity=True),
}


class TestTableContract:
    """A table is checked when it is built; each kernel checks only its
    operating point."""

    @pytest.mark.parametrize("mode", ["om", "dm"])
    @pytest.mark.parametrize("bad", [
        "negative loss", "zero noise power", "negative noise power",
        "bad fading parameter", "fractional shape", "short column",
        "unknown law", "zero band", "negative probability", "negative gain",
        "nan loss"])
    def test_every_kernel_rejects_an_invalid_table(self, scn, mode, bad):
        table = link_states(scn, mode, "bob")
        n = len(table.labels)
        change = {
            "negative loss": {"losses": (-1e-9,) + table.losses[1:]},
            "zero noise power": {"sigma_n2": 0.0},
            "negative noise power": {"sigma_n2": -1e-11},
            "bad fading parameter": {"params": (
                -0.1 if mode == "om" else 0,) + table.params[1:]},
            "fractional shape": {"law": "gamma",
                                 "params": (1.5,) + (2,) * (n - 1)},
            "short column": {"probs": table.probs[:-1]},
            "unknown law": {"law": "lognormal"},
            "zero band": {"bandwidth_hz": 0.0},
            "negative probability": {"probs": (-0.1,) + table.probs[1:]},
            "negative gain": {"tx_gain": -1.0},
            "nan loss": {"losses": (math.nan,) + table.losses[1:]},
        }[bad]
        for kernel in _KERNELS.values():
            with pytest.raises(DomainError):
                kernel(replace(table, **change), 1.0, 2.0)

    @pytest.mark.parametrize("p_a, rho", [
        (-1.0, 2.0), (math.nan, 2.0), (0.0, 1.0), (0.0, 0.5), (1.0, 1.0),
        (1.0, math.nan)])
    def test_every_kernel_rejects_an_invalid_point(self, scn, p_a, rho):
        # a silent transmitter (p_a = 0) is no reason to skip the check on
        # rho, and rho = 1 (a perfect detector) is out for every kernel
        table = link_states(scn, "dm", "bob")
        for kernel in _KERNELS.values():
            with pytest.raises(DomainError):
                kernel(table, p_a, rho)


class TestOverflowingMeanSnr:
    """A state's mean SNR g, or rho^2, overflowing to inf divided by zero
    in the fading rule's grading."""

    # g = rho unit / sigma^2 is inf in state "a" and finite in state "b"
    TABLE = LinkStates("rician", ("a", "b"), (0.5, 0.5), (5.0, 0.0), 1.0,
                       (1.0, 1.0), (1e300, 1e-20), 1e-300, 1.0)

    def test_dep_of_the_state_is_zero(self):
        # its cutoff (rho^2 - 1) / g is 0
        res = dep_over_states(self.TABLE, 1.0, 2.0)
        assert res.terms["a"] == 0.0
        assert 0.0 < res.terms["b"] < 0.5
        assert res.abs_err <= 1e-8

    def test_capacity_names_the_state(self):
        with pytest.raises(DomainError, match="capacity.*state 'a'"):
            csc_over_states(self.TABLE, 1.0, 2.0)

    def test_dep_cutoff_inf_over_inf_names_the_state(self):
        with pytest.raises(DomainError, match="state 'a'.*inf / inf"):
            dep_over_states(self.TABLE, 1.0, 1e200)

    @pytest.mark.parametrize("mode", ["om", "dm"])
    @pytest.mark.parametrize("flat", [
        {"noise.sigma_n2_dbm": -3000.0, "om.beta_los": 1e20},
        {"noise.rho_db": 2398.0}])
    def test_scenario_metrics_in_range(self, flat, mode):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            scn = scenario_from_flat(flat)
            assert 0.0 <= expected_min_dep(scn, mode).value <= 1.0
            assert 0.0 <= outage(scn, mode) <= 1.0
            try:
                assert 0.0 <= csc(scn, mode) < math.inf
            except DomainError as exc:  # names the state whose g is inf
                assert any(f"state {label!r}" in str(exc) for label in
                           link_states(scn, mode, "bob").labels)
            for solve in (maximize_ecr, maximize_csc):
                res = solve(scn, mode)
                assert 0.0 <= res.p_a_opt <= scn.p_max
                assert 0.0 <= res.objective < math.inf

    def test_dep_where_rho_squared_overflows(self):
        # rho = 10^239.8: the whole window lies below the cutoff, and
        # g x >> 1 there, so a gamma state's DEP is
        # 1 - (ln g + E[ln x]) / (2 ln rho), E[ln x] = digamma(s) - ln s
        scn = scenario_from_flat({"noise.rho_db": 2398.0})
        rho = scn.noise.rho
        willie = link_states(scn, "dm", "willie")
        res = expected_min_dep(scn, "dm")
        for label, prob, s, unit in zip(willie.labels, willie.probs,
                                        willie.params,
                                        willie.received(scn.p_a)):
            g = rho * unit / willie.sigma_n2
            want = 1.0 - (math.log(g) + special.digamma(s) - math.log(s)) / (
                2.0 * math.log(rho))
            assert res.terms[label] == pytest.approx(prob * want, rel=1e-9)


# Values of the former per-mode state loops at positions of the validation
# grid: (x_a, p_a_dbm, rho_db, mode, dep, outage at 1 Mb/s, csc).
_RECORDED = (
    (400.0, 5.0, 2.0, "om", 0.9902406230749577, 0.9999920313651185,
     216062.257327861),
    (400.0, 5.0, 2.0, "dm", 0.9997164942632728, 0.9919655816928626,
     206866.64366869643),
    (1000.0, 15.0, 4.0, "om", 0.8594119955623607, 0.5600018016781644,
     1151305.9226439227),
    (1000.0, 15.0, 4.0, "dm", 0.9946263182969091, 0.712017924615268,
     944705.0074229308),
    (1360.0, 25.0, 2.0, "om", 0.15405760771879382, 0.07948002505042837,
     6700634.654498636),
    (1360.0, 25.0, 2.0, "dm", 0.5568672906615663, 0.08668467239874847,
     5219127.392302263),
    (2000.0, 15.0, 2.0, "om", 0.9471787646303483, 0.9454243066602196,
     371710.0420284215),
    (2000.0, 15.0, 2.0, "dm", 0.9804281155888939, 0.9890429003717527,
     257148.39400627572),
)


@pytest.mark.parametrize("x_a, p_dbm, rho_db, mode, dep, p_out, cap",
                         _RECORDED)
def test_metrics_keep_their_recorded_values(scn, x_a, p_dbm, rho_db, mode,
                                            dep, p_out, cap):
    point = replace(scn, alice=NodePosition(x_a, scn.alice.y, scn.alice.h),
                    p_a=dbm_to_mw(p_dbm),
                    noise=NoiseModel(scn.noise.sigma_n2, db_to_linear(rho_db)),
                    r_b=1e6)
    assert expected_min_dep(point, mode).value == pytest.approx(dep,
                                                                abs=1e-12)
    assert outage(point, mode) == pytest.approx(p_out, abs=1e-10)
    assert csc(point, mode) == pytest.approx(cap, rel=1e-10)
