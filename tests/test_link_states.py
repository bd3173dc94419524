"""The link-state table and the metrics evaluated over it."""

import math
from dataclasses import replace

import pytest

from a2gcovert.channel import NoiseModel, link_states, path_loss, rician_factor
from a2gcovert.detection import expected_min_dep
from a2gcovert.errors import DomainError
from a2gcovert.geometry import alice_main_lobe_covers_willie, lobe_gains
from a2gcovert.scenario import NodePosition, db_to_linear, dbm_to_mw
from a2gcovert.throughput import csc, outage


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
