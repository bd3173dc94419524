import decimal
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from a2gcovert.channel import link_states
from a2gcovert.errors import DomainError
from a2gcovert.geometry import (
    AntennaSpec,
    NodePosition,
    SCurveParams,
    alice_main_lobe_covers_willie,
    boresight_separation,
    distance,
    elevation_angle_deg,
    lobe_gains,
    los_probability,
)
from a2gcovert.scenario import default_scenario


class TestPositionsAndAngles:
    def test_distance_3d(self):
        assert distance(NodePosition(3, 4, 12), NodePosition(0, 0, 0)) == 13.0

    def test_negative_height_rejected(self):
        with pytest.raises(DomainError):
            NodePosition(0, 0, -1)

    def test_elevation_overhead_is_90(self):
        assert elevation_angle_deg(NodePosition(0, 0, 100),
                                   NodePosition(0, 0, 0)) == pytest.approx(90.0)

    def test_elevation_45(self):
        assert elevation_angle_deg(NodePosition(100, 0, 100),
                                   NodePosition(0, 0, 0)) == pytest.approx(45.0)

    def test_uav_below_ground_node_rejected(self):
        with pytest.raises(DomainError):
            elevation_angle_deg(NodePosition(0, 0, 0), NodePosition(0, 0, 10))


class TestLosProbability:
    S = SCurveParams(sigma=4.88, f=0.429)

    def test_at_sigma_anchor(self):
        # at theta == sigma the curve reads 1 / (1 + sigma)
        assert los_probability(4.88, self.S) == pytest.approx(1 / (1 + 4.88))

    def test_monotone_in_elevation(self):
        vals = [los_probability(t, self.S) for t in (5, 20, 45, 70, 90)]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_overflowing_exponential_reads_the_limit(self):
        # sigma = 4880: exp(f (sigma - theta)) overflows, 1 / (1 + inf) = 0
        steep = SCurveParams(sigma=4880.0, f=0.429)
        assert [los_probability(t, steep) for t in (0.5, 90.0)] == [0.0, 0.0]

    def test_angle_domain(self):
        with pytest.raises(DomainError):
            los_probability(0.0, self.S)
        with pytest.raises(DomainError):
            los_probability(90.5, self.S)

    @given(st.floats(0.01, 90.0))
    @settings(max_examples=40, deadline=None)
    def test_is_probability(self, theta):
        assert 0.0 <= los_probability(theta, self.S) <= 1.0


class TestLobeGains:
    def test_main_gain_is_element_count(self):
        for n in (2, 6, 18):
            tab = lobe_gains(AntennaSpec.with_default_beamwidths(n))
            assert tab.g_main == float(n)

    def test_probabilities_sum_to_one(self):
        for n in (2, 6, 18, 64):
            tab = lobe_gains(AntennaSpec.with_default_beamwidths(n))
            assert tab.p_main + tab.p_side == pytest.approx(1.0)
            assert 0.0 < tab.p_main < 1.0

    def test_gains_positive_and_ordered(self):
        for n in (2, 6, 18, 64, 256):
            tab = lobe_gains(AntennaSpec.with_default_beamwidths(n))
            assert 0.0 < tab.g_side <= tab.g_main

    def test_single_element_is_isotropic(self):
        tab = lobe_gains(AntennaSpec(n_elements=1, theta_h=1.0, theta_ed=1.0))
        assert tab.g_main == 1.0
        assert tab.g_side == 1.0

    def test_beamwidth_validation(self):
        with pytest.raises(DomainError):
            AntennaSpec(n_elements=4, theta_h=0.0, theta_ed=1.0)
        with pytest.raises(DomainError):
            AntennaSpec(n_elements=4, theta_h=1.0, theta_ed=4.0)

    def test_default_beamwidth_scaling(self):
        a = AntennaSpec.with_default_beamwidths(12)
        assert a.theta_h == pytest.approx(math.sqrt(3.0 / 12.0))
        assert a.theta_ed == pytest.approx(math.sqrt(3.0 / 12.0))


class TestMainLobeCoverage:
    ALICE = NodePosition(1360, 0, 500)
    BOB = NodePosition(-500, 0, 0)
    WILLIE = NodePosition(1000, 0, 0)

    def test_separation_hand_computed(self):
        # vectors Alice->Bob = (-1860, 0, -500), Alice->Willie = (-360, 0, -500)
        u = (-1860.0, 0.0, -500.0)
        v = (-360.0, 0.0, -500.0)
        dot = sum(a * b for a, b in zip(u, v))
        cos = dot / (math.hypot(u[0], u[2]) * math.hypot(v[0], v[2]))
        expected = math.acos(cos)
        got = boresight_separation(self.ALICE, self.BOB, self.WILLIE)
        assert got == pytest.approx(expected, rel=1e-12)

    def test_zero_separation_always_inside(self):
        # Willie exactly along the Alice->Bob ray
        willie = NodePosition(250, 0, 250)
        ant = AntennaSpec(n_elements=6, theta_h=0.05, theta_ed=0.05)
        assert alice_main_lobe_covers_willie(
            NodePosition(1000, 0, 500), NodePosition(-500, 0, 0), willie, ant)

    def test_antipodal_outside_narrow_beam(self):
        ant = AntennaSpec(n_elements=6, theta_h=1.0, theta_ed=1.0)
        behind = NodePosition(2500, 0, 1000)  # opposite the Bob direction
        assert not alice_main_lobe_covers_willie(
            NodePosition(1000, 0, 500), NodePosition(-500, 0, 0), behind, ant)

    def test_threshold_just_above_separation_is_inside(self):
        sep = boresight_separation(self.ALICE, self.BOB, self.WILLIE)
        ant_in = AntennaSpec(n_elements=6, theta_h=1.0, theta_ed=sep + 1e-6)
        ant_out = AntennaSpec(n_elements=6, theta_h=1.0, theta_ed=sep - 1e-6)
        assert alice_main_lobe_covers_willie(self.ALICE, self.BOB,
                                             self.WILLIE, ant_in)
        assert not alice_main_lobe_covers_willie(self.ALICE, self.BOB,
                                                 self.WILLIE, ant_out)

    def test_gain_products(self):
        # the warden's dm states carry Alice's and Willie's lobe gains
        sep = boresight_separation(self.ALICE, self.BOB, self.WILLIE)
        ant_a = AntennaSpec(n_elements=6, theta_h=1.0, theta_ed=sep + 1e-6)
        ant_w = AntennaSpec.with_default_beamwidths(18)
        ta, tw = lobe_gains(ant_a), lobe_gains(ant_w)
        scn = default_scenario(alice=self.ALICE, bob=self.BOB,
                               willie=self.WILLIE, ant_alice=ant_a,
                               ant_willie=ant_w)
        states = link_states(scn, "dm", "willie")
        assert [states.tx_gain * g for g in states.rx_gains] == (
            pytest.approx([ta.g_main * tw.g_main] * 2
                          + [ta.g_main * tw.g_side] * 2))


class TestDistanceOverflow:
    def test_far_difference_falls_back_to_hypot(self):
        # (1e160)^2 overflows a float; hypot scales instead of squaring
        p, q = NodePosition(1e160, -3e159, 100.0), NodePosition(0.0, 0.0, 0.0)
        assert distance(p, q) == math.hypot(1e160, -3e159, 100.0)
        assert distance(q, p) == distance(p, q)

    @given(st.lists(st.floats(-1e300, 1e300), min_size=6, max_size=6))
    @settings(max_examples=200, deadline=None)
    def test_within_an_ulp_of_the_exact_distance(self, c):
        p = NodePosition(c[0], c[1], abs(c[2]))
        q = NodePosition(c[3], c[4], abs(c[5]))
        with decimal.localcontext(decimal.Context(prec=40)):
            exact = sum((decimal.Decimal(a) - decimal.Decimal(b)) ** 2
                        for a, b in ((p.x, q.x), (p.y, q.y),
                                     (p.h, q.h))).sqrt()
            err = abs(decimal.Decimal(distance(p, q)) - exact)
        assert err <= decimal.Decimal(math.ulp(float(exact)))

    def test_numpy_coordinates(self):
        # numpy scalars overflowed where Python floats fell back to hypot:
        # a distance of inf, with a RuntimeWarning
        c = (1e200, -3e199, 100.0, 0.0, 0.0, 0.0)
        p, q = NodePosition(*c[:3]), NodePosition(*c[3:])
        p64, q64 = (NodePosition(*map(np.float64, c[:3])),
                    NodePosition(*map(np.float64, c[3:])))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert distance(p64, q64) == distance(p, q)

    def test_far_direction_is_a_unit_vector(self):
        alice = NodePosition(1e160, 0.0, 100.0)
        bob = NodePosition(0.0, 0.0, 0.0)
        willie = NodePosition(0.0, 1.0, 0.0)
        assert 0.0 <= boresight_separation(alice, bob, willie) < 1e-100
