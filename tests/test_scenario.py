import math

import pytest

from a2gcovert.errors import ScenarioError
from a2gcovert.scenario import (
    DEFAULT_FLAT,
    NodePosition,
    db_to_linear,
    dbm_to_mw,
    default_scenario,
    loads_scenario,
    scenario_from_flat,
    scenario_hash,
    scenario_to_flat,
)


class TestUnits:
    def test_db_to_linear(self):
        assert db_to_linear(0.0) == 1.0
        assert db_to_linear(10.0) == pytest.approx(10.0)
        assert db_to_linear(2.0) == pytest.approx(10 ** 0.2)

    def test_dbm_to_mw(self):
        assert dbm_to_mw(0.0) == 1.0
        assert dbm_to_mw(20.0) == pytest.approx(100.0)
        assert dbm_to_mw(-80.0) == pytest.approx(1e-8)


class TestDefaults:
    def test_default_positions(self, scn):
        assert scn.alice == NodePosition(1000.0, 0.0, 500.0)
        assert scn.bob == NodePosition(-500.0, 0.0, 0.0)
        assert scn.willie == NodePosition(1000.0, 0.0, 0.0)

    def test_default_unit_conversions(self, scn):
        assert scn.p_max == pytest.approx(100.0)  # 20 dBm in mW
        assert scn.p_a == pytest.approx(10 ** 1.5)  # 15 dBm in mW
        assert scn.noise.sigma_n2 == pytest.approx(1e-8)  # -80 dBm in mW
        assert scn.noise.rho == pytest.approx(10 ** 0.2)  # 2 dB
        assert scn.om.rician.k0 == pytest.approx(10 ** 0.5)  # 5 dB
        assert scn.om.rician.k_half_pi == pytest.approx(10 ** 1.5)  # 15 dB

    def test_default_bands(self, scn):
        assert scn.om.bandwidth_hz == 40e6
        assert scn.dm.bandwidth_hz == 100e6
        assert scn.dm.nakagami.s_los == 3
        assert scn.dm.nakagami.s_nlos == 2
        assert scn.om.pl_los.alpha == 1.64
        assert scn.dm.pl_nlos.alpha == 3.0

    def test_default_antennas(self, scn):
        assert (scn.ant_alice.n_elements, scn.ant_bob.n_elements,
                scn.ant_willie.n_elements) == (6, 18, 18)
        assert scn.ant_alice.theta_ed == pytest.approx(math.sqrt(3.0 / 6.0))

    def test_link_geometry(self, scn):
        link = scn.link(scn.alice, scn.willie)
        assert link.d == pytest.approx(500.0)
        assert link.theta_deg == pytest.approx(90.0)
        link_b = scn.link(scn.alice, scn.bob)
        assert link_b.d == pytest.approx(math.hypot(1500.0, 500.0))


class TestParsing:
    def test_empty_text_equals_defaults(self, scn):
        assert loads_scenario("") == scn

    def test_override_and_comments(self):
        text = """
        # move the UAV
        alice.x = 400   # inline comment
        p_a_dbm = 10
        seed = 42
        """
        s = loads_scenario(text)
        assert s.alice.x == 400.0
        assert s.p_a == pytest.approx(10.0)
        assert s.seed == 42

    def test_unknown_key_reports_line(self):
        with pytest.raises(ScenarioError, match="line 2"):
            loads_scenario("alice.x = 1\nnot_a_key = 3\n")

    def test_bad_value_reports_line(self):
        with pytest.raises(ScenarioError, match="line 1"):
            loads_scenario("alice.x = abc")

    def test_missing_equals_rejected(self):
        with pytest.raises(ScenarioError, match="key = value"):
            loads_scenario("alice.x 1000")

    def test_non_integer_shape_rejected(self):
        with pytest.raises(ScenarioError):
            loads_scenario("dm.s_los = 2.5")

    def test_rho_zero_db_rejected(self):
        with pytest.raises(ScenarioError):
            loads_scenario("noise.rho_db = 0")

    def test_epsilon_out_of_range_rejected(self):
        with pytest.raises(ScenarioError):
            loads_scenario("epsilon = 1.5")

    def test_rice_factor_above_marcum_range_rejected(self):
        # a = sqrt(2k) > 120 lies outside the Marcum-Q surrogate's range
        with pytest.raises(ScenarioError,
                           match=r"om\.k_half_pi_db.*38\.5733 dB"):
            loads_scenario("om.k_half_pi_db = 40")
        s = loads_scenario("om.k_half_pi_db = 38.5")
        assert s.om.rician.k_half_pi < 7200.0

    def test_rice_ceiling_printed_with_enough_digits(self):
        # 38.58 dB lies above the 38.5733 dB ceiling; printed to one
        # decimal the ceiling read 38.6, below the rejected value
        with pytest.raises(ScenarioError) as info:
            loads_scenario("om.k_half_pi_db = 38.58")
        assert "38.58 dB exceeds 38.5733 dB" in str(info.value)

    def test_beamwidth_override(self):
        s = loads_scenario("antenna.alice.theta_ed_rad = 0.3")
        assert s.ant_alice.theta_ed == 0.3
        assert s.ant_alice.theta_h == pytest.approx(math.sqrt(0.5))

    def test_scenario_from_flat_matches_text_loading(self):
        text = "alice.x = 400\np_a_dbm = 10\ndm.s_los = 4\n"
        assert scenario_from_flat(scenario_to_flat(text)) == (
            loads_scenario(text))
        assert scenario_from_flat({"alice.x": 400.0}).alice.x == 400.0
        with pytest.raises(ScenarioError, match="not_a_key"):
            scenario_from_flat({"not_a_key": 1.0})
        with pytest.raises(ScenarioError):
            scenario_from_flat({"epsilon": 1.5})


class TestSafeDistance:
    def test_default_position_is_safe(self, scn):
        scn.check_safe_distance(scn.alice)  # d_aw = 500, inside [300, 1500]

    def test_unsafe_position_raises(self, scn):
        too_close = NodePosition(1000.0, 0.0, 100.0)
        with pytest.raises(ScenarioError, match="d_aw"):
            scn.check_safe_distance(too_close)
        scn.check_safe_distance(too_close, allow_unsafe=True)


class TestHash:
    def test_stable_and_sensitive(self):
        base = scenario_to_flat("")
        assert scenario_hash(base) == scenario_hash(dict(DEFAULT_FLAT))
        moved = scenario_to_flat("alice.x = 999")
        assert scenario_hash(moved) != scenario_hash(base)
        assert len(scenario_hash(base)) == 16


class TestOverrides:
    def test_default_scenario_kwargs(self):
        s = default_scenario(epsilon=0.1, seed=7)
        assert s.epsilon == 0.1
        assert s.seed == 7
