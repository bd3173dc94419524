import math
import re
from dataclasses import replace

import pytest

from a2gcovert.channel import NakagamiLaw, PathLoss
from a2gcovert.errors import A2GError, ScenarioError
from a2gcovert.geometry import AntennaSpec, SCurveParams
from a2gcovert.scenario import (
    DEFAULT_FLAT,
    BandModel,
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
        assert link.theta_rad == pytest.approx(math.pi / 2)
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

    @pytest.mark.parametrize("key, value", [
        ("p_a_dbm", math.nan), ("om.bandwidth_hz", math.nan),
        ("p_max_dbm", math.inf), ("p_max_dbm", 4000.0),
        ("noise.sigma_n2_dbm", 3500.0)])
    def test_non_finite_value_rejected(self, key, value):
        # these printed nan rows, divided by zero or overflowed in dbm_to_mw
        for build in (lambda: scenario_from_flat({key: value}),
                      lambda: loads_scenario(f"{key} = {value}")):
            with pytest.raises(ScenarioError,
                               match=re.escape(key) + ".*finite"):
                build()

    @pytest.mark.parametrize("field", ["r_b", "p_a", "p_max"])
    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_non_finite_rate_or_power_rejected_through_the_api(self, scn,
                                                               field, value):
        # these passed the sign checks: ecr was nan at r_b = inf, and the
        # metrics raised errors that named the transmit power, gamma_th or
        # an overflowing capacity kernel
        with pytest.raises(ScenarioError,
                           match=f"{field} must be .*finite"):
            replace(scn, **{field: value})

    def test_non_numeric_value_rejected(self):
        with pytest.raises(ScenarioError, match=r"alice\.x = '400'"):
            scenario_from_flat({"alice.x": "400"})

    @pytest.mark.parametrize("key, value", [
        ("antenna.alice.n", 6.5), ("seed", 1.7), ("dm.s_los", 2.5)])
    def test_non_integer_value_of_integer_key_rejected(self, key, value):
        with pytest.raises(ScenarioError,
                           match=re.escape(key) + ".*must be an integer"):
            scenario_from_flat({key: value})

    @pytest.mark.parametrize("who", ["alice", "bob", "willie"])
    @pytest.mark.parametrize("n", [0, -4])
    def test_antenna_without_elements_rejected(self, who, n):
        # the default beamwidth sqrt(3 / n) divided by zero first
        key = f"antenna.{who}.n"
        with pytest.raises(ScenarioError,
                           match=re.escape(f"{key} = {n} must be >= 1")):
            scenario_from_flat({key: n})

    def test_negative_seed_rejected(self, scn):
        for build in (lambda: loads_scenario("seed = -5"),
                      lambda: replace(scn, seed=-1)):
            with pytest.raises(ScenarioError, match=r"seed = -\d must be >= 0"):
                build()
        assert loads_scenario("seed = 0").seed == 0

    def test_integral_value_of_integer_key_accepted(self):
        s = scenario_from_flat({"seed": 2.0, "antenna.alice.n": 8.0})
        assert s.seed == 2 and s.ant_alice.n_elements == 8

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

    def test_nakagami_shape_ceiling(self):
        # the gamma tail sums take up to about 10 sqrt(s) terms; shapes above
        # specfun.GAMMA_SHAPE_MAX = 10^4 are rejected when loaded
        with pytest.raises(ScenarioError,
                           match=r"s_los must be an integer in \[1, 10000\]"):
            loads_scenario("dm.s_los = 10001")
        s = loads_scenario("dm.s_los = 10000\ndm.s_nlos = 10000")
        assert s.dm.nakagami.s_los == s.dm.nakagami.s_nlos == 10000

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


_PL = PathLoss(1e-6, 2.0)


@pytest.mark.parametrize("build", [
    lambda scn: PathLoss(math.nan, 2.0),
    lambda scn: PathLoss(1e-6, math.nan),
    lambda scn: SCurveParams(math.nan, 0.429),
    lambda scn: SCurveParams(4.88, math.nan),
    lambda scn: NodePosition(0.0, 0.0, math.nan),
    lambda scn: AntennaSpec(math.nan, 0.5, 0.5),
    lambda scn: BandModel("dm", _PL, _PL, math.nan,
                          nakagami=NakagamiLaw(3, 2)),
    lambda scn: replace(scn, seed=math.nan),
], ids=["PathLoss.beta", "PathLoss.alpha", "SCurveParams.sigma",
        "SCurveParams.f", "NodePosition.h", "AntennaSpec.n_elements",
        "BandModel.bandwidth_hz", "Scenario.seed"])
def test_model_type_rejects_a_nan_bound(scn, build):
    # NaN fails every comparison, so each bound is written as not (...)
    with pytest.raises(A2GError):
        build(scn)
