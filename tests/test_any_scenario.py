"""Any scenario the parser accepts gives in-range values or an A2GError.

Scenarios are the defaults with one to four keys of ``scenario_to_flat()``
moved far out: a dB or dBm value by up to +-3000 dB, a node coordinate
scaled by up to 10^+-300 and any other value by up to 10^+-30, each
possibly negated, an integer key set anywhere from -2 to 1000.  The parser
rejects some of them; every other one goes through the scenario-level
metrics and both solves in both modes, with warnings raised as errors.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from a2gcovert.detection import expected_min_dep
from a2gcovert.errors import A2GError, ScenarioError
from a2gcovert.planner import maximize_csc, maximize_ecr
from a2gcovert.scenario import scenario_from_flat, scenario_to_flat
from a2gcovert.throughput import csc, outage

_DEFAULTS = scenario_to_flat()


@st.composite
def _far_scenarios(draw):
    flat = dict(_DEFAULTS)
    for key in draw(st.lists(st.sampled_from(sorted(flat)), min_size=1,
                             max_size=4, unique=True)):
        value = flat[key]
        if isinstance(value, int):
            flat[key] = draw(st.integers(-2, 1000))
        elif key.endswith(("_db", "_dbm")):
            flat[key] = value + draw(st.one_of(
                st.sampled_from([-3000.0, -300.0, 300.0, 3000.0]),
                st.floats(-3000.0, 3000.0)))
        else:
            # positions out to where a squared coordinate overflows
            top = 300 if key.startswith(("alice.", "bob.", "willie.")) else 30
            power = draw(st.one_of(st.sampled_from([-top, -8, 8, top]),
                                   st.floats(-top, top)))
            sign = draw(st.sampled_from([1.0, 1.0, -1.0]))
            flat[key] = sign * (value or 1.0) * 10.0 ** power
    return flat


@given(_far_scenarios())
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_values_in_range_or_a2g_error(flat):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            scn = scenario_from_flat(flat)
        except A2GError:
            return
        for mode in ("om", "dm"):
            checks = (
                (lambda: expected_min_dep(scn, mode),
                 lambda r: 0.0 <= r.value <= 1.0
                 and 0.0 <= r.abs_err < math.inf),
                (lambda: outage(scn, mode), lambda r: 0.0 <= r <= 1.0),
                (lambda: csc(scn, mode), lambda r: 0.0 <= r < math.inf),
                (lambda: maximize_ecr(scn, mode),
                 lambda r: 0.0 <= r.p_a_opt <= scn.p_max
                 and 0.0 <= r.objective < math.inf),
                (lambda: maximize_csc(scn, mode),
                 lambda r: 0.0 <= r.p_a_opt <= scn.p_max
                 and 0.0 <= r.objective < math.inf),
            )
            for run, in_range in checks:
                try:
                    res = run()
                except A2GError:
                    continue
                assert in_range(res), (mode, res)


def test_alice_far_beyond_the_squaring_range():
    # (alice.x)^2 overflowed in geometry.distance and ended every metric
    # in a bare OverflowError
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for x in (1e160, -1e160, 1e300, np.float64(1e200)):
            scn = scenario_from_flat({"alice.x": x})
            for mode in ("om", "dm"):
                try:
                    dep = expected_min_dep(scn, mode)
                    p_out, cap = outage(scn, mode), csc(scn, mode)
                    ecr_opt = maximize_ecr(scn, mode).objective
                    csc_opt = maximize_csc(scn, mode).objective
                except A2GError:
                    continue
                assert 0.0 <= dep.value <= 1.0 and 0.0 <= p_out <= 1.0
                for val in (cap, ecr_opt, csc_opt):
                    assert 0.0 <= val < math.inf


def test_nakagami_shapes_up_to_the_ceiling():
    # the parser accepts shapes up to specfun.GAMMA_SHAPE_MAX = 10^4
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for shape in (1000, 10_000):
            scn = scenario_from_flat({"dm.s_los": shape, "dm.s_nlos": shape})
            dep = expected_min_dep(scn, "dm")
            assert 0.0 <= dep.value <= 1.0 and 0.0 <= dep.abs_err < math.inf
            assert 0.0 < outage(scn, "dm") < 1.0
            assert 0.0 < csc(scn, "dm") < math.inf


@pytest.mark.parametrize("rho_db", [1e-6, 1e-15])
def test_noise_uncertainty_just_above_one(rho_db):
    # rho - 1 = 2.3e-7 and 2.2e-16: every metric is in range; the parser
    # refused both, below rho = 1 + 1e-6
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        scn = scenario_from_flat({"noise.rho_db": rho_db})
        assert scn.noise.rho > 1.0
        for mode in ("om", "dm"):
            dep = expected_min_dep(scn, mode)
            assert 0.0 <= dep.value <= 1.0 and 0.0 <= dep.abs_err < math.inf
            assert 0.0 <= outage(scn, mode) <= 1.0
            assert 0.0 <= csc(scn, mode) < math.inf
            for res in (maximize_ecr(scn, mode), maximize_csc(scn, mode)):
                assert 0.0 < res.p_a_opt <= scn.p_max
                assert 0.0 <= res.objective < math.inf


def test_noise_uncertainty_that_rounds_to_one_names_its_key():
    # 10^(1e-18) is 1 in floating point: a perfect detector
    with pytest.raises(ScenarioError, match=r"noise\.rho_db = 1e-17 gives "
                       r"rho = 1\.0, which must exceed 1"):
        scenario_from_flat({"noise.rho_db": 1e-17})
