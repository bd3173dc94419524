import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from a2gcovert import detection
from a2gcovert.channel import (
    nakagami_power_pdf,
    nakagami_xi,
    rician_power_pdf,
)
from a2gcovert.detection import (
    dep_at_threshold,
    expected_min_dep,
    expected_min_dep_dm_closed_form,
    expected_min_dep_om_closed_form,
    false_alarm_probability,
    min_dep,
    min_dep_values,
    missed_detection_probability,
    threshold_breakpoints,
    truncated_mean_nakagami,
    truncated_mean_rician,
    varrho,
)
from a2gcovert.errors import A2GError, DomainError, QuadratureError
from a2gcovert.scenario import NodePosition, scenario_from_flat
from a2gcovert.specfun import marcum_mu_nu

SIGMA = 1e-8
RHO = 10 ** 0.2


class TestErrorPieces:
    def test_false_alarm_piecewise(self):
        assert false_alarm_probability(SIGMA / RHO * 0.5, SIGMA, RHO) == 1.0
        assert false_alarm_probability(SIGMA * RHO * 2.0, SIGMA, RHO) == 0.0
        # midpoint of the log interval gives 1/2
        assert false_alarm_probability(SIGMA, SIGMA, RHO) == pytest.approx(0.5)

    def test_missed_detection_piecewise(self):
        k_a = 3e-8
        assert missed_detection_probability(k_a, k_a, SIGMA, RHO) == 0.0
        assert missed_detection_probability(
            k_a + SIGMA * RHO * 2, k_a, SIGMA, RHO) == 1.0
        assert missed_detection_probability(
            k_a + SIGMA, k_a, SIGMA, RHO) == pytest.approx(0.5)

    def test_dep_is_sum(self):
        tau, k_a = 2.2e-8, 1.1e-8
        assert dep_at_threshold(tau, k_a, SIGMA, RHO) == pytest.approx(
            false_alarm_probability(tau, SIGMA, RHO)
            + missed_detection_probability(tau, k_a, SIGMA, RHO))

    def test_noise_validation(self):
        with pytest.raises(DomainError):
            false_alarm_probability(1e-8, 0.0, RHO)
        with pytest.raises(DomainError):
            false_alarm_probability(1e-8, SIGMA, 1.0)
        with pytest.raises(DomainError):
            missed_detection_probability(1e-8, -1.0, SIGMA, RHO)


class TestMinDepKernel:
    def test_zero_branch_cutoff(self):
        cutoff = (RHO * RHO - 1.0) * SIGMA / RHO
        assert min_dep_values(cutoff, SIGMA, RHO) == 0.0
        assert min_dep_values(cutoff * 1.01, SIGMA, RHO) == 0.0
        assert min_dep_values(cutoff * 0.99, SIGMA, RHO) > 0.0

    def test_zero_signal_gives_certain_error(self):
        assert min_dep_values(0.0, SIGMA, RHO) == pytest.approx(1.0)

    def test_optimal_threshold_interval(self):
        cutoff = (RHO * RHO - 1.0) * SIGMA / RHO
        res = min_dep(cutoff * 2.0, SIGMA, RHO)
        assert res.value == 0.0
        assert res.tau_lo == pytest.approx(RHO * SIGMA)
        assert res.tau_hi == pytest.approx(cutoff * 2.0 + SIGMA / RHO)
        point = min_dep(cutoff * 0.5, SIGMA, RHO)
        assert point.tau_lo == point.tau_hi

    def test_breakpoints_sorted(self):
        bp = threshold_breakpoints(3e-8, SIGMA, RHO)
        assert np.all(np.diff(bp) >= 0)
        assert bp[0] == SIGMA / RHO

    @given(st.floats(0.0, 1e-6), st.floats(1.02, 4.0))
    @settings(max_examples=60, deadline=None)
    def test_kernel_bounded_and_attained(self, k_a, rho):
        v = float(min_dep_values(k_a, SIGMA, rho))
        assert 0.0 <= v <= 1.0
        # the closed form equals the error at the optimal threshold
        tau_star = k_a + SIGMA / rho
        assert float(dep_at_threshold(tau_star, k_a, SIGMA, rho)) == (
            pytest.approx(v, abs=1e-12))

    def test_kernel_nonincreasing_in_power(self):
        ks = np.linspace(0.0, 1e-7, 60)
        vals = min_dep_values(ks, SIGMA, RHO)
        assert np.all(np.diff(vals) <= 1e-15)


class TestVarrho:
    def test_closed_form(self):
        unit = 2e-10
        assert varrho(unit, SIGMA, RHO) == pytest.approx(
            (RHO * RHO - 1.0) * SIGMA / (RHO * unit))

    def test_zero_power_is_infinite(self):
        assert varrho(0.0, SIGMA, RHO) == math.inf


class TestTruncatedMeans:
    def test_rician_matches_its_surrogate_density(self):
        # closed form must equal the truncated mean of the surrogate law it
        # is built on (the exact-law deviation is covered by the acceptance
        # suite)
        k, a = 8.0, 1.3
        c = marcum_mu_nu(math.sqrt(2.0 * k))

        def surrogate_cdf(x):
            return 1.0 - math.exp(
                -math.exp(c.mu) * (2.0 * x * (k + 1.0)) ** (c.nu / 2.0))

        # integration by parts: int x dF = a F(a) - int_0^a F
        area, _ = integrate.quad(surrogate_cdf, 0.0, a, limit=200)
        ref = a * surrogate_cdf(a) - area
        assert truncated_mean_rician(a, k) == pytest.approx(ref, abs=1e-9)

    @pytest.mark.parametrize("s", [1, 2, 3])
    def test_nakagami_matches_its_surrogate_density(self, s):
        a = 2.1
        xi = nakagami_xi(s)

        def surrogate_cdf(x):
            return (1.0 - math.exp(-xi * x)) ** s

        area, _ = integrate.quad(surrogate_cdf, 0.0, a, limit=200)
        ref = a * surrogate_cdf(a) - area
        assert truncated_mean_nakagami(a, s) == pytest.approx(ref, abs=1e-12)

    def test_zero_truncation(self):
        assert truncated_mean_rician(0.0, 5.0) == 0.0
        assert truncated_mean_nakagami(0.0, 2) == 0.0

    def test_infinite_truncation_near_unit_mean(self):
        # both surrogates integrate to approximately the true unit mean
        assert truncated_mean_rician(math.inf, 10.0) == pytest.approx(1.0,
                                                                      abs=0.05)
        assert truncated_mean_nakagami(math.inf, 1) == pytest.approx(1.0,
                                                                     abs=1e-12)

    def test_monotone_in_truncation_point(self):
        vals = [truncated_mean_nakagami(a, 3) for a in np.linspace(0.1, 4, 20)]
        assert all(x <= y + 1e-12 for x, y in zip(vals, vals[1:]))

    def test_domain_checks(self):
        with pytest.raises(DomainError):
            truncated_mean_rician(-1.0, 2.0)
        with pytest.raises(DomainError):
            truncated_mean_nakagami(1.0, 0)


class TestExpectedMinDep:
    def test_value_in_unit_interval_and_terms_sum(self, scn):
        for mode in ("om", "dm"):
            res = expected_min_dep(scn, mode)
            assert 0.0 <= res.value <= 1.0
            assert sum(res.terms.values()) == pytest.approx(res.value)

    def test_om_term_labels(self, scn):
        assert set(expected_min_dep(scn, "om").terms) == {"los", "nlos"}

    def test_dm_term_labels(self, scn):
        assert set(expected_min_dep(scn, "dm").terms) == {
            "main/los", "main/nlos", "side/los", "side/nlos"}

    def test_silent_transmitter_is_undetectable(self, scn):
        for mode in ("om", "dm"):
            assert expected_min_dep(scn, mode, p_a=0.0).value == (
                pytest.approx(1.0))

    def test_nonincreasing_in_power(self, scn):
        for mode in ("om", "dm"):
            vals = [expected_min_dep(scn, mode, p_a=p).value
                    for p in np.logspace(-2, 2, 12)]
            assert all(x >= y - 1e-12 for x, y in zip(vals, vals[1:]))

    def test_unknown_mode_rejected(self, scn):
        with pytest.raises(DomainError):
            expected_min_dep(scn, "fm")

    def test_negative_power_rejected(self, scn):
        with pytest.raises(DomainError):
            expected_min_dep(scn, "om", p_a=-1.0)

    def test_closed_forms_follow_exact_at_low_power(self, scn):
        # at low power the surrogate bias is small and both routes agree
        for mode, cf_fn in (("om", expected_min_dep_om_closed_form),
                            ("dm", expected_min_dep_dm_closed_form)):
            lo_e = expected_min_dep(scn, mode, p_a=0.01).value
            lo_c = cf_fn(scn, p_a=0.01).value
            assert lo_c == pytest.approx(lo_e, abs=0.02)

    def test_moving_away_from_warden_raises_dep(self, scn):
        near = NodePosition(1000.0, 0.0, 500.0)
        far = NodePosition(2000.0, 0.0, 500.0)
        assert expected_min_dep(scn, "om", alice=far).value > (
            expected_min_dep(scn, "om", alice=near).value)


def _tight_quad_average(law, param, cut, rho):
    """The state average by QUADPACK in the power x over [0, min(cut, tail)],
    with the tail bounds of the former per-state quadrature."""
    log_r2 = 2.0 * math.log(rho)
    g = (rho * rho - 1.0) / cut
    if law == "rician":
        tail = (math.sqrt(2.0 * param) + 12.0) ** 2 / (2.0 * (param + 1.0))
        peak = 1.0

        def pdf(x):
            return float(rician_power_pdf(x, param))
    else:
        tail = (60.0 + 20.0 * param) / param
        peak = (param - 1.0) / param

        def pdf(x):
            return float(nakagami_power_pdf(x, param))
    upper = min(cut, tail)
    points = [q for q in (0.9 * peak, peak, 1.1 * peak) if 0.0 < q < upper]
    points += [upper * f for f in (1e-4, 1e-3, 1e-2, 0.1)]
    val, _ = integrate.quad(
        lambda x: (1.0 - math.log1p(g * x) / log_r2) * pdf(x), 0.0, upper,
        points=sorted(points), limit=2000, epsabs=1e-14, epsrel=1e-13)
    return min(1.0, max(0.0, val))


class TestDepKernel:
    def test_matches_tight_quadrature_on_random_states(self):
        # Rice factors up to the parser's ceiling, gamma shapes up to 300
        # (half of them 1 to 3, whose density does not vanish fast at 0),
        # rho up to 20 dB (where the graded panels matter) and cutoffs from
        # 1e-3 to 1e2 times the mean power
        rng = np.random.default_rng(20261018)
        sigma_n2 = 1e-8
        worst = (0.0, None)
        for i in range(240):
            law = ("rician", "gamma")[i % 2]
            if law == "rician":
                param = float(rng.choice([rng.uniform(0.0, 7200.0),
                                          10.0 ** rng.uniform(-2.0, 3.86)]))
            else:
                param = int(rng.choice([rng.integers(1, 4),
                                        rng.integers(1, 301)]))
            rho_db = 20.0 if i % 8 < 2 else float(rng.uniform(1e-5, 20.0))
            rho = 10.0 ** (rho_db / 10.0)
            cut = float(10.0 ** rng.uniform(-3.0, 2.0))
            unit = (rho * rho - 1.0) * sigma_n2 / (rho * cut)
            (val,), (est,) = detection._state_averages(
                law, [param], [unit], sigma_n2, rho)
            assert est <= 1e-8
            err = abs(val - _tight_quad_average(law, param, cut, rho))
            if err > worst[0]:
                worst = (err, (law, param, rho_db, cut))
        assert worst[0] <= 1e-9, f"kernel error {worst[0]:.3g} at {worst[1]}"

    def test_error_estimate_carried_and_small(self, scn):
        for mode in ("om", "dm"):
            res = expected_min_dep(scn, mode)
            assert 0.0 <= res.abs_err <= 1e-8
            assert expected_min_dep(scn, mode, p_a=0.0).abs_err == 0.0

    def test_starved_rule_raises_naming_the_state(self, monkeypatch):
        scn = scenario_from_flat({
            "om.k_half_pi_db": 10.0 * math.log10(7200.0),
            "alice.x": 1000.0, "alice.y": 0.0,
            "willie.x": 1000.0, "willie.y": 0.0})
        assert expected_min_dep(scn, "om").abs_err <= 1e-8
        monkeypatch.setattr(detection, "_RULE",
                            detection._composite_rule(panels=1, n=4, n_est=2))
        with pytest.raises(QuadratureError) as info:
            expected_min_dep(scn, "om")
        msg = str(info.value)
        assert "rician" in msg and "k = 7200" in msg
        assert "unit power" in msg and "window b in [108" in msg


@st.composite
def _corner_scenarios(draw):
    k0_db = draw(st.floats(-10.0, 10.0))
    flat = {
        "noise.rho_db": draw(st.floats(1e-5, 20.0)),
        "om.k0_db": k0_db,
        "om.k_half_pi_db": draw(st.floats(k0_db, 38.6)),
        "dm.s_los": draw(st.integers(1, 300)),
        "dm.s_nlos": draw(st.integers(1, 300)),
        "alice.h": draw(st.floats(1.0, 2000.0)),
    }
    if draw(st.booleans()):  # directly above the warden
        flat["alice.x"], flat["alice.y"] = 1000.0, 0.0
    else:
        flat["alice.x"] = draw(st.floats(-3000.0, 3000.0))
    return flat


class TestDepProperties:
    @given(_corner_scenarios(), st.sampled_from(["om", "dm"]))
    @settings(max_examples=60, deadline=None)
    def test_in_unit_interval_and_nonincreasing_in_power(self, flat, mode):
        powers = [0.0, 1e-30, 1e-18, 1e-9] + list(np.logspace(-6, 3, 10))
        try:
            scn = scenario_from_flat(flat)
            vals = [expected_min_dep(scn, mode, p_a=p).value for p in powers]
        except A2GError:
            return
        assert all(0.0 <= v <= 1.0 for v in vals)
        assert all(x >= y - 1e-12 for x, y in zip(vals, vals[1:])), vals
