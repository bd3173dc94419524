import math
import warnings
from dataclasses import replace

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import integrate, special

from a2gcovert import channel, throughput
from a2gcovert.channel import LinkStates, link_states
from a2gcovert.errors import A2GError, DomainError, QuadratureError
from a2gcovert.planner import maximize_csc, maximize_ecr
from a2gcovert.scenario import (NodePosition, db_to_linear, dbm_to_mw,
                                scenario_from_flat)
from a2gcovert.specfun import marcum_mu_nu
from a2gcovert.surrogate import _alzer_cdf, nakagami_xi, outage_dm_closed_form
from a2gcovert.throughput import (
    _gamma_cdf,
    _noise_average,
    _rician_cdf,
    csc,
    csc_over_states,
    ecr,
    ecr_over_states,
    outage,
    outage_over_states,
    snr_threshold,
)
from a2gcovert.validation import (GRID_P_A_DBM, GRID_R_B, GRID_RHO_DB,
                                  GRID_X_A)

from test_detection import _corner_scenarios


def _outage_at(scn, mode, p_a, gamma_th):
    """The outage kernel on the scenario's link to Bob at (p_a, gamma_th)."""
    return outage_over_states(link_states(scn, mode, "bob"), p_a,
                              gamma_th, scn.noise.rho)


def _dense_noise_mean(cdf, log_mid, half, width):
    """Mean of cdf(e^v) over v uniform on [log_mid - half, log_mid + half],
    ln x capped at 700, by 32-node Gauss-Legendre panels at most ``width``
    wide in v = ln x."""
    t, w = np.polynomial.legendre.leggauss(32)
    edges = np.linspace(log_mid - half, log_mid + half,
                        math.ceil(2.0 * half / width) + 1)
    c, h = 0.5 * (edges[1:] + edges[:-1]), 0.5 * np.diff(edges)
    v = np.minimum(c[:, None] + h[:, None] * t, 700.0)
    return float(cdf(np.exp(v)) @ w @ h) / (2.0 * half)


def _dense_gamma_outage(states, p_a, gamma_th, rho):
    """The exact outage of a gamma table at (p_a, gamma_th): scipy's gamma
    CDF at x = s gamma_th sigma^2 rho^u / (p_a unit), formed in log space,
    averaged by ``_dense_noise_mean`` on panels 2 / sqrt(s) wide."""
    total = 0.0
    for prob, s, unit in zip(states.probs, states.params,
                             states.received(p_a)):
        log_mid = (math.log(s) + math.log(gamma_th) - math.log(unit)
                   + math.log(states.sigma_n2))
        total += prob * _dense_noise_mean(
            lambda x: special.gammainc(s, x), log_mid, math.log(rho),
            2.0 / math.sqrt(s))
    return total


class TestSnrThreshold:
    def test_closed_form(self):
        assert snr_threshold(40e6, 40e6) == pytest.approx(1.0)
        assert snr_threshold(80e6, 40e6) == pytest.approx(3.0)
        assert snr_threshold(0.0, 40e6) == 0.0

    def test_vectorised(self):
        out = snr_threshold(np.array([0.0, 40e6]), 40e6)
        assert out.shape == (2,)
        assert out[1] == pytest.approx(1.0)

    def test_validation(self):
        with pytest.raises(DomainError):
            snr_threshold(1e6, 0.0)
        with pytest.raises(DomainError):
            snr_threshold(-1.0, 1e6)

    def test_rate_far_above_the_band(self, scn):
        # gamma_th overflows to inf, silently: outage 1 and ECR 0
        huge = replace(scn, r_b=1e12)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert snr_threshold(1e12, 1e6) == math.inf
            for mode in ("om", "dm"):
                assert outage(huge, mode) == 1.0
                assert ecr(huge, mode) == 0.0


class TestOutage:
    def test_probability_range(self, scn):
        for mode in ("om", "dm"):
            p = float(outage(scn, mode))
            assert 0.0 <= p <= 1.0

    def test_zero_rate_never_outages(self, scn):
        silent = replace(scn, r_b=0.0)
        assert float(outage(silent, "om")) == 0.0
        assert float(outage(silent, "dm")) == 0.0

    def test_zero_power_always_outages(self, scn):
        assert float(_outage_at(scn, "om", 0.0, 1.0)) == 1.0
        assert float(_outage_at(scn, "dm", 0.0, 1.0)) == 1.0

    def test_broadcasting_grid(self, scn):
        p = np.array([1.0, 10.0, 100.0])[:, None]
        g = np.array([0.5, 1.0, 2.0, 4.0])[None, :]
        for mode in ("om", "dm"):
            grid = _outage_at(scn, mode, p, g)
            assert grid.shape == (3, 4)
            # worse in rate along axis 1, better in power along axis 0
            assert np.all(np.diff(grid, axis=1) >= -1e-12)
            assert np.all(np.diff(grid, axis=0) <= 1e-12)

    def test_monotone_in_distance(self, scn):
        near = NodePosition(0.0, 0.0, 500.0)
        far = NodePosition(1500.0, 0.0, 500.0)
        assert float(outage(replace(scn, alice=near), "om")) < (
            float(outage(replace(scn, alice=far), "om")))

    def test_dm_closed_form_tracks_exact(self, scn):
        exact = float(outage(scn, "dm"))
        approx = float(outage_dm_closed_form(scn))
        assert abs(exact - approx) < 0.06

    def test_negative_inputs_rejected(self, scn):
        with pytest.raises(DomainError):
            _outage_at(scn, "om", -1.0, 1.0)
        with pytest.raises(DomainError):
            _outage_at(scn, "dm", scn.p_a, -0.5)
        with pytest.raises(DomainError):
            outage(scn, "fm")

    @given(gamma=st.floats(0.1, 5.0))
    @settings(max_examples=20, deadline=None)
    def test_outage_is_probability(self, scn, gamma):
        for mode in ("om", "dm"):
            v = float(_outage_at(scn, mode, scn.p_a, gamma))
            assert 0.0 <= v <= 1.0


class TestEcr:
    def test_definition(self, scn):
        for mode in ("om", "dm"):
            expected = scn.r_b * (1.0 - float(outage(scn, mode)))
            assert float(ecr(scn, mode)) == pytest.approx(expected)

    def test_zero_rate_is_zero(self, scn):
        assert float(ecr(replace(scn, r_b=0.0), "om")) == 0.0

    def test_bounded_by_target_rate(self, scn):
        for mode in ("om", "dm"):
            assert 0.0 <= float(ecr(scn, mode)) <= scn.r_b

    def test_kernel_is_the_rate_times_the_success_probability(self, scn):
        # on the validation grid's tables: a power column against a rate
        # row broadcasts to the grid, bit for bit the outage kernel's
        rates = np.array(GRID_R_B)
        p_a = np.array([dbm_to_mw(p) for p in GRID_P_A_DBM])[:, None]
        for x_a in GRID_X_A:
            point = replace(scn, alice=NodePosition(x_a, 0.0, 500.0))
            for mode in ("om", "dm"):
                bob = link_states(point, mode, "bob")
                for rho in map(db_to_linear, GRID_RHO_DB):
                    got = ecr_over_states(bob, p_a, rates, rho)
                    want = rates * (1.0 - outage_over_states(
                        bob, p_a, snr_threshold(rates, bob.bandwidth_hz),
                        rho))
                    assert got.shape == (len(p_a), len(rates))
                    np.testing.assert_array_equal(got, want)
                    one = ecr_over_states(bob, float(p_a[1, 0]),
                                          float(rates[2]), rho)
                    assert isinstance(one, float)
                    assert one == pytest.approx(got[1, 2], rel=1e-14)


class TestCsc:
    def test_positive_at_defaults(self, scn):
        assert csc(scn, "om") > 0.0
        assert csc(scn, "dm") > 0.0

    def test_zero_power_is_zero(self, scn):
        silent = replace(scn, p_a=0.0)
        assert csc(silent, "om") == 0.0
        assert csc(silent, "dm") == 0.0

    def test_nondecreasing_in_power(self, scn):
        for mode in ("om", "dm"):
            vals = [csc(replace(scn, p_a=p), mode)
                    for p in np.logspace(-1, 2, 8)]
            assert all(x <= y + 1e-9 for x, y in zip(vals, vals[1:]))

    def test_below_nominal_capacity_upper_bound(self, scn):
        # capacity with the best possible noise draw bounds the average
        from a2gcovert.channel import path_loss
        link = scn.link(scn.alice, scn.bob)
        lo = scn.noise.sigma_n2 / scn.noise.rho
        snr_max = scn.p_a * path_loss(link.d, scn.om.pl_los) / lo
        bound = scn.om.bandwidth_hz * math.log2(1.0 + snr_max * 50.0)
        assert csc(scn, "om") < bound

    def test_negative_power_rejected(self, scn):
        with pytest.raises(DomainError):
            csc_over_states(link_states(scn, "om", "bob"), -0.1,
                            scn.noise.rho)
        with pytest.raises(DomainError):
            csc(scn, "fm")


def _tight_capacity(law, param, snr, rho):
    """E[ln(1 + snr x rho^-u)] over the fading power x and u ~ U[-1, 1], by
    nested QUADPACK: in u outside, in x inside."""
    if law == "rician":
        k1, a = param + 1.0, math.sqrt(2.0 * param)
        lo = max(a - 14.0, 0.0) ** 2 / (2.0 * k1)
        hi = (a + 14.0) ** 2 / (2.0 * k1)

        def pdf(x):
            arg = 2.0 * math.sqrt(param * k1 * x)
            return k1 * math.exp(-param - k1 * x + arg) * special.i0e(arg)
    else:
        const = param * math.log(param) - math.lgamma(param)
        lo, hi = 0.0, float(special.gammainccinv(param, 1e-22)) / param

        def pdf(x):
            return math.exp(const + (param - 1) * math.log(x) - param * x)

    def inner(u):
        c = snr * rho ** -u
        points = [q for q in (1e-6 * hi, 1e-3 * hi, 0.5, 1.0, 1.5, 1.0 / c)
                  if lo < q < hi]
        val, _ = integrate.quad(lambda x: math.log1p(c * x) * pdf(x), lo, hi,
                                points=sorted(points), limit=500, epsabs=0.0,
                                epsrel=1e-12)
        return val

    val, _ = integrate.quad(inner, -1.0, 1.0, limit=200, epsabs=0.0,
                            epsrel=1e-12)
    return 0.5 * val


def _one_state(law, param, bandwidth_hz):
    """A single-state table with unit gains and unit noise power, always in
    that state."""
    return LinkStates(law, ("state",), (1.0,), (param,), 1.0, (1.0,), (1.0,),
                      1.0, bandwidth_hz)


class TestCscKernel:
    @pytest.mark.parametrize("x_a", [400.0, 2200.0])
    @pytest.mark.parametrize("mode", ["om", "dm"])
    def test_low_snr_is_first_order_series(self, mode, x_a):
        # at p_a = 1e-9 mW the SNR is ~1e-12, where ln(1 + snr) = snr to
        # that order: the capacity is W / ln 2 E[snr]
        scn = scenario_from_flat({"alice.x": x_a})
        table = link_states(scn, mode, "bob")
        rho = scn.noise.rho
        mean_noise_gain = (rho - 1.0 / rho) / (2.0 * math.log(rho))
        mean_snr = sum(p * u for p, u in zip(table.probs, table.received(1e-9))
                       ) / scn.noise.sigma_n2 * mean_noise_gain
        want = scn.band(mode).bandwidth_hz / math.log(2.0) * mean_snr
        assert csc(replace(scn, p_a=1e-9), mode) == pytest.approx(
            want, rel=1e-9, abs=0.0)

    def test_matches_tight_quadrature_on_random_states(self):
        # Rice factors up to the parser's ceiling, gamma shapes up to 300
        # (half of them 1 to 3), mean SNR from 1e-12 to 1e6 and rho up to
        # 20 dB (where the graded panels matter)
        rng = np.random.default_rng(20261018)
        worst = (0.0, None)
        for i in range(100):
            law = ("rician", "gamma")[i % 2]
            if law == "rician":
                param = float(rng.choice([rng.uniform(0.0, 7200.0),
                                          10.0 ** rng.uniform(-2.0, 3.86)]))
            else:
                param = int(rng.choice([rng.integers(1, 4),
                                        rng.integers(1, 301)]))
            rho_db = 20.0 if i % 8 < 2 else float(rng.uniform(1e-5, 20.0))
            rho = 10.0 ** (rho_db / 10.0)
            snr = float(10.0 ** rng.uniform(-12.0, 6.0))
            # W = ln 2 turns bits/s back into the mean of ln(1 + snr)
            got = csc_over_states(_one_state(law, param, math.log(2.0)),
                                  snr, rho)
            want = _tight_capacity(law, param, snr, rho)
            err = abs(got - want) / want
            if err > worst[0]:
                worst = (err, (law, param, rho_db, snr))
        assert worst[0] <= 1e-10, f"kernel error {worst[0]:.3g} at {worst[1]}"

    def test_starved_rule_raises_naming_the_state(self, monkeypatch):
        states = _one_state("rician", 7200.0, 1.0)
        assert csc_over_states(states, 1.0, 2.0) > 0.0
        # one panel of 4 nodes, estimated by 2
        monkeypatch.setattr(channel, "_RULE", (1, 4, 2))
        with pytest.raises(QuadratureError) as info:
            csc_over_states(states, 1.0, 2.0)
        msg = str(info.value)
        assert "rician" in msg and "k = 7200" in msg
        assert "mean SNR" in msg and "window b in [108" in msg


class TestSilentState:
    # a state whose mean received power underflows to 0 is in outage at
    # every positive threshold, in the exact kernels and in the surrogate

    @pytest.mark.parametrize("law, param", [("rician", 5.0), ("gamma", 2)])
    def test_kernel(self, law, param):
        dead = replace(_one_state(law, param, 1.0), losses=(0.0,))
        gammas = np.array([0.0, 1e-300, 4.0])
        assert outage_over_states(dead, 1.0, gammas, 2.0).tolist() == [
            0.0, 1.0, 1.0]

    @pytest.mark.parametrize("key, value, mode", [
        ("dm.alpha_nlos", 3e6, "dm"), ("om.alpha_nlos", 2710.0, "om")])
    def test_underflowing_path_loss(self, key, value, mode):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            scn = scenario_from_flat({key: value})
            bob = link_states(scn, mode, "bob")
            dead = sum(p for p, unit in zip(bob.probs, bob.received(1.0))
                       if unit == 0.0)
            p_out = outage(scn, mode)
            res = maximize_ecr(scn, mode)
            closed = outage_dm_closed_form(scn)
        assert dead > 0.0
        assert dead <= p_out <= 1.0
        assert ecr(scn, mode) == scn.r_b * (1.0 - p_out)
        assert 0.0 < res.objective <= res.r_b_opt
        assert 0.0 <= closed <= 1.0


class TestGammaOutage:
    def test_noise_power_that_overflows(self):
        # sigma^2 rho^u overflows at the upper noise nodes: it warned, and
        # the gamma CDF at x = inf was nan; there the CDF is 1 (the 64-node
        # rule read 0.75527 here, 4.7e-3 off)
        scn = scenario_from_flat({"noise.sigma_n2_dbm": 1377.0,
                                  "noise.rho_db": 2913.0})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = outage(scn, "dm")
        bob = link_states(scn, "dm", "bob")
        gamma_th = float(snr_threshold(scn.r_b, bob.bandwidth_hz))
        want = _dense_gamma_outage(bob, scn.p_a, gamma_th, scn.noise.rho)
        assert 0.0 < got < 1.0
        assert got == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("shape", [33, 1000, 10000])
    def test_large_shapes_match_scipy(self, shape):
        # above shape 32 the CDF is a Poisson tail sum; at the parser's
        # ceiling of 10^4 as well
        scn = scenario_from_flat({"dm.s_los": shape, "dm.s_nlos": shape})
        bob = link_states(scn, "dm", "bob")
        gamma_th = float(snr_threshold(scn.r_b, bob.bandwidth_hz))
        want = _dense_gamma_outage(bob, scn.p_a, gamma_th, scn.noise.rho)
        assert outage(scn, "dm") == pytest.approx(want, rel=0, abs=1e-14)

    @pytest.mark.parametrize("shape", [1, 3, 100, 1000, 6850, 10000])
    def test_matches_a_dense_rule_over_wide_noise_spans(self, shape):
        # the fixed 64-node rule was off by up to 1e-2 here at 100 dB and
        # 2e-3 at 4 dB (s = 10^4)
        for rho_db in (0.5, 4.0, 30.0, 100.0):
            scn = scenario_from_flat({"dm.s_los": shape, "dm.s_nlos": shape,
                                      "noise.rho_db": rho_db})
            bob = link_states(scn, "dm", "bob")
            g = float(snr_threshold(scn.r_b, bob.bandwidth_hz))
            gammas = g * np.array([0.01, 1.0, 100.0])
            got = _outage_at(scn, "dm", scn.p_a, gammas)
            want = [_dense_gamma_outage(bob, scn.p_a, gamma, scn.noise.rho)
                    for gamma in gammas]
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-14,
                                       err_msg=f"rho = {rho_db} dB")

    @pytest.mark.parametrize("law, param", [("rician", 5.0), ("gamma", 2)])
    def test_quotient_of_noise_and_unit_power_out_of_range(self, law, param):
        # with a unit power of 1e-310 mW, s / unit (gamma) overflowed and
        # gave outage 1; with a noise power of 1e-308 mW, 2 (k+1) sigma^2 /
        # unit (Rician) underflowed and math.log raised; the SNR is that of
        # a plain table at p_a unit = 1e-10 mW or sigma^2 = 1e-11 mW
        plain = replace(_one_state(law, param, 1.0), sigma_n2=1e-11)
        small_unit = replace(plain, losses=(1e-310,))
        small_noise = replace(plain, sigma_n2=1e-308, losses=(1e-297,))
        gammas = np.array([1.0, 10.0, 100.0])
        want = outage_over_states(plain, 1e-10, gammas, 2.0)
        assert 0.01 < want[1] < 0.99
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for table, p_a in ((small_unit, 1e300), (small_noise, 1e-10)):
                got = outage_over_states(table, p_a, gammas, 2.0)
                np.testing.assert_allclose(got, want, rtol=1e-9)


class TestRicianOutage:
    def test_narrow_noise_uncertainty_does_not_cancel(self):
        # at rho = 1e-5 dB the noise average is the surrogate CDF
        # 1 - exp(-e^mu b^nu) at the nominal noise power, to O(ln(rho)^2);
        # the Ei difference of the closed form cancelled to 1.5e-12 here
        scn = scenario_from_flat({"noise.rho_db": 1e-5, "om.k0_db": 0.0,
                                  "om.k_half_pi_db": 31.769112813747075,
                                  "alice.h": 1.0, "alice.x": -500.0})
        table = link_states(scn, "om", "bob")
        g = float(snr_threshold(scn.r_b, scn.om.bandwidth_hz))
        for p_a in (1e-3, 1.0, 1e3):
            want = 0.0
            for prob, k, unit in zip(table.probs, table.params,
                                     table.received(p_a)):
                c = marcum_mu_nu(math.sqrt(2.0 * k))
                b = math.sqrt(2.0 * (k + 1.0) * g * scn.noise.sigma_n2 / unit)
                want += prob * -math.expm1(-math.exp(c.mu + c.nu * math.log(b)))
            assert outage(replace(scn, p_a=p_a), "om") == pytest.approx(
                want, rel=1e-6)

    @pytest.mark.parametrize("k", [0.5, 5.0, 14.3, 50.0])
    def test_matches_mpmath_over_wide_noise_spans(self, k):
        # the mean of 1 - exp(-e^z) over z in [a, b] is
        # 1 - (E1(e^a) - E1(e^b)) / (b - a); spans nu ln(rho) up to 265
        c = marcum_mu_nu(math.sqrt(2.0 * k))
        table = _one_state("rician", k, 1.0)
        log_q = math.log(2.0 * (k + 1.0))
        gammas = np.exp((np.linspace(-60.0, 60.0, 25) - c.mu) / (0.5 * c.nu)
                        - log_q)
        for rho_db in (0.5, 4.0, 10.0, 30.0, 60.0, 100.0):
            rho = 10.0 ** (rho_db / 10.0)
            half = 0.5 * (c.nu * math.log(rho))
            got = outage_over_states(table, 1.0, gammas, rho)
            with mpmath.workdps(40):
                for g, v in zip(gammas, got):
                    # z as the kernel forms it at unit power and noise
                    z = c.mu + 0.5 * c.nu * (math.log(g) + log_q)
                    a, b = mpmath.mpf(z) - half, mpmath.mpf(z) + half
                    want = 1 - (mpmath.e1(mpmath.exp(a))
                                - mpmath.e1(mpmath.exp(b))) / (b - a)
                    assert abs(v - float(want)) <= 1e-15, (rho_db, z)

    def test_no_overflow_at_large_rice_factors(self):
        # (2 (k+1) gamma sigma^2 / (p_a L))^(nu/2) overflowed here before the
        # exponent was formed in log space; the outage was 1 and stays 1
        scn = scenario_from_flat({"om.k_half_pi_db": 37.88, "om.k0_db": 6.98,
                                  "alice.h": 1445.5, "alice.x": -316.2})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert [outage(replace(scn, p_a=p), "om")
                    for p in (1e-12, 1e-3)] == [1.0, 1.0]


@pytest.mark.parametrize("law, param", [
    *(("rician", k) for k in (0.0, 0.5, 5.0, 30.0, 7200.0)),
    *(("gamma", s) for s in (1, 3, 32, 33, 1000, 10000)),
    *(("alzer", s) for s in (1, 3, 100, 10000))])
def test_law_is_0_below_its_support_and_1_above(law, param):
    # the noise rule counts a law's mass below lo as 0 and above hi as 1:
    # the exact CDF is at most 1e-17 below lo, and F is 1 from hi up
    if law == "rician":
        cdf, _, lo, hi = _rician_cdf(param)
        c = marcum_mu_nu(math.sqrt(2.0 * param))
        log_q = math.log(2.0 * (param + 1.0))

        def exact(t):
            return -math.expm1(-math.exp(c.mu + 0.5 * c.nu * (log_q + t)))
    elif law == "gamma":
        cdf, _, lo, hi = _gamma_cdf(param)

        def exact(t):
            return special.gammainc(param, param * math.exp(t))
    else:
        cdf, _, lo, hi = _alzer_cdf(param)
        xi = nakagami_xi(param)

        def exact(t):
            with mpmath.workdps(30):
                return float((1 - mpmath.exp(-xi * mpmath.exp(t))) ** param)
    offsets = np.array([0.0, 1e-6, 1e-3, 0.1, 1.0, 10.0, 100.0, 1e3])
    assert np.all(cdf(hi + offsets) == 1.0)
    for d in offsets[1:]:
        assert exact(lo - d) <= 1e-17, d


@pytest.mark.parametrize("s", [20, 32])
def test_gamma_cdf_below_its_support_is_not_negative(s):
    # the full Poisson sum up to shape 32 cancels to a few ulps of 1: it
    # read down to -2.2e-16 here (s = 32, lo - 1e-3), and it reads 1.1e-16
    # at s = 32, lo - 1e-6, where P is 2.6e-19, so the bound is an ulp
    cdf, _, lo, _ = _gamma_cdf(s)
    got = cdf(lo - np.array([1e-6, 1e-3, 0.1, 1.0]))
    assert np.all(got >= 0.0), got
    assert np.all(got <= np.finfo(float).eps), got


def _dense_panel_mean(f, mid, half):
    """Mean of f(mid + half u) over u ~ U[-1, 1] by 16 panels of 64
    Gauss-Legendre nodes each, one row per entry of ``mid``."""
    x, w = np.polynomial.legendre.leggauss(64)
    u = ((np.arange(16)[:, None] + 0.5 + 0.5 * x) / 8.0 - 1.0).ravel()
    return f(mid[:, None] + half * u) @ np.tile(w, 16) / 32.0


def _log1p_exp(t):
    return np.log1p(np.exp(t))


class TestNoiseRule:
    @pytest.mark.parametrize("rows", [1, 3, 128, 1000])
    @pytest.mark.parametrize("half, scale", [(0.7, 1.0), (1.0, 1.0),
                                             (3.5, 1.0), (48.5, 1.0)])
    def test_constant_averages_to_itself_exactly(self, rows, half, scale):
        # the weights sum to 2 in any order, whatever BLAS sums them in;
        # the spans are one panel, and 4 and 49 panels, where one sum over
        # all nodes, or scaling by 1/n first, is off by an ulp
        mid = np.linspace(-3.0, 3.0, rows)
        got = _noise_average(mid, half, np.ones_like, scale, -math.inf,
                             math.inf)
        assert np.all(got == 1.0), got[got != 1.0]

    @pytest.mark.parametrize("law, param, tol, rel", [
        *(("rician", k, 1e-15, False) for k in (0.0, 0.5, 5.0, 30.0)),
        ("rician", 7200.0, 1e-14, False),
        *(("gamma", s, 1e-14, False) for s in (1, 2, 3, 32, 33, 100, 10000)),
        *(("alzer", s, 1e-14, False) for s in (1, 3, 100, 10000)),
        ("capacity", None, 1e-13, True)])
    def test_widest_panel_matches_a_dense_rule(self, law, param, tol, rel):
        # one panel exactly _PANEL = 2 units of the integrand's scale wide,
        # its middle swept through the rise; each law at the tolerance of
        # its dense or mpmath test over wide noise spans, the om law at
        # k = 7200 at the outage's 1e-14: it rises within 1/71 of a unit
        # of t, so a node's rounding in ln 2(k+1) + t moves z by about
        # 1e-13, and 16 nodes average that to 4.3e-15 of the exact mean,
        # 1024 to 6.7e-16 (the former 64 nodes on 12 units: 3.3e-15)
        if law == "capacity":
            f, scale, lo, hi = _log1p_exp, 0.5, -10.0, 10.0
        else:
            f, scale, lo, hi = {"rician": _rician_cdf, "gamma": _gamma_cdf,
                                "alzer": _alzer_cdf}[law](param)
        half = 0.5 * throughput._PANEL / scale
        mid = np.linspace(lo - half, hi + half, 401)
        got = _noise_average(mid, half, f, scale, lo, hi)
        want = _dense_panel_mean(f, mid, half)
        err = np.abs(got - want) / (np.abs(want) if rel else 1.0)
        assert err.max() <= tol, (err.max(), mid[err.argmax()])

    def test_default_scenario_takes_one_panel_per_average(self, scn,
                                                          monkeypatch):
        # in the default scenario (rho = 2 dB) every outage and capacity
        # noise average of the planner is one 16-node panel
        widths = []
        average = throughput._noise_average

        def counted(mid, half, f, *args):
            def g(t):
                widths.append(t.shape[1])
                return f(t)
            return average(mid, half, g, *args)
        monkeypatch.setattr(throughput, "_noise_average", counted)
        for mode in ("om", "dm"):
            outage(scn, mode)
            csc(scn, mode)
            maximize_ecr(scn, mode)
            maximize_csc(scn, mode)
        assert widths and set(widths) == {16}


class TestReceiverProperties:
    @given(_corner_scenarios(), st.sampled_from(["om", "dm"]))
    @settings(max_examples=15, deadline=None)
    # a 1e-5 dB noise uncertainty: the Ei difference of the om outage
    # cancelled to 2e-10 and made the outage rise with p_a
    @example({"noise.rho_db": 1e-5, "om.k0_db": 0.0,
              "om.k_half_pi_db": 31.769112813747075, "alice.h": 1.0,
              "alice.x": -500.0}, "om")
    def test_outage_and_csc_in_range_and_monotone_in_power(self, flat, mode):
        powers = [0.0, 1e-30, 1e-18, 1e-9] + list(np.logspace(-6, 3, 6))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                scn = scenario_from_flat(flat)
                points = [replace(scn, p_a=p) for p in powers]
                p_out = [outage(point, mode) for point in points]
                cap = [csc(point, mode) for point in points]
            except A2GError:
                return
        assert all(0.0 <= v <= 1.0 for v in p_out)
        assert all(x >= y - 1e-12 for x, y in zip(p_out, p_out[1:])), p_out
        assert all(v >= 0.0 for v in cap)
        assert all(x <= y * (1 + 1e-9) + 1e-12
                   for x, y in zip(cap, cap[1:])), cap


def test_noise_rule_cost_at_the_widest_noise_spans():
    # at rho = 3000 dB no outage rate takes more than 24 panels of the
    # noise rule and no capacity fading node more than 19; the fuzz test
    # reaches this corner
    scn = scenario_from_flat({"noise.rho_db": 3000.0, "dm.s_los": 1000,
                              "dm.s_nlos": 1000})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for mode in ("om", "dm"):
            assert 0.0 < outage(scn, mode) < 1.0
            assert 0.0 < csc(scn, mode) < math.inf
            res = maximize_ecr(scn, mode)
            assert 0.0 < res.objective <= res.r_b_opt
