import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import integrate, special

from a2gcovert import channel, throughput
from a2gcovert.channel import LinkStates, link_states
from a2gcovert.errors import A2GError, DomainError, QuadratureError
from a2gcovert.scenario import NodePosition, scenario_from_flat
from a2gcovert.specfun import marcum_mu_nu
from a2gcovert.throughput import (
    csc,
    csc_over_states,
    ecr,
    outage,
    outage_dm_closed_form,
    snr_threshold,
)

from test_detection import _corner_scenarios


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


class TestOutage:
    def test_probability_range(self, scn):
        for mode in ("om", "dm"):
            g = float(snr_threshold(scn.r_b, scn.band(mode).bandwidth_hz))
            p = float(outage(scn, mode, gamma_th=g))
            assert 0.0 <= p <= 1.0

    def test_zero_rate_never_outages(self, scn):
        assert float(outage(scn, "om", gamma_th=0.0)) == 0.0
        assert float(outage(scn, "dm", gamma_th=0.0)) == 0.0

    def test_zero_power_always_outages(self, scn):
        assert float(outage(scn, "om", p_a=0.0, gamma_th=1.0)) == 1.0
        assert float(outage(scn, "dm", p_a=0.0, gamma_th=1.0)) == 1.0

    def test_broadcasting_grid(self, scn):
        p = np.array([1.0, 10.0, 100.0])[:, None]
        g = np.array([0.5, 1.0, 2.0, 4.0])[None, :]
        for mode in ("om", "dm"):
            grid = outage(scn, mode, p_a=p, gamma_th=g)
            assert grid.shape == (3, 4)
            # worse in rate along axis 1, better in power along axis 0
            assert np.all(np.diff(grid, axis=1) >= -1e-12)
            assert np.all(np.diff(grid, axis=0) <= 1e-12)

    def test_monotone_in_distance(self, scn):
        g = float(snr_threshold(scn.r_b, scn.om.bandwidth_hz))
        near = NodePosition(0.0, 0.0, 500.0)
        far = NodePosition(1500.0, 0.0, 500.0)
        assert float(outage(scn, "om", alice=near, gamma_th=g)) < (
            float(outage(scn, "om", alice=far, gamma_th=g)))

    def test_dm_closed_form_tracks_exact(self, scn):
        g = float(snr_threshold(scn.r_b, scn.dm.bandwidth_hz))
        exact = float(outage(scn, "dm", gamma_th=g))
        approx = float(outage_dm_closed_form(scn, gamma_th=g))
        assert abs(exact - approx) < 0.06

    def test_negative_inputs_rejected(self, scn):
        with pytest.raises(DomainError):
            outage(scn, "om", p_a=-1.0)
        with pytest.raises(DomainError):
            outage(scn, "dm", gamma_th=-0.5)
        with pytest.raises(DomainError):
            outage(scn, "fm")

    @given(gamma=st.floats(0.1, 5.0))
    @settings(max_examples=20, deadline=None)
    def test_outage_is_probability(self, scn, gamma):
        for mode in ("om", "dm"):
            v = float(outage(scn, mode, gamma_th=gamma))
            assert 0.0 <= v <= 1.0


class TestEcr:
    def test_definition(self, scn):
        for mode in ("om", "dm"):
            g = snr_threshold(scn.r_b, scn.band(mode).bandwidth_hz)
            expected = scn.r_b * (1.0 - float(outage(scn, mode,
                                                     gamma_th=float(g))))
            assert float(ecr(scn, mode)) == pytest.approx(expected)

    def test_zero_rate_is_zero(self, scn):
        assert float(ecr(scn, "om", r_b=0.0)) == 0.0

    def test_bounded_by_target_rate(self, scn):
        for mode in ("om", "dm"):
            assert 0.0 <= float(ecr(scn, mode)) <= scn.r_b


class TestCsc:
    def test_positive_at_defaults(self, scn):
        assert csc(scn, "om") > 0.0
        assert csc(scn, "dm") > 0.0

    def test_zero_power_is_zero(self, scn):
        assert csc(scn, "om", p_a=0.0) == 0.0
        assert csc(scn, "dm", p_a=0.0) == 0.0

    def test_nondecreasing_in_power(self, scn):
        for mode in ("om", "dm"):
            vals = [csc(scn, mode, p_a=p) for p in np.logspace(-1, 2, 8)]
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
            csc(scn, "om", p_a=-0.1)
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


def _one_state(law, param):
    """A single-state table with unit gains, always in that state."""
    return LinkStates(law, ("state",), (1.0,), (param,), 1.0, (1.0,), (1.0,))


class TestCscKernel:
    @pytest.mark.parametrize("x_a", [400.0, 2200.0])
    @pytest.mark.parametrize("mode", ["om", "dm"])
    def test_low_snr_is_first_order_series(self, mode, x_a):
        # at p_a = 1e-9 mW the SNR is ~1e-12, where ln(1 + snr) = snr to
        # that order: the capacity is W / ln 2 E[snr]
        scn = scenario_from_flat({"alice.x": x_a})
        table = link_states(scn, mode, None, "bob")
        rho = scn.noise.rho
        mean_noise_gain = (rho - 1.0 / rho) / (2.0 * math.log(rho))
        mean_snr = sum(p * u for p, u in zip(table.probs, table.received(1e-9))
                       ) / scn.noise.sigma_n2 * mean_noise_gain
        want = scn.band(mode).bandwidth_hz / math.log(2.0) * mean_snr
        assert csc(scn, mode, p_a=1e-9) == pytest.approx(want, rel=1e-9,
                                                          abs=0.0)

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
            got = csc_over_states(_one_state(law, param), snr, 1.0, rho,
                                  math.log(2.0))
            want = _tight_capacity(law, param, snr, rho)
            err = abs(got - want) / want
            if err > worst[0]:
                worst = (err, (law, param, rho_db, snr))
        assert worst[0] <= 1e-10, f"kernel error {worst[0]:.3g} at {worst[1]}"

    def test_starved_rule_raises_naming_the_state(self, monkeypatch):
        states = _one_state("rician", 7200.0)
        assert csc_over_states(states, 1.0, 1.0, 2.0, 1.0) > 0.0
        monkeypatch.setattr(throughput, "_RULE",
                            channel._composite_rule(panels=1, n=4, n_est=2))
        with pytest.raises(QuadratureError) as info:
            csc_over_states(states, 1.0, 1.0, 2.0, 1.0)
        msg = str(info.value)
        assert "rician" in msg and "k = 7200" in msg
        assert "mean SNR" in msg and "window b in [108" in msg


class TestRicianOutage:
    def test_narrow_noise_uncertainty_does_not_cancel(self):
        # at rho = 1e-5 dB the noise average is the surrogate CDF
        # 1 - exp(-e^mu b^nu) at the nominal noise power, to O(ln(rho)^2);
        # the Ei difference of the closed form cancelled to 1.5e-12 here
        scn = scenario_from_flat({"noise.rho_db": 1e-5, "om.k0_db": 0.0,
                                  "om.k_half_pi_db": 31.769112813747075,
                                  "alice.h": 1.0, "alice.x": -500.0})
        table = link_states(scn, "om", None, "bob")
        g = float(snr_threshold(scn.r_b, scn.om.bandwidth_hz))
        for p_a in (1e-3, 1.0, 1e3):
            want = 0.0
            for prob, k, unit in zip(table.probs, table.params,
                                     table.received(p_a)):
                c = marcum_mu_nu(math.sqrt(2.0 * k))
                b = math.sqrt(2.0 * (k + 1.0) * g * scn.noise.sigma_n2 / unit)
                want += prob * -math.expm1(-math.exp(c.mu + c.nu * math.log(b)))
            assert outage(scn, "om", p_a=p_a, gamma_th=g) == pytest.approx(
                want, rel=1e-6)

    def test_no_overflow_at_large_rice_factors(self):
        # (2 (k+1) gamma sigma^2 / (p_a L))^(nu/2) overflowed here before the
        # exponent was formed in log space; the outage was 1 and stays 1
        scn = scenario_from_flat({"om.k_half_pi_db": 37.88, "om.k0_db": 6.98,
                                  "alice.h": 1445.5, "alice.x": -316.2})
        g = float(snr_threshold(scn.r_b, scn.om.bandwidth_hz))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert [outage(scn, "om", p_a=p, gamma_th=g)
                    for p in (1e-12, 1e-3)] == [1.0, 1.0]


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
                g = float(snr_threshold(scn.r_b, scn.band(mode).bandwidth_hz))
                p_out = [outage(scn, mode, p_a=p, gamma_th=g) for p in powers]
                cap = [csc(scn, mode, p_a=p) for p in powers]
            except A2GError:
                return
        assert all(0.0 <= v <= 1.0 for v in p_out)
        assert all(x >= y - 1e-12 for x, y in zip(p_out, p_out[1:])), p_out
        assert all(v >= 0.0 for v in cap)
        assert all(x <= y * (1 + 1e-9) + 1e-12
                   for x, y in zip(cap, cap[1:])), cap
