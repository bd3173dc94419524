import math
from dataclasses import replace

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special, stats

from a2gcovert import channel
from a2gcovert.channel import (
    NakagamiLaw,
    NoiseModel,
    PathLoss,
    RicianLaw,
    link_states,
    path_loss,
    rician_factor,
    sample_nakagami_power,
    sample_noise_exponent,
    sample_rician_power,
)
from a2gcovert.detection import dep_over_states
from a2gcovert.errors import DomainError
from a2gcovert.scenario import default_scenario
from a2gcovert.specfun import GAMMA_SHAPE_MAX
from a2gcovert.surrogate import nakagami_power_cdf, nakagami_xi
from a2gcovert.throughput import csc_over_states

from test_throughput import _one_state

LAW = RicianLaw(k0=10 ** 0.5, k_half_pi=10 ** 1.5)  # 5 dB and 15 dB anchors


class TestRicianFactor:
    def test_anchors(self):
        assert rician_factor(0.0, LAW, True) == pytest.approx(LAW.k0)
        assert rician_factor(math.pi / 2, LAW, True) == pytest.approx(
            LAW.k_half_pi)

    def test_nlos_is_rayleigh(self):
        assert rician_factor(0.7, LAW, False) == 0.0

    def test_monotone_exponential_growth(self):
        ks = [rician_factor(t, LAW, True) for t in np.linspace(0, math.pi / 2, 9)]
        ratios = [b / a for a, b in zip(ks, ks[1:])]
        assert all(r == pytest.approx(ratios[0], rel=1e-9) for r in ratios)

    def test_angle_domain(self):
        with pytest.raises(DomainError):
            rician_factor(-0.1, LAW, True)

    def test_law_validation(self):
        with pytest.raises(DomainError):
            RicianLaw(k0=2.0, k_half_pi=1.0)


def _rule_density(law, param):
    """Nodes of the fading rule for one state, and the density it
    evaluates there, in the amplitude b."""
    rule = channel._state_rule(_one_state(law, param, 1.0), [math.inf])
    return rule.x[0], rule.dens[0] / rule.width[0]


def _rician_pdf(x, k):
    """Unit-mean Rician power density: the noncentral chi-square law with
    two degrees of freedom and noncentrality 2k, scaled by 2(k+1)."""
    return 2.0 * (k + 1.0) * stats.ncx2.pdf(2.0 * (k + 1.0) * x, 2, 2.0 * k)


class TestRicianPower:
    """The Rician density that the fading rule forms at its nodes."""

    @pytest.mark.parametrize("k", [0.0, 1.0, 5.0, 31.6])
    def test_pdf_normalises_and_unit_mean(self, k):
        rule = channel._state_rule(_one_state("rician", k, 1.0), [math.inf])
        total = rule.dens[0] @ rule.w_val
        mean = (rule.x[0] * rule.dens[0]) @ rule.w_val
        assert total == pytest.approx(1.0, abs=1e-8)
        assert mean == pytest.approx(1.0, abs=1e-8)

    @pytest.mark.parametrize("k", [0.0, 3.0, 20.0])
    def test_cdf_consistent_with_pdf(self, k):
        # the rule's window cut at x integrates the density to the CDF there
        for x in (0.3, 1.0, 2.0):
            rule = channel._state_rule(_one_state("rician", k, 1.0),
                                       [math.inf], ends=[x])
            ref = stats.ncx2.cdf(2.0 * (k + 1.0) * x, 2, 2.0 * k)
            assert rule.dens[0] @ rule.w_val == pytest.approx(ref, abs=1e-8)

    def test_k_zero_is_exponential(self):
        x, got = _rule_density("rician", 0.0)
        # the density of b = sqrt(2x) is e^(-x) dx/db = e^(-x) b
        np.testing.assert_allclose(got, np.exp(-x) * np.sqrt(2.0 * x),
                                   rtol=1e-13, atol=1e-300)

    def test_sampler_moments(self):
        rng = np.random.default_rng(11)
        draws = sample_rician_power(7.0, rng, size=200_000)
        assert draws.mean() == pytest.approx(1.0, abs=0.01)
        # power variance of a unit-mean Rician-k law is (2k+1)/(k+1)^2
        assert draws.var() == pytest.approx((2 * 7 + 1) / 64.0, rel=0.03)

    def test_sampler_vector_k(self):
        rng = np.random.default_rng(12)
        k = np.array([0.0, 5.0, 20.0])
        draws = sample_rician_power(k, rng)
        assert draws.shape == (3,)


class TestScalarPdfs:
    """The per-state densities of the fading rule against scipy.stats."""

    @pytest.mark.parametrize("k", [0.0, 0.3, 1.0, 3.16, 10.0, 31.6, 50.0])
    def test_rician_matches_array_pdf(self, k):
        x, got = _rule_density("rician", k)
        # the density of b = sqrt(2 (k+1) x) is f(x) dx/db = f(x) b / (k+1)
        b = np.sqrt(2.0 * (k + 1.0) * x)
        np.testing.assert_allclose(got, _rician_pdf(x, k) * b / (k + 1.0),
                                   rtol=1e-13, atol=1e-300)

    @pytest.mark.parametrize("s", [1, 2, 3, 5])
    def test_nakagami_matches_array_pdf(self, s):
        x, got = _rule_density("gamma", s)
        # the density of b = sqrt(4 s x) is f(x) dx/db = f(x) b / (2s)
        b = np.sqrt(4.0 * s * x)
        np.testing.assert_allclose(
            got, stats.gamma.pdf(x, s, scale=1.0 / s) * b / (2.0 * s),
            rtol=1e-13, atol=1e-300)

    def test_parameters_checked_when_built(self):
        with pytest.raises(DomainError):
            _one_state("rician", -0.1, 1.0)
        with pytest.raises(DomainError):
            _one_state("gamma", 0, 1.0)


class TestNakagamiPower:
    @pytest.mark.parametrize("s", [1, 2, 3])
    def test_pdf_is_gamma(self, s):
        x, got = _rule_density("gamma", s)
        ref = x ** (s - 1) * s ** s * np.exp(-s * x) / math.gamma(s)
        b = np.sqrt(4.0 * s * x)
        np.testing.assert_allclose(got, ref * b / (2.0 * s), rtol=1e-12,
                                   atol=1e-300)

    def test_xi_values(self):
        assert nakagami_xi(1) == pytest.approx(1.0)
        assert nakagami_xi(2) == pytest.approx(2.0 / math.sqrt(2.0))
        assert nakagami_xi(3) == pytest.approx(3.0 * 6.0 ** (-1.0 / 3.0))

    def test_cdf_shape_one_is_exact(self):
        for x in (0.2, 1.0, 4.0):
            assert nakagami_power_cdf(x, 1) == pytest.approx(
                special.gammainc(1, x), rel=1e-12)

    @pytest.mark.parametrize("s", [2, 3])
    def test_cdf_bound_is_close(self, s):
        # the binomial-exponential form tracks the exact CDF to a few percent
        for x in np.linspace(0.05, 4.0, 12):
            err = abs(nakagami_power_cdf(float(x), s)
                      - special.gammainc(s, s * float(x)))
            assert err < 0.06

    def test_shape_validation(self):
        with pytest.raises(DomainError):
            nakagami_power_cdf(1.0, 0)
        with pytest.raises(DomainError):
            NakagamiLaw(s_los=2.5, s_nlos=2)

    def test_shape_ceiling(self):
        NakagamiLaw(s_los=GAMMA_SHAPE_MAX, s_nlos=1)
        with pytest.raises(DomainError):
            NakagamiLaw(s_los=GAMMA_SHAPE_MAX + 1, s_nlos=2)
        table = link_states(default_scenario(), "dm", "bob")
        with pytest.raises(DomainError):
            replace(table, params=(GAMMA_SHAPE_MAX + 1,) * 4)

    def test_sampler_moments(self):
        rng = np.random.default_rng(13)
        draws = sample_nakagami_power(3, rng, size=200_000)
        assert draws.mean() == pytest.approx(1.0, abs=0.01)
        assert draws.var() == pytest.approx(1.0 / 3.0, rel=0.03)


def _gamma_reference(s, kernel, end):
    """30-digit mpmath integral of kernel(x) against the unit-mean gamma
    density of shape s on [0, end], split every four standard deviations
    around the mean."""
    with mpmath.workdps(30):
        sd = 1 / mpmath.sqrt(s)
        pts = sorted({min(max(mpmath.mpf(0), 1 + k * sd), end)
                      for k in range(-16, 17, 4)} | {mpmath.mpf(0), end})
        const = s * mpmath.log(s) - mpmath.loggamma(s)
        return mpmath.quad(lambda x: kernel(x) * mpmath.exp(
            const + (s - 1) * mpmath.log(x) - s * x), pts)


class TestGammaStates:
    """Gamma states integrated in the amplitude b = sqrt(4 s x)."""

    def test_every_shape_keeps_its_mass_and_mean(self):
        bad = []
        for s in range(1, GAMMA_SHAPE_MAX + 1):
            rule = channel._state_rule(_one_state("gamma", s, 1.0),
                                       [math.inf])
            mass = rule.dens[0] @ rule.w_val
            mean = (rule.x[0] * rule.dens[0]) @ rule.w_val
            if not max(abs(mass - 1.0), abs(mean - 1.0)) <= 2e-12:
                bad.append((s, mass, mean))
        assert not bad, f"{len(bad)} shapes, first {bad[:3]}"

    @pytest.mark.parametrize("s", [1, 2, 3, 10, 100, 1000, 6850,
                                   GAMMA_SHAPE_MAX])
    def test_dep_and_capacity_match_mpmath(self, s):
        states = _one_state("gamma", s, math.log(2.0))
        # DEP with the window cut one standard deviation above the mean,
        # at rho = 3 dB and at 30 dB, where the first panel is graded
        cut = 1.0 + 1.0 / math.sqrt(s)
        for rho in (2.0, 1000.0):
            g = (rho * rho - 1.0) / cut
            want = _gamma_reference(s, lambda x: 1 - mpmath.log1p(g * x) / (
                2 * mpmath.log(rho)), mpmath.mpf(cut))
            got = dep_over_states(states, g / rho, rho).value
            assert abs(got - float(want)) <= 1e-12, (rho, got, want)
        # capacity at a mean SNR of 10^6, where the first panel is graded,
        # and rho = 20 dB, the noise exponent integrated exactly
        snr, rho = 1e6, 100.0
        want = float(_gamma_reference(s, lambda x: (
            mpmath.polylog(2, -snr * x / rho)
            - mpmath.polylog(2, -snr * x * rho)) / (2 * mpmath.log(rho)),
            mpmath.inf))
        got = csc_over_states(states, snr, rho)
        assert abs(got / want - 1.0) <= 1e-12, (got, want)

    @pytest.mark.parametrize("rho_db", [100.0, 300.0, 1000.0])
    def test_capacity_over_wide_noise_spans_matches_mpmath(self, rho_db):
        # the noise exponent integrated exactly, as (Li2(-y / rho) -
        # Li2(-y rho)) / (2 ln rho) at y = snr x, at a mean SNR of 1: from
        # 300 dB on, the noise rule's closed-form tails (e^t below ln SNR =
        # -37, t above 37) carry part of it; the fixed 64-node rule was off
        # by 1.2e-12 relative at 100 dB, 4.2e-6 at 300 dB and 1.3e-4 at
        # 1000 dB
        rho = 10.0 ** (rho_db / 10.0)
        want = float(_gamma_reference(3, lambda x: (
            mpmath.polylog(2, -x / rho) - mpmath.polylog(2, -x * rho))
            / (2 * mpmath.log(rho)), mpmath.inf))
        got = csc_over_states(_one_state("gamma", 3, math.log(2.0)), 1.0, rho)
        assert abs(got / want - 1.0) <= 1e-13, (got, want)


class TestNoiseAndPathLoss:
    def test_noise_support(self):
        n = NoiseModel(sigma_n2=1e-8, rho=10 ** 0.2)
        lo, hi = n.power(np.array([-1.0, 1.0]))
        assert lo == pytest.approx(n.sigma_n2 / n.rho)
        assert hi == pytest.approx(n.sigma_n2 * n.rho)

    def test_noise_sampler_within_support(self):
        n = NoiseModel(sigma_n2=1e-8, rho=10 ** 0.2)
        rng = np.random.default_rng(14)
        draws = n.power(sample_noise_exponent(rng, size=50_000))
        lo, hi = n.sigma_n2 / n.rho, n.sigma_n2 * n.rho
        assert np.all((draws >= lo) & (draws <= hi))
        # log-uniform: the log of the draws is uniform, so its mean is ln(sigma^2)
        assert np.log(draws).mean() == pytest.approx(math.log(1e-8), rel=1e-3)

    def test_rho_below_one_rejected(self):
        with pytest.raises(DomainError):
            NoiseModel(sigma_n2=1e-8, rho=0.9)

    @pytest.mark.parametrize("sigma_n2, rho", [
        (1e-8, 1.0), (1e-8, math.nan), (math.nan, 2.0)])
    def test_perfect_detector_and_nan_rejected(self, sigma_n2, rho):
        # rho = 1 makes the detector perfect; a NaN fails every bound
        with pytest.raises(DomainError):
            NoiseModel(sigma_n2, rho)

    def test_path_loss_power_law(self):
        pl = PathLoss(beta=1e-6, alpha=2.0)
        assert path_loss(100.0, pl) == pytest.approx(1e-10)
        with pytest.raises(DomainError):
            path_loss(0.0, pl)

    @pytest.mark.parametrize("pl", [
        PathLoss(beta=1e-7, alpha=2710.0),  # d^(-alpha) overflows
        PathLoss(beta=1e20, alpha=1000.0),  # only beta * d^(-alpha) does
    ])
    def test_overflowing_path_loss_is_a_domain_error(self, pl):
        with pytest.raises(DomainError, match=r"d = 0\.5 m, alpha = "):
            path_loss(0.5, pl)

    def test_largest_finite_path_loss_is_the_power_law(self):
        for beta, alpha in ((1e-7, 1000.0), (1e-6, 1023.0), (1.0, 1.5)):
            assert path_loss(0.5, PathLoss(beta, alpha)) == beta * 0.5 ** (
                -alpha)

    @given(st.floats(1.0, 1e4), st.floats(0.5, 4.0))
    @settings(max_examples=30, deadline=None)
    def test_path_loss_decreasing_in_distance(self, d, alpha):
        pl = PathLoss(beta=1e-6, alpha=alpha)
        assert path_loss(d * 2.0, pl) < path_loss(d, pl)
