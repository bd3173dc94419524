import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, special

from a2gcovert import channel
from a2gcovert.channel import (
    NakagamiLaw,
    NoiseModel,
    PathLoss,
    RicianLaw,
    nakagami_power_cdf,
    nakagami_power_pdf,
    nakagami_xi,
    noise_power_pdf,
    path_loss,
    rician_factor,
    rician_power_cdf,
    rician_power_pdf,
    sample_nakagami_power,
    sample_noise_power,
    sample_rician_power,
)
from a2gcovert.errors import DomainError

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


class TestRicianPower:
    @pytest.mark.parametrize("k", [0.0, 1.0, 5.0, 31.6])
    def test_pdf_normalises_and_unit_mean(self, k):
        total, _ = integrate.quad(lambda x: rician_power_pdf(x, k), 0, np.inf,
                                  limit=200)
        mean, _ = integrate.quad(lambda x: x * rician_power_pdf(x, k), 0,
                                 np.inf, limit=200)
        assert total == pytest.approx(1.0, abs=1e-8)
        assert mean == pytest.approx(1.0, abs=1e-8)

    @pytest.mark.parametrize("k", [0.0, 3.0, 20.0])
    def test_cdf_consistent_with_pdf(self, k):
        for x in (0.3, 1.0, 2.0):
            ref, _ = integrate.quad(lambda t: rician_power_pdf(t, k), 0, x,
                                    limit=200)
            assert rician_power_cdf(x, k) == pytest.approx(ref, abs=1e-8)

    def test_k_zero_is_exponential(self):
        for x in (0.2, 1.0, 3.0):
            assert rician_power_pdf(x, 0.0) == pytest.approx(math.exp(-x))

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


def _rule_density(law, param):
    """Nodes of the fading rule for one state, and the density it
    evaluates there (in b for Rician, in x for gamma)."""
    rule = channel._state_rule(channel._RULE, law, [param], [math.inf])
    return rule.x[0], rule.dens[0] / rule.width[0]


class TestScalarPdfs:
    """The per-state densities of the fading rule (which replaced the
    float -> float scalar pdfs) against the array pdfs."""

    @pytest.mark.parametrize("k", [0.0, 0.3, 1.0, 3.16, 10.0, 31.6, 50.0])
    def test_rician_matches_array_pdf(self, k):
        x, got = _rule_density("rician", k)
        # the density of b = sqrt(2 (k+1) x) is f(x) dx/db = f(x) b / (k+1)
        b = np.sqrt(2.0 * (k + 1.0) * x)
        np.testing.assert_allclose(got, rician_power_pdf(x, k) * b / (k + 1.0),
                                   rtol=1e-13, atol=1e-300)

    @pytest.mark.parametrize("s", [1, 2, 3, 5])
    def test_nakagami_matches_array_pdf(self, s):
        x, got = _rule_density("gamma", s)
        np.testing.assert_allclose(got, nakagami_power_pdf(x, s),
                                   rtol=1e-13, atol=1e-300)

    def test_parameters_checked_when_built(self):
        with pytest.raises(DomainError):
            channel._state_rule(channel._RULE, "rician", [-0.1], [math.inf])
        with pytest.raises(DomainError):
            channel._state_rule(channel._RULE, "gamma", [0], [math.inf])


class TestNakagamiPower:
    @pytest.mark.parametrize("s", [1, 2, 3])
    def test_pdf_is_gamma(self, s):
        for x in (0.1, 0.9, 2.5):
            ref = x ** (s - 1) * s ** s * math.exp(-s * x) / math.gamma(s)
            assert nakagami_power_pdf(x, s) == pytest.approx(ref, rel=1e-12)

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

    def test_sampler_moments(self):
        rng = np.random.default_rng(13)
        draws = sample_nakagami_power(3, rng, size=200_000)
        assert draws.mean() == pytest.approx(1.0, abs=0.01)
        assert draws.var() == pytest.approx(1.0 / 3.0, rel=0.03)


class TestNoiseAndPathLoss:
    def test_noise_support(self):
        n = NoiseModel(sigma_n2=1e-8, rho=10 ** 0.2)
        lo, hi = n.support
        assert lo == pytest.approx(1e-8 / n.rho)
        assert hi == pytest.approx(1e-8 * n.rho)

    def test_noise_pdf_normalises(self):
        n = NoiseModel(sigma_n2=1e-8, rho=10 ** 0.2)
        lo, hi = n.support
        total, _ = integrate.quad(lambda x: noise_power_pdf(x, n), lo, hi)
        assert total == pytest.approx(1.0, rel=1e-9)

    def test_noise_sampler_within_support(self):
        n = NoiseModel(sigma_n2=1e-8, rho=10 ** 0.2)
        rng = np.random.default_rng(14)
        draws = sample_noise_power(n, rng, size=50_000)
        lo, hi = n.support
        assert np.all((draws >= lo) & (draws <= hi))
        # log-uniform: the log of the draws is uniform, so its mean is ln(sigma^2)
        assert np.log(draws).mean() == pytest.approx(math.log(1e-8), rel=1e-3)

    def test_rho_below_one_rejected(self):
        with pytest.raises(DomainError):
            NoiseModel(sigma_n2=1e-8, rho=0.9)

    def test_path_loss_power_law(self):
        pl = PathLoss(beta=1e-6, alpha=2.0)
        assert path_loss(100.0, pl) == pytest.approx(1e-10)
        with pytest.raises(DomainError):
            path_loss(0.0, pl)

    @given(st.floats(1.0, 1e4), st.floats(0.5, 4.0))
    @settings(max_examples=30, deadline=None)
    def test_path_loss_decreasing_in_distance(self, d, alpha):
        pl = PathLoss(beta=1e-6, alpha=alpha)
        assert path_loss(d * 2.0, pl) < path_loss(d, pl)
