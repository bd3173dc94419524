import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, special, stats

from a2gcovert.errors import DomainError
from a2gcovert.specfun import (
    bessel_i0,
    bessel_i0_scaled,
    exp_integral_ei,
    gammainc_int,
    lower_inc_gamma,
    marcum_mu_nu,
    marcum_q1_approx,
    marcum_q1_exact,
)
from a2gcovert.specfun import _fitted_mu_nu, _trunc_mean_objective


class TestWrappers:
    def test_bessel_i0_at_zero(self):
        assert bessel_i0(0.0) == 1.0

    def test_bessel_i0_scaled_large_argument_is_finite(self):
        assert 0.0 < bessel_i0_scaled(1e6) < 1.0

    def test_bessel_rejects_negative(self):
        with pytest.raises(DomainError):
            bessel_i0(-1.0)

    def test_lower_inc_gamma_matches_quadrature(self):
        s, x = 2.7, 1.9
        ref, _ = integrate.quad(lambda t: t ** (s - 1) * math.exp(-t), 0, x)
        assert lower_inc_gamma(s, x) == pytest.approx(ref, rel=1e-10)

    def test_lower_inc_gamma_rejects_bad_shape(self):
        with pytest.raises(DomainError):
            lower_inc_gamma(0.0, 1.0)

    def test_ei_singular_at_zero(self):
        with pytest.raises(DomainError):
            exp_integral_ei(0.0)

    def test_ei_negative_argument_sign(self):
        assert exp_integral_ei(-1.0) < 0.0


class TestMarcumExact:
    def test_boundaries(self):
        assert marcum_q1_exact(3.0, 0.0) == 1.0
        assert marcum_q1_exact(0.0, 50.0) == pytest.approx(0.0, abs=1e-12)

    def test_zero_a_reduces_to_rayleigh_tail(self):
        # Q1(0, b) = exp(-b^2 / 2)
        for b in (0.3, 1.0, 2.5):
            assert marcum_q1_exact(0.0, b) == pytest.approx(
                math.exp(-b * b / 2.0), rel=1e-9)

    def test_matches_noncentral_chi2_survival(self):
        # Q1(a, b) equals the survival function of a noncentral chi-square
        # with 2 degrees of freedom and noncentrality a^2, evaluated at b^2.
        for a in (0.5, 2.0, 6.0, 12.0):
            for b in (0.5 * a, a, 1.5 * a + 1.0):
                ref = stats.ncx2.sf(b * b, df=2, nc=a * a)
                assert marcum_q1_exact(a, b) == pytest.approx(
                    ref, rel=1e-7, abs=1e-10)

    def test_rejects_negative(self):
        with pytest.raises(DomainError):
            marcum_q1_exact(-1.0, 1.0)

    @given(st.floats(0.1, 20.0), st.floats(0.0, 40.0))
    @settings(max_examples=50, deadline=None)
    def test_bounded_and_unit_range(self, a, b):
        q = marcum_q1_exact(a, b)
        assert 0.0 <= q <= 1.0

    def test_monotone_decreasing_in_b(self):
        a = 4.0
        bs = np.linspace(0.0, 12.0, 40)
        qs = [marcum_q1_exact(a, float(b)) for b in bs]
        assert all(x >= y - 1e-12 for x, y in zip(qs, qs[1:]))


    def test_array_matches_scalar_calls_and_ncx2(self):
        for a in (0.0, 0.5, 2.9, 5.35, 10.0, 40.0, 120.0):
            bs = np.linspace(0.0, a + 10.0, 101)
            q = marcum_q1_exact(a, bs)
            assert isinstance(q, np.ndarray) and q.shape == bs.shape
            scalar = np.array([marcum_q1_exact(a, float(b)) for b in bs])
            assert np.array_equal(q, scalar)
            np.testing.assert_allclose(
                q, stats.ncx2.sf(bs * bs, df=2, nc=a * a), rtol=0, atol=1e-13)

    def test_array_rejects_any_negative_b(self):
        with pytest.raises(DomainError):
            marcum_q1_exact(2.0, np.array([0.5, -0.1]))


class TestFittedMuNu:
    # (mu, nu) returned at these operating arguments by the earlier version
    # of _fitted_mu_nu, which evaluated Q1 by adaptive quadrature of its
    # integral; Nelder-Mead ends anywhere within its xatol = 1e-7.
    REFERENCE = {
        2.9: (-4.352583317292513, 3.549115746891208),
        4.3: (-7.879772396028008, 5.044014593817947),
        5.35: (-10.905351439003056, 6.2045298559283),
    }

    @pytest.mark.parametrize("a", sorted(REFERENCE))
    def test_matches_quadrature_based_fit(self, a):
        mu, nu = _fitted_mu_nu(a)
        ref_mu, ref_nu = self.REFERENCE[a]
        assert mu == pytest.approx(ref_mu, abs=1e-6)
        assert nu == pytest.approx(ref_nu, abs=1e-6)

    @pytest.mark.parametrize("a", [0.7, 4.3, 9.5])
    def test_objective_equals_the_written_out_formula_bit_for_bit(self, a):
        k1 = a * a / 2.0 + 1.0
        xs = np.linspace(0.0, max(6.0, (a + 6.0) ** 2 / (2.0 * k1)), 801)
        bs_x = np.sqrt(2.0 * k1 * xs)
        qs_x = marcum_q1_exact(a, bs_x)
        dx = xs[1] - xs[0]

        def written_out(p):
            mu, nu = p
            with np.errstate(divide="ignore"):
                q_fit = np.exp(-np.exp(
                    mu + nu * np.log(np.maximum(bs_x, 1e-300))))
            d = qs_x - q_fit
            run = np.concatenate(
                ([0.0], np.cumsum((d[1:] + d[:-1]) * (0.5 * dx))))
            return float(np.max(np.abs(xs * d - run)))

        objective = _trunc_mean_objective(xs, bs_x, qs_x)
        rng = np.random.default_rng(int(a * 100))
        points = np.column_stack((rng.uniform(-12.0, 1.0, 300),
                                  rng.uniform(0.5, 8.0, 300)))
        # repeated calls reuse the objective's buffers
        for p in np.concatenate((points, points[::-1])):
            assert objective(p) == written_out(p)


class TestMarcumApprox:
    def test_coefficients_at_zero(self):
        c = marcum_mu_nu(0.0)
        assert c.mu == pytest.approx(-math.log(2.0))
        assert c.nu == 2.0

    def test_out_of_range_rejected(self):
        with pytest.raises(DomainError):
            marcum_mu_nu(-0.5)
        with pytest.raises(DomainError):
            marcum_mu_nu(8001.0)
        # the printed polynomials stop tracking Q1 just above 120, the top
        # of the wide-argument grid in the acceptance suite
        with pytest.raises(DomainError):
            marcum_mu_nu(121.0)
        c = marcum_mu_nu(120.0)
        assert math.isfinite(c.mu) and math.isfinite(c.nu)

    def test_exact_form_at_zero_argument(self):
        # with (mu, nu) = (-ln 2, 2) the approximation is exact:
        # exp(-b^2/2) = Q1(0, b)
        for b in (0.5, 1.0, 3.0):
            assert marcum_q1_approx(0.0, b) == pytest.approx(
                marcum_q1_exact(0.0, b), rel=1e-10)

    def test_polynomial_branch_tracks_exact(self):
        # inside the published polynomial domain the pointwise error is small
        for a in (10.0, 40.0, 120.0):
            for b in (0.5 * a, a, 1.2 * a):
                err = abs(marcum_q1_approx(a, b) - marcum_q1_exact(a, b))
                # worst pointwise error of the exponential-type form sits at
                # the b = a median and grows slowly with a (0.12 at a = 120)
                assert err < 0.15

    def test_fitted_branch_tracks_exact(self):
        for a in (2.0, 5.0, 8.0):
            for b in np.linspace(0.1, a + 4.0, 12):
                err = abs(marcum_q1_approx(a, float(b))
                          - marcum_q1_exact(a, float(b)))
                assert err < 0.05

    def test_b_zero_is_one(self):
        assert marcum_q1_approx(7.0, 0.0) == 1.0

    @given(st.floats(0.0, 9.9), st.floats(0.0, 30.0))
    @settings(max_examples=30, deadline=None)
    def test_approx_stays_in_unit_range(self, a, b):
        q = marcum_q1_approx(a, b)
        assert 0.0 <= q <= 1.0


class TestIntegerShapeGammaCdf:
    @pytest.mark.parametrize("s", [1, 2, 3, 7, 30, 64, 300, 1000, 5000])
    def test_matches_gammainc(self, s):
        # x = s * power: the unit-mean law's 1e-18 quantile window, below it
        # down to 0, and beyond it to where e^-x underflows and further
        lo = special.gammaincinv(s, 1e-18)
        hi = special.gammainccinv(s, 1e-18)
        x = np.concatenate((
            [0.0, 1e-300, 1e-30], np.geomspace(lo * 1e-6, lo, 200),
            np.linspace(lo, hi, 4000), np.geomspace(hi, hi * 50.0, 200),
            [700.0, 708.0, 720.0, 745.0, 800.0, 900.0, 1e4, 1e300]))
        got = gammainc_int(s, x)
        assert np.max(np.abs(got - special.gammainc(s, x))) <= 1e-12

    def test_tail_where_exp_underflows(self):
        # the Poisson sum would give 1 here: e^-900 is 0 in floating point
        assert float(gammainc_int(1000, 900.0)) == pytest.approx(
            5.5e-4, rel=0.05)
