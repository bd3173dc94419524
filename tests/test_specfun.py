import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import optimize, special, stats

from a2gcovert.errors import DomainError
from a2gcovert.specfun import (
    gammainc_int,
    i0e,
    marcum_mu_nu,
    marcum_q1_exact,
)
from a2gcovert.specfun import (
    _fit_problem,
    _fitted_mu_nu,
    _lower_tail,
    _marcum_window_end,
    _minimax,
    _trunc_mean_errors,
    _upper_tail,
)
from a2gcovert.surrogate import marcum_q1_approx


class TestMarcumExact:
    def test_boundaries(self):
        assert marcum_q1_exact(3.0, 0.0) == 1.0
        assert marcum_q1_exact(0.0, 50.0) == pytest.approx(0.0, abs=1e-12)

    def test_zero_a_reduces_to_rayleigh_tail(self):
        # Q1(0, b) = exp(-b^2 / 2)
        for b in (0.3, 1.0, 2.5):
            assert marcum_q1_exact(0.0, b) == pytest.approx(
                math.exp(-b * b / 2.0), rel=1e-9)

    @pytest.mark.parametrize("a", [1e-160, 4.125437610654656e-155, 2e-154])
    def test_tiny_a_reduces_to_rayleigh_tail(self, a):
        # a^2 / 2 near or below the smallest normal float: y / (a^2 / 2)
        # overflowed, Q1 read 0, and the fit divided by zero
        b = np.linspace(0.0, 40.0, 201)
        assert np.max(np.abs(marcum_q1_exact(a, b) - np.exp(-0.5 * b * b))
                      ) <= 1e-16
        c, c0 = marcum_mu_nu(a), marcum_mu_nu(0.0)
        assert (c.mu, c.nu) == pytest.approx((c0.mu, c0.nu), rel=1e-12)

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
        xs, bs_x, qs_x = _fit_grid(a)
        errors = _trunc_mean_errors(xs, bs_x, qs_x)
        written_out = _written_out_objective(xs, bs_x, qs_x)
        rng = np.random.default_rng(int(a * 100))
        points = np.column_stack((rng.uniform(-12.0, 1.0, 300),
                                  rng.uniform(0.5, 8.0, 300)))
        # repeated calls reuse the evaluation's buffers
        for p in np.concatenate((points, points[::-1])):
            assert float(np.max(np.abs(errors(p)[0]))) == written_out(p)

    @pytest.mark.parametrize("a", [0.7, 4.3, 9.5])
    def test_derivatives_match_central_differences(self, a):
        # rows 1-2 are de/dmu, de/dnu and rows 3-5 d2e/dmu2, d2e/dmu dnu,
        # d2e/dnu2; differences of step 1e-6 are good to about 1e-10
        errors = _trunc_mean_errors(*_fit_grid(a))
        for p in (_fitted_mu_nu(a), _fit_problem(a)[1]):
            rows, step = errors(p, 2), 1e-6
            assert np.array_equal(rows[:3], errors(p))
            diffs = [(errors(np.add(p, dp))[:3] - errors(np.subtract(p, dp))[:3])
                     / (2.0 * step) for dp in ((step, 0.0), (0.0, step))]
            for got, want in ((rows[1], diffs[0][0]), (rows[2], diffs[1][0]),
                              (rows[3], diffs[0][1]), (rows[4], diffs[0][2]),
                              (rows[4], diffs[1][1]), (rows[5], diffs[1][2])):
                scale = np.max(np.abs(want))
                assert np.max(np.abs(got - want)) <= 1e-6 * scale


def _fit_grid(a):
    """The grids of the fit at a, written out: x, b(x) and exact Q1(a, b(x))."""
    k1 = a * a / 2.0 + 1.0
    b_hi = _marcum_window_end(a)
    xs = np.linspace(0.0, max(6.0, (b_hi * b_hi) / (2.0 * k1)), 801)
    bs_x = np.sqrt(2.0 * k1 * xs)
    return xs, bs_x, marcum_q1_exact(a, bs_x)


def _written_out_objective(xs, bs_x, qs_x):
    """The objective of the fit, written out: the largest |x d - int d|."""
    dx = xs[1] - xs[0]

    def objective(p):
        mu, nu = p
        with np.errstate(divide="ignore"):
            q_fit = np.exp(-np.exp(mu + nu * np.log(np.maximum(bs_x, 1e-300))))
        d = qs_x - q_fit
        run = np.concatenate(
            ([0.0], np.cumsum((d[1:] + d[:-1]) * (0.5 * dx))))
        return float(np.max(np.abs(xs * d - run)))

    return objective


def _fit_objective(a):
    """The truncated-mean objective that the fit at a minimises."""
    return _written_out_objective(*_fit_grid(a))


def _counted_fit(a):
    """The fit at a, and the number of evaluations the solve made."""
    errors, start = _fit_problem(a)
    calls = []

    def counting(p, *order):
        calls.append(p)
        return errors(p, *order)

    return _minimax(counting, start), len(calls)


def _scipy_fit(a, x0=None, simplex=None):
    """scipy's Nelder-Mead on the fit's objective, from its start or x0."""
    options = {"xatol": 1e-10, "fatol": 1e-13, "maxiter": 2000}
    if simplex is not None:
        options["initial_simplex"] = simplex
    return optimize.minimize(
        _fit_objective(a), x0=_fit_problem(a)[1] if x0 is None else x0,
        method="Nelder-Mead", options=options)


# The Marcum arguments the benchmark's workloads fit: modemap_track's 20
# track positions, and those of validate_grid (four) and rho_sweep (one of
# them).
WORKLOAD_ARGUMENTS = [
    2.8760801269974867, 2.8946330060886902, 2.9063502849370533,
    2.915165923204646, 2.9380086074501337, 2.96356702468551,
    2.992346337857267, 3.024982516054812, 3.0486394386228866,
    3.062286551002993, 3.1053073918632874, 3.155423222651038,
    3.1836944488019006, 3.2144765606417947, 3.2849786046057554,
    3.3704254793154447, 3.4757991885278043, 3.608378950353355,
    3.6469471105304234, 3.779078631884802, 4.004664141150825,
    4.311344696872655, 4.740038837774626, 5.351729180252546]


class TestFitProblem:
    # (mu, nu) of the earlier fit, which started from the linearisation
    # over 48 points of b between Q1 = 0.9999 and 1e-4
    RECORDED_FITS = {
        2.8760801269974867: (-4.299205756669735, 3.525064297852196),
        2.8946330060886902: (-4.34057980887497, 3.5437096512671946),
        2.9063502849370533: (-4.366802228258423, 3.555516154416147),
        2.915165923204646: (-4.386573216429799, 3.5644102398700652),
        2.9380086074501337: (-4.437971919978903, 3.5875033135317578),
        2.96356702468551: (-4.495774501291275, 3.6134248696489677),
        2.992346337857267: (-4.561230009805163, 3.642716497488475),
        3.024982516054812: (-4.635921413532217, 3.6760599988251195),
        3.0486394386228866: (-4.690377044846978, 3.700318233444466),
        3.062286551002993: (-4.721900168609738, 3.7143369037601603),
        3.1053073918632874: (-4.821829972547026, 3.7586779302102404),
        3.155423222651038: (-4.939273221292951, 3.810589599760653),
        3.1836944488019006: (-5.006018206152409, 3.839999115042918),
        3.2144765606417947: (-5.0790683898509075, 3.8721021174157904),
        3.2849786046057554: (-5.247901234278215, 3.9459842111686485),
        3.3704254793154447: (-5.455251653912061, 4.036111353155458),
        3.4757991885278043: (-5.71496588823475, 4.1480714419361275),
        3.608378950353355: (-6.047735332306377, 4.29004065190586),
        3.6469471105304234: (-6.145737398729344, 4.331534979050478),
        3.779078631884802: (-6.48549936883926, 4.474335225986005),
        4.004664141150825: (-7.0790701529184235, 4.719962736611782),
        4.311344696872655: (-7.9110417245974, 5.056511807236254),
        4.740038837774626: (-9.116787251320053, 5.529784605012628),
        5.351729180252546: (-10.910525901326688, 6.206438963182534),
        1.9639: (-2.4915040799343466, 2.6838533232247666),
        2.1407: (-2.8071974804461632, 2.834827359962808),
        2.1975: (-2.9102831814847523, 2.8829859768412174),
        2.2: (-2.914830802837206, 2.885091834032164),
        2.2786: (-3.0631379347469476, 2.9559336341960587),
        0.05: (-0.6943971124438303, 2.000001118927868),
        9.95: (-26.098067743749663, 11.165775507864478),
    }

    # the workloads' arguments, ridges of the minimax fit (two extrema of
    # one sign active at the minimum) and the ends of (0, 10)
    @pytest.mark.parametrize("a", WORKLOAD_ARGUMENTS + [
        1.9639, 2.1407, 2.1975, 2.2, 2.2786, 0.05, 9.95])
    def test_fit_matches_the_recorded_fit(self, a):
        np.testing.assert_allclose(_fitted_mu_nu(a), self.RECORDED_FITS[a],
                                   rtol=0, atol=1e-12)

    @pytest.mark.parametrize("a", [0.05, 0.7, 2.2, 2.2786, 4.3, 9.95])
    def test_start_is_the_linearisation_over_the_objective_grid(self, a):
        # below a = 2.28 the grid's extent comes from the window end; above
        # it is 6, and the fit does not solve for the end
        xs, bs_x, qs_x = _fit_grid(a)
        inside = (qs_x > 1e-4) & (qs_x < 0.9999)
        nu, mu = np.polyfit(np.log(bs_x[inside]),
                            np.log(-np.log(qs_x[inside])), 1)
        errors, start = _fit_problem(a)
        assert start == (float(mu), float(nu))
        assert np.array_equal(errors(start),
                              _trunc_mean_errors(xs, bs_x, qs_x)(start))


class TestNelderMead:
    """The minimax fit against scipy's Nelder-Mead on the same objective."""

    # arguments across (0, 10), densest on 2.88-5.35, the arguments of the
    # 20-point mode-map track of the benchmark; scipy starts from an earlier
    # fit's start (the linearisation over 48 points of b between
    # Q1 = 0.9999 and 1e-4), so that its result does not move with the
    # fit's own: at 2.2 a start 1e-11 away can leave Nelder-Mead 5e-9 from
    # the minimiser
    SCIPY_STARTS = {
        0.05: (-0.6943964831788695, 2.000001023912721),
        0.4: (-0.7707177787692051, 2.0034223555631874),
        0.9: (-1.0570520438263205, 2.0546275235341556),
        1.3: (-1.4123578697636876, 2.1620196674699494),
        1.75: (-1.9401996870529445, 2.353326724364884),
        2.2: (-2.6125104342776906, 2.63132071244644),
        2.6: (-3.348832387936175, 2.949364481999024),
        2.88: (-3.958136906683744, 3.2244135762655977),
        3.1: (-4.501398435985442, 3.475066014934952),
        3.35: (-5.026235002502924, 3.670548054732766),
        3.6: (-5.983890481007817, 4.172440244651502),
        3.85: (-6.841541864555864, 4.567075393749909),
        4.1: (-7.75361466098614, 4.980885303009135),
        4.35: (-8.693173539610827, 5.39357851238679),
        4.6: (-9.648606552782004, 5.7995345690732005),
        4.85: (-10.652996736328257, 6.23046499084053),
        5.1: (-11.640774960762895, 6.628121020739285),
        5.35: (-12.70846120125325, 7.045850603778757),
        5.9: (-14.872946345845158, 7.865491731333675),
        6.5: (-17.366028445204417, 8.76859926518032),
        7.2: (-20.188472209188873, 9.713369628675855),
        7.9: (-23.690610183023967, 10.943646026177635),
        8.6: (-26.275714177636658, 11.712393305122806),
        9.3: (-30.1134346079266, 12.998433109818263),
        9.95: (-32.387370559625595, 13.611213597754523),
    }

    @pytest.mark.parametrize("a", sorted(SCIPY_STARTS))
    def test_production_fit_matches_scipy_bit_for_bit(self, a):
        # scipy from a recorded start ends within its xatol = 1e-10 of the
        # minimiser, at an objective no lower
        ref = _scipy_fit(a, x0=self.SCIPY_STARTS[a])
        fit, calls = _counted_fit(a)
        assert fit == _fitted_mu_nu(a)
        assert np.max(np.abs(np.subtract(fit, ref.x))) <= 1e-9
        assert _fit_objective(a)(fit) <= ref.fun + 1e-15
        assert calls <= 60

    @pytest.mark.parametrize("a", [0.3, 2.027, 3.05, 7.5,
                                   1.9639, 2.1407, 2.1975, 2.2786])
    def test_fit_is_the_minimiser_whatever_the_start(self, a):
        # a simplex restarted at the fit, 1e-6 across, stays within 1e-9;
        # a looser stopping rule left the fit 6e-8 away at a = 2.027, and
        # scipy's simplex from the linearisation stops 2e-6 to 7e-4 away at
        # the last four
        p = np.array(_fitted_mu_nu(a))
        ref = _scipy_fit(a, x0=p, simplex=[p, p + [1e-6, 0.0],
                                           p + [0.0, 1e-6]])
        assert np.max(np.abs(ref.x - p)) <= 1e-9
        assert _counted_fit(a)[1] <= 60

    def test_no_worse_than_scipy_across_the_range(self):
        # 300 seeded arguments, dense where the minimum is a ridge of two
        # extrema of one sign (1.9-2.3, and below 0.1)
        rng = np.random.default_rng(23)
        args = np.concatenate((rng.uniform(0.01, 10.0, 100),
                               rng.uniform(1.9, 2.3, 150),
                               rng.uniform(0.01, 0.1, 50)))
        worse, over_budget = [], []
        for a in args:
            fit, calls = _counted_fit(a)
            excess = _fit_objective(a)(fit) - _scipy_fit(a).fun
            if excess > 1e-15:
                worse.append((a, excess))
            if calls > 60:
                over_budget.append((a, calls))
        assert not worse
        assert not over_budget

    @pytest.mark.parametrize("a", WORKLOAD_ARGUMENTS)
    def test_evaluation_budget_on_the_workloads(self, a):
        # Nelder-Mead took about 208 evaluations of the objective at 3.3
        assert _counted_fit(a)[1] <= 15

    @pytest.mark.parametrize("a", [1e-300, 4.125437610654656e-155, 1e-6,
                                   1e-3, 0.01])
    def test_small_arguments_reach_the_limit(self, a):
        # Q1(a, b) -> exp(-(1 - a^2/2) b^2 / 2) as a -> 0; below about
        # a = 1e-3 the error curve is at rounding level and changes sign
        # hundreds of times
        (mu, nu), calls = _counted_fit(a)
        assert abs(mu - (-math.log(2.0) - 0.5 * a * a)) <= 1e-3 * a * a + 4e-16
        assert abs(nu - 2.0) <= 1e-8
        assert calls <= 60


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


def _condition(ref):
    """A value e^-L formed from its argument carries about L rounding
    errors: 1 + |ln v|, the relative condition a tolerance scales by."""
    return 1.0 + np.abs(np.log(ref))


class TestPoissonTails:
    """The tails of ``gammainc_int``, each a sum of positive terms, against
    scipy.special.gammainc / gammaincc down to values of 1e-300.

    Up to shape 100 they agree within 1e-14 relative per unit of the
    value's condition 1 + |ln v|.  Above, scipy's own error grows (against
    50-digit mpmath values it is off by 2.5e-13 at shape 300, where these
    sums are within 1e-14), so the bound there is 5e-14 per unit.
    """

    @pytest.mark.parametrize("s, per_unit", [
        (1, 1e-14), (2, 1e-14), (3, 1e-14), (7, 1e-14), (16, 1e-14),
        (30, 1e-14), (32, 1e-14), (33, 1e-14), (64, 1e-14), (100, 1e-14),
        (300, 5e-14), (1000, 5e-14), (5000, 5e-14)])
    def test_match_scipy_relative(self, s, per_unit):
        lo = special.gammaincinv(s, 1e-300)
        hi = special.gammainccinv(s, 1e-300)
        x = np.concatenate((np.geomspace(lo, s, 2000),
                            np.linspace(lo, hi, 4000), np.geomspace(s, hi, 2000)))
        # the sums as gammainc_int uses them, the upper one where the
        # terms fall fast and the lower one from the mode of N up
        cut = s - math.sqrt(s) if s > 32 else 0.5 * s
        up, down = x[x < cut], x[x >= max(cut, 0.5 * s)]
        for got, ref in ((_upper_tail(s, up), special.gammainc(s, up)),
                         (_lower_tail(s, down),
                          special.gammaincc(s, down))):
            assert np.all(np.abs(got / ref - 1.0)
                          <= per_unit * _condition(ref))

    @pytest.mark.parametrize("s", [1, 2, 3, 7, 30, 32, 33, 64, 300, 1000,
                                   5000])
    def test_gammainc_int_absolute(self, s):
        # the value formed against 1 (1 minus the lower tail) is within a
        # few ulps of 1; the finite sum up to shape 32 and the tail sums
        # above it agree with scipy within 4e-15 (measured 2.8e-15)
        lo = special.gammaincinv(s, 1e-18)
        hi = special.gammainccinv(s, 1e-18)
        x = np.concatenate((np.geomspace(lo * 1e-6, lo, 200),
                            np.linspace(lo, hi, 4000),
                            np.geomspace(hi, hi * 50.0, 200)))
        assert np.max(np.abs(gammainc_int(s, x)
                             - special.gammainc(s, x))) <= 4e-15

    def test_scalar_and_zero(self):
        assert gammainc_int(40, 0.0) == 0.0
        assert float(gammainc_int(40, 1e-300)) == 0.0
        assert float(gammainc_int(40, 40.0)) == pytest.approx(
            special.gammainc(40, 40.0), abs=1e-15)


class TestBesselI0e:
    def test_matches_scipy_relative(self):
        z = np.concatenate((np.geomspace(1e-300, 1e-3, 300),
                            np.linspace(0.0, 20.0, 200001),
                            np.geomspace(20.0, 1e12, 100001)))
        np.testing.assert_allclose(i0e(z), special.i0e(z), rtol=1e-14,
                                   atol=0)

    def test_shapes(self):
        z = np.linspace(0.0, 50.0, 320).reshape(2, 160)
        assert i0e(z).shape == (2, 160)
        assert float(i0e(0.0)) == pytest.approx(1.0, rel=1e-15)
        assert i0e(3.0) == pytest.approx(special.i0e(3.0), rel=1e-14)


class TestMarcumKernel:
    def test_matches_chndtr_on_the_fit_range(self):
        # absolute: Q1 is a sum over the window of M's values, whose
        # truncation leaves out at most 2^-60
        for a in np.linspace(0.05, 9.95, 67):
            b = np.linspace(0.0, a + 10.0, 400)
            want = 1.0 - special.chndtr(b * b, 2.0, a * a)
            assert np.max(np.abs(marcum_q1_exact(a, b) - want)) <= 5e-15

    @pytest.mark.parametrize("a", [1e-300, 0.05, 0.7, 2.9, 5.35, 9.95])
    def test_window_ends_match_chndtrix(self, a):
        ref = math.sqrt(special.chndtrix(1.0 - 1e-4, 2.0, a * a))
        assert _marcum_window_end(a) == pytest.approx(ref, rel=1e-12)

    def test_window_end_is_below_its_newton_start(self):
        # the fit skips the solve where this bound cannot set its grid
        for a in np.random.default_rng(29).uniform(0.0, 10.0, 500):
            top = a + math.sqrt(-2.0 * math.log(1e-4))
            assert _marcum_window_end(a) <= top
