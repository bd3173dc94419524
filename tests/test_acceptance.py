"""End-to-end acceptance suite.

Each test checks one delivery-level guarantee: approximation quality of the
special-function kernel, agreement of every analytic metric with the Monte
Carlo oracle on a fixed grid, closed-form optimality of the detection
kernel, qualitative monotonic behaviour, optimizer soundness, mode-selection
crossover, and bitwise determinism of the command-line outputs.

The surrogate checks (the exponential-type Marcum-Q form and the surrogate
truncated means) compare each surrogate with the exact law against a bound
that its own family can meet.  Each bound is computed here from the exact
law and the family's closed form: the per-argument least-squares floor of
the Marcum-Q form, the minimax floor of the Rician surrogate, and Alzer's
full-mean bias for the gamma surrogate.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from scipy import integrate, optimize, special, stats

from a2gcovert.channel import NoiseModel, link_states
from a2gcovert.cli import main
from a2gcovert.detection import (
    dep_at_threshold,
    expected_min_dep,
    min_dep_values,
    threshold_breakpoints,
)
from a2gcovert.planner import (
    CONSTRAINT_SLACK,
    maximize_csc,
    maximize_ecr,
    select_mode,
)
from a2gcovert.scenario import (
    NodePosition,
    db_to_linear,
    dbm_to_mw,
    default_scenario,
)
from a2gcovert.specfun import marcum_q1_exact
from a2gcovert.surrogate import (
    marcum_q1_approx,
    truncated_mean_nakagami,
    truncated_mean_rician,
)
from a2gcovert.throughput import (
    csc,
    outage,
    outage_over_states,
    snr_threshold,
)
from a2gcovert.validation import run_validation

from test_planner import _los_rate

WORKERS = 4
ORACLE_N = 10**6


def _fail_lines(reports):
    return "\n".join(
        f"  {r.metric}/{r.mode} x_a={r.x_a} p_a={r.p_a_dbm}dBm "
        f"rho={r.rho_db}dB r_b={r.r_b}: analytic={r.analytic:.6g} "
        f"mc={r.mc_mean:.6g} gap={r.gap:.3g} tol={r.tolerance:.3g}"
        for r in reports if not r.passed)


def _exp_family_ls_residuals(bs, qs):
    """Residuals of the least-squares fit of exp(-e^mu b^nu) to qs at bs.

    Starts from the linearisation ln(-ln Q) = mu + nu ln b.  At b = 0 every
    member of the family equals Q1(a, 0) = 1, so that residual is zero.
    """
    pos = bs > 0
    b, q = bs[pos], qs[pos]
    mid = (q > 1e-4) & (q < 1.0 - 1e-4)
    nu0, mu0 = np.polyfit(np.log(b[mid]), np.log(-np.log(q[mid])), 1)
    sol = optimize.least_squares(
        lambda p: np.exp(-np.exp(p[0] + p[1] * np.log(b))) - q,
        x0=[mu0, nu0], method="lm")
    return np.concatenate((np.zeros(np.count_nonzero(~pos)), sol.fun))


class TestMarcumApproximation:
    # The printed coefficients are one polynomial regression over a, so
    # they cannot match the best (mu, nu) at every a; no accuracy target
    # for that regression is published, and twice the RMSE of the
    # per-argument optimum is allowed for it.
    REGRESSION_ALLOWANCE = 2.0

    def test_rmse_on_wide_argument_grid(self):
        sq, floor_sq = {}, []
        for a in range(10, 130, 10):
            bs = np.linspace(0.0, a + 10.0, 200)
            approx = np.array([marcum_q1_approx(a, b) for b in bs])
            exact = np.array([marcum_q1_exact(a, b) for b in bs])
            sq[a] = np.square(approx - exact)
            floor_sq.append(np.square(_exp_family_ls_residuals(bs, exact)))
        rmse = float(np.sqrt(np.mean(np.concatenate(list(sq.values())))))
        floor = float(np.sqrt(np.mean(np.concatenate(floor_sq))))
        bound = self.REGRESSION_ALLOWANCE * floor
        worst_a = max(sq, key=lambda a: sq[a].mean())
        assert rmse <= bound, (
            f"exponential-type Marcum-Q RMSE on the wide grid is {rmse:.4f}, "
            f"above {bound:.4f} = {self.REGRESSION_ALLOWANCE:g} x {floor:.4f}, "
            "the RMSE of the best (mu, nu) fitted by least squares at each "
            f"a; the factor {self.REGRESSION_ALLOWANCE:g} allows for one "
            "polynomial regression over a, whose accuracy target is not "
            f"published. Worst argument a = {worst_a} (RMSE "
            f"{np.sqrt(sq[worst_a].mean()):.4f}).")


@pytest.fixture(scope="module")
def grid(scn):
    reports = run_validation(scn, n=ORACLE_N, workers=WORKERS)

    def cells(metric):
        return [r for r in reports if r.metric == metric]

    return cells


class TestDepMatchesOracle:
    def test_grid(self, grid):
        reports = grid("dep")
        bad = [r for r in reports if not r.passed]
        assert not bad, "DEP cells out of tolerance:\n" + _fail_lines(reports)


class TestOutageMatchesOracle:
    def test_grid(self, grid):
        reports = grid("outage")
        bad = [r for r in reports if not r.passed]
        assert not bad, ("outage cells out of tolerance:\n"
                         + _fail_lines(reports))


class TestCscMatchesOracle:
    def test_grid(self, grid):
        reports = grid("csc")
        bad = [r for r in reports if not r.passed]
        assert not bad, ("capacity cells out of tolerance:\n"
                         + _fail_lines(reports))


class TestDetectionKernelOptimality:
    def test_closed_form_matches_brute_force(self):
        rng = np.random.default_rng(2024)
        worst = 0.0
        for _ in range(1000):
            sigma = 10.0 ** rng.uniform(-10, -6)
            rho = 10.0 ** rng.uniform(0.02, 0.8)
            k_a = sigma * 10.0 ** rng.uniform(-2, 2)
            bp = threshold_breakpoints(k_a, sigma, rho)
            taus = np.concatenate([
                np.linspace(0.5 * bp[0], 1.5 * bp[-1], 10**5 - len(bp)), bp])
            brute = float(np.min(dep_at_threshold(taus, k_a, sigma, rho)))
            closed = float(min_dep_values(k_a, sigma, rho))
            worst = max(worst, abs(brute - closed))
        assert worst <= 1e-6, f"worst closed-form gap {worst:.3g}"


def _rician_truncated_mean(x, k):
    """Exact truncated mean over [0, x] of the unit-mean Rician power law.

    The power is Y / (2(k+1)) with Y noncentral chi-square (2 degrees of
    freedom, noncentrality 2k), and E[Y; Y <= y] = 2 F_4(y) + 2k F_6(y),
    where F_d is the noncentral chi-square CDF with d degrees of freedom.
    """
    y = 2.0 * (k + 1.0) * np.asarray(x, dtype=float)
    return (stats.ncx2.cdf(y, 4, 2.0 * k)
            + k * stats.ncx2.cdf(y, 6, 2.0 * k)) / (k + 1.0)


def _exp_family_truncated_mean(x, k, mu, nu):
    """Truncated mean over [0, x] of F(x) = 1 - exp(-e^mu (2(k+1)x)^(nu/2))."""
    z = np.exp(mu) * (2.0 * (k + 1.0) * x) ** (nu / 2.0)
    s = 2.0 / nu
    return (special.gammainc(s, z) * special.gamma(s)
            / ((k + 1.0) * nu * np.exp(mu * s)) - x * np.exp(-z))


def _rician_minimax_floor(k):
    """Least worst truncated-mean error of the exp(-e^mu b^nu) family.

    Minimised over (mu, nu) on the range [0, max(6, x_hi)] over which the
    fitted coefficients promise this minimax, with x_hi the power at which
    the exact CDF reaches 1 - 1e-4.
    """
    x_hi = stats.ncx2.ppf(1.0 - 1e-4, 2, 2.0 * k) / (2.0 * (k + 1.0))
    xs = np.linspace(0.0, max(6.0, x_hi), 601)
    exact = _rician_truncated_mean(xs, k)
    # start from the linearisation ln(-ln(1 - F)) = mu + nu ln b
    cdf = stats.ncx2.cdf(2.0 * (k + 1.0) * xs[1:], 2, 2.0 * k)
    mid = (cdf > 1e-4) & (cdf < 1.0 - 1e-4)
    nu0, mu0 = np.polyfit(np.log(np.sqrt(2.0 * (k + 1.0) * xs[1:][mid])),
                          np.log(-np.log1p(-cdf[mid])), 1)
    res = optimize.minimize(
        lambda p: np.max(np.abs(
            _exp_family_truncated_mean(xs, k, *p) - exact)),
        x0=[mu0, nu0], method="Nelder-Mead",
        options={"xatol": 1e-6, "fatol": 1e-8, "maxiter": 2000})
    return float(res.fun)


def _alzer_bias(s):
    """Full-mean bias H_s (s!)^(1/s) / s - 1 of the law (1 - e^(-xi x))^s."""
    harmonic = sum(1.0 / j for j in range(1, s + 1))
    return harmonic * math.factorial(s) ** (1.0 / s) / s - 1.0


class TestTruncatedMeanAccuracy:
    A_GRID = np.linspace(0.1, 5.0, 25)
    K_GRID = np.linspace(5.0, 30.0, 26)
    # A Nelder-Mead minimax of the nonsmooth worst-case error lands within
    # about 2e-5 of the floor, while the least-squares fit that it refines
    # is 5e-3 to 6e-3 above it; 1e-3 tells the two apart.
    MINIMAX_TOL = 1e-3

    def test_rician_surrogate_vs_exact_law(self):
        def integrand(x, k):
            # x times the unit-mean Rician power density
            return x * 2.0 * (k + 1.0) * stats.ncx2.pdf(
                2.0 * (k + 1.0) * x, 2, 2.0 * k)

        # every (k, segment between grid points) is one element of a
        # single vectorised tanh-sinh quadrature
        starts = np.concatenate(([0.0], self.A_GRID[:-1]))
        res = integrate.tanhsinh(integrand, starts, self.A_GRID,
                                 args=(self.K_GRID[:, None],))
        assert res.success.all()
        worst = None
        for k, exact in zip(self.K_GRID, np.cumsum(res.integral, axis=1)):
            # the floor below is computed on the same exact law
            np.testing.assert_allclose(
                _rician_truncated_mean(self.A_GRID, k), exact, atol=1e-10)
            errs = np.abs([truncated_mean_rician(a, k) for a in self.A_GRID]
                          - np.array(exact))
            floor = _rician_minimax_floor(k)
            i = int(np.argmax(errs))
            if worst is None or errs[i] - floor > worst[0] - worst[1]:
                worst = (errs[i], floor, self.A_GRID[i], k)
        err, floor, a, k = worst
        assert err - floor <= self.MINIMAX_TOL, (
            f"surrogate truncated mean of the Rician power law misses the "
            f"exact value by {err:.5f} at (a, k)=({a:.3g}, {k:g}), more than "
            f"{self.MINIMAX_TOL:g} above {floor:.5f}, the least worst error "
            "of the family exp(-e^mu * b^nu) over its fitted range.")

    def test_nakagami_surrogate_vs_exact_law(self):
        worst = None
        for s in (1, 2, 3):
            # Alzer's CDF bound lies below the exact CDF, so the surrogate
            # truncated mean exceeds the exact one by at most its full-mean
            # bias beta_s (and falls short of it by less on this grid); the
            # 1e-12 covers rounding where the law is exact (s = 1)
            bound = _alzer_bias(s) + 1e-12
            for a in self.A_GRID:
                # exact: power ~ Gamma(shape s, scale 1/s), unit mean
                exact = float(special.gammainc(s + 1, s * a))
                err = abs(truncated_mean_nakagami(a, s) - exact)
                if worst is None or err - bound > worst[0] - worst[1]:
                    worst = (err, bound, a, s)
        err, bound, a, s = worst
        assert err <= bound, (
            f"surrogate truncated mean of the gamma power law misses the "
            f"exact value by {err:.5f} at (a, s)=({a:.3g}, {s}), above "
            f"{bound:.5f}, the full-mean bias beta_s = H_s (s!)^(1/s) / s - 1 "
            "of the binomial surrogate CDF (1 - e^(-xi x))^s plus 1e-12 of "
            "rounding.")


def _with_rho(scn, rho):
    return replace(scn, noise=NoiseModel(scn.noise.sigma_n2, rho))


@pytest.fixture(scope="module")
def wscn():
    return default_scenario(alice=NodePosition(400.0, 0.0, 500.0))


class TestMonotonicity:
    """Qualitative trend checks on 20-point sweeps inside the operating
    window where the detector and receiver are in their sensitive regimes
    (UAV at x_a = 400 m; outside this window some trends genuinely reverse,
    e.g. outage under a very wide log-uniform noise spread)."""

    N = 20
    SLACK = 1e-9

    def _dep_curve(self, scn, mode, rhos=None, powers=None):
        if rhos is not None:
            return [expected_min_dep(_with_rho(scn, r), mode).value
                    for r in rhos]
        return [expected_min_dep(replace(scn, p_a=p), mode).value
                for p in powers]

    def test_dep_nondecreasing_in_noise_uncertainty(self, wscn):
        rhos = db_to_linear(np.linspace(0.5, 4.0, self.N))
        for mode in ("om", "dm"):
            v = self._dep_curve(wscn, mode, rhos=rhos)
            assert all(b >= a - self.SLACK for a, b in zip(v, v[1:])), mode

    def test_dep_nonincreasing_in_power(self, wscn):
        powers = dbm_to_mw(np.linspace(0.0, 25.0, self.N))
        for mode in ("om", "dm"):
            v = self._dep_curve(wscn, mode, powers=powers)
            assert all(b <= a + self.SLACK for a, b in zip(v, v[1:])), mode

    def test_outage_nondecreasing_in_noise_uncertainty(self, wscn):
        rhos = db_to_linear(np.linspace(0.5, 4.0, self.N))
        for mode in ("om", "dm"):
            v = [float(outage(_with_rho(wscn, r), mode)) for r in rhos]
            assert all(b >= a - self.SLACK for a, b in zip(v, v[1:])), mode

    def test_outage_nondecreasing_in_rate(self, wscn):
        rates = np.linspace(0.2e6, 3.0e6, self.N)
        for mode in ("om", "dm"):
            v = [float(outage(replace(wscn, r_b=r), mode)) for r in rates]
            assert all(b >= a - self.SLACK for a, b in zip(v, v[1:])), mode

    def test_outage_nonincreasing_in_power(self, wscn):
        powers = dbm_to_mw(np.linspace(0.0, 25.0, self.N))
        for mode in ("om", "dm"):
            v = [float(outage(replace(wscn, p_a=p), mode)) for p in powers]
            assert all(b <= a + self.SLACK for a, b in zip(v, v[1:])), mode

    def test_capacity_nondecreasing_in_power(self, wscn):
        powers = dbm_to_mw(np.linspace(0.0, 25.0, self.N))
        for mode in ("om", "dm"):
            v = [csc(replace(wscn, p_a=p), mode) for p in powers]
            assert all(b >= a - self.SLACK for a, b in zip(v, v[1:])), mode


class TestOptimizerSoundness:
    POSITIONS = (NodePosition(400.0, 0.0, 500.0),
                 NodePosition(1000.0, 0.0, 500.0),
                 NodePosition(2000.0, 0.0, 500.0))

    def test_ecr_matches_fine_grid(self, scn):
        for mode in ("om", "dm"):
            for alice in self.POSITIONS:
                point = replace(scn, alice=alice)
                res = maximize_ecr(point, mode)
                assert res.feasible
                # reference: same covert power, 10x finer rate grid up to
                # the LoS capacity at p_max
                bob = link_states(point, mode, "bob")
                w = bob.bandwidth_hz
                r_hi = _los_rate(point, mode, scn.p_max)
                rates = np.linspace(r_hi / 1280, r_hi, 1280)
                ref = np.max(rates * (1.0 - outage_over_states(
                    bob, res.p_a_opt, snr_threshold(rates, w),
                    scn.noise.rho)))
                rel = abs(res.objective - ref) / ref
                assert rel <= 0.01, (mode, alice.x, rel)

    def test_csc_constraint_and_scan(self, scn):
        for mode in ("om", "dm"):
            for alice in self.POSITIONS:
                point = replace(scn, alice=alice)
                res = maximize_csc(point, mode)
                assert res.feasible
                dep = expected_min_dep(replace(point, p_a=res.p_a_opt),
                                       mode).value
                if res.binding == "covertness":
                    assert abs(dep - (1.0 - scn.epsilon)) <= 1e-4, (
                        mode, alice.x, dep)
                else:
                    assert res.p_a_opt == pytest.approx(scn.p_max)
                # a 10^4-point power scan cannot find a better covert point
                # more than one scan step above the reported optimum
                powers = np.linspace(scn.p_max / 10**4, scn.p_max, 10**4)
                deps = np.array([
                    expected_min_dep(replace(point, p_a=p), mode).value
                    for p in powers[::100]])  # coarse covertness frontier
                ok = powers[::100][deps >= 1.0 - scn.epsilon - CONSTRAINT_SLACK]
                if ok.size:
                    step = powers[1] - powers[0]
                    assert ok.max() <= res.p_a_opt + 100 * step + 1e-9, (
                        mode, alice.x)

    def test_reported_optima_are_feasible(self, scn):
        for mode in ("om", "dm"):
            for alice in self.POSITIONS:
                point = replace(scn, alice=alice)
                for res in (maximize_ecr(point, mode),
                            maximize_csc(point, mode)):
                    dep = expected_min_dep(replace(point, p_a=res.p_a_opt),
                                           mode).value
                    assert dep >= 1.0 - scn.epsilon - CONSTRAINT_SLACK
                    assert res.p_a_opt <= scn.p_max * (1 + 1e-12)
                    if res.r_b_opt is not None:
                        assert res.r_b_opt <= _los_rate(point, mode,
                                                        scn.p_max)


class TestModeSelection:
    def test_hybrid_dominance_and_crossover(self, scn):
        xs = np.linspace(-200.0, 2200.0, 50)
        chosen = []
        for x in xs:
            point = replace(scn, alice=NodePosition(float(x), 0.0, 500.0))
            dec = select_mode(point, "ecr")
            assert dec.objective == max(dec.objective_om, dec.objective_dm)
            chosen.append(dec.indicator)
        assert "om" in chosen and "dm" in chosen, (
            "expected both radio modes to win somewhere along the sweep; "
            f"got {''.join('O' if c == 'om' else 'D' for c in chosen)}")


class TestDeterministicOutputs:
    def _bytes(self, argv, path):
        assert main(argv + ["--out", str(path)]) in (0, 1)
        return path.read_bytes()

    def test_validate_byte_identical_across_workers(self, tmp_path):
        # 3 oracle batches per call, so the worker pool splits the draws
        base = ["validate", "--samples", "140000", "--seed", "0"]
        a = self._bytes(base + ["--workers", "1"], tmp_path / "v1.csv")
        b = self._bytes(base + ["--workers", "4"], tmp_path / "v4.csv")
        assert a == b

    def test_sweeps_byte_identical_across_workers(self, tmp_path):
        sweeps = [
            ["sweep", "--axis", "rho", "--start", "0.5", "--stop", "4",
             "--points", "6", "--metrics", "dep,outage,csc", "--mc",
             "--samples", "20000", "--seed", "0"],
            ["sweep", "--axis", "p_a", "--start", "0", "--stop", "25",
             "--points", "6", "--metrics", "dep,outage", "--mc",
             "--samples", "20000", "--seed", "0"],
            ["sweep", "--axis", "x_a", "--start", "400", "--stop", "2000",
             "--points", "5", "--metrics", "csc", "--mc", "--samples",
             "20000", "--seed", "0", "--allow-unsafe"],
        ]
        for i, argv in enumerate(sweeps):
            a = self._bytes(argv + ["--workers", "1"],
                            tmp_path / f"s{i}_1.csv")
            b = self._bytes(argv + ["--workers", "8"],
                            tmp_path / f"s{i}_8.csv")
            assert a == b, argv
