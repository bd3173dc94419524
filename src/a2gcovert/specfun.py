"""Special-function kernel for the analytic covert-performance expressions.

Everything here is pure and reentrant.  Standard functions (Bessel I0,
incomplete gamma, Ei) are thin wrappers over scipy.special with the
domain restrictions this package relies on.  The first-order Marcum-Q is
the complement of the noncentral chi-square CDF with two degrees of
freedom, Q1(a, b) = 1 - F(b^2; 2, a^2), evaluated by
``scipy.special.chndtr`` on a whole grid of b at once.  The
exponential-type Marcum-Q approximation exp(-e^mu(a) * b^nu(a)) uses the
published degree-6 polynomials for mu/nu on [10, 120] plus a locally
fitted extension on (0, 10), where the polynomials are undefined but the
operating Rice factors of this system actually live.

The polynomials are printed for [10, 8000], but they stop tracking Q1 just
above 120, the top of the range the test suite verifies: the worst
pointwise error over b in [a - 8, a + 8] is 0.12 at a = 120, 0.28 at 126,
0.61 at 132 and 0.98 at 141, and at a = 150 the form gives Q ~ 1 for every
such b.  Arguments above 120 (Rice factors above 7200, 38.6 dB) are
therefore rejected.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

# ``integrate`` is unused here but kept as a module attribute: bench/spans.py
# counts quadrature calls per module by replacing it.
from scipy import integrate, optimize, special  # noqa: F401

from .errors import DomainError

__all__ = [
    "MARCUM_ARG_MAX",
    "MarcumApproxCoeffs",
    "bessel_i0",
    "bessel_i0_scaled",
    "lower_inc_gamma",
    "gammainc_int",
    "exp_integral_ei",
    "marcum_q1_exact",
    "marcum_mu_nu",
    "marcum_q1_approx",
]

# Degree-6 polynomial coefficients (highest power first) of the
# exponential-type Marcum-Q approximation, printed for 10 <= x <= 8000 and
# used only up to MARCUM_ARG_MAX (see the module docstring).
_MU_POLY = np.array(
    [-3.0888e-10, 1.8362e-7, -3.7185e-5, 3.4103e-3, -0.1624, -1.4318, 0.7409]
)
_NU_POLY = np.array(
    [5.1546e-11, -3.1961e-8, 6.3859e-6, -5.4159e-4, 1.9833e-2, 0.9044, 0.9439]
)

MARCUM_ARG_MAX = 120.0

_MU_AT_ZERO = -math.log(2.0)
_NU_AT_ZERO = 2.0


@dataclass(frozen=True)
class MarcumApproxCoeffs:
    """Coefficient pair (mu, nu) of the exponential-type Marcum-Q form."""

    mu: float
    nu: float


def bessel_i0(x):
    """Modified Bessel function of the first kind, order zero, for x >= 0."""
    x = np.asarray(x, dtype=float)
    if np.any(x < 0):
        raise DomainError("bessel_i0 requires x >= 0")
    return special.i0(x)[()] if x.ndim == 0 else special.i0(x)


def bessel_i0_scaled(x):
    """Exponentially scaled variant exp(-x) * I0(x), safe for large x."""
    x = np.asarray(x, dtype=float)
    if np.any(x < 0):
        raise DomainError("bessel_i0_scaled requires x >= 0")
    return special.i0e(x)[()] if x.ndim == 0 else special.i0e(x)


def lower_inc_gamma(s: float, x) -> float:
    """Lower incomplete gamma gamma(s, x) for s > 0, x >= 0."""
    if s <= 0:
        raise DomainError("lower_inc_gamma requires s > 0")
    x = np.asarray(x, dtype=float)
    if np.any(x < 0):
        raise DomainError("lower_inc_gamma requires x >= 0")
    out = special.gammainc(s, x) * special.gamma(s)
    return out[()] if x.ndim == 0 else out


# the largest shape whose Poisson sum is cheaper than special.gammainc
_POISSON_SHAPE_MAX = 64


def gammainc_int(s: int, x):
    """Regularised lower incomplete gamma P(s, x), integer s >= 1, x >= 0.

    Up to shape 64 this is the finite Poisson sum
    P(s, x) = -expm1(-x) - sum_{k=1}^{s-1} t_k with t_k = e^(-x) x^k / k!,
    built by t_k = t_(k-1) x / k from t_0 = e^(-x).  Each t_k is a Poisson
    probability, so nothing overflows, and where e^(-x) underflows
    (x > 708) the terms left out sum to less than 1e-200 for these shapes.
    Larger shapes go to ``scipy.special.gammainc``, which is then cheaper.
    """
    x = np.asarray(x, dtype=float)
    if s > _POISSON_SHAPE_MAX:
        return special.gammainc(s, x)
    neg = -x
    t = np.exp(neg)
    acc = np.expm1(neg)
    for k in range(1, s):
        t *= x
        t /= k
        acc += t
    return -acc


def exp_integral_ei(x):
    """Exponential integral Ei(x); x = 0 is a logarithmic singularity."""
    x = np.asarray(x, dtype=float)
    if np.any(x == 0):
        raise DomainError("Ei is singular at x = 0")
    out = special.expi(x)
    return out[()] if x.ndim == 0 else out


def marcum_q1_exact(a: float, b):
    """First-order Marcum Q1(a, b) = 1 - F(b^2; 2, a^2), vectorised in b.

    F is the noncentral chi-square CDF with two degrees of freedom and
    noncentrality a^2.  A scalar b gives a float, an array of b an array;
    values are clipped to [0, 1] and Q1(a, 0) = 1 exactly.
    """
    b = np.asarray(b, dtype=float)
    if a < 0 or np.any(b < 0):
        raise DomainError("marcum_q1_exact requires a >= 0 and b >= 0")
    q = np.where(b == 0.0, 1.0,
                 np.clip(1.0 - special.chndtr(b * b, 2.0, a * a), 0.0, 1.0))
    return float(q) if b.ndim == 0 else q


def _bisect_q_level(a: float, level: float, lo: float, hi: float) -> float:
    """Solve Q1(a, b) = level for b in a bracket found by expansion."""
    f = lambda b: marcum_q1_exact(a, b) - level
    while f(hi) > 0:
        hi *= 1.6
    while lo > 1e-12 and f(lo) < 0:
        lo *= 0.5
    return optimize.brentq(f, lo, hi, xtol=1e-10)


def _trunc_mean_objective(xs: np.ndarray, bs_x: np.ndarray,
                          qs_x: np.ndarray):
    """Objective (mu, nu) -> error of the Marcum fit in truncated means.

    ``xs`` is a uniform grid of the power variable x = b^2 / (2(k+1))
    starting at 0, ``bs_x`` the b of each x and ``qs_x`` exact Q1 there.
    With d(x) the CDF mismatch of exp(-e^mu b^nu), the error induced in a
    truncated mean with upper limit x is x d(x) - integral_0^x d, by
    integration by parts (trapezoid rule here); the objective is its
    maximum over the grid.  ln b is taken once, and every evaluation works
    in two buffers of its own.
    """
    log_b = np.log(np.maximum(bs_x, 1e-300))
    half_dx = 0.5 * (xs[1] - xs[0])
    d = np.empty_like(xs)
    run = np.zeros_like(xs)
    tail = run[1:]

    def trunc_mean_err(p):
        mu, nu = p
        np.multiply(nu, log_b, out=d)
        np.add(mu, d, out=d)
        np.exp(d, out=d)
        np.negative(d, out=d)
        np.exp(d, out=d)
        np.subtract(qs_x, d, out=d)  # = F_exact - F_fit
        np.add(d[1:], d[:-1], out=tail)
        np.multiply(tail, half_dx, out=tail)
        np.cumsum(tail, out=tail)
        np.multiply(xs, d, out=d)
        np.subtract(d, run, out=d)
        return float(np.max(np.abs(d, out=d)))

    return trunc_mean_err


@lru_cache(maxsize=4096)
def _fitted_mu_nu(a: float) -> tuple[float, float]:
    """Fit of exp(-e^mu b^nu) to exact Q1(a, .) for 0 < a < 10.

    The published polynomials cover only {0} and [10, 120]; the operating
    Rice factors of this system map to a = sqrt(2k) in roughly (2, 8), so a
    usable extension there is required.  Linear interpolation of the branch
    endpoints is far too crude (it misplaces the CDF transition by whole
    units of b), so we refit the same two-parameter form per argument.

    The fit starts from a pointwise least-squares solution and is then
    refined to minimise the worst running CDF-area mismatch in the power
    variable x = b^2 / (2(k+1)), k = a^2/2.  That running area is exactly
    the error the coefficients induce in truncated fading-power means, the
    only quantity this regime of the approximation feeds downstream.
    """
    b_lo = _bisect_q_level(a, 0.9999, 1e-6, max(a, 0.5))
    b_hi = _bisect_q_level(a, 1e-4, max(a, 0.5), a + 6.0)
    bs = np.linspace(b_lo, b_hi, 48)
    qs = marcum_q1_exact(a, bs)

    # initialise from the linearisation ln(-ln Q) = mu + nu ln b
    log_bs = np.log(bs)
    mask = (qs > 1e-4) & (qs < 0.9999)
    t = np.log(-np.log(qs[mask]))
    coef = np.polyfit(log_bs[mask], t, 1)
    nu0, mu0 = float(coef[0]), float(coef[1])

    def resid(p):
        mu, nu = p
        return np.exp(-np.exp(mu + nu * log_bs)) - qs

    sol = optimize.least_squares(resid, x0=[mu0, nu0], method="lm")

    # refine on the truncated-mean criterion (see _trunc_mean_objective)
    k1 = a * a / 2.0 + 1.0  # k + 1
    xs = np.linspace(0.0, max(6.0, (b_hi * b_hi) / (2.0 * k1)), 801)
    bs_x = np.sqrt(2.0 * k1 * xs)
    objective = _trunc_mean_objective(xs, bs_x, marcum_q1_exact(a, bs_x))
    ref = optimize.minimize(objective, x0=sol.x, method="Nelder-Mead",
                            options={"xatol": 1e-7, "fatol": 1e-10,
                                     "maxiter": 800})
    mu, nu = float(ref.x[0]), float(ref.x[1])
    return mu, nu


def marcum_mu_nu(x: float) -> MarcumApproxCoeffs:
    """Coefficients (mu(x), nu(x)) of the exponential-type approximation.

    Exact branch values at x = 0, the printed polynomials on [10, 120],
    and the fitted extension on (0, 10).  Arguments above 120 raise
    ``DomainError``: the polynomials are printed for x <= 8000, but past
    about 125 the form no longer tracks Q1 (see the module docstring).
    """
    if x < 0 or x > MARCUM_ARG_MAX:
        raise DomainError(
            f"marcum_mu_nu argument {x} outside [0, {MARCUM_ARG_MAX:g}], the "
            "range on which the exponential-type Marcum-Q form is verified")
    if x == 0.0:
        return MarcumApproxCoeffs(mu=_MU_AT_ZERO, nu=_NU_AT_ZERO)
    if x >= 10.0:
        return MarcumApproxCoeffs(
            mu=float(np.polyval(_MU_POLY, x)), nu=float(np.polyval(_NU_POLY, x))
        )
    mu, nu = _fitted_mu_nu(float(x))
    return MarcumApproxCoeffs(mu=mu, nu=nu)


def marcum_q1_approx(a: float, b: float) -> float:
    """Approximate Q1(a, b) as exp(-e^mu(a) * b^nu(a)), clamped to [0, 1]."""
    if b < 0:
        raise DomainError("marcum_q1_approx requires b >= 0")
    if b == 0.0:
        return 1.0
    c = marcum_mu_nu(a)
    log_z = c.mu + c.nu * math.log(b)
    if log_z > 700.0:
        return 0.0
    return min(1.0, max(0.0, math.exp(-math.exp(log_z))))
