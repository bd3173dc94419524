"""Special-function kernel for the analytic covert-performance expressions.

Everything here is pure and reentrant.  The module holds the integer-shape
regularised incomplete gamma ``gammainc_int`` (a finite Poisson sum), the
exact first-order Marcum-Q and the coefficients of its exponential-type
approximation.  The Marcum-Q is the complement of the noncentral
chi-square CDF with two degrees of freedom,
Q1(a, b) = 1 - F(b^2; 2, a^2), evaluated by ``scipy.special.chndtr`` on a
whole grid of b at once.  ``marcum_mu_nu`` gives the coefficients of the
exponential-type Marcum-Q approximation exp(-e^mu(a) * b^nu(a)), which
``surrogate.marcum_q1_approx`` evaluates and the microwave outage still
uses: the published degree-6 polynomials for mu/nu on [10, 120] plus a
locally fitted extension on (0, 10), where the polynomials are undefined
but the operating Rice factors of this system actually live.

The fit (``_fitted_mu_nu``) needs no root finder and no least squares: the
ends of its window, where Q1(a, b) is 0.9999 and 1e-4, are noncentral
chi-square quantiles (``scipy.special.chndtrix``), and a 2-D Nelder-Mead
(``_nelder_mead``) started from the ``polyfit`` linearisation minimises the
truncated-mean objective.  The objective is a maximum over a grid, so it
is not smooth, and a simplex on such a function can stall short of the
minimiser (McKinnon 1998); the stopping rule is therefore tight (xatol
1e-10, fatol 1e-13), which makes the result the minimiser itself rather
than wherever a looser simplex stopped, whatever the start.  The simplex
keeps its three vertices as Python floats, not numpy arrays, with scipy's
coefficients and order of operations, so every vertex is the IEEE value
scipy's ``minimize(method="Nelder-Mead")`` computes; vertices are ordered
by value with NaN last, as ``np.argsort`` orders them.  The module uses
numpy and ``scipy.special`` only.

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
from scipy import special

from .errors import DomainError

__all__ = [
    "MARCUM_ARG_MAX",
    "MarcumApproxCoeffs",
    "gammainc_int",
    "marcum_q1_exact",
    "marcum_mu_nu",
]


def __getattr__(name):
    # bench/spans.py replaces each layer's ``integrate`` to count quadrature
    # calls; load scipy.integrate only when a traced run reads it.
    if name == "integrate":
        from scipy import integrate
        return integrate
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


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


def _trunc_mean_objective(xs: np.ndarray, bs_x: np.ndarray,
                          qs_x: np.ndarray):
    """Objective (mu, nu) -> error of the Marcum fit in truncated means.

    ``xs`` is a uniform grid of the power variable x = b^2 / (2(k+1))
    starting at 0, ``bs_x`` the b of each x and ``qs_x`` exact Q1 there.
    With d(x) the CDF mismatch of exp(-e^mu b^nu), the error induced in a
    truncated mean with upper limit x is x d(x) - integral_0^x d, by
    integration by parts (trapezoid rule here); the objective is its
    maximum over the grid.  ln b is taken once, and every evaluation works
    in two buffers of its own, through ufuncs and slices bound once: the
    fit calls it about 200 times.
    """
    log_b = np.log(np.maximum(bs_x, 1e-300))
    half_dx = 0.5 * (xs[1] - xs[0])
    d = np.empty_like(xs)
    d_hi, d_lo = d[1:], d[:-1]
    run = np.zeros_like(xs)
    tail = run[1:]
    add, subtract, multiply, exp, negative, absolute = (
        np.add, np.subtract, np.multiply, np.exp, np.negative, np.absolute)
    accumulate, max_of = np.add.accumulate, np.maximum.reduce

    def trunc_mean_err(p):
        mu, nu = p
        multiply(nu, log_b, out=d)
        add(mu, d, out=d)
        exp(d, out=d)
        negative(d, out=d)
        exp(d, out=d)
        subtract(qs_x, d, out=d)  # = F_exact - F_fit
        add(d_hi, d_lo, out=tail)
        multiply(tail, half_dx, out=tail)
        accumulate(tail, out=tail)
        multiply(xs, d, out=d)
        subtract(d, run, out=d)
        return float(max_of(absolute(d, out=d)))

    return trunc_mean_err


def _nan_last(vertex):
    """Sort key of a (value, point) vertex: ``np.argsort``'s order.

    NaN goes after every number; Python's own ordering leaves it wherever
    the comparisons happen to put it.
    """
    fv = vertex[0]
    return fv != fv, fv


def _nelder_mead(f, start, xatol: float, fatol: float, maxiter: int):
    """Minimise f over the plane by Nelder-Mead; returns (x, f(x)).

    The coefficients (reflection 1, expansion 2, contraction 1/2, shrink
    1/2), the start simplex (each nonzero coordinate of start scaled by 1.05,
    a zero one set to 0.00025) and the stopping test (every vertex within
    xatol of the best and every value within fatol of its value) are those
    of scipy's ``minimize(method="Nelder-Mead")``, and so is the
    arithmetic: from the same start the two return the same point.  The
    three vertices are (value, (x, y)) tuples of Python floats, which
    round every operation as scipy's float64 arrays do.  After each step
    they are sorted stably by value with NaN last, the order
    ``np.argsort`` gives three values, so f may return NaN where it is
    undefined; the value returned is NaN if any vertex's is, as
    ``np.min`` gives.
    """
    x, y = float(start[0]), float(start[1])
    first = ((x, y), (1.05 * x if x != 0 else 0.00025, y),
             (x, 1.05 * y if y != 0 else 0.00025))
    sim = sorted(((f(v), v) for v in first), key=_nan_last)
    for _ in range(1, maxiter):  # scipy counts the start as iteration 1
        (f0, (x0, y0)), (f1, (x1, y1)), (f2, (x2, y2)) = sim
        if (abs(x1 - x0) <= xatol and abs(y1 - y0) <= xatol
                and abs(x2 - x0) <= xatol and abs(y2 - y0) <= xatol
                and abs(f0 - f1) <= fatol and abs(f0 - f2) <= fatol):
            break
        xb, yb = (x0 + x1) / 2, (y0 + y1) / 2
        xr = (2 * xb - x2, 2 * yb - y2)
        fxr = f(xr)
        if fxr < f0:
            xe = (3 * xb - 2 * x2, 3 * yb - 2 * y2)
            fxe = f(xe)
            sim[2] = (fxe, xe) if fxe < fxr else (fxr, xr)
        elif fxr < f1:
            sim[2] = (fxr, xr)
        else:
            if fxr < f2:  # outside contraction
                xc = (1.5 * xb - 0.5 * x2, 1.5 * yb - 0.5 * y2)
                fxc = f(xc)
                accept = fxc <= fxr
            else:  # inside contraction
                xc = (0.5 * xb + 0.5 * x2, 0.5 * yb + 0.5 * y2)
                fxc = f(xc)
                accept = fxc < f2
            if accept:
                sim[2] = (fxc, xc)
            else:  # shrink toward the best vertex
                for j, (xj, yj) in ((1, (x1, y1)), (2, (x2, y2))):
                    v = (x0 + 0.5 * (xj - x0), y0 + 0.5 * (yj - y0))
                    sim[j] = (f(v), v)
        sim.sort(key=_nan_last)
    f_best, x_best = sim[0]
    return x_best, f_best if sim[2][0] == sim[2][0] else math.nan


def _fit_problem(a: float):
    """The objective of the Marcum fit at a and its start point (mu, nu).

    The fit window runs from Q1 = 0.9999 to Q1 = 1e-4, whose b are the
    noncentral chi-square quantiles sqrt(chndtrix(1 - level, 2, a^2)).
    The start is the linearisation ln(-ln Q1) = mu + nu ln b over that
    window; the objective is the worst running CDF-area mismatch in the
    power variable x = b^2 / (2(k+1)), k = a^2/2 (``_trunc_mean_objective``).
    """
    b_lo, b_hi = np.sqrt(special.chndtrix([1.0 - 0.9999, 1.0 - 1e-4], 2.0,
                                          a * a))
    bs = np.linspace(b_lo, b_hi, 48)
    qs = marcum_q1_exact(a, bs)
    mask = (qs > 1e-4) & (qs < 0.9999)
    nu0, mu0 = np.polyfit(np.log(bs[mask]), np.log(-np.log(qs[mask])), 1)

    k1 = a * a / 2.0 + 1.0  # k + 1
    xs = np.linspace(0.0, max(6.0, (b_hi * b_hi) / (2.0 * k1)), 801)
    bs_x = np.sqrt(2.0 * k1 * xs)
    objective = _trunc_mean_objective(xs, bs_x, marcum_q1_exact(a, bs_x))
    return objective, (float(mu0), float(nu0))


@lru_cache(maxsize=4096)
def _fitted_mu_nu(a: float) -> tuple[float, float]:
    """Fit of exp(-e^mu b^nu) to exact Q1(a, .) for 0 < a < 10.

    The published polynomials cover only {0} and [10, 120]; the operating
    Rice factors of this system map to a = sqrt(2k) in roughly (2, 8), so a
    usable extension there is required.  Linear interpolation of the branch
    endpoints is far too crude (it misplaces the CDF transition by whole
    units of b), so we refit the same two-parameter form per argument.

    Nelder-Mead starts from the linearisation ln(-ln Q1) = mu + nu ln b and
    minimises the worst running CDF-area mismatch in the power variable
    (``_fit_problem``).  That running area is exactly the error the
    coefficients induce in truncated fading-power means, the only quantity
    this regime of the approximation feeds downstream.  The tolerances
    (xatol 1e-10, fatol 1e-13) put the result at the minimiser,
    independent of the start (see the module docstring).
    """
    objective, start = _fit_problem(a)
    (mu, nu), _ = _nelder_mead(objective, start, xatol=1e-10, fatol=1e-13,
                               maxiter=2000)
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
