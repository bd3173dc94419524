"""Special-function kernels, on numpy alone, for the analytic expressions.

Everything here is pure and reentrant.  No module of the package imports
scipy: the tests are its only users, as the reference these kernels are
checked against.  Each value is a sum of positive terms or a fixed
polynomial, and terms that could underflow start in log space.  Each
kernel replaced one ``scipy.special`` call:

- **Poisson tails** (``gammainc``, above shape 64).  The regularised
  incomplete gamma function of integer shape is a Poisson tail:
  P(s, x) = Pr(N >= s) and Q(s, x) = Pr(N < s) for N ~ Poisson(x).  Up to
  shape 32 ``gammainc_int`` sums all s terms of Q from k = 0 and clips
  P = 1 - Q at 0; above, it sums the upper tail from k = s up where
  x < s - sqrt(s), and the lower tail from k = s - 1 down elsewhere,
  forming P as 1 minus it, each until a term no longer changes the sum
  (within about 10 sqrt(s) terms).  A first
  term is Loader's saddle-point form of the Poisson probability
  (``_pmf``), accurate to a few ulps where lgamma would lose digits.
  Shapes above ``GAMMA_SHAPE_MAX`` are rejected.
- **Bessel I0** (``i0e``).  ``i0e`` interpolates Cephes' Chebyshev series
  of exp(-z) I0(z) (the coefficients numpy's ``i0`` uses) by quintics on
  512 equal steps of z / (z + 8), tabulated on first use, so a call is
  about fifteen array operations.
- **Marcum Q** (``chndtr``, ``chndtrix``).  Q1(a, b) = Pr(N <= M) for
  N ~ Poisson(b^2 / 2) and M ~ Poisson(a^2 / 2), the complement of the
  noncentral chi-square CDF with two degrees of freedom.
  ``marcum_q1_exact`` sums it over the window of M's values that carries
  all but 2^-60 of its mass, by Horner's rule with coefficients that
  depend on a alone, so an array of b costs two array operations per
  window point (a scalar b is a 0-d array); ``_marcum_window_end`` finds
  the b where Q1 = 1e-4 by Newton's method on the same sums.

``marcum_mu_nu`` gives the coefficients of the exponential-type Marcum-Q
approximation exp(-e^mu(a) * b^nu(a)), which ``surrogate.marcum_q1_approx``
evaluates and the microwave outage still uses: the published degree-6
polynomials for mu/nu on [10, 120] plus a locally fitted extension on
(0, 10), where the polynomials are undefined but the operating Rice factors
of this system actually live.

The fit (``_fitted_mu_nu``) needs no root finder and no least squares:
``_minimax`` minimises the truncated-mean objective, the largest |e| over
801 points of the power variable up to the larger of 6 and the point where
Q1 = 1e-4 (``_marcum_window_end``, solved only below a = 2.28, where it
can exceed 6), from the ``polyfit`` linearisation over the same points, so
Q1 is evaluated once.  The errors e are linear in the CDF mismatch, so
their first derivatives in (mu, nu) come in the same pass and the second in
one more (``_trunc_mean_errors``), and the solve is a discrete minimax one
(Madsen 1975; Hald and Madsen 1981): trust-region LP steps over the peaks
of the error curve.  Where three grid points of alternating sign are active
at the minimum, as for most a and every a the benchmark's workloads fit
(2.87 to 5.35), the LP step at that vertex is Newton's step on their
equal-error equations, and a fit takes 6-8 evaluations.  For a near
1.95-2.25 two extrema of one sign are active instead, a ridge; the grid
turns the ridge into a bowl with a sawtooth, each kink (where the lead
passes between neighbouring grid points of one extremum) a local
minimiser, and the second-order models pick the best kink
(``_ridge_step``), in 9-28 evaluations.  Below about a = 1e-3 the curve is
at rounding level and changes sign hundreds of times; the LP looks at the
largest eight runs of one sign only, and the solve stops once the
predicted decrease is within 2 ulps of 1, the rounding level of errors
formed from probabilities.  Not a simplex: Nelder-Mead on this objective
takes about 200 evaluations, and on a maximum over a grid it can stall
short of the minimiser (McKinnon 1998); from the same start it stops up to
2e-3 away, with an objective up to 2e-6 higher, at some a in 1.9-2.3.

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
from typing import NamedTuple

import numpy as np

from .errors import DomainError

__all__ = [
    "GAMMA_SHAPE_MAX",
    "MARCUM_ARG_MAX",
    "MarcumApproxCoeffs",
    "gammainc_int",
    "i0e",
    "marcum_q1_exact",
    "marcum_mu_nu",
]


# bench/spans.py replaces each layer's ``integrate`` to count quadrature
# calls; no module calls it, so there is nothing to load
integrate = None


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

# The largest integer gamma shape: a tail sum takes up to about 10 sqrt(s)
# terms, 1000 at this shape.
GAMMA_SHAPE_MAX = 10_000


@dataclass(frozen=True)
class MarcumApproxCoeffs:
    """Coefficient pair (mu, nu) of the exponential-type Marcum-Q form."""

    mu: float
    nu: float


# A positive term below this fraction of a sum leaves the sum unchanged
# (it is under half an ulp), and so does every smaller term after it.
_NEGLIGIBLE = 2.0 ** -54
# Mass a window may leave out of a Poisson law.
_WINDOW_TAIL = 2.0 ** -60
_LN_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)


# ln k! - (k + 1/2) ln k + k - ln sqrt(2 pi) for k = 1..15, computed with
# mpmath to 50 digits (lgamma itself carries errors up to 4e-15 here)
_STIRLERR = (
    0.08106146679532726, 0.0413406959554093, 0.02767792568499834,
    0.020790672103765093, 0.016644691189821193, 0.013876128823070748,
    0.01189670994589177, 0.010411265261972096, 0.009255462182712733,
    0.00833056343336287, 0.007573675487951841, 0.00694284010720953,
    0.006408994188004207, 0.0059513701127588475, 0.005554733551962801,
)


def _stirlerr(k: int) -> float:
    """ln k! - (k + 1/2) ln k + k - ln sqrt(2 pi), for k >= 1: tabulated
    below 16, else five terms of the Stirling series (error < 2e-16)."""
    if k < 16:
        return _STIRLERR[k - 1]
    inv2 = 1.0 / (k * k)
    return (1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680 - inv2 / 1188) * inv2)
                      * inv2) * inv2) / k


# odd powers of Loader's series kept: (1/3)^37 / 37 < 2^-60 of its first
_ODD = np.arange(3.0, 39.0, 2.0)


def _bd0(k: int, x) -> np.ndarray:
    """k ln(k / x) + x - k >= 0 for a count k >= 1 and means x >= 0.

    Where |v| < 1/3, v = (k - x) / (k + x), it is Loader's series
    (k - x) v + 2k sum_j v^(2j+1) / (2j + 1); elsewhere, where x / k is
    below 1/2 or above 2, k (x / k - 1 - ln(x / k)), which then cancels by
    a factor of 5 at most.
    """
    x = np.asarray(x, dtype=float)
    ratio = x / k
    with np.errstate(divide="ignore"):
        out = np.asarray(k * (ratio - 1.0 - np.log(ratio)))
    near = np.abs(k - x) < (k + x) / 3.0
    if near.any():
        diff = k - x[near]
        v = diff / (k + x[near])
        out[near] = diff * v + 2.0 * k * (v[:, None] ** _ODD @ (1.0 / _ODD))
    return out


def _pmf(k: int, x):
    """Poisson probability e^-x x^k / k! at means x >= 0, as Loader's
    exp(-stirlerr(k) - bd0(k, x)) / sqrt(2 pi k) (Loader 2000)."""
    if k == 0:
        return np.exp(-np.asarray(x, dtype=float))
    return np.exp(-_stirlerr(k) - _LN_SQRT_2PI - 0.5 * math.log(k)
                  - _bd0(k, x))


def _upper_tail(s: int, x):
    """P(s, x) = sum_{k >= s} e^-x x^k / k!, summed from k = s upward
    until a term no longer changes the sum; for x < s the terms fall from
    the first."""
    t = _pmf(s, x)
    acc = t.copy()
    k = s
    while True:
        for _ in range(8):
            k += 1
            t *= x
            t /= k
            acc += t
        if not np.any(t > acc * _NEGLIGIBLE):
            return acc


def _lower_tail(s: int, x):
    """Q(s, x) = sum_{k < s} e^-x x^k / k!, summed from k = s - 1
    downward until a term no longer changes the sum past the mode, or to
    k = 0; x > 0 and not so far below s that the first term underflows."""
    t = _pmf(s - 1, x)
    acc = t.copy()
    k = s - 1
    while k > 0:
        for _ in range(min(8, k)):
            t *= k
            t /= x
            acc += t
            k -= 1
        if not np.any(t > acc * _NEGLIGIBLE):
            break
    return acc


# shapes whose lower tail is summed in full, from k = 0
_FULL_SUM_SHAPE = 32


def gammainc_int(s: int, x):
    """Regularised lower incomplete gamma P(s, x), integer s >= 1, x >= 0.

    Up to shape 32 this is the finite Poisson sum
    P(s, x) = -expm1(-x) - sum_{k=1}^{s-1} t_k with t_k = e^(-x) x^k / k!,
    built by t_k = t_(k-1) x / k from t_0 = e^(-x); where e^(-x) underflows
    (x > 708) the terms left out sum to less than 1e-170.  The sum holds P
    to a few ulps of 1 only, so it is clipped at 0: where P is smaller it
    reads 0 or up to about 4e-16.  Above shape 32, P is the upper Poisson
    tail (``_upper_tail``) where x < s - sqrt(s), and so P < 0.2, and 1
    minus the lower one (``_lower_tail``) elsewhere: each converges within
    about 10 sqrt(s) terms.
    """
    x = np.asarray(x, dtype=float)
    if s <= _FULL_SUM_SHAPE:
        neg = -x
        t = np.exp(neg)
        acc = np.expm1(neg)
        for k in range(1, s):
            t *= x
            t /= k
            acc += t
        # the sum cancels to a few ulps of 1, which may be negative
        return np.maximum(-acc, 0.0)
    up = x < s - math.sqrt(s)
    out = np.empty_like(x)
    if up.any():
        out[up] = _upper_tail(s, x[up])
    if not up.all():
        down = ~up
        out[down] = np.maximum(1.0 - _lower_tail(s, x[down]), 0.0)
    return out


def _piecewise(fn, steps: int, degree: int) -> np.ndarray:
    """Coefficients (degree + 1, steps + 1), lowest power first, of the
    polynomials in the offset u in [0, 1) of t = (k + u) / steps within step
    k that interpolate fn(t) at the Chebyshev points of each step; the last
    step's polynomial is repeated, for t = 1."""
    j = np.arange(degree + 1)
    u = 0.5 - 0.5 * np.cos(np.pi * (j + 0.5) / (degree + 1))
    values = fn((np.arange(steps)[:, None] + u) / steps)
    coef = np.linalg.solve(u[:, None] ** j, values.T)
    return np.concatenate((coef, coef[:, -1:]), axis=1)


def _piecewise_eval(coef: np.ndarray, t: np.ndarray) -> np.ndarray:
    """The polynomials of ``_piecewise`` at steps * t, t in [0, 1] (an
    array, overwritten)."""
    k = t.astype(np.intp)
    t -= k
    c = coef.take(k, axis=1)
    out = c[-1] * t
    out += c[-2]
    for row in c[-3::-1]:
        out *= t
        out += row
    return out


# Cephes' Chebyshev coefficients (highest order first), the ones numpy's i0
# uses: exp(-z) I0(z) in z / 2 - 2 for z in [0, 8], and sqrt(z) exp(-z)
# I0(z) in 32 / z - 2 for z > 8.
_I0E_A = (
    -4.4153416464793395e-18, 3.3307945188222384e-17, -2.431279846547955e-16,
    1.715391285555133e-15, -1.1685332877993451e-14, 7.676185498604936e-14,
    -4.856446783111929e-13, 2.95505266312964e-12, -1.726826291441556e-11,
    9.675809035373237e-11, -5.189795601635263e-10, 2.6598237246823866e-09,
    -1.300025009986248e-08, 6.046995022541919e-08, -2.670793853940612e-07,
    1.1173875391201037e-06, -4.4167383584587505e-06, 1.6448448070728896e-05,
    -5.754195010082104e-05, 0.00018850288509584165, -0.0005763755745385824,
    0.0016394756169413357, -0.004324309995050576, 0.010546460394594998,
    -0.02373741480589947, 0.04930528423967071, -0.09490109704804764,
    0.17162090152220877, -0.3046826723431984, 0.6767952744094761,
)
_I0E_B = (
    -7.233180487874754e-18, -4.830504485944182e-18, 4.46562142029676e-17,
    3.461222867697461e-17, -2.8276239805165836e-16, -3.425485619677219e-16,
    1.7725601330565263e-15, 3.8116806693526224e-15, -9.554846698828307e-15,
    -4.150569347287222e-14, 1.54008621752141e-14, 3.8527783827421426e-13,
    7.180124451383666e-13, -1.7941785315068062e-12, -1.3215811840447713e-11,
    -3.1499165279632416e-11, 1.1889147107846439e-11, 4.94060238822497e-10,
    3.3962320257083865e-09, 2.266668990498178e-08, 2.0489185894690638e-07,
    2.8913705208347567e-06, 6.889758346916825e-05, 0.0033691164782556943,
    0.8044904110141088,
)


def _chbevl(x, coef) -> np.ndarray:
    """Cephes' Chebyshev sum of coef (highest order first) at x / 2."""
    b0, b1, b2 = np.full_like(x, coef[0]), np.zeros_like(x), 0.0
    for c in coef[1:]:
        b0, b1, b2 = x * b0 - b1 + c, b0, b1
    return 0.5 * (b0 - b2)


# steps of t in [0, 1] and degree of the i0e table
_TABLE_STEPS, _TABLE_DEGREE = 512, 5


@lru_cache(maxsize=None)
def _i0e_table() -> np.ndarray:
    """``_piecewise`` table of sqrt(z + 8) exp(-z) I0(z) in t = z / (z + 8),
    from Cephes' series."""
    def scaled(t):  # z <= 8 in the first half of the steps, z > 8 after
        z = 8.0 * t / (1.0 - t)
        low, high = np.split(z, 2)
        i0e = np.concatenate((_chbevl(0.5 * low - 2.0, _I0E_A),
                              _chbevl(32.0 / high - 2.0, _I0E_B)
                              / np.sqrt(high)))
        return i0e * np.sqrt(z + 8.0)
    return _piecewise(scaled, _TABLE_STEPS, _TABLE_DEGREE)


def i0e(z) -> np.ndarray:
    """Exponentially scaled Bessel function exp(-z) I0(z), for z >= 0;
    within 2e-15 of Cephes' series, relatively."""
    z = np.asarray(z, dtype=float)
    w = np.atleast_1d(z + 8.0)
    t = z / w
    t *= _TABLE_STEPS
    out = _piecewise_eval(_i0e_table(), t)
    out /= np.sqrt(w, out=w)
    return out.reshape(z.shape)


class _MarcumWindow(NamedTuple):
    """The window of M ~ Poisson(m), m = a^2 / 2, that Q1(a, .) is summed
    over: counts n_lo..n_hi, with Pr(M < n_lo) and Pr(M > n_hi) each below
    2^-60.  ``tail`` and ``point`` are the Horner coefficients (top first)
    of sum_n S_n p_n / p_lo r^(n - n_lo) and sum_n p_n^2 / p_lo
    r^(n - n_lo), with p_n = Pr(M = n), S_n = Pr(M >= n), p_lo = p_(n_lo)
    and r = y / scale; scale is m, or 1 where the window is one count.
    Above r_max a sum could overflow, and Q1 is below 1e-100."""

    n_lo: int
    tail: tuple[float, ...]
    point: tuple[float, ...]
    scale: float
    r_max: float


@lru_cache(maxsize=256)
def _marcum_window(a: float) -> _MarcumWindow:
    """The ``_MarcumWindow`` of Q1(a, .).  The probabilities come from the
    mode m0 = floor(m) by p_(n+1) = p_n m / (n + 1)."""
    m = 0.5 * a * a
    if m == 0.0:
        return _MarcumWindow(0, (1.0,), (1.0,), 1.0, math.inf)
    m0 = math.floor(m)
    # Bernstein's bounds on the Poisson tails: below 2^-60 beyond these
    lo = max(0, m0 - math.ceil(math.sqrt(84.0 * m)) - 1)
    hi = m0 + math.ceil(14.0 + math.sqrt(196.0 + 84.0 * m)) + 1
    up = np.cumprod(m / np.arange(m0 + 1, hi + 1))
    down = np.cumprod(np.arange(m0, lo, -1) / m)[::-1]
    p = float(_pmf(m0, m)) * np.concatenate((down, [1.0], up))
    upper = np.cumsum(p[::-1])[::-1]  # Pr(M >= n) within the window
    # from 0 if it reaches 0: Pr(N = 0) = e^-y is exact to an ulp
    first = int(np.searchsorted(np.cumsum(p), _WINDOW_TAIL)) if lo else 0
    last = int(np.count_nonzero(upper >= _WINDOW_TAIL))
    p, upper = p[first:last], upper[first:last]
    ratio = p / p[0]
    # one count: the sums are constants, and y / m could overflow
    return _MarcumWindow(lo + first, tuple((upper * ratio)[::-1].tolist()),
                         tuple((p * ratio)[::-1].tolist()),
                         m if len(p) > 1 else 1.0,
                         math.exp(700.0 / max(len(p) - 1, 1)))


def _horner(coef, r):
    """sum_j coef[j] r^(J - j) by Horner's rule, in place in a new array of
    r's shape."""
    h = np.zeros_like(r)
    for c in coef:
        h *= r
        h += c
    return h


def _marcum_sum(window: _MarcumWindow, coef, y):
    """Pr(N = n_lo) times the window polynomial ``coef`` at r = y / scale,
    for N ~ Poisson(y); y a float or an array, the result an array."""
    r = y / window.scale
    kept = r <= window.r_max
    r = np.minimum(r, window.r_max)
    return _pmf(window.n_lo, y) * _horner(coef, r) * kept


def _marcum_q1(window: _MarcumWindow, y):
    """Q1 = Pr(N < n_lo) + sum_n Pr(N = n) S_n, N ~ Poisson(y)."""
    q = _marcum_sum(window, window.tail, y)
    if window.n_lo > 0:
        q += 1.0 - gammainc_int(window.n_lo, y)
    return q


def marcum_q1_exact(a: float, b):
    """First-order Marcum Q1(a, b) = 1 - F(b^2; 2, a^2), vectorised in b.

    F is the noncentral chi-square CDF with two degrees of freedom and
    noncentrality a^2.  With y = b^2 / 2 it is summed over the window of
    ``_marcum_window``: Q1 = Pr(N < n_lo) + sum_n Pr(N = n) Pr(M >= n), the
    sum by Horner's rule in r = y / m.  The window leaves out 2^-60;
    rounding puts the value within 5e-15 of 1 - ``scipy.special.chndtr``
    for a < 10 and within 2e-14 of ``scipy.stats.ncx2.sf`` for a <= 120.
    A scalar b gives a float, an array of b an array, each element computed
    alike; values are clipped to [0, 1] and Q1(a, 0) = 1 exactly.
    """
    b = np.asarray(b, dtype=float)
    if a < 0 or np.any(b < 0):
        raise DomainError("marcum_q1_exact requires a >= 0 and b >= 0")
    y = 0.5 * b * b
    q = _marcum_q1(_marcum_window(float(a)), y)
    q = np.where(b == 0.0, 1.0, np.clip(q, 0.0, 1.0))
    return float(q) if b.ndim == 0 else q


# b - a where the bound Q1(a, b) <= exp(-(b - a)^2 / 2), b >= a, is 1e-4
_TAIL_OFFSET = math.sqrt(-2.0 * math.log(1e-4))


def _marcum_window_end(a: float) -> float:
    """The b where Q1(a, b) = 1e-4, for 0 < a < 10.

    Newton's method on ln Q1 (concave in b: Q1 is the survival function of
    the log-concave Rician amplitude) falls from a + ``_TAIL_OFFSET``, right
    of the root, so that it is monotone, and stops after a step under 1e-10
    of b.  dQ1/db = -b sum_n Pr(N = n) Pr(M = n).
    """
    window = _marcum_window(float(a))
    target = math.log(1e-4)
    b = a + _TAIL_OFFSET
    for _ in range(50):
        y = 0.5 * b * b
        q = float(_marcum_q1(window, y))
        slope = b * float(_marcum_sum(window, window.point, y))
        step = (math.log(q) - target) * q / slope
        b += step
        if abs(step) <= 1e-10 * b:
            break
    return b


def _trunc_mean_errors(xs: np.ndarray, bs_x: np.ndarray, qs_x: np.ndarray):
    """((mu, nu), order) -> the errors of the Marcum fit in truncated means,
    with their derivatives up to that order (1 or 2).

    ``xs`` is a uniform grid of the power variable x = b^2 / (2(k+1))
    starting at 0, ``bs_x`` the b of each x and ``qs_x`` exact Q1 there.
    With d(x) the CDF mismatch of exp(-e^mu b^nu), the error induced in a
    truncated mean with upper limit x is e(x) = x d(x) - integral_0^x d, by
    integration by parts (trapezoid rule here); the fit's objective is the
    largest |e| over the grid.  e is linear in d, and with z = mu + nu ln b,
    d = Q1 - exp(-e^z) has dd/dz = g = exp(z - e^z) and d2d/dz2 =
    g (1 - e^z), so each derivative of e is the same operator applied to g,
    g ln b, g (1 - e^z), g (1 - e^z) ln b or g (1 - e^z) ln^2 b.  An
    evaluation returns a new array with rows e, de/dmu and de/dnu, and for
    order 2 also d2e/dmu2, d2e/dmu dnu and d2e/dnu2, formed together
    through ufuncs with ln b taken once.
    """
    log_b = np.log(np.maximum(bs_x, 1e-300))
    log_b2 = log_b * log_b
    half_dx = 0.5 * (xs[1] - xs[0])
    z, exp_z = np.empty_like(xs), np.empty_like(xs)

    def errors(p, order: int = 1) -> np.ndarray:
        mu, nu = p
        out = np.empty((3 * order, len(xs)))
        d, g, g_nu = out[:3]
        np.multiply(nu, log_b, out=z)
        np.add(mu, z, out=z)
        np.exp(z, out=exp_z)
        np.negative(exp_z, out=d)
        np.exp(d, out=d)
        np.subtract(qs_x, d, out=d)  # = F_exact - F_fit
        np.subtract(z, exp_z, out=g)
        np.exp(g, out=g)
        np.multiply(g, log_b, out=g_nu)
        if order == 2:
            w, w_nu, w_nunu = out[3:]
            np.subtract(1.0, exp_z, out=w)
            w *= g
            np.multiply(w, log_b, out=w_nu)
            np.multiply(w, log_b2, out=w_nunu)
        run = out[:, 1:] + out[:, :-1]
        run *= half_dx
        np.add.accumulate(run, axis=1, out=run)
        out *= xs
        out[:, 1:] -= run
        return out

    return errors


def _fit_problem(a: float):
    """The errors of the Marcum fit at a and its start point (mu, nu).

    The errors are the running CDF-area mismatches in the power variable
    x = b^2 / (2(k+1)), k = a^2/2 (``_trunc_mean_errors``), on 801 points
    from 0 to the larger of 6 and the x where Q1 = 1e-4; the objective is
    the largest of them in size.  The start is the linearisation
    ln(-ln Q1) = mu + nu ln b over the points with 1e-4 < Q1 < 0.9999.
    """
    k1 = a * a / 2.0 + 1.0  # k + 1
    b_top = a + _TAIL_OFFSET
    extent = max(6.0, (b_top * b_top) / (2.0 * k1))
    if extent > 6.0:  # the end, below b_top, may set it (a < 2.28)
        b_hi = _marcum_window_end(a)
        extent = max(6.0, (b_hi * b_hi) / (2.0 * k1))
    xs = np.linspace(0.0, extent, 801)
    bs_x = np.sqrt(2.0 * k1 * xs)
    qs_x = marcum_q1_exact(a, bs_x)
    inside = (qs_x > 1e-4) & (qs_x < 0.9999)
    nu0, mu0 = np.polyfit(np.log(bs_x[inside]),
                          np.log(-np.log(qs_x[inside])), 1)
    return _trunc_mean_errors(xs, bs_x, qs_x), (float(mu0), float(nu0))


# The minimax solve: how many runs of one sign of the error curve a step
# looks at (the largest), how many grid points each side of a peak the
# ridge step looks for kinks in, and its budget of steps.
_FIT_RUNS = 8
_KINK_WINDOW = 12
_FIT_MAX_STEPS = 100


def _box_minimum(c: list, gx: list, gy: list, radius: float):
    """((x, y), t): t is the least value over |x|, |y| <= radius of
    max_j c_j + gx_j x + gy_j y, and (x, y) a point where it is reached.

    The function is convex and piecewise linear, so it is least at a vertex
    of its pieces and the box: a corner, a point of an edge where two pieces
    are equal, or a point where three are; all are tried.  The lists are
    short, so this is in Python floats.
    """
    m = len(c)
    points = [(radius, radius), (radius, -radius), (-radius, radius),
              (-radius, -radius)]
    for i in range(m):
        for j in range(i + 1, m):
            a, b, d = gx[i] - gx[j], gy[i] - gy[j], c[j] - c[i]
            if a:
                for y in (radius, -radius):
                    x = (d - b * y) / a
                    if -radius <= x <= radius:
                        points.append((x, y))
            if b:
                for x in (radius, -radius):
                    y = (d - a * x) / b
                    if -radius <= y <= radius:
                        points.append((x, y))
            for k in range(j + 1, m):
                a2, b2, d2 = gx[i] - gx[k], gy[i] - gy[k], c[k] - c[i]
                det = a * b2 - b * a2
                if det:
                    x, y = (d * b2 - d2 * b) / det, (a * d2 - a2 * d) / det
                    if -radius <= x <= radius and -radius <= y <= radius:
                        points.append((x, y))
    pieces = list(zip(c, gx, gy))
    best, at = math.inf, points[0]
    for x, y in points:
        value = max([cj + xj * x + yj * y for cj, xj, yj in pieces])
        if value < best:
            best, at = value, (x, y)
    return at, best


def _lp_step(c: list, gx: list, gy: list, radius: float):
    """``_box_minimum`` of all the pieces, by cutting planes: solved for the
    three largest pieces first, then again with each piece that rises above
    that minimum, until none does."""
    work = sorted(range(len(c)), key=c.__getitem__, reverse=True)[:3]
    while True:
        (x, y), t = _box_minimum([c[j] for j in work], [gx[j] for j in work],
                                 [gy[j] for j in work], radius)
        values = [cj + xj * x + yj * y for cj, xj, yj in zip(c, gx, gy)]
        top = max(range(len(c)), key=values.__getitem__)
        if top in work:
            return (x, y), t, values
        work.append(top)


def _models(coef, x, y):
    """Values and gradients at (x, y) of the second-order Taylor models
    whose coefficients are coef = (value, d/dmu, d/dnu, d2/dmu2,
    d2/dmu dnu, d2/dnu2), rows as ``errors`` gives them."""
    v, gx, gy, hxx, hxy, hyy = coef
    qx = gx + hxx * x + hxy * y
    qy = gy + hxy * x + hyy * y
    return v + 0.5 * (x * (gx + qx) + y * (gy + qy)), qx, qy


def _model_vertices(rows: np.ndarray, idx: np.ndarray,
                    sign: np.ndarray) -> np.ndarray:
    """Steps (k, 2) to where the second-order models of the three pieces in
    each column of idx, sign (3, k) are equal, by four Newton iterations on
    the models from h = 0 (NaN or far off where they fail)."""
    coef = sign * rows[:, idx]
    gaps = coef[:, 1:] - coef[:, :1]  # pieces 1 and 2 less piece 0
    x, y = np.zeros(idx.shape[1]), np.zeros(idx.shape[1])
    with np.errstate(all="ignore"):
        for _ in range(4):
            r, rx, ry = _models(gaps, x, y)
            det = rx[0] * ry[1] - rx[1] * ry[0]
            x = x - (ry[1] * r[0] - ry[0] * r[1]) / det
            y = y - (rx[0] * r[1] - rx[1] * r[0]) / det
    return np.column_stack((x, y))


def _ridge_step(rows: np.ndarray, extrema, idx: np.ndarray,
                sign: np.ndarray):
    """(h, model value) of the best kink on a ridge, or None.

    A ridge is a step whose active pieces lie on two extrema of the error
    curve, given as their runs of one sign, (lo, hi, sign) for e[lo:hi].
    The grid resolves an extremum as a family of pieces, one per grid
    point, that take the lead in turn as the extremum moves, so along a
    ridge the objective is a bowl with a sawtooth: each kink, where the
    lead passes from one grid point to the next, is a local minimiser.  The
    best kink is found on the second-order models: the vertex where one
    peak equals the pieces on either side of a kink of the other, for each
    kink within ``_KINK_WINDOW`` points of either peak, scored by the
    largest model among those points and the step's own pieces.
    """
    peaks = [(lo + int((s * rows[0, lo:hi]).argmax()), lo, hi, s)
             for lo, hi, s in extrema]
    vertices, signs, near, near_sign = [], [], [idx], [sign]
    for (top, lo, hi, s), (other, _, _, so) in zip(peaks, peaks[::-1]):
        lo, hi = max(top - _KINK_WINDOW, lo), min(top + _KINK_WINDOW + 1, hi)
        kinks = np.arange(lo, hi - 1)
        vertices.append(np.stack((np.full(len(kinks), other), kinks,
                                  kinks + 1)))
        signs.append(np.repeat([[so], [s], [s]], len(kinks), axis=1))
        near.append(np.arange(lo, hi))
        near_sign.append(np.full(hi - lo, s))
    h = _model_vertices(rows, np.concatenate(vertices, axis=1),
                        np.concatenate(signs, axis=1))
    h = h[np.isfinite(h).all(axis=1)]
    if not len(h):
        return None
    coef = np.concatenate(near_sign) * rows[:, np.concatenate(near)]
    values = _models(coef, h[:, :1], h[:, 1:])[0].max(axis=1)
    best = int(values.argmin())
    return h[best], float(values[best])


def _run_peaks(e: np.ndarray):
    """The runs of one sign of e, as arrays of their starts and ends, and
    {grid point: sign} of the peak of each of the ``_FIT_RUNS`` largest."""
    size = np.abs(e)
    neg = e < 0.0
    starts = np.concatenate(([0], (neg[1:] != neg[:-1]).nonzero()[0] + 1))
    ends = np.concatenate((starts[1:], [len(e)]))
    tops = np.maximum.reduceat(size, starts).tolist()
    peaks = {}
    for r in sorted(range(len(tops)), key=tops.__getitem__,
                    reverse=True)[:_FIT_RUNS]:
        lo, hi = int(starts[r]), int(ends[r])
        i = lo + int(size[lo:hi].argmax())
        peaks[i] = -1.0 if neg[i] else 1.0
    return starts, ends, peaks


def _minimax(errors, start) -> tuple[float, float]:
    """The (mu, nu) that minimises max |e| over the grid, from ``start``;
    ``errors`` is ``_trunc_mean_errors``'s function.

    A trust-region LP step (Hald and Madsen 1981) minimises the largest
    linearised error over the pieces +-e at the peak of each of the
    ``_FIT_RUNS`` largest runs of one sign of the curve, and at every point
    that was the largest at an earlier trial; at a vertex of three pieces
    it is Newton's step on their equal-error equations, so convergence is
    quadratic.  Where the step's active pieces lie on two extrema at two
    iterates in a row, a ridge, the second derivatives are formed (one more
    evaluation) and the best kink of their models (``_ridge_step``) is
    tried instead if it predicts more.  A trial is kept if it achieves a
    hundredth of the predicted decrease; the radius grows to twice a step
    that achieves three quarters and falls to a quarter of a failed one,
    and a failed ridge step is not tried again from the same point.  The solve stops when the predicted decrease is
    within 2 ulps of 1, the rounding level of errors formed from
    probabilities, or when the step no longer moves the point.
    """
    p = np.array(start, dtype=float)
    rows = errors(p)
    f = float(np.abs(rows[0]).max())
    radius = 0.1 * max(1.0, float(np.abs(p).max()))
    carried: dict[int, float] = {}  # the largest point of each trial
    ridge_ok, on_ridge = True, False
    for _ in range(_FIT_MAX_STEPS):
        e = rows[0]
        starts, ends, pieces = _run_peaks(e)
        for i, s in carried.items():
            pieces.setdefault(i, s)
        idx = list(pieces) * 2
        sign = list(pieces.values())
        sign += [-s for s in sign]
        c, gx, gy = (rows[:3, idx] * sign).tolist()
        h, t, values = _lp_step(c, gx, gy, radius)
        pred, is_ridge, was_on_ridge = f - t, False, on_ridge
        active = [k for k, v in enumerate(values) if v >= t - 1e-9 * f]
        on_ridge = (len(active) <= 3
                    and all(sign[k] * e[idx[k]] > 0.0 for k in active))
        if on_ridge:
            run = starts.searchsorted([idx[k] for k in active], "right") - 1
            extrema = {(starts[r], ends[r], sign[k])
                       for r, k in zip(run.tolist(), active)}
            on_ridge = len(extrema) == 2
        if on_ridge and was_on_ridge and ridge_ok:
            if len(rows) < 6:
                rows = errors(p, 2)
            step = _ridge_step(rows, extrema, np.array(idx), np.array(sign))
            if step is not None and f - step[1] > pred:
                h, pred, is_ridge = step[0], f - step[1], True
        trial = p + h
        if pred <= 2.0 * math.ulp(1.0) or (trial == p).all():
            break
        trial_rows = errors(trial)
        size = np.abs(trial_rows[0])
        top = int(size.argmax())
        carried[top] = -1.0 if trial_rows[0, top] < 0.0 else 1.0
        f_trial = float(size[top])
        if f - f_trial >= 0.01 * pred:
            if f - f_trial >= 0.75 * pred:
                radius = max(radius, 2.0 * float(np.abs(h).max()))
            p, rows, f, ridge_ok = trial, trial_rows, f_trial, True
        elif is_ridge:
            ridge_ok = False
        else:
            radius = 0.25 * float(np.abs(h).max())
    return float(p[0]), float(p[1])


@lru_cache(maxsize=4096)
def _fitted_mu_nu(a: float) -> tuple[float, float]:
    """Fit of exp(-e^mu b^nu) to exact Q1(a, .) for 0 < a < 10.

    The published polynomials cover only {0} and [10, 120]; the operating
    Rice factors of this system map to a = sqrt(2k) in roughly (2, 8), so a
    usable extension there is required.  Linear interpolation of the branch
    endpoints is far too crude (it misplaces the CDF transition by whole
    units of b), so we refit the same two-parameter form per argument.

    The fit minimises the worst running CDF-area mismatch in the power
    variable (``_fit_problem``) from the linearisation ln(-ln Q1) =
    mu + nu ln b, by ``_minimax``.  That running area is exactly the error
    the coefficients induce in truncated fading-power means, the only
    quantity this regime of the approximation feeds downstream.  At the
    minimum three grid points of alternating sign are active for most a,
    a vertex the LP steps reach with Newton's convergence; near
    a = 1.95-2.25 two extrema of one sign are, a ridge whose best kink the
    second-order models find.  The result is the minimiser: a simplex
    restarted from it stays there, while Nelder-Mead from the
    linearisation can stall on this maximum over a grid (see the module
    docstring).
    """
    return _minimax(*_fit_problem(a))


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
