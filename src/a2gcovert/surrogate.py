"""The paper's closed forms and the two surrogate laws under them.

This is a reproduction layer: no primary module imports it, so the command
line never loads it.  The primary metrics (``detection.expected_min_dep``,
``throughput.outage``, ``throughput.csc``) average the exact fading laws.

- **Rician ("om") states.**  The exponential-type Marcum-Q form
  Q1(a, b) ~ exp(-e^mu(a) b^nu(a)) (Bocus, Dettmann and Coon, IEEE Commun.
  Lett. 2013), with the coefficients of ``specfun.marcum_mu_nu``.  Its
  exponent z = e^mu b^nu is formed in log space and capped, so no power of
  it overflows.
- **Gamma ("dm") states.**  Alzer's bound (1 - e^(-xi x))^s of the gamma CDF
  of integer shape s (Math. Comp. 1997), with xi = s (s!)^(-1/s) from
  lgamma, computed as exp(s ln(1 - e^(-xi x))), not as its alternating
  binomial sum, which cancels at large shapes.

The DEP closed forms weigh each state's surrogate CDF at the warden's cutoff
by ``detection.min_dep_values`` at its truncated mean; the mmWave outage
is ``throughput``'s outage mixture over the Alzer law (``_alzer_cdf``).
"""

from __future__ import annotations

import math

import numpy as np

from .channel import link_states
from .detection import ExpectedDep, _check_noise, min_dep_values
from .errors import DomainError
from .scenario import Scenario
from .specfun import marcum_mu_nu
from .throughput import _LOG_TINY, _mixture, snr_threshold

__all__ = [
    "varrho",
    "marcum_q1_approx",
    "nakagami_xi",
    "nakagami_power_cdf",
    "truncated_mean_rician",
    "truncated_mean_nakagami",
    "expected_min_dep_om_closed_form",
    "expected_min_dep_dm_closed_form",
    "outage_dm_closed_form",
]

# largest log z of the Marcum-Q form kept: exp(-e^700) is 0 in floating point
_LOG_Z_MAX = 700.0
# the Rician truncated mean sums its series below z = 45
_LOG_Z_SERIES = math.log(45.0)


def marcum_q1_approx(a: float, b: float) -> float:
    """Approximate Q1(a, b) as exp(-e^mu(a) * b^nu(a)), in [0, 1]."""
    if b < 0:
        raise DomainError("marcum_q1_approx requires b >= 0")
    if b == 0.0:
        return 1.0
    c = marcum_mu_nu(a)
    return math.exp(-math.exp(min(c.mu + c.nu * math.log(b), _LOG_Z_MAX)))


def nakagami_xi(s: int) -> float:
    """Alzer constant xi = s (s!)^(-1/s) of the tight gamma-CDF bound for
    an integer shape s >= 1, as s exp(-lgamma(s + 1) / s), finite for every
    shape."""
    if not (isinstance(s, (int, np.integer)) and s >= 1):
        raise DomainError("Nakagami shape must be an integer >= 1")
    return s * math.exp(-math.lgamma(s + 1.0) / s)


def nakagami_power_cdf(x, s: int):
    """Alzer's CDF (1 - e^(-y))^s, y = xi x, of the unit-mean gamma power
    law, as exp(s ln(1 - e^(-y))) to a few ulps (a power would lose s ulps);
    ln(1 - e^(-y)) by Maechler's (2012) switch at y = ln 2."""
    xi = nakagami_xi(s)
    x = np.asarray(x, dtype=float)
    if np.any(x < 0):
        raise DomainError("power must be nonnegative")
    y = xi * x
    with np.errstate(divide="ignore"):  # ln 0 at x = 0: the CDF is 0
        log_base = np.where(y < math.log(2.0), np.log(-np.expm1(-y)),
                            np.log1p(-np.exp(-y)))
    out = np.exp(s * log_base)
    return out[()] if x.ndim == 0 else out


def truncated_mean_rician(a: float, k: float) -> float:
    """Truncated mean over [0, a] of the exponential-type Rician surrogate law.

    The law is F(x) = 1 - exp(-e^mu (2 (k+1) x)^(nu/2)) with (mu, nu) from
    ``marcum_mu_nu(sqrt(2k))``, the Marcum-Q surrogate of the unit-mean
    Rician power CDF, so the value is consistent with the closed-form
    averages built on the same surrogate.  It is not the truncated mean of
    the exact Rician law: for 0 < sqrt(2k) < 10 the coefficients minimise
    the worst deviation from it over the fitted range, and that minimax
    floor of the two-parameter family is 0.0085 at k = 5 and 0.020 at
    k = 30.
    """
    if a < 0 or k < 0:
        raise DomainError("truncated_mean_rician requires a >= 0 and k >= 0")
    if a == 0.0:
        return 0.0
    c = marcum_mu_nu(math.sqrt(2.0 * k))
    s = 2.0 / c.nu
    log_z = c.mu + 0.5 * c.nu * math.log(2.0 * a * (k + 1.0))
    if log_z < _LOG_Z_SERIES:
        # a e^(-z) sum_{j>=1} z^j / prod_{i<=j} (s + i), a sum of positive
        # terms, which the terms' decay ends
        z = math.exp(log_z)
        term, total, j = 1.0, 0.0, 0
        while True:
            j += 1
            term *= z / (s + j)
            total += term
            if term <= 1e-17 * total:
                return a * (math.exp(-z) * total)
    # the full mean less a e^(-z): the law's mass beyond z is below e^(-45)
    tail = 0.0 if log_z > _LOG_Z_MAX else a * math.exp(-math.exp(log_z))
    return math.gamma(s) / ((k + 1.0) * c.nu
                            * math.exp(2.0 * c.mu / c.nu)) - tail


def truncated_mean_nakagami(a: float, s: int) -> float:
    """Truncated mean over [0, a] of the Alzer surrogate of the gamma law.

    With F(x) = (1 - e^(-xi x))^s it is a F(a) - int_0^a F; substituting
    y = F^(1/s) gives sum_{m=1..s} y^m / (m xi) - a (1 - y^s) at
    y = -expm1(-xi a), whose sum has positive terms only.  It is not the
    truncated mean of the exact gamma law.  Because the surrogate CDF never
    exceeds the exact one, the value exceeds the exact truncated mean by at
    most the surrogate's full-mean bias beta_s = H_s (s!)^(1/s) / s - 1,
    with H_s the s-th harmonic number: 0 for s = 1 (the law is exact), 0.061
    for s = 2 and 0.110 for s = 3.
    """
    if a < 0:
        raise DomainError("truncation point must be nonnegative")
    xi = nakagami_xi(s)
    if a == 0.0:
        return 0.0
    y = -math.expm1(-xi * a)
    head = sum(y ** m / m for m in range(1, s + 1)) / xi
    return head if math.isinf(a) else head - a * (1.0 - y ** s)


def varrho(p_received_unit: float, sigma_n2: float, rho: float) -> float:
    """Fading cutoff: power gains below it leave the warden a nonzero DEP.

    ``p_received_unit`` is the received power for unit fading gain, i.e. the
    transmit power times every deterministic loss and antenna factor.
    """
    _check_noise(sigma_n2, rho)
    if p_received_unit < 0:
        raise DomainError("received unit power must be nonnegative")
    if p_received_unit == 0.0:
        return math.inf
    return (rho * rho - 1.0) * sigma_n2 / (rho * p_received_unit)


def _closed_form(scn: Scenario, mode: str, surrogate) -> ExpectedDep:
    """DEP state mixture under a surrogate law: ``surrogate(param, cutoff)``
    gives its CDF at the cutoff and its truncated mean below it."""
    p_a, rho = scn.p_a, scn.noise.rho
    states = link_states(scn, mode, "willie")
    terms: dict[str, float] = {}
    for label, p_state, param, unit in zip(states.labels, states.probs,
                                           states.params,
                                           states.received(p_a)):
        term = 1.0  # a silent transmitter
        if p_a > 0.0:
            # the CDF at the cutoff times the DEP at the truncated mean
            cdf, t = surrogate(param, varrho(unit, states.sigma_n2, rho))
            term = cdf * float(min_dep_values(unit * t, states.sigma_n2,
                                              rho))
        terms[label] = p_state * term
    return ExpectedDep(value=sum(terms.values()), terms=terms)


def _rician_surrogate(k: float, cut: float) -> tuple[float, float]:
    q = marcum_q1_approx(math.sqrt(2.0 * k), math.sqrt(2.0 * (k + 1.0) * cut))
    return 1.0 - q, truncated_mean_rician(cut, k)


def _gamma_surrogate(s: int, cut: float) -> tuple[float, float]:
    return float(nakagami_power_cdf(cut, s)), truncated_mean_nakagami(cut, s)


def expected_min_dep_om_closed_form(scn: Scenario) -> ExpectedDep:
    """Closed-form microwave DEP average built on the exponential-type CDF
    surrogate and its truncated-mean companion.

    Kept for reference and speed comparisons; the surrogate misstates the
    lower fading tail at large Rician factors, so this can deviate from the
    exact average by more than a tenth in absolute DEP at high power.  Use
    ``expected_min_dep(scn, "om")`` for accuracy-sensitive work.
    """
    return _closed_form(scn, "om", _rician_surrogate)


def expected_min_dep_dm_closed_form(scn: Scenario) -> ExpectedDep:
    """Closed-form mmWave DEP average built on Alzer's bound of the gamma
    CDF.

    Kept for reference; the bound deviates from the true CDF by up to about
    five absolute percentage points at mid-range arguments, so use
    ``expected_min_dep(scn, "dm")`` for accuracy-sensitive work.
    """
    return _closed_form(scn, "dm", _gamma_surrogate)


def _alzer_cdf(s: int):
    """Alzer's bound F = (1 - e^(-y))^s, y = xi x, in t = ln x (capped at
    700): like exp(-s e^(-y)) it rises around y = ln s, 1 / ln s wide in t,
    hence the scale max(1, ln s); F < 1e-17 below y = -ln(1 - 1e-17^(1/s)),
    and 1 - F <= s e^(-y) < 1e-17 above y = ln s - ln 1e-17."""
    log_xi = math.log(nakagami_xi(s))
    y_lo = -math.log1p(-math.exp(_LOG_TINY / s))
    return (lambda t: nakagami_power_cdf(np.exp(np.minimum(t, 700.0)), s),
            max(1.0, math.log(s)), math.log(y_lo) - log_xi,
            math.log(math.log(s) - _LOG_TINY) - log_xi)


def outage_dm_closed_form(scn: Scenario) -> float:
    """Closed form of the mmWave outage probability under Alzer's bound of
    the gamma CDF.

    It deviates from the exact mixture by up to about five absolute
    percentage points at mid-range outage levels, so use
    ``outage(scn, "dm")`` for accuracy-sensitive work.
    """
    bob = link_states(scn, "dm", "bob")
    return _mixture(bob, scn.p_a, snr_threshold(scn.r_b, bob.bandwidth_hz),
                    scn.noise.rho, _alzer_cdf)
