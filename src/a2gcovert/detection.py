"""Warden detection layer: error probabilities and their channel averages.

The warden runs a radiometer with threshold ``tau`` under bounded log-uniform
noise uncertainty.  Conditioned on the received covert-signal power ``k_a``,
the false-alarm and missed-detection probabilities are piecewise logarithmic
in ``tau``; their sum has a closed-form minimum over ``tau``.  Averaging that
minimum over fading and over the discrete channel / lobe states gives the
covertness metric the transmitter can actually evaluate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from scipy import integrate

from .channel import (
    nakagami_scalar_pdf,
    nakagami_xi,
    path_loss,
    rician_factor,
    rician_scalar_pdf,
)
from .errors import DomainError
from .geometry import alice_main_lobe_covers_willie, lobe_gains
from .scenario import NodePosition, Scenario
from .specfun import lower_inc_gamma, marcum_mu_nu

__all__ = [
    "DepResult",
    "ExpectedDep",
    "false_alarm_probability",
    "missed_detection_probability",
    "dep_at_threshold",
    "threshold_breakpoints",
    "min_dep",
    "min_dep_values",
    "varrho",
    "truncated_mean_rician",
    "truncated_mean_nakagami",
    "expected_min_dep_om",
    "expected_min_dep_dm",
    "expected_min_dep",
    "expected_min_dep_om_closed_form",
    "expected_min_dep_dm_closed_form",
]


@dataclass(frozen=True)
class DepResult:
    """Minimum detection error probability and the minimising threshold set.

    ``tau_lo == tau_hi`` when the minimiser is a single point; otherwise every
    threshold in [tau_lo, tau_hi] attains the minimum.
    """

    value: float
    tau_lo: float
    tau_hi: float


@dataclass(frozen=True)
class ExpectedDep:
    """Fading-averaged minimum DEP with its per-state breakdown.

    ``terms`` maps a state label (e.g. "los", "main/nlos") to that state's
    contribution; the contributions sum to ``value``.
    """

    value: float
    terms: dict[str, float]


def _check_noise(sigma_n2: float, rho: float):
    if sigma_n2 <= 0:
        raise DomainError("nominal noise power must be positive")
    if rho <= 1:
        raise DomainError("noise uncertainty factor rho must exceed 1")


def false_alarm_probability(tau, sigma_n2: float, rho: float):
    """P(radiometer trips with no transmission), piecewise in tau."""
    _check_noise(sigma_n2, rho)
    tau = np.asarray(tau, dtype=float)
    mid = 1.0 - (np.log(rho * np.maximum(tau, sigma_n2 / (2 * rho)))
                 - math.log(sigma_n2)) / (2.0 * math.log(rho))
    out = np.where(tau < sigma_n2 / rho, 1.0,
                   np.where(tau > rho * sigma_n2, 0.0, mid))
    return out[()] if tau.ndim == 0 else out


def missed_detection_probability(tau, k_a, sigma_n2: float, rho: float):
    """P(radiometer stays quiet during transmission) for received power k_a."""
    _check_noise(sigma_n2, rho)
    tau = np.asarray(tau, dtype=float)
    k_a = np.asarray(k_a, dtype=float)
    if np.any(k_a < 0):
        raise DomainError("received signal power k_a must be nonnegative")
    excess = tau - k_a
    mid = (np.log(rho * np.maximum(excess, sigma_n2 / (2 * rho)))
           - math.log(sigma_n2)) / (2.0 * math.log(rho))
    out = np.where(excess < sigma_n2 / rho, 0.0,
                   np.where(excess > rho * sigma_n2, 1.0, mid))
    shape0 = tau.ndim == 0 and k_a.ndim == 0
    return out[()] if shape0 else out


def dep_at_threshold(tau, k_a, sigma_n2: float, rho: float):
    """Total detection error P_FA(tau) + P_MD(tau)."""
    return (false_alarm_probability(tau, sigma_n2, rho)
            + missed_detection_probability(tau, k_a, sigma_n2, rho))


def threshold_breakpoints(k_a: float, sigma_n2: float, rho: float) -> np.ndarray:
    """The four thresholds where the error pieces change, sorted ascending."""
    _check_noise(sigma_n2, rho)
    return np.sort(np.array([
        sigma_n2 / rho,
        rho * sigma_n2,
        k_a + sigma_n2 / rho,
        k_a + rho * sigma_n2,
    ]))


def min_dep_values(k_a, sigma_n2: float, rho: float):
    """Vectorised minimum DEP over thresholds, given received power(s) k_a."""
    _check_noise(sigma_n2, rho)
    k_a = np.asarray(k_a, dtype=float)
    if np.any(k_a < 0):
        raise DomainError("received signal power k_a must be nonnegative")
    cutoff = (rho * rho - 1.0) * sigma_n2 / rho
    val = 1.0 - (np.log(rho * k_a + sigma_n2) - math.log(sigma_n2)) / (
        2.0 * math.log(rho))
    out = np.where(k_a >= cutoff, 0.0, np.maximum(val, 0.0))
    return out[()] if k_a.ndim == 0 else out


def min_dep(k_a: float, sigma_n2: float, rho: float) -> DepResult:
    """Minimum DEP and the warden's optimal threshold interval.

    When the received power exceeds the noise-uncertainty window the error is
    exactly zero for any threshold between the pure-noise ceiling and the
    signal-plus-noise floor; otherwise the unique minimiser is the
    signal-plus-noise floor itself.
    """
    value = float(min_dep_values(k_a, sigma_n2, rho))
    hi = k_a + sigma_n2 / rho
    if rho * sigma_n2 < hi:
        return DepResult(value=value, tau_lo=rho * sigma_n2, tau_hi=hi)
    return DepResult(value=value, tau_lo=hi, tau_hi=hi)


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
    if math.isinf(a):
        z = math.inf
    else:
        z = math.exp(c.mu) * (2.0 * a * (k + 1.0)) ** (c.nu / 2.0)
    head = float(lower_inc_gamma(2.0 / c.nu, z)) / (
        (k + 1.0) * c.nu * math.exp(2.0 * c.mu / c.nu))
    tail = 0.0 if math.isinf(a) else a * math.exp(-z)
    return head - tail


def truncated_mean_nakagami(a: float, s: int) -> float:
    """Truncated mean over [0, a] of the Alzer surrogate of the gamma law.

    The law is F(x) = (1 - e^(-xi x))^s with xi = s (s!)^(-1/s), Alzer's
    lower bound on the CDF of the unit-mean gamma power law of shape s; the
    value is its alternating binomial closed form.  It is not the truncated
    mean of the exact gamma law.  Because the surrogate CDF never exceeds
    the exact one, the value exceeds the exact truncated mean by at most
    the surrogate's full-mean bias beta_s = H_s (s!)^(1/s) / s - 1, with H_s
    the s-th harmonic number: 0 for s = 1 (the law is exact), 0.061 for
    s = 2 and 0.110 for s = 3.
    """
    if a < 0:
        raise DomainError("truncation point must be nonnegative")
    if not (isinstance(s, (int, np.integer)) and s >= 1):
        raise DomainError("Nakagami shape must be an integer >= 1")
    if a == 0.0:
        return 0.0
    xi = nakagami_xi(int(s))
    total = 0.0
    for r in range(1, s + 1):
        rx = r * xi
        if math.isinf(a):
            total += math.comb(s, r) * (-1.0) ** r * (-1.0 / rx)
        else:
            total += math.comb(s, r) * (-1.0) ** r * (
                a * math.exp(-rx * a) - (1.0 - math.exp(-rx * a)) / rx)
    return total


def _dep_term(unit_power: float, trunc_mean: float, cdf_at_cutoff: float,
              sigma_n2: float, rho: float) -> float:
    """State contribution: CDF weight times the log-average error level."""
    inner = rho * unit_power * trunc_mean + sigma_n2
    level = 1.0 - (math.log(inner) - math.log(sigma_n2)) / (2.0 * math.log(rho))
    return cdf_at_cutoff * min(1.0, max(0.0, level))


def _exact_state_average(unit: float, pdf, x_tail: float,
                         sigma_n2: float, rho: float) -> float:
    """Exact fading average of the minimum-DEP kernel for one channel state.

    Integrates (1 - [ln(rho*unit*x + sigma^2) - ln sigma^2] / (2 ln rho))
    against the fading-power pdf over [0, min(cutoff, tail)], where the
    cutoff is the gain beyond which the warden detects perfectly and the
    tail bound carries negligible probability mass.  ``pdf`` is a float ->
    float density from ``rician_scalar_pdf`` or ``nakagami_scalar_pdf``.
    """
    cut = varrho(unit, sigma_n2, rho)
    upper = min(cut, x_tail)
    if upper <= 0.0:
        return 0.0
    log_s = math.log(sigma_n2)
    denom = 2.0 * math.log(rho)
    gain = rho * unit
    log = math.log

    def integrand(x):
        return (1.0 - (log(gain * x + sigma_n2) - log_s) / denom) * pdf(x)

    val, _ = integrate.quad(integrand, 0.0, upper, limit=300,
                            epsabs=1e-12, epsrel=1e-10)
    return min(1.0, max(0.0, val))


def expected_min_dep_om(scn: Scenario, alice: NodePosition | None = None,
                        p_a: float | None = None,
                        rho: float | None = None) -> ExpectedDep:
    """Fading-averaged minimum DEP in the omnidirectional microwave mode.

    Mixture over the LoS/NLoS state of the transmitter-warden link; within
    each state the exact Rician power density is integrated against the
    minimum-DEP kernel.
    """
    alice = alice if alice is not None else scn.alice
    p_a = scn.p_a if p_a is None else p_a
    rho = scn.noise.rho if rho is None else rho
    sigma_n2 = scn.noise.sigma_n2
    if p_a < 0:
        raise DomainError("transmit power must be nonnegative")
    link = scn.link(alice, scn.willie)
    terms: dict[str, float] = {}
    for los, label in ((True, "los"), (False, "nlos")):
        p_state = link.p_los if los else 1.0 - link.p_los
        if p_a == 0.0:
            terms[label] = p_state * 1.0
            continue
        unit = p_a * path_loss(link.d, scn.om.pathloss(los))
        k = rician_factor(link.theta_rad, scn.om.rician, los)
        x_tail = (math.sqrt(2.0 * k) + 12.0) ** 2 / (2.0 * (k + 1.0))
        terms[label] = p_state * _exact_state_average(
            unit, rician_scalar_pdf(k), x_tail, sigma_n2, rho)
    return ExpectedDep(value=sum(terms.values()), terms=terms)


def expected_min_dep_dm(scn: Scenario, alice: NodePosition | None = None,
                        p_a: float | None = None,
                        rho: float | None = None) -> ExpectedDep:
    """Fading-averaged minimum DEP in the directional mmWave mode.

    Double mixture: the warden's receive lobe (main with its pointing
    probability, side otherwise) and the LoS/NLoS state; the exact gamma
    power density is integrated against the minimum-DEP kernel.  The
    transmitter's lobe toward the warden is deterministic given the beam
    steered at the intended receiver.
    """
    alice = alice if alice is not None else scn.alice
    p_a = scn.p_a if p_a is None else p_a
    rho = scn.noise.rho if rho is None else rho
    sigma_n2 = scn.noise.sigma_n2
    if p_a < 0:
        raise DomainError("transmit power must be nonnegative")
    link = scn.link(alice, scn.willie)
    a_tab = lobe_gains(scn.ant_alice)
    w_tab = lobe_gains(scn.ant_willie)
    g_alice = (a_tab.g_main
               if alice_main_lobe_covers_willie(alice, scn.bob, scn.willie,
                                                scn.ant_alice)
               else a_tab.g_side)
    nak = scn.dm.nakagami
    terms: dict[str, float] = {}
    for lobe, p_lobe, g_w in (("main", w_tab.p_main, w_tab.g_main),
                              ("side", w_tab.p_side, w_tab.g_side)):
        for los, blabel in ((True, "los"), (False, "nlos")):
            label = f"{lobe}/{blabel}"
            p_state = p_lobe * (link.p_los if los else 1.0 - link.p_los)
            if p_a == 0.0:
                terms[label] = p_state * 1.0
                continue
            unit = p_a * g_alice * g_w * path_loss(link.d, scn.dm.pathloss(los))
            s = nak.shape(los)
            x_tail = (60.0 + 20.0 * s) / s
            terms[label] = p_state * _exact_state_average(
                unit, nakagami_scalar_pdf(s), x_tail, sigma_n2, rho)
    return ExpectedDep(value=sum(terms.values()), terms=terms)


def expected_min_dep_om_closed_form(scn: Scenario,
                                    alice: NodePosition | None = None,
                                    p_a: float | None = None,
                                    rho: float | None = None) -> ExpectedDep:
    """Closed-form microwave DEP average built on the exponential-type CDF
    surrogate and its truncated-mean companion.

    Kept for reference and speed comparisons; the surrogate misstates the
    lower fading tail at large Rician factors, so this can deviate from the
    exact average by more than a tenth in absolute DEP at high power.  Use
    ``expected_min_dep_om`` for accuracy-sensitive work.
    """
    alice = alice if alice is not None else scn.alice
    p_a = scn.p_a if p_a is None else p_a
    rho = scn.noise.rho if rho is None else rho
    sigma_n2 = scn.noise.sigma_n2
    if p_a < 0:
        raise DomainError("transmit power must be nonnegative")
    link = scn.link(alice, scn.willie)
    terms: dict[str, float] = {}
    for los, label in ((True, "los"), (False, "nlos")):
        p_state = link.p_los if los else 1.0 - link.p_los
        if p_a == 0.0:
            terms[label] = p_state * 1.0
            continue
        unit = p_a * path_loss(link.d, scn.om.pathloss(los))
        k = rician_factor(link.theta_rad, scn.om.rician, los)
        rho_cut = varrho(unit, sigma_n2, rho)
        c = marcum_mu_nu(math.sqrt(2.0 * k))
        z = math.exp(c.mu) * (2.0 * rho_cut * (k + 1.0)) ** (c.nu / 2.0)
        cdf = 1.0 - math.exp(-z)
        t = truncated_mean_rician(rho_cut, k)
        terms[label] = p_state * _dep_term(unit, t, cdf, sigma_n2, rho)
    return ExpectedDep(value=sum(terms.values()), terms=terms)


def expected_min_dep_dm_closed_form(scn: Scenario,
                                    alice: NodePosition | None = None,
                                    p_a: float | None = None,
                                    rho: float | None = None) -> ExpectedDep:
    """Closed-form mmWave DEP average built on the binomial-exponential CDF
    bound of the gamma law.

    Kept for reference; the bound deviates from the true CDF by up to about
    five absolute percentage points at mid-range arguments, so use
    ``expected_min_dep_dm`` for accuracy-sensitive work.
    """
    alice = alice if alice is not None else scn.alice
    p_a = scn.p_a if p_a is None else p_a
    rho = scn.noise.rho if rho is None else rho
    sigma_n2 = scn.noise.sigma_n2
    if p_a < 0:
        raise DomainError("transmit power must be nonnegative")
    link = scn.link(alice, scn.willie)
    a_tab = lobe_gains(scn.ant_alice)
    w_tab = lobe_gains(scn.ant_willie)
    g_alice = (a_tab.g_main
               if alice_main_lobe_covers_willie(alice, scn.bob, scn.willie,
                                                scn.ant_alice)
               else a_tab.g_side)
    nak = scn.dm.nakagami
    terms: dict[str, float] = {}
    for lobe, p_lobe, g_w in (("main", w_tab.p_main, w_tab.g_main),
                              ("side", w_tab.p_side, w_tab.g_side)):
        for los, blabel in ((True, "los"), (False, "nlos")):
            label = f"{lobe}/{blabel}"
            p_state = p_lobe * (link.p_los if los else 1.0 - link.p_los)
            if p_a == 0.0:
                terms[label] = p_state * 1.0
                continue
            unit = p_a * g_alice * g_w * path_loss(link.d, scn.dm.pathloss(los))
            s = nak.shape(los)
            rho_cut = varrho(unit, sigma_n2, rho)
            xi = nakagami_xi(s)
            cdf = sum(math.comb(s, r) * (-1.0) ** r * math.exp(-r * xi * rho_cut)
                      for r in range(0, s + 1))
            cdf = min(1.0, max(0.0, cdf))
            t = truncated_mean_nakagami(rho_cut, s)
            terms[label] = p_state * _dep_term(unit, t, cdf, sigma_n2, rho)
    return ExpectedDep(value=sum(terms.values()), terms=terms)


def expected_min_dep(scn: Scenario, mode: str,
                     alice: NodePosition | None = None,
                     p_a: float | None = None,
                     rho: float | None = None) -> ExpectedDep:
    """Dispatch on transmission mode ('om' or 'dm')."""
    if mode == "om":
        return expected_min_dep_om(scn, alice=alice, p_a=p_a, rho=rho)
    if mode == "dm":
        return expected_min_dep_dm(scn, alice=alice, p_a=p_a, rho=rho)
    raise DomainError(f"unknown mode {mode!r}")
