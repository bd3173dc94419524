"""Warden detection layer: error probabilities and their channel averages.

The warden runs a radiometer with threshold ``tau`` under bounded log-uniform
noise uncertainty.  Conditioned on the received covert-signal power ``k_a``,
the false-alarm and missed-detection probabilities are piecewise logarithmic
in ``tau``; their sum has a closed-form minimum over ``tau``.  Averaging that
minimum over fading and over the discrete channel / lobe states gives the
covertness metric the transmitter can actually evaluate.

The fading averages of both modes go through one kernel,
``_state_averages``: a composite Gauss-Legendre rule whose nodes and
weights are built once, applied to all states of a mode in one array
operation.  Rician states are integrated in the amplitude
b = sqrt(2 (k+1) x), on a window of fixed width around sqrt(2k), and gamma
states in the power x between the law's tail quantiles; the DEP cutoff is
a panel edge, and panels are graded toward 0 when the noise uncertainty
rho is large.  A 16-node rule on the same panels gives each state an
error estimate; ``ExpectedDep.abs_err`` carries their weighted sum, and an
estimate above 1e-8 raises ``QuadratureError``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

# ``integrate`` is unused here but kept as a module attribute: bench/spans.py
# counts quadrature calls per module by replacing it.
from scipy import integrate, special  # noqa: F401

from .channel import nakagami_xi, path_loss, rician_factor
from .errors import DomainError, QuadratureError
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
    contribution; the contributions sum to ``value``.  ``abs_err`` is the
    quadrature error estimate of ``value``: each state's estimate times the
    state's probability, summed; 0 for the closed forms and for a silent
    transmitter.
    """

    value: float
    terms: dict[str, float]
    abs_err: float = 0.0


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


@dataclass(frozen=True, eq=False)
class _CompositeRule:
    """Gauss-Legendre rule applied on every panel of a state's window.

    ``nodes`` holds the n-node rule followed by the lower-order estimate
    rule, both on [-1, 1], so one pass evaluates the integrand for both;
    row 0 of ``weights`` gives the n-node sum and row 1 the estimate.
    """

    panels: int
    nodes: np.ndarray
    weights: np.ndarray


def _composite_rule(panels: int, n: int, n_est: int) -> _CompositeRule:
    t, w = np.polynomial.legendre.leggauss(n)
    t_est, w_est = np.polynomial.legendre.leggauss(n_est)
    weights = np.zeros((2, n + n_est))
    weights[0, :n] = w
    weights[1, n:] = w_est
    return _CompositeRule(panels, np.concatenate((t, t_est)), weights)


_RULE = _composite_rule(panels=4, n=24, n_est=16)
# ratio of consecutive panels graded toward the window start
_GRADE = 4.0
# half-width of the Rician window in the amplitude b, around sqrt(2k)
_RICIAN_HALF_WIDTH = 12.0
# probability left out below and above the gamma window
_GAMMA_TAIL = 1e-18
# largest error estimate a state average may carry
_ABS_TOL = 1e-8


@lru_cache(maxsize=None)
def _layout(rule: _CompositeRule, graded: int) -> tuple[np.ndarray, ...]:
    """Nodes on [0, 1], their weights and the estimate rule's weights.

    The panels are the rule's uniform ones, the first of them split
    ``graded`` times geometrically toward 0.  The weights are two vectors,
    applied by matrix-vector products: a matrix-matrix product would
    allocate BLAS gemm buffers, 128 KB of peak memory that nothing else in
    the planner needs.
    """
    first = 1.0 / rule.panels
    edges = np.concatenate((
        [0.0], first * _GRADE ** -np.arange(graded, 0, -1.0),
        np.linspace(first, 1.0, rule.panels)))
    half = 0.5 * np.diff(edges)
    nodes = ((edges[:-1] + half)[:, None] + half[:, None] * rule.nodes)
    weights = half[:, None] * rule.weights[:, None, :]
    out = (nodes.ravel(), weights[0].ravel(), weights[1].ravel())
    for arr in out:
        arr.flags.writeable = False
    return out


@lru_cache(maxsize=None)
def _gamma_law(s: int) -> tuple[float, float, float]:
    """Log-density constant and the window's quantiles for shape s."""
    return (s * math.log(s) - math.lgamma(s),
            float(special.gammaincinv(s, _GAMMA_TAIL)) / s,
            float(special.gammainccinv(s, _GAMMA_TAIL)) / s)


def _state_averages(law: str, params, units, sigma_n2: float,
                    rho: float) -> tuple[list[float], list[float]]:
    """Fading averages of the minimum-DEP kernel over a list of states.

    State i has the fading law ``law`` ("rician" with Rice factor
    params[i], or "gamma" with integer shape params[i]) and the received
    unit power units[i].  Below the cutoff x = varrho, beyond which the
    warden detects perfectly, the kernel is
    1 - ln(1 + rho unit x / sigma^2) / (2 ln rho); above it, zero.  Returns
    the averages, clipped to [0, 1], and their error estimates.  An
    estimate above 1e-8 raises ``QuadratureError`` naming the state.

    One composite Gauss-Legendre rule (4 panels of 24 nodes) integrates
    every state over its own window, all states and nodes in one array
    operation:

    - a Rician state in the amplitude b = sqrt(2 (k+1) x), where the
      density is b exp(-(b - a)^2 / 2) i0e(a b) with a = sqrt(2k), on
      [max(0, a - 12), min(a + 12, sqrt(2 (k+1) varrho))]: 24 wide for
      every k, with the mass outside below 1e-30;
    - a gamma state in x, between the law's 1e-18 quantiles and cut at
      varrho.

    When varrho bounds the window it is the last panel edge.  The
    logarithm has a branch point at x = -varrho / (rho^2 - 1), that is at
    b = +-i sqrt(2 (k+1) varrho / (rho^2 - 1)); its distance from the
    window start is at least 1 / (rho^2 - 1) of the window's width in x,
    and the square root of that in b.  The first panel is therefore split
    geometrically toward the start until it is no wider than that
    distance, which matters above rho ~ 10 dB.  The estimate is the
    difference to a 16-node rule on the same panels.
    """
    _check_noise(sigma_n2, rho)
    rician = law == "rician"
    rr = rho * rho - 1.0
    lo, width, cols = [], [], []
    for p, unit in zip(params, units):
        if unit < 0:
            raise DomainError("received unit power must be nonnegative")
        g = rho * unit / sigma_n2
        cut = rr / g if g > 0.0 else math.inf
        if rician:
            if p < 0:
                raise DomainError("Rician factor must be nonnegative")
            a = math.sqrt(2.0 * p)
            k2 = 2.0 * (p + 1.0)
            start = max(a - _RICIAN_HALF_WIDTH, 0.0)
            end = min(a + _RICIAN_HALF_WIDTH, math.sqrt(k2 * cut))
            cols.append((a, g / k2))
        else:
            if p < 1:
                raise DomainError("Nakagami shape must be >= 1")
            const, start, end = _gamma_law(int(p))
            end = min(cut, end)
            cols.append((const, p, g))
        lo.append(start)
        width.append(max(end - start, 0.0))
    delta = 1.0 / math.sqrt(rr) if rician else 1.0 / rr
    graded = math.ceil(math.log(1.0 / (_RULE.panels * delta), _GRADE))
    nodes, w_val, w_est = _layout(_RULE, max(0, graded))
    w = np.array(width)
    y = np.array(lo)[:, None] + w[:, None] * nodes  # states x nodes
    inv = 1.0 / (2.0 * math.log(rho))
    if rician:
        a, c = np.array(cols).T[..., None]
        f = (y * np.exp(-0.5 * (y - a) ** 2) * special.i0e(a * y)
             * (1.0 - inv * np.log1p(c * y * y)))
    else:
        const, s, gain = np.array(cols).T[..., None]
        f = (np.exp(const + (s - 1.0) * np.log(y) - s * y)
             * (1.0 - inv * np.log1p(gain * y)))
    val = (f @ w_val) * w
    vals = val.tolist()
    errs = np.abs(val - (f @ w_est) * w).tolist()
    worst = max(range(len(errs)), key=errs.__getitem__)
    if errs[worst] > _ABS_TOL:
        name, var = ("k", "b") if rician else ("s", "x")
        raise QuadratureError(
            f"DEP fading average did not converge: {law} state "
            f"{name} = {params[worst]:g}, unit power {units[worst]:.6g}, "
            f"window {var} in [{lo[worst]:.6g}, "
            f"{lo[worst] + width[worst]:.6g}], error estimate "
            f"{errs[worst]:.3g} > {_ABS_TOL:g}")
    return [min(1.0, max(0.0, v)) for v in vals], errs


def _expected_dep(law: str, labels, probs, units, params, sigma_n2: float,
                  rho: float) -> ExpectedDep:
    vals, errs = _state_averages(law, params, units, sigma_n2, rho)
    terms = {label: p * v for label, p, v in zip(labels, probs, vals)}
    return ExpectedDep(value=sum(terms.values()), terms=terms,
                       abs_err=sum(p * e for p, e in zip(probs, errs)))


def _silent(labels, probs) -> ExpectedDep:
    """A silent transmitter: the warden errs with certainty in every state."""
    terms = {label: p * 1.0 for label, p in zip(labels, probs)}
    return ExpectedDep(value=sum(terms.values()), terms=terms)


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
    if p_a < 0:
        raise DomainError("transmit power must be nonnegative")
    link = scn.link(alice, scn.willie)
    labels = ("los", "nlos")
    probs = (link.p_los, 1.0 - link.p_los)
    if p_a == 0.0:
        return _silent(labels, probs)
    states = (True, False)
    return _expected_dep(
        "rician", labels, probs,
        [p_a * path_loss(link.d, scn.om.pathloss(los)) for los in states],
        [rician_factor(link.theta_rad, scn.om.rician, los) for los in states],
        scn.noise.sigma_n2, rho)


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
    labels, probs, units, shapes = [], [], [], []
    for lobe, p_lobe, g_w in (("main", w_tab.p_main, w_tab.g_main),
                              ("side", w_tab.p_side, w_tab.g_side)):
        for los, blabel in ((True, "los"), (False, "nlos")):
            labels.append(f"{lobe}/{blabel}")
            probs.append(p_lobe * (link.p_los if los else 1.0 - link.p_los))
            units.append(p_a * g_alice * g_w
                         * path_loss(link.d, scn.dm.pathloss(los)))
            shapes.append(nak.shape(los))
    if p_a == 0.0:
        return _silent(labels, probs)
    return _expected_dep("gamma", labels, probs, units, shapes,
                         scn.noise.sigma_n2, rho)


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
