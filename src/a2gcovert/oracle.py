"""Monte Carlo validation oracle for the closed-form performance metrics.

Sampling is organised in fixed-size batches.  Batch ``i`` always draws from
the generator seeded with ``SeedSequence(entropy=seed, spawn_key=(i,))``.
Each batch reduces every statistic to its count, mean and sum of squared
deviations (M2) before it computes the next one, and the batch moments are
merged by the update of Chan, Golub and LeVeque in a fixed pairwise order,
so results are bit-identical for any worker count, including 1, and the
standard error does not cancel for samples far from zero (capacities of
10^6-10^8 b/s).

The two estimators are kernels over one link's state table
(``channel.LinkStates``), as the analytic ``dep_over_states``,
``outage_over_states`` and ``csc_over_states`` are: ``mc_dep_points``
samples Willie's link and ``mc_receiver_points`` Bob's, and a caller that
evaluates both sides passes them the same table objects.  Draws are shared
between operating points.  A batch draws the states' counts, multinomial,
then each state's fading from its own law (never from a quadrature),
scaled by its mean received power; on Bob's link, then the noise exponent
u of the noise power sigma_n2 * rho^u, at the table's nominal sigma_n2.
Every point of the call is evaluated on the same draws: each (p_a, rho)
for the warden's DEP; each (p_a, rho), its SNR thresholds and, if asked,
the ergodic capacity in the table's band for the receiver.  This is the
method of common random numbers: each estimate is unbiased with its own
n-draw standard error, but the estimates of one call are correlated: an
outage estimate never rises with p_a, and a capacity estimate never
falls.  A batch overwrites a few arrays of its own point by point; nothing
is shared between batches, which may run in different threads.
``validation.run_validation`` calls them once per (position, mode) and
``sweep --mc`` once per group of sweep points with equal state tables,
each call seeded by ``derived_seed``.  ``mc_expected_min_dep``,
``mc_outage`` and ``mc_ergodic_capacity`` are one-point calls of these
two, on the tables of the scenario as configured.

The DEP estimator evaluates the exact conditional minimum-DEP kernel per
draw: given the received power and the noise-uncertainty bounds, the
infinite-observation radiometer statistic is deterministic, so no
per-threshold simulation is needed.  A separate finite-observation
radiometer estimator is provided as a slow cross-check of that limit.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
import numpy.random  # numpy loads it on first use; here, with the package

from .channel import (
    LinkStates,
    _check_point,
    link_states,
    sample_nakagami_power,
    sample_noise_exponent,
    sample_rician_power,
)
from .detection import min_dep_values, threshold_breakpoints
from .errors import DomainError
from .scenario import Scenario
from .throughput import snr_threshold

__all__ = [
    "McEstimate",
    "ReceiverEstimates",
    "BATCH_SIZE",
    "derived_seed",
    "mc_dep_points",
    "mc_receiver_points",
    "mc_expected_min_dep",
    "mc_outage",
    "mc_ergodic_capacity",
    "mc_min_dep_radiometer",
]

BATCH_SIZE = 65536


@dataclass(frozen=True)
class McEstimate:
    """Monte Carlo mean with its standard error and provenance."""

    mean: float
    std_error: float
    n_samples: int
    seed: int


@dataclass(frozen=True)
class ReceiverEstimates:
    """Receiver estimates at one operating point, all on the same draws.

    ``outage`` holds P(SNR < gamma_th) for each requested threshold, in
    order; ``capacity`` is E[W log2(1 + SNR)], or None if not requested.
    """

    outage: tuple[McEstimate, ...]
    capacity: McEstimate | None


def derived_seed(*entropy: int) -> int:
    """An oracle seed derived from nonnegative integers, e.g. (seed,
    group, link)."""
    if min(entropy, default=0) < 0:
        raise DomainError(f"oracle seed entropy {entropy} must be >= 0")
    return int(np.random.SeedSequence(entropy=entropy).generate_state(1)[0])


def _batch_rng(seed: int, batch: int) -> np.random.Generator:
    return np.random.default_rng(
        np.random.SeedSequence(entropy=seed, spawn_key=(batch,)))


def _moments(x: np.ndarray) -> tuple[int, float, float]:
    """(count, mean, M2) of one batch statistic; overwrites ``x``."""
    mean = float(np.mean(x))
    x -= mean
    np.square(x, out=x)
    return x.size, mean, float(np.sum(x))


def _indicator_moments(hits: int, m: int) -> tuple[int, float, float]:
    """(count, mean, M2) of m indicator draws of which ``hits`` are 1."""
    return m, hits / m, hits * (m - hits) / m


def _merge(a, b):
    """Chan-Golub-LeVeque merge of two (count, mean, M2) triples."""
    na, mean_a, m2_a = a
    nb, mean_b, m2_b = b
    n = na + nb
    delta = mean_b - mean_a
    return (n, mean_a + delta * (nb / n),
            m2_a + m2_b + delta * delta * (na * nb / n))


def _pairwise(values: list, combine):
    """Ordered pairwise reduction; the tree shape depends only on the count."""
    while len(values) > 1:
        values = [combine(values[i], values[i + 1]) if i + 1 < len(values)
                  else values[i] for i in range(0, len(values), 2)]
    return values[0]


def _run_batches(sample_batch, n: int, seed: int,
                 workers: int) -> list[McEstimate]:
    """Split n draws into fixed batches, evaluate, reduce deterministically.

    ``sample_batch(rng, m)`` does all of one batch's work and returns one
    (count, mean, M2) triple per statistic; the result holds one estimate
    per statistic, in the same order.
    """
    if n < 1000:
        raise DomainError("oracle estimates need n >= 1000")
    if seed < 0:
        raise DomainError(f"oracle seed {seed} must be >= 0")
    sizes = [BATCH_SIZE] * (n // BATCH_SIZE)
    if n % BATCH_SIZE:
        sizes.append(n % BATCH_SIZE)
    tasks = list(enumerate(sizes))

    def run(task):
        idx, m = task
        return sample_batch(_batch_rng(seed, idx), m)

    if workers > 1 and len(tasks) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            batches = list(pool.map(run, tasks))
    else:
        batches = [run(t) for t in tasks]
    out = []
    for stat in zip(*batches):
        count, mean, m2 = _pairwise(list(stat), _merge)
        se = math.sqrt(m2 / (count - 1) / count) if count > 1 else math.inf
        out.append(McEstimate(mean=mean, std_error=se, n_samples=n,
                              seed=seed))
    return out


def _unit_power_sampler(states: LinkStates):
    """``draw(rng, m)``: m draws of the link's received power per unit
    transmit power.  State i of the table fills a slice of multinomial
    length (empty at probability 0) with its fading times its mean power.
    """
    sample = (sample_rician_power if states.law == "rician"
              else sample_nakagami_power)
    gains = states.received(1.0)

    def draw(rng, m):
        out, end = np.empty(m), 0
        for count, param, gain in zip(rng.multinomial(m, states.probs),
                                      states.params, gains):
            part = out[end:end + count]
            sample(param, rng, out=part)
            part *= gain
            end += count
        return out

    return draw


def mc_dep_points(states: LinkStates, points, n: int, seed: int,
                  workers: int = 1) -> list[McEstimate]:
    """Estimate the fading-averaged minimum DEP at each (p_a, rho) point of
    Willie's link ``states``, at its noise power ``states.sigma_n2``.

    Every point is evaluated on one shared set of n draws of the link; the
    result holds one estimate per point, in order.
    """
    points = [(float(p_a), float(rho)) for p_a, rho in points]
    if not points:
        raise DomainError("need at least one operating point")
    for p_a, rho in points:
        _check_point(states, p_a, rho)
    draw = _unit_power_sampler(states)

    def batch(rng, m):
        unit = draw(rng, m)
        dep = np.empty(m)
        return [_moments(min_dep_values(np.multiply(unit, p_a, out=dep),
                                        states.sigma_n2, rho, out=dep))
                for p_a, rho in points]

    return _run_batches(batch, n, seed, workers)


def mc_receiver_points(states: LinkStates, points, n: int, seed: int,
                       workers: int = 1, capacity: bool = False
                       ) -> list[ReceiverEstimates]:
    """Estimate outages, and with ``capacity`` the ergodic capacity in the
    band ``states.bandwidth_hz``, at each (p_a, rho, gamma_ths) point of
    Bob's link ``states``, at its nominal noise power ``states.sigma_n2``.

    Every point, threshold and capacity is evaluated on one shared set of n
    draws of the link (fading, lobe state, noise exponent); the result
    holds one ``ReceiverEstimates`` per point, in order.
    """
    checked = []
    for p_a, rho, gammas in points:
        p_a, gammas = float(p_a), tuple(float(g) for g in gammas)
        noise = _check_point(states, p_a, float(rho))
        if any(g < 0 for g in gammas):
            raise DomainError("gamma_th must be nonnegative")
        checked.append((p_a, noise, gammas))
    if not any(gammas or capacity for _, _, gammas in checked):
        raise DomainError("need at least one statistic to estimate")
    draw = _unit_power_sampler(states)
    w_ln2 = states.bandwidth_hz / math.log(2.0)
    by_rho: dict[float, list[int]] = {}
    for i, (_, noise, _) in enumerate(checked):
        by_rho.setdefault(noise.rho, []).append(i)

    def batch(rng, m):
        unit = draw(rng, m)
        u = sample_noise_exponent(rng, m)
        snr, below = np.empty(m), np.empty(m, dtype=bool)
        stats = [None] * len(checked)
        for members in by_rho.values():
            # the unit power over one noise power array per distinct rho
            scaled = checked[members[0]][1].power(u)
            np.divide(unit, scaled, out=scaled)
            for i in members:
                p_a, _, gammas = checked[i]
                np.multiply(scaled, p_a, out=snr)
                stats[i] = [_indicator_moments(int(np.count_nonzero(
                    np.less(snr, g, out=below))), m) for g in gammas]
                if capacity:
                    np.log1p(snr, out=snr)
                    snr *= w_ln2
                    stats[i].append(_moments(snr))
        return [stat for point in stats for stat in point]

    flat = iter(_run_batches(batch, n, seed, workers))
    return [ReceiverEstimates(outage=tuple(next(flat) for _ in gammas),
                              capacity=next(flat) if capacity else None)
            for _, _, gammas in checked]


def mc_expected_min_dep(scn: Scenario, mode: str, n: int, seed: int,
                        workers: int = 1) -> McEstimate:
    """Estimate the fading-averaged minimum DEP by direct sampling."""
    return mc_dep_points(link_states(scn, mode, "willie"),
                         [(scn.p_a, scn.noise.rho)], n, seed, workers)[0]


def mc_outage(scn: Scenario, mode: str, n: int, seed: int,
              workers: int = 1) -> McEstimate:
    """Estimate P(SNR < gamma_th) at the receiver, at the threshold of the
    rate r_b, by direct sampling."""
    states = link_states(scn, mode, "bob")
    gamma_th = float(snr_threshold(scn.r_b, states.bandwidth_hz))
    (est,) = mc_receiver_points(
        states, [(scn.p_a, scn.noise.rho, (gamma_th,))], n, seed, workers)
    return est.outage[0]


def mc_ergodic_capacity(scn: Scenario, mode: str, n: int, seed: int,
                        workers: int = 1) -> McEstimate:
    """Estimate E[W log2(1 + SNR)] at the receiver by direct sampling."""
    (est,) = mc_receiver_points(
        link_states(scn, mode, "bob"), [(scn.p_a, scn.noise.rho, ())], n,
        seed, workers, capacity=True)
    return est.capacity


def mc_min_dep_radiometer(k_a: float, sigma_n2: float, rho: float,
                          n_trials: int = 2000, n_uses: int = 10**4,
                          n_tau: int = 201, seed: int = 0) -> float:
    """Finite-observation radiometer cross-check of the minimum-DEP kernel.

    Simulates the averaged energy statistic over ``n_uses`` channel uses per
    trial under both hypotheses, then minimises the empirical error sum over
    a threshold grid anchored at the analytic breakpoints.  Slow; intended
    only to validate the infinite-observation limit used everywhere else.
    """
    if k_a < 0 or sigma_n2 <= 0 or rho <= 1:
        raise DomainError("invalid radiometer parameters")
    if n_trials < 100 or n_uses < 100 or n_tau < 11:
        raise DomainError("radiometer cross-check needs more samples")
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed))
    dof = 2 * n_uses
    sigma_w2 = sigma_n2 * rho ** rng.uniform(-1.0, 1.0, size=n_trials)
    t0 = sigma_w2 * rng.chisquare(dof, size=n_trials) / dof
    sigma_w2_1 = sigma_n2 * rho ** rng.uniform(-1.0, 1.0, size=n_trials)
    nonc = dof * k_a / sigma_w2_1
    t1 = sigma_w2_1 * rng.noncentral_chisquare(dof, nonc, size=n_trials) / dof
    anchors = threshold_breakpoints(k_a, sigma_n2, rho)
    taus = np.unique(np.concatenate([
        np.linspace(anchors[0] * 0.5, anchors[-1] * 1.5, n_tau), anchors]))
    p_fa = (t0[None, :] > taus[:, None]).mean(axis=1)
    p_md = (t1[None, :] <= taus[:, None]).mean(axis=1)
    return float(np.min(p_fa + p_md))
