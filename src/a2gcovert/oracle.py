"""Monte Carlo validation oracle for the closed-form performance metrics.

Sampling is organised in fixed-size batches.  Batch ``i`` always draws from
the generator seeded with ``SeedSequence(entropy=seed, spawn_key=(i,))``.
Each batch reduces every statistic to its count, mean and sum of squared
deviations (M2) before it computes the next one, and the batch moments are
merged by the update of Chan, Golub and LeVeque in a fixed pairwise order,
so results are bit-identical for any worker count, including 1, and the
standard error does not cancel for samples far from zero (capacities of
10^6-10^8 b/s).

Draws are shared between operating points.  A call samples one link once
per batch: Alice to Willie (``mc_dep_points``) or Alice to Bob
(``mc_receiver_points``).  A draw is the LoS state, the fading power, the
receive lobe in mode "dm" and, on Bob's link, the noise exponent u of the
noise power sigma_n2 * rho^u.  Every point of the call is evaluated on the
same draws: each (p_a, rho) for the warden's DEP; each (p_a, rho), its SNR
thresholds and the ergodic capacity for the receiver.  This is the method
of common random numbers: each estimate is unbiased with its own n-draw
standard error, but the estimates of one call are correlated: an outage
estimate never rises with p_a, and a capacity estimate never falls.
``mc_expected_min_dep``, ``mc_outage`` and ``mc_ergodic_capacity`` are
one-point calls of these two.

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

from .channel import (
    NoiseModel,
    path_loss,
    rician_factor,
    sample_nakagami_power,
    sample_noise_exponent,
    sample_rician_power,
)
from .detection import min_dep_values, threshold_breakpoints
from .errors import DomainError
from .geometry import alice_main_lobe_covers_willie, lobe_gains
from .scenario import LinkGeometry, NodePosition, Scenario
from .throughput import snr_threshold

__all__ = [
    "McEstimate",
    "ReceiverEstimates",
    "BATCH_SIZE",
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
    if n < 1:
        raise DomainError("need at least one sample")
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


def _check_common(scn: Scenario, mode: str, p_a: float, n: int):
    if mode not in ("om", "dm"):
        raise DomainError(f"unknown mode {mode!r}")
    if p_a < 0:
        raise DomainError("transmit power must be nonnegative")
    if n < 1000:
        raise DomainError("oracle estimates need n >= 1000")


def _unit_power_sampler(scn: Scenario, mode: str, link: LinkGeometry,
                        lobe=None):
    """``draw(rng, m)`` of one link's received power per unit transmit power.

    A draw is the LoS state, then the fading power, then, when ``lobe`` =
    (transmit gain, receive ``LobeGainTable``) is given, the receive lobe.
    Everything that does not vary per draw is computed here, once.
    """
    band = scn.band(mode)
    loss_los = path_loss(link.d, band.pl_los)
    loss_nlos = path_loss(link.d, band.pl_nlos)
    if mode == "om":
        fading_los = rician_factor(link.theta_rad, band.rician, True)
        fading_nlos, sample = 0.0, sample_rician_power
    else:
        fading_los, fading_nlos = band.nakagami.s_los, band.nakagami.s_nlos
        sample = sample_nakagami_power

    def draw(rng, m):
        los = rng.random(m) < link.p_los
        unit = sample(np.where(los, fading_los, fading_nlos), rng)
        unit *= np.where(los, loss_los, loss_nlos)
        if lobe is not None:
            g_tx, rx = lobe
            main = rng.random(m) < rx.p_main
            unit *= g_tx * np.where(main, rx.g_main, rx.g_side)
        return unit

    return draw


def mc_dep_points(scn: Scenario, points, alice: NodePosition | None = None,
                  mode: str = "om", n: int = 10**6, seed: int | None = None,
                  workers: int = 1) -> list[McEstimate]:
    """Estimate the fading-averaged minimum DEP at each (p_a, rho) point.

    Every point is evaluated on one shared set of n draws of Willie's link;
    the result holds one estimate per point, in order.
    """
    alice = alice if alice is not None else scn.alice
    seed = scn.seed if seed is None else int(seed)
    points = [(float(p_a), float(rho)) for p_a, rho in points]
    if not points:
        raise DomainError("need at least one operating point")
    for p_a, rho in points:
        _check_common(scn, mode, p_a, n)
        if rho <= 1:
            raise DomainError("noise uncertainty factor rho must exceed 1")
    lobe = None
    if mode == "dm":
        a_tab = lobe_gains(scn.ant_alice)
        covers = alice_main_lobe_covers_willie(alice, scn.bob, scn.willie,
                                               scn.ant_alice)
        lobe = (a_tab.g_main if covers else a_tab.g_side,
                lobe_gains(scn.ant_willie))
    draw = _unit_power_sampler(scn, mode, scn.link(alice, scn.willie), lobe)
    sigma_n2 = scn.noise.sigma_n2

    def batch(rng, m):
        unit = draw(rng, m)
        return [_moments(min_dep_values(p_a * unit, sigma_n2, rho))
                for p_a, rho in points]

    return _run_batches(batch, n, seed, workers)


def mc_receiver_points(scn: Scenario, points,
                       alice: NodePosition | None = None, mode: str = "om",
                       n: int = 10**6, seed: int | None = None,
                       workers: int = 1,
                       capacity: bool = True) -> list[ReceiverEstimates]:
    """Estimate outages and ergodic capacity at each (p_a, rho, gamma_ths).

    Every point, threshold and capacity is evaluated on one shared set of n
    draws of Bob's link (fading, lobe state, noise exponent); the result
    holds one ``ReceiverEstimates`` per point, in order.
    """
    alice = alice if alice is not None else scn.alice
    seed = scn.seed if seed is None else int(seed)
    checked = []
    for p_a, rho, gammas in points:
        p_a, gammas = float(p_a), tuple(float(g) for g in gammas)
        _check_common(scn, mode, p_a, n)
        if any(g < 0 for g in gammas):
            raise DomainError("gamma_th must be nonnegative")
        checked.append((p_a, NoiseModel(scn.noise.sigma_n2, float(rho)),
                        gammas))
    if not any(gammas or capacity for _, _, gammas in checked):
        raise DomainError("need at least one statistic to estimate")
    lobe = None
    if mode == "dm":
        lobe = (lobe_gains(scn.ant_alice).g_main, lobe_gains(scn.ant_bob))
    draw = _unit_power_sampler(scn, mode, scn.link(alice, scn.bob), lobe)
    w = scn.band(mode).bandwidth_hz
    by_rho: dict[float, list[int]] = {}
    for i, (_, noise, _) in enumerate(checked):
        by_rho.setdefault(noise.rho, []).append(i)

    def batch(rng, m):
        unit = draw(rng, m)
        u = sample_noise_exponent(rng, m)
        stats = [None] * len(checked)
        for members in by_rho.values():
            # one noise power array per distinct rho, freed before the next
            power = checked[members[0]][1].power(u)
            for i in members:
                p_a, _, gammas = checked[i]
                snr = p_a * unit / power
                stats[i] = [_indicator_moments(int(np.count_nonzero(snr < g)),
                                               m) for g in gammas]
                if capacity:
                    stats[i].append(_moments(w * np.log2(1.0 + snr)))
            del power
        return [stat for point in stats for stat in point]

    flat = iter(_run_batches(batch, n, seed, workers))
    return [ReceiverEstimates(outage=tuple(next(flat) for _ in gammas),
                              capacity=next(flat) if capacity else None)
            for _, _, gammas in checked]


def mc_expected_min_dep(scn: Scenario, alice: NodePosition | None = None,
                        p_a: float | None = None, mode: str = "om",
                        n: int = 10**6, seed: int | None = None,
                        rho: float | None = None,
                        workers: int = 1) -> McEstimate:
    """Estimate the fading-averaged minimum DEP by direct sampling."""
    p_a = scn.p_a if p_a is None else p_a
    rho = scn.noise.rho if rho is None else rho
    return mc_dep_points(scn, [(p_a, rho)], alice=alice, mode=mode, n=n,
                         seed=seed, workers=workers)[0]


def mc_outage(scn: Scenario, alice: NodePosition | None = None,
              p_a: float | None = None, gamma_th: float | None = None,
              mode: str = "om", n: int = 10**6, seed: int | None = None,
              rho: float | None = None, workers: int = 1) -> McEstimate:
    """Estimate P(SNR < gamma_th) at the receiver by direct sampling."""
    p_a = scn.p_a if p_a is None else p_a
    rho = scn.noise.rho if rho is None else rho
    if gamma_th is None:
        _check_common(scn, mode, float(p_a), n)  # before scn.band(mode)
        gamma_th = float(snr_threshold(scn.r_b, scn.band(mode).bandwidth_hz))
    (est,) = mc_receiver_points(scn, [(p_a, rho, (gamma_th,))], alice=alice,
                                mode=mode, n=n, seed=seed, workers=workers,
                                capacity=False)
    return est.outage[0]


def mc_ergodic_capacity(scn: Scenario, alice: NodePosition | None = None,
                        p_a: float | None = None, mode: str = "om",
                        n: int = 10**6, seed: int | None = None,
                        rho: float | None = None,
                        workers: int = 1) -> McEstimate:
    """Estimate E[W log2(1 + SNR)] at the receiver by direct sampling."""
    p_a = scn.p_a if p_a is None else p_a
    rho = scn.noise.rho if rho is None else rho
    (est,) = mc_receiver_points(scn, [(p_a, rho, ())], alice=alice,
                                mode=mode, n=n, seed=seed, workers=workers)
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
