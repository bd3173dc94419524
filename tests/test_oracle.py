import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special

from a2gcovert import oracle
from a2gcovert.channel import NoiseModel, link_states
from a2gcovert.detection import min_dep_values
from a2gcovert.errors import A2GError, DomainError
from a2gcovert.oracle import (
    BATCH_SIZE,
    derived_seed,
    mc_dep_points,
    mc_ergodic_capacity,
    mc_expected_min_dep,
    mc_min_dep_radiometer,
    mc_outage,
    mc_receiver_points,
)
from a2gcovert.scenario import NodePosition, scenario_from_flat
from a2gcovert.specfun import marcum_q1_exact
from a2gcovert.throughput import snr_threshold
from test_detection import _corner_scenarios

N_SMOKE = 50_000
SEED = 123


def _at(scn, p_a, rho):
    """The scenario at transmit power p_a and noise uncertainty rho."""
    return replace(scn, p_a=p_a, noise=NoiseModel(scn.noise.sigma_n2, rho))


class TestDeterminism:
    def test_same_seed_same_result(self, scn):
        a = mc_expected_min_dep(scn, mode="om", n=N_SMOKE, seed=SEED)
        b = mc_expected_min_dep(scn, mode="om", n=N_SMOKE, seed=SEED)
        assert a == b

    def test_worker_count_does_not_change_bits(self, scn):
        # more batches than workers so the pool actually splits the work
        n = 3 * BATCH_SIZE + 17
        for fn in (mc_expected_min_dep, mc_outage, mc_ergodic_capacity):
            one = fn(scn, mode="dm", n=n, seed=SEED, workers=1)
            eight = fn(scn, mode="dm", n=n, seed=SEED, workers=8)
            assert one.mean == eight.mean
            assert one.std_error == eight.std_error

    def test_different_seeds_differ(self, scn):
        a = mc_outage(scn, mode="om", n=N_SMOKE, seed=1)
        b = mc_outage(scn, mode="om", n=N_SMOKE, seed=2)
        assert a.mean != b.mean


class TestEstimates:
    def test_dep_estimate_fields(self, scn):
        est = mc_expected_min_dep(scn, mode="om", n=N_SMOKE, seed=SEED)
        assert est.n_samples == N_SMOKE
        assert est.seed == SEED
        assert 0.0 <= est.mean <= 1.0
        assert est.std_error > 0.0

    def test_outage_is_probability(self, scn):
        for mode in ("om", "dm"):
            est = mc_outage(scn, mode=mode, n=N_SMOKE, seed=SEED)
            assert 0.0 <= est.mean <= 1.0

    def test_capacity_positive(self, scn):
        est = mc_ergodic_capacity(scn, mode="dm", n=N_SMOKE, seed=SEED)
        assert est.mean > 0.0

    def test_silent_transmitter_dep_is_one(self, scn):
        est = mc_expected_min_dep(replace(scn, p_a=0.0), mode="om",
                                  n=N_SMOKE, seed=SEED)
        assert est.mean == pytest.approx(1.0)
        assert est.std_error == pytest.approx(0.0)

    def test_validation(self, scn):
        with pytest.raises(DomainError):
            mc_outage(scn, mode="om", n=10, seed=SEED)
        with pytest.raises(DomainError):
            mc_outage(scn, mode="fm", n=N_SMOKE, seed=SEED)
        with pytest.raises(DomainError):
            mc_dep_points(link_states(scn, "om", "willie"),
                          [(-1.0, scn.noise.rho)], N_SMOKE, SEED)

    def test_negative_seed_rejected(self, scn):
        with pytest.raises(DomainError, match="entropy"):
            derived_seed(3, -1, 2)
        with pytest.raises(DomainError, match="seed -5"):
            mc_outage(scn, mode="om", n=N_SMOKE, seed=-5)
        assert derived_seed(0, 0) >= 0


class TestVarianceMerge:
    def test_standard_error_of_large_offset_samples(self):
        # 1e8 + N(0, 1): sum(x^2) - n mean^2 cancels every digit of the
        # variance here; merged (n, mean, M2) moments keep it.
        n = 3 * BATCH_SIZE + 1234
        seed = 7

        def batch(rng, m):
            return [oracle._moments(1e8 + rng.standard_normal(m))]

        (est,) = oracle._run_batches(batch, n, seed, 1)
        sizes = [BATCH_SIZE] * 3 + [1234]
        draws = np.concatenate([
            1e8 + oracle._batch_rng(seed, i).standard_normal(m)
            for i, m in enumerate(sizes)])
        want_se = np.std(draws, ddof=1) / np.sqrt(n)
        assert est.std_error == pytest.approx(want_se, rel=1e-9)
        assert est.mean == pytest.approx(np.mean(draws), rel=1e-15)
        assert est.n_samples == n

    def test_indicator_moments_match_float_moments(self):
        x = (np.random.default_rng(3).random(1001) < 0.3).astype(float)
        hits = int(x.sum())
        n, mean, m2 = oracle._indicator_moments(hits, x.size)
        assert n == x.size
        assert mean == pytest.approx(x.mean(), rel=1e-15)
        assert m2 == pytest.approx(np.sum((x - x.mean()) ** 2), rel=1e-12)


class TestSharedDraws:
    POINTS = ((1.0, 10 ** 0.2), (10 ** 1.5, 10 ** 0.4), (100.0, 10 ** 0.2))

    @pytest.mark.parametrize("mode", ["om", "dm"])
    def test_dep_call_is_one_point_of_the_multi_point_call(self, scn, mode):
        multi = mc_dep_points(link_states(scn, mode, "willie"), self.POINTS,
                              N_SMOKE, SEED)
        for (p_a, rho), est in zip(self.POINTS, multi):
            one = mc_expected_min_dep(_at(scn, p_a, rho), mode=mode,
                                      n=N_SMOKE, seed=SEED)
            assert one == est

    @pytest.mark.parametrize("mode", ["om", "dm"])
    def test_receiver_calls_are_points_of_the_multi_point_call(self, scn,
                                                               mode):
        w = scn.band(mode).bandwidth_hz
        rates = (0.5e6, 2e6)
        gammas = tuple(float(snr_threshold(r, w)) for r in rates)
        multi = mc_receiver_points(
            link_states(scn, mode, "bob"),
            [(p_a, rho, gammas) for p_a, rho in self.POINTS],
            N_SMOKE, SEED, capacity=True)
        for (p_a, rho), est in zip(self.POINTS, multi):
            point = _at(scn, p_a, rho)
            for r_b, out in zip(rates, est.outage):
                assert mc_outage(replace(point, r_b=r_b), mode=mode,
                                 n=N_SMOKE, seed=SEED) == out
            assert mc_ergodic_capacity(point, mode=mode, n=N_SMOKE,
                                       seed=SEED) == est.capacity

    def test_noise_power_once_per_distinct_rho(self, scn, monkeypatch):
        # rho values repeat and are not adjacent; each point's estimates
        # equal its one-point call bit for bit
        rhos = (10 ** 0.2, 10 ** 0.4, 10 ** 0.2, 10 ** 0.4, 10 ** 0.2)
        points = [(p_a, rho, (0.5, 2.0)) for p_a, rho in
                  zip((1.0, 3.0, 10.0, 30.0, 100.0), rhos)]
        calls = []
        power = NoiseModel.power

        def counted(self, u):
            calls.append(self.rho)
            return power(self, u)

        monkeypatch.setattr(NoiseModel, "power", counted)
        bob = link_states(scn, "dm", "bob")
        multi = mc_receiver_points(bob, points, N_SMOKE, SEED, capacity=True)
        assert sorted(calls) == sorted(set(rhos))  # one batch
        for point, est in zip(points, multi):
            assert mc_receiver_points(bob, [point], N_SMOKE, SEED,
                                      capacity=True) == [est]

    def test_bad_point_raises_before_drawing(self, scn, monkeypatch):
        def no_draws(*args, **kwargs):
            raise AssertionError("drew samples for an invalid point")

        monkeypatch.setattr(oracle, "_run_batches", no_draws)
        willie, bob = link_states(scn, "om", "willie"), link_states(
            scn, "om", "bob")
        with pytest.raises(DomainError):
            mc_dep_points(willie, [(1.0, 2.0), (-1.0, 2.0)], N_SMOKE, SEED)
        with pytest.raises(DomainError):
            mc_receiver_points(bob, [(1.0, 2.0, (1.0,)), (-1.0, 2.0, ())],
                               N_SMOKE, SEED, capacity=True)
        with pytest.raises(DomainError):
            mc_receiver_points(bob, [(1.0, 2.0, (1.0, -1.0))], N_SMOKE, SEED,
                               capacity=True)


class TestSamplerLaw:
    N = 200_000

    @staticmethod
    def _mixture_cdf(states, y):
        """Exact CDF sum_i p_i F_i(y / g_i) of the unit received power."""
        cdf = np.zeros_like(y)
        for p, param, g in zip(states.probs, states.params,
                               states.received(1.0)):
            x = y / g
            if states.law == "rician":
                cdf += p * (1.0 - marcum_q1_exact(
                    math.sqrt(2.0 * param), np.sqrt(2.0 * (param + 1.0) * x)))
            else:
                cdf += p * special.gammainc(param, param * x)
        return cdf

    # Willie is outside Alice's main lobe at x_a = 400 m, inside at 2000 m
    @pytest.mark.parametrize("x_a", [400.0, 2000.0])
    @pytest.mark.parametrize("receiver", ["willie", "bob"])
    @pytest.mark.parametrize("mode", ["om", "dm"])
    def test_draws_follow_the_mixture_law(self, scn, mode, receiver, x_a):
        point = replace(scn, alice=NodePosition(x_a, scn.alice.y,
                                                scn.alice.h))
        states = link_states(point, mode, receiver)
        draw = oracle._unit_power_sampler(states)
        y = np.sort(draw(np.random.default_rng(SEED), self.N))
        cdf = self._mixture_cdf(states, y)
        ks = max(np.max(np.arange(1, self.N + 1) / self.N - cdf),
                 np.max(cdf - np.arange(self.N) / self.N))
        # Kolmogorov-Smirnov critical value at alpha = 1e-4
        assert ks < 2.23 / math.sqrt(self.N)


class TestOracleProperties:
    POWERS = (1e-3, 1.0, 1e3)

    @given(_corner_scenarios(), st.sampled_from(["om", "dm"]))
    @settings(max_examples=15, deadline=None)
    def test_in_range_and_exactly_monotone_in_power(self, flat, mode):
        # shared draws make every ordering in p_a exact, not statistical
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                scn = scenario_from_flat(flat)
                rho = scn.noise.rho
                bob = link_states(scn, mode, "bob")
                g = float(snr_threshold(scn.r_b, bob.bandwidth_hz))
                dep = mc_dep_points(link_states(scn, mode, "willie"),
                                    [(p, rho) for p in self.POWERS],
                                    2000, SEED)
                rx = mc_receiver_points(
                    bob, [(p, rho, (g,)) for p in self.POWERS], 2000, SEED,
                    capacity=True)
            except A2GError:
                return
        p_out = [est.outage[0] for est in rx]
        cap = [est.capacity for est in rx]
        for est in dep + p_out + cap:
            assert math.isfinite(est.mean) and math.isfinite(est.std_error)
            assert est.mean >= 0.0 and est.std_error >= 0.0
        assert all(est.mean <= 1.0 for est in dep + p_out)
        assert all(x.mean >= y.mean for x, y in zip(dep, dep[1:]))
        assert all(x.mean >= y.mean for x, y in zip(p_out, p_out[1:]))
        assert all(x.mean <= y.mean for x, y in zip(cap, cap[1:]))


class TestRadiometerCrossCheck:
    def test_finite_observation_limit_matches_kernel(self):
        sigma, rho = 1e-8, 10 ** 0.2
        for k_a in (0.5e-8, 2e-8, 6e-8):
            sim = mc_min_dep_radiometer(k_a, sigma, rho, n_trials=4000,
                                        n_uses=10**4, seed=5)
            ana = float(min_dep_values(k_a, sigma, rho))
            assert sim == pytest.approx(ana, abs=0.05)

    def test_validation(self):
        with pytest.raises(DomainError):
            mc_min_dep_radiometer(1e-8, 1e-8, 0.9)
        with pytest.raises(DomainError):
            mc_min_dep_radiometer(1e-8, 1e-8, 2.0, n_trials=10)


class TestAgainstAnalyticSmoke:
    # a light version of the full validation grid: one cell per metric
    def test_dep_om(self, scn):
        from a2gcovert.detection import expected_min_dep
        ana = expected_min_dep(scn, "om").value
        est = mc_expected_min_dep(scn, mode="om", n=200_000, seed=SEED)
        assert abs(ana - est.mean) <= max(0.02, 4 * est.std_error)

    def test_outage_dm(self, scn):
        from a2gcovert.throughput import outage
        ana = float(outage(scn, "dm"))
        est = mc_outage(scn, mode="dm", n=200_000, seed=SEED)
        assert abs(ana - est.mean) <= max(0.02, 4 * est.std_error)

    def test_csc_om(self, scn):
        from a2gcovert.throughput import csc
        ana = csc(scn, "om")
        est = mc_ergodic_capacity(scn, mode="om", n=200_000, seed=SEED)
        assert abs(ana - est.mean) <= max(0.05 * ana, 4 * est.std_error)
