import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from a2gcovert.channel import link_states
from a2gcovert.errors import A2GError, DomainError
from a2gcovert.scenario import NodePosition, scenario_from_flat
from a2gcovert.specfun import marcum_mu_nu
from a2gcovert.throughput import (
    csc,
    csc_dm,
    csc_om,
    ecr,
    outage,
    outage_dm,
    outage_dm_closed_form,
    outage_om,
    snr_threshold,
)

from test_detection import _corner_scenarios


class TestSnrThreshold:
    def test_closed_form(self):
        assert snr_threshold(40e6, 40e6) == pytest.approx(1.0)
        assert snr_threshold(80e6, 40e6) == pytest.approx(3.0)
        assert snr_threshold(0.0, 40e6) == 0.0

    def test_vectorised(self):
        out = snr_threshold(np.array([0.0, 40e6]), 40e6)
        assert out.shape == (2,)
        assert out[1] == pytest.approx(1.0)

    def test_validation(self):
        with pytest.raises(DomainError):
            snr_threshold(1e6, 0.0)
        with pytest.raises(DomainError):
            snr_threshold(-1.0, 1e6)


class TestOutage:
    def test_probability_range(self, scn):
        for mode in ("om", "dm"):
            g = float(snr_threshold(scn.r_b, scn.band(mode).bandwidth_hz))
            p = float(outage(scn, mode, gamma_th=g))
            assert 0.0 <= p <= 1.0

    def test_zero_rate_never_outages(self, scn):
        assert float(outage_om(scn, gamma_th=0.0)) == 0.0
        assert float(outage_dm(scn, gamma_th=0.0)) == 0.0

    def test_zero_power_always_outages(self, scn):
        assert float(outage_om(scn, p_a=0.0, gamma_th=1.0)) == 1.0
        assert float(outage_dm(scn, p_a=0.0, gamma_th=1.0)) == 1.0

    def test_broadcasting_grid(self, scn):
        p = np.array([1.0, 10.0, 100.0])[:, None]
        g = np.array([0.5, 1.0, 2.0, 4.0])[None, :]
        for fn in (outage_om, outage_dm):
            grid = fn(scn, p_a=p, gamma_th=g)
            assert grid.shape == (3, 4)
            # worse in rate along axis 1, better in power along axis 0
            assert np.all(np.diff(grid, axis=1) >= -1e-12)
            assert np.all(np.diff(grid, axis=0) <= 1e-12)

    def test_monotone_in_distance(self, scn):
        g = float(snr_threshold(scn.r_b, scn.om.bandwidth_hz))
        near = NodePosition(0.0, 0.0, 500.0)
        far = NodePosition(1500.0, 0.0, 500.0)
        assert float(outage_om(scn, alice=near, gamma_th=g)) < (
            float(outage_om(scn, alice=far, gamma_th=g)))

    def test_dm_closed_form_tracks_exact(self, scn):
        g = float(snr_threshold(scn.r_b, scn.dm.bandwidth_hz))
        exact = float(outage_dm(scn, gamma_th=g))
        approx = float(outage_dm_closed_form(scn, gamma_th=g))
        assert abs(exact - approx) < 0.06

    def test_negative_inputs_rejected(self, scn):
        with pytest.raises(DomainError):
            outage_om(scn, p_a=-1.0)
        with pytest.raises(DomainError):
            outage_dm(scn, gamma_th=-0.5)
        with pytest.raises(DomainError):
            outage(scn, "fm")

    @given(gamma=st.floats(0.1, 5.0))
    @settings(max_examples=20, deadline=None)
    def test_outage_is_probability(self, scn, gamma):
        for mode in ("om", "dm"):
            v = float(outage(scn, mode, gamma_th=gamma))
            assert 0.0 <= v <= 1.0


class TestEcr:
    def test_definition(self, scn):
        for mode in ("om", "dm"):
            g = snr_threshold(scn.r_b, scn.band(mode).bandwidth_hz)
            expected = scn.r_b * (1.0 - float(outage(scn, mode,
                                                     gamma_th=float(g))))
            assert float(ecr(scn, mode)) == pytest.approx(expected)

    def test_zero_rate_is_zero(self, scn):
        assert float(ecr(scn, "om", r_b=0.0)) == 0.0

    def test_bounded_by_target_rate(self, scn):
        for mode in ("om", "dm"):
            assert 0.0 <= float(ecr(scn, mode)) <= scn.r_b


class TestCsc:
    def test_positive_at_defaults(self, scn):
        assert csc_om(scn) > 0.0
        assert csc_dm(scn) > 0.0

    def test_zero_power_is_zero(self, scn):
        assert csc_om(scn, p_a=0.0) == 0.0
        assert csc_dm(scn, p_a=0.0) == 0.0

    def test_nondecreasing_in_power(self, scn):
        for mode in ("om", "dm"):
            vals = [csc(scn, mode, p_a=p) for p in np.logspace(-1, 2, 8)]
            assert all(x <= y + 1e-9 for x, y in zip(vals, vals[1:]))

    def test_below_nominal_capacity_upper_bound(self, scn):
        # capacity with the best possible noise draw bounds the average
        from a2gcovert.channel import path_loss
        link = scn.link(scn.alice, scn.bob)
        lo = scn.noise.sigma_n2 / scn.noise.rho
        snr_max = scn.p_a * path_loss(link.d, scn.om.pl_los) / lo
        bound = scn.om.bandwidth_hz * math.log2(1.0 + snr_max * 50.0)
        assert csc_om(scn) < bound

    def test_negative_power_rejected(self, scn):
        with pytest.raises(DomainError):
            csc_om(scn, p_a=-0.1)
        with pytest.raises(DomainError):
            csc(scn, "fm")


class TestRicianOutage:
    def test_narrow_noise_uncertainty_does_not_cancel(self):
        # at rho = 1e-5 dB the noise average is the surrogate CDF
        # 1 - exp(-e^mu b^nu) at the nominal noise power, to O(ln(rho)^2);
        # the Ei difference of the closed form cancelled to 1.5e-12 here
        scn = scenario_from_flat({"noise.rho_db": 1e-5, "om.k0_db": 0.0,
                                  "om.k_half_pi_db": 31.769112813747075,
                                  "alice.h": 1.0, "alice.x": -500.0})
        table = link_states(scn, "om", None, "bob")
        g = float(snr_threshold(scn.r_b, scn.om.bandwidth_hz))
        for p_a in (1e-3, 1.0, 1e3):
            want = 0.0
            for prob, k, unit in zip(table.probs, table.params,
                                     table.received(p_a)):
                c = marcum_mu_nu(math.sqrt(2.0 * k))
                b = math.sqrt(2.0 * (k + 1.0) * g * scn.noise.sigma_n2 / unit)
                want += prob * -math.expm1(-math.exp(c.mu + c.nu * math.log(b)))
            assert outage_om(scn, p_a=p_a, gamma_th=g) == pytest.approx(
                want, rel=1e-6)

    def test_no_overflow_at_large_rice_factors(self):
        # (2 (k+1) gamma sigma^2 / (p_a L))^(nu/2) overflowed here before the
        # exponent was formed in log space; the outage was 1 and stays 1
        scn = scenario_from_flat({"om.k_half_pi_db": 37.88, "om.k0_db": 6.98,
                                  "alice.h": 1445.5, "alice.x": -316.2})
        g = float(snr_threshold(scn.r_b, scn.om.bandwidth_hz))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert [outage_om(scn, p_a=p, gamma_th=g)
                    for p in (1e-12, 1e-3)] == [1.0, 1.0]


class TestReceiverProperties:
    @given(_corner_scenarios(), st.sampled_from(["om", "dm"]))
    @settings(max_examples=15, deadline=None)
    # a 1e-5 dB noise uncertainty: the Ei difference of the om outage
    # cancelled to 2e-10 and made the outage rise with p_a
    @example({"noise.rho_db": 1e-5, "om.k0_db": 0.0,
              "om.k_half_pi_db": 31.769112813747075, "alice.h": 1.0,
              "alice.x": -500.0}, "om")
    def test_outage_and_csc_in_range_and_monotone_in_power(self, flat, mode):
        powers = [0.0, 1e-30, 1e-18, 1e-9] + list(np.logspace(-6, 3, 6))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                scn = scenario_from_flat(flat)
                g = float(snr_threshold(scn.r_b, scn.band(mode).bandwidth_hz))
                p_out = [outage(scn, mode, p_a=p, gamma_th=g) for p in powers]
                cap = [csc(scn, mode, p_a=p) for p in powers]
            except A2GError:
                return
        assert all(0.0 <= v <= 1.0 for v in p_out)
        assert all(x >= y - 1e-12 for x, y in zip(p_out, p_out[1:])), p_out
        assert all(v >= 0.0 for v in cap)
        assert all(x <= y * (1 + 1e-9) + 1e-12
                   for x, y in zip(cap, cap[1:])), cap
