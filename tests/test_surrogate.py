"""The paper-reproduction layer: its closed forms over parser-accepted
corners, the precision of its Alzer forms at large shapes, and its
separation from the primary path."""

import math
import os
import subprocess
import sys
import warnings
from dataclasses import replace

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from scipy import integrate

import a2gcovert
from a2gcovert import surrogate
from a2gcovert.channel import link_states
from a2gcovert.errors import A2GError
from a2gcovert.scenario import scenario_from_flat
from a2gcovert.specfun import marcum_mu_nu
from a2gcovert.surrogate import (
    expected_min_dep_dm_closed_form,
    expected_min_dep_om_closed_form,
    nakagami_xi,
    outage_dm_closed_form,
    truncated_mean_nakagami,
    truncated_mean_rician,
)
from a2gcovert.throughput import _mixture, snr_threshold

from test_detection import _corner_scenarios
from test_throughput import _dense_noise_mean, _one_state

# the powers of TestDepProperties
POWERS = [0.0, 1e-30, 1e-18, 1e-9] + list(np.logspace(-6, 3, 10))


class TestClosedFormProperties:
    @given(_corner_scenarios())
    @settings(max_examples=40, deadline=None)
    def test_in_unit_interval_and_outage_nonincreasing_in_power(self, flat):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                scn = scenario_from_flat(flat)
                points = [replace(scn, p_a=p) for p in POWERS]
                deps = [f(point).value for point in points
                        for f in (expected_min_dep_om_closed_form,
                                  expected_min_dep_dm_closed_form)]
                p_out = [outage_dm_closed_form(point) for point in points]
            except A2GError:
                return
        assert all(0.0 <= v <= 1.0 for v in deps + p_out)
        assert all(x >= y - 1e-12 for x, y in zip(p_out, p_out[1:])), p_out


def _alzer_cdf(x, s):
    xi = s * math.exp(-math.lgamma(s + 1.0) / s)
    return (-math.expm1(-xi * x)) ** s


class TestAlzerPrecision:
    def test_xi_finite_at_large_shape(self):
        # s (s!)^(-1/s), with ln(300!) taken from the exact integer
        want = 300.0 * math.exp(-math.log(math.factorial(300)) / 300.0)
        assert nakagami_xi(300) == pytest.approx(want, rel=1e-14)

    @pytest.mark.parametrize("s", [1, 2, 3, 10, 40, 60])
    def test_truncated_mean_is_the_integral_by_parts(self, s):
        for a in (0.05, 0.3, 1.0, 2.1, 5.0):
            area, _ = integrate.quad(_alzer_cdf, 0.0, a, args=(s,),
                                     epsabs=1e-14, epsrel=1e-12, limit=200)
            want = a * _alzer_cdf(a, s) - area
            assert truncated_mean_nakagami(a, s) == pytest.approx(
                want, rel=0.0, abs=1e-12)

    def test_outage_is_the_noise_average_of_the_alzer_cdf(self):
        scn = scenario_from_flat({"alice.x": -500.0, "alice.h": 200.0,
                                  "noise.rho_db": 0.5, "dm.s_los": 40,
                                  "dm.s_nlos": 10})
        table = link_states(scn, "dm", "bob")
        g = float(snr_threshold(scn.r_b, scn.dm.bandwidth_hz))
        sigma_n2, rho = scn.noise.sigma_n2, scn.noise.rho
        for p_a in np.logspace(-4, 3, 8):
            want = 0.0
            for prob, s, unit in zip(table.probs, table.params,
                                     table.received(p_a)):
                val, _ = integrate.quad(
                    lambda u: _alzer_cdf(g * sigma_n2 * rho ** u / unit, s),
                    -1.0, 1.0, epsabs=1e-14, epsrel=1e-12, limit=200)
                want += prob * 0.5 * val
            got = outage_dm_closed_form(replace(scn, p_a=p_a))
            assert got == pytest.approx(want, rel=0.0, abs=1e-12)


@pytest.mark.parametrize("k", [0.0, 1e-3, 0.5, 3.16, 30.0, 300.0, 7200.0])
def test_rician_truncated_mean_matches_a_40_digit_reference(k):
    # C^(-1/beta) gamma(1/beta + 1, z) with beta = nu / 2, C = e^mu
    # (2 (k+1))^beta and z = C a^beta, from the same (mu, nu), wherever it
    # is a normal float; the full mean less the upper part cancelled to
    # negative values (-5.5e-6 at k = 7200, a = 5.5e-6).  Within 1e-13, or
    # two ulps of the terms of ln z, whose rounding moves z as much (they
    # reach 680 at k = 7200)
    c = marcum_mu_nu(math.sqrt(2.0 * k))
    checked = 0
    with mpmath.workdps(40):
        beta = mpmath.mpf(c.nu) / 2
        scale = mpmath.exp(c.mu) * (2 * (mpmath.mpf(k) + 1)) ** beta
        for a in np.logspace(-300, 4, 1217):
            z = scale * mpmath.mpf(float(a)) ** beta
            want = float(scale ** (-1 / beta)
                         * mpmath.gammainc(1 / beta + 1, 0, z))
            if want < sys.float_info.min:
                continue
            log_terms = abs(c.mu) + abs(0.5 * c.nu * math.log(
                2.0 * a * (k + 1.0)))
            rel = max(1e-13, 2.0 * sys.float_info.epsilon * log_terms)
            assert truncated_mean_rician(float(a), k) == pytest.approx(
                want, rel=rel, abs=0.0), a
            checked += 1
    assert checked >= 30


def test_primary_path_does_not_load_the_surrogates():
    src = os.path.dirname(os.path.dirname(a2gcovert.__file__))
    code = ("import sys, a2gcovert, a2gcovert.cli; "
            "print('a2gcovert.surrogate' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "False"


def test_alzer_outage_where_the_noise_power_overflows():
    # sigma^2 rho^u was formed as a product and warned eight times about
    # overflow; formed in log space it warns nothing.  The reference is the
    # noise average in closed form: with y = xi x, the integral of
    # (1 - e^-y)^s / y dy is ln y - sum_k C(s, k) (-1)^k E1(k y), k = 1..s
    # (the 64-node rule read 0.7553 here, 4.8e-3 off)
    scn = scenario_from_flat({"noise.sigma_n2_dbm": 1377.0,
                              "noise.rho_db": 2913.0})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = outage_dm_closed_form(scn)
    bob = link_states(scn, "dm", "bob")
    gamma_th = float(snr_threshold(scn.r_b, bob.bandwidth_hz))
    log_rho = math.log(scn.noise.rho)
    want = 0
    with mpmath.workdps(50):
        for prob, s, unit in zip(bob.probs, bob.params,
                                 bob.received(scn.p_a)):
            def primitive(log_y):
                return log_y - sum(
                    mpmath.binomial(s, k) * (-1) ** k
                    * mpmath.e1(k * mpmath.exp(log_y))
                    for k in range(1, s + 1))
            log_y = (mpmath.log(nakagami_xi(s)) + math.log(gamma_th)
                     + math.log(bob.sigma_n2) - math.log(unit))
            want += prob * (primitive(log_y + log_rho)
                            - primitive(log_y - log_rho)) / (2 * log_rho)
    assert got == pytest.approx(float(want), rel=1e-12)


@pytest.mark.parametrize("shape", [1, 2, 3, 100, 1000, 10000])
def test_alzer_outage_matches_a_dense_rule_over_wide_noise_spans(shape):
    # the noise rule at the Alzer law's own scale and support, with the
    # rise at xi x = ln s swept through the noise span; the reference
    # evaluates the bound as exp(s log1p(-e^(-y))), to a few ulps
    # absolute, on 32-node panels 0.01 wide in ln x (the power
    # (1 - e^(-y))^s was off by up to 6.2e-14 here at s = 10^4)
    table = _one_state("gamma", shape, 1.0)
    xi = nakagami_xi(shape)

    def bound(x):  # ln 0 where e^-y rounds to 1, and the bound to 0
        with np.errstate(divide="ignore"):
            return np.exp(shape * np.log1p(-np.exp(-xi * x)))
    centre = math.log(math.log(shape) + 0.5) - math.log(xi)
    for rho_db in (0.5, 4.0, 30.0, 100.0):
        log_rho = math.log(10.0 ** (rho_db / 10.0))
        log_g = centre + np.linspace(-1.0, 1.0, 15) * (log_rho + 3.0)
        got = _mixture(table, 1.0, np.exp(log_g), math.exp(log_rho),
                       surrogate._alzer_cdf)
        want = [_dense_noise_mean(bound, v, log_rho, 0.01) for v in log_g]
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-14,
                                   err_msg=f"rho = {rho_db} dB")
