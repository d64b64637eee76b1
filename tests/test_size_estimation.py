"""Estimator math: draws, MLE, the scaled exponential integral, expectations, Monte Carlo."""

from __future__ import annotations

import math

import numpy as np
import pytest
from scipy import integrate, special, stats

from openmax.size_estimation import (
    dse_worst_case_monte_carlo,
    exp_scaled_expn,
    expected_estimate_admc,
    expected_estimate_edmc,
    mle_estimate,
)

from util import dse_generate, worst_case_estimates_reference


def test_dse_generate_shape_and_range():
    rng = np.random.default_rng(1)
    vals = dse_generate(50, rng)
    assert vals.shape == (50,)
    assert np.all(vals > 0.0)
    assert np.all(vals <= 1.0)
    with pytest.raises(ValueError):
        dse_generate(1, rng)


def test_dse_generate_statistics_and_determinism():
    rng = np.random.default_rng(2)
    vals = dse_generate(2000, rng)
    sigma = 1.0 / math.sqrt(12 * 2000)
    assert abs(vals.mean() - 0.5) < 3 * sigma
    again = dse_generate(2000, np.random.default_rng(2))
    assert np.array_equal(vals, again)
    # consecutive draws from one generator are fresh
    assert not np.array_equal(vals, dse_generate(2000, rng))


def test_mle_hand_values():
    # every coordinate e^-1: the log-sum is -p, so the estimate is exactly 1
    assert mle_estimate([math.exp(-1.0)] * 4) == pytest.approx(1.0, abs=1e-15)
    # every coordinate e^(-1/n) recovers n
    assert mle_estimate([math.exp(-1.0 / 7.0)] * 5) == pytest.approx(7.0, rel=1e-12)
    # -2 / (ln 0.5 + ln 0.25) = 2 / (3 ln 2)
    est = mle_estimate([0.5, 0.25])
    assert est == pytest.approx(2.0 / (3.0 * math.log(2.0)), rel=1e-15)
    assert est == pytest.approx(0.9617966939259754, abs=1e-15)


def test_mle_validation():
    with pytest.raises(ValueError):
        mle_estimate([0.5])
    with pytest.raises(ValueError):
        mle_estimate([0.5, 0.0])
    with pytest.raises(ValueError):
        mle_estimate([0.5, 1.0])
    with pytest.raises(ValueError):
        mle_estimate([0.5, 1.3])
    with pytest.raises(ValueError):
        mle_estimate([0.5, -0.2])


def test_exp_scaled_expn_matches_reference():
    for n in range(1, 13):
        for x in (0.1, 0.5, 1.0, 2.0, 10.0, 100.0, 500.0):
            ref = math.exp(x) * special.expn(n, x)
            assert exp_scaled_expn(n, x) == pytest.approx(ref, rel=1e-12)


def test_exp_scaled_expn_survives_huge_arguments():
    # e^x E_n(x) -> 1/(x + n); the unscaled factors overflow past x ~ 700
    val = exp_scaled_expn(5, 50_000.0)
    assert math.isfinite(val)
    assert val == pytest.approx(1.0 / 50_005.0, rel=1e-3)
    with pytest.raises(ValueError):
        exp_scaled_expn(0, 1.0)
    with pytest.raises(ValueError):
        exp_scaled_expn(3, 0.0)


def test_expected_estimate_edmc():
    assert expected_estimate_edmc(100, 50) == pytest.approx(5000.0 / 49.0, rel=1e-15)
    assert expected_estimate_edmc(10, 2) == 20.0
    with pytest.raises(ValueError):
        expected_estimate_edmc(10, 1)
    with pytest.raises(ValueError):
        expected_estimate_edmc(0, 5)


def test_expected_estimate_admc_eps_zero_is_exact_value():
    assert expected_estimate_admc(100, 50, 0.0) == expected_estimate_edmc(100, 50)
    assert expected_estimate_admc(6, 10, 0.0) == expected_estimate_edmc(6, 10)


def test_expected_estimate_admc_matches_quadrature_oracle():
    # independent route: E[1/(g + eps)] with g ~ Gamma(shape p, rate n p)
    for n, p, eps in [(6, 10, 0.15), (100, 50, 0.03), (100, 20, 0.1)]:
        pdf = stats.gamma(a=p, scale=1.0 / (n * p)).pdf
        oracle, quad_err = integrate.quad(
            lambda t: pdf(t) / (t + eps), 0, np.inf, epsabs=1e-13, epsrel=1e-12
        )
        assert quad_err < 1e-9
        assert expected_estimate_admc(n, p, eps) == pytest.approx(oracle, rel=1e-8)


def test_expected_estimate_admc_monotone_in_eps():
    values = [expected_estimate_admc(50, 20, e) for e in (0.0, 0.01, 0.05, 0.1, 0.5)]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_expected_estimate_admc_never_overflows():
    # eps*n*p = 25000; the naked closed form would need e^25000
    val = expected_estimate_admc(1000, 50, 0.5)
    assert math.isfinite(val)
    assert val == pytest.approx(2.0, rel=2e-2)  # saturates near 1/eps


def test_worst_case_monte_carlo_agrees_with_closed_form():
    res = dse_worst_case_monte_carlo(6, 10, 0.15, 20_000, 2026)
    closed = expected_estimate_admc(6, 10, 0.15)
    assert abs(res.mean - closed) <= res.ci99


def test_worst_case_monte_carlo_eps_zero_matches_exact_value():
    res = dse_worst_case_monte_carlo(100, 50, 0.0, 10_000, 11)
    assert abs(res.mean - 5000.0 / 49.0) <= res.ci99


@pytest.mark.parametrize("n, p, eps, seed", [(5, 3, 0.05, 17), (2, 3, 0.3, 18)])
def test_worst_case_sampler_matches_brute_force_maxima(n, p, eps, seed):
    # the maximum of n uniforms is Beta(n, 1): the direct draw must have the
    # distribution of the brute-force maxima over n * p uniforms per trial
    res = dse_worst_case_monte_carlo(n, p, eps, 4000, seed)
    ref = worst_case_estimates_reference(n, p, eps, 4000, seed + 1000)
    assert stats.ks_2samp(res.estimates, ref).pvalue > 1e-3


def test_worst_case_single_agent_without_degradation_is_finite_positive():
    res = dse_worst_case_monte_carlo(1, 2, 0.0, 50_000, 23)
    assert np.all(np.isfinite(res.estimates))
    assert np.all(res.estimates > 0)


def test_worst_case_monte_carlo_order_independent_trials():
    full = dse_worst_case_monte_carlo(5, 4, 0.1, 60, 99)
    half = dse_worst_case_monte_carlo(5, 4, 0.1, 30, 99)
    assert np.array_equal(full.estimates[:30], half.estimates)
    again = dse_worst_case_monte_carlo(5, 4, 0.1, 60, 99)
    assert np.array_equal(full.estimates, again.estimates)
    assert full.ci99 == pytest.approx(2.5758293035489004 * full.std_error)


def test_worst_case_monte_carlo_validation():
    with pytest.raises(ValueError):
        dse_worst_case_monte_carlo(5, 4, 0.1, 1, 0)
    with pytest.raises(ValueError):
        dse_worst_case_monte_carlo(5, 4, -0.1, 10, 0)
    with pytest.raises(ValueError):
        dse_worst_case_monte_carlo(5, 1, 0.1, 10, 0)


def test_two_coordinate_estimates_are_heavy_tailed_but_positive():
    # p=2 has a finite mean (2n) but infinite variance: averages drift slowly,
    # which is why moderate p is recommended
    res = dse_worst_case_monte_carlo(10, 2, 0.0, 20_000, 314)
    assert np.all(res.estimates > 0)
    assert 10.0 < res.mean < 40.0  # wide bracket around 2n = 20
