import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pognac.encoder import EmittedPulse
from pognac.errors import ConfigurationError
from pognac.polarization import D, H
from pognac.receiver import (
    BASIS_DA,
    BASIS_HV,
    OUTCOME_CLICK_0,
    OUTCOME_CLICK_1,
    OUTCOME_DOUBLE,
    OUTCOME_NONE,
    DetectorParams,
    click_probabilities,
    simulate_detection,
)

from test_polarization import states


def pulse_of(state, mu, label="H"):
    return EmittedPulse(0.0, state, mu, label, label)


def test_saturation():
    params = DetectorParams(efficiency=1.0, dark_count_prob_per_gate=0.0, basis=BASIS_HV)
    p = click_probabilities(H, 1e9, params)
    assert p.click_0 == pytest.approx(1.0, abs=1e-12)
    assert p.click_1 == pytest.approx(0.0, abs=1e-12)
    assert p.double == pytest.approx(0.0, abs=1e-12)


def test_balanced_state_closed_form():
    # closed-form oracle: q0 = q1 = 1/2, marginal 1 - exp(-mu eta / 2)
    params = DetectorParams(efficiency=0.6, dark_count_prob_per_gate=0.0, basis=BASIS_HV)
    p = click_probabilities(D, 0.5, params)
    marginal = 1.0 - math.exp(-0.15)
    assert marginal == pytest.approx(0.13929, abs=1e-5)
    # exclusive joint outcomes; the marginal is recovered as single + double
    assert p.click_0 == pytest.approx(marginal * (1.0 - marginal), abs=1e-12)
    assert p.click_1 == pytest.approx(marginal * (1.0 - marginal), abs=1e-12)
    assert p.click_0 + p.double == pytest.approx(marginal, abs=1e-12)
    assert p.click_1 + p.double == pytest.approx(marginal, abs=1e-12)


def test_dark_counts_only():
    params = DetectorParams(efficiency=0.5, dark_count_prob_per_gate=1e-5, basis=BASIS_HV)
    p = click_probabilities(H, 0.0, params)
    assert p.click_0 + p.double == pytest.approx(1e-5, abs=1e-9)
    assert p.click_1 + p.double == pytest.approx(1e-5, abs=1e-9)


def test_ideal_d_in_da_wrong_branch_is_dark_only():
    params = DetectorParams(efficiency=0.7, dark_count_prob_per_gate=1e-4, basis=BASIS_DA)
    p = click_probabilities(D, 0.5, params)
    assert p.click_1 + p.double == pytest.approx(1e-4, abs=1e-12)


def test_mu_must_be_nonnegative():
    with pytest.raises(ConfigurationError):
        click_probabilities(H, -0.1, DetectorParams())


@given(
    states,
    st.floats(min_value=0.0, max_value=5.0),
    st.floats(min_value=0.0, max_value=1.0),
    st.floats(min_value=0.0, max_value=0.01),
    st.sampled_from([BASIS_HV, BASIS_DA]),
)
@settings(max_examples=200, deadline=None)
def test_outcomes_sum_to_one(state, mu, eta, dark, basis):
    params = DetectorParams(efficiency=eta, dark_count_prob_per_gate=dark, basis=basis)
    p = click_probabilities(state, mu, params)
    assert p.click_0 + p.click_1 + p.double + p.none == pytest.approx(1.0, abs=1e-12)
    for value in p:
        assert -1e-15 <= value <= 1.0 + 1e-15


@given(
    st.floats(min_value=0.0, max_value=3.0),
    st.floats(min_value=0.0, max_value=3.0),
    st.floats(min_value=0.05, max_value=0.95),
    st.floats(min_value=0.0, max_value=0.01),
)
@settings(max_examples=100, deadline=None)
def test_click_probability_monotone_in_mu(mu_lo, mu_hi, eta, dark):
    lo, hi = sorted((mu_lo, mu_hi))
    params = DetectorParams(efficiency=eta, dark_count_prob_per_gate=dark, basis=BASIS_HV)
    p_lo = click_probabilities(D, lo, params)
    p_hi = click_probabilities(D, hi, params)
    # marginal click probability of each detector never decreases with mu
    assert p_hi.click_0 + p_hi.double >= p_lo.click_0 + p_lo.double - 1e-12
    assert p_hi.click_1 + p_hi.double >= p_lo.click_1 + p_lo.double - 1e-12


@given(
    st.floats(min_value=0.05, max_value=0.95),
    st.floats(min_value=0.05, max_value=0.95),
    st.floats(min_value=0.0, max_value=0.01),
    st.floats(min_value=0.0, max_value=0.01),
)
@settings(max_examples=100, deadline=None)
def test_click_probability_monotone_in_eta_and_dark(eta_a, eta_b, dark_a, dark_b):
    eta_lo, eta_hi = sorted((eta_a, eta_b))
    d_lo, d_hi = sorted((dark_a, dark_b))
    p_lo = click_probabilities(
        D, 0.5, DetectorParams(efficiency=eta_lo, dark_count_prob_per_gate=d_lo)
    )
    p_hi = click_probabilities(
        D, 0.5, DetectorParams(efficiency=eta_hi, dark_count_prob_per_gate=d_hi)
    )
    assert p_hi.click_0 + p_hi.double >= p_lo.click_0 + p_lo.double - 1e-12


def test_simulate_detection_certain_none():
    params = DetectorParams(efficiency=0.5, dark_count_prob_per_gate=0.0)
    for seed in range(20):
        rec = simulate_detection(pulse_of(H, 0.0), params, seed)
        assert rec.outcome == OUTCOME_NONE


def test_simulate_detection_deterministic():
    params = DetectorParams()
    a = simulate_detection(pulse_of(D, 0.5), params, 42, pulse_index=7)
    b = simulate_detection(pulse_of(D, 0.5), params, 42, pulse_index=7)
    assert a == b
    assert a.pulse_index == 7
    assert a.basis == BASIS_HV


def test_simulate_detection_frequencies_match_probabilities():
    # Monte Carlo vs the analytic joint probabilities, 4 sigma binomial
    params = DetectorParams(efficiency=0.6, dark_count_prob_per_gate=1e-4, basis=BASIS_HV)
    mu = 0.8
    p = click_probabilities(D, mu, params)
    n = 200000
    gen = np.random.default_rng(2024)
    counts = {OUTCOME_CLICK_0: 0, OUTCOME_CLICK_1: 0, OUTCOME_DOUBLE: 0, OUTCOME_NONE: 0}
    pulse = pulse_of(D, mu)
    for _ in range(n):
        counts[simulate_detection(pulse, params, gen).outcome] += 1

    # the two branches are symmetric for |D> in HV: ratio near 1
    n0, n1 = counts[OUTCOME_CLICK_0], counts[OUTCOME_CLICK_1]
    se_diff = math.sqrt(n0 + n1)
    assert abs(n0 - n1) <= 4 * se_diff

    for outcome, expected in zip(
        (OUTCOME_CLICK_0, OUTCOME_CLICK_1, OUTCOME_DOUBLE, OUTCOME_NONE), p
    ):
        se = math.sqrt(expected * (1.0 - expected) / n)
        assert counts[outcome] / n == pytest.approx(expected, abs=4 * se + 1e-9)


def test_detector_params_validation():
    with pytest.raises(ConfigurationError):
        DetectorParams(efficiency=1.5)
    with pytest.raises(ConfigurationError):
        DetectorParams(dark_count_prob_per_gate=-0.1)
    with pytest.raises(ConfigurationError):
        DetectorParams(basis="XY")
    with pytest.raises(ConfigurationError):
        DetectorParams(double_click_policy="coinflip")
