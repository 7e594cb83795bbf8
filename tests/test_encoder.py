import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pognac.elements import ElementParams
from pognac.encoder import (
    FWHM_TO_SIGMA,
    GAUSS_TRUNCATION_SIGMA,
    NOMINAL_PHASE,
    POST_PC_LABEL,
    SPEED_OF_LIGHT,
    DriftProfile,
    EncoderConfig,
    emit_pulse,
    encode,
    encode_with_drift,
    inline_encoder_reference,
    loop_transit_lead,
    output_pc_mapping,
    phases_from_waveform,
)
from pognac.errors import ConfigurationError
from pognac.polarization import A, D, H, JonesVector, L, R, V, apply, fidelity, normalize
from pognac.waveform import (
    MODE_FOUR_LEVEL,
    MODE_TWO_LEVEL,
    PatternSpec,
    Segment,
    Waveform,
    pattern_for_state,
)

NS = 1e-9

phases = st.floats(min_value=-12.0, max_value=12.0, allow_nan=False)

RECEIVER_TARGET = {"D": D, "L": H, "R": V, "A": A}


def test_loop_transit_lead_values():
    assert loop_transit_lead(0.0, 1.45) == 0.0
    # arithmetic oracle: n * L / c
    assert loop_transit_lead(1.0, 1.45) == pytest.approx(1.45 / SPEED_OF_LIGHT, rel=1e-15)
    assert loop_transit_lead(1.0, 1.45) == pytest.approx(4.8367 * NS, abs=1e-13)
    assert loop_transit_lead(1.0, 1.0) == pytest.approx(3.3356 * NS, abs=1e-13)


def test_loop_transit_lead_validation():
    with pytest.raises(ConfigurationError):
        loop_transit_lead(-1.0, 1.45)
    with pytest.raises(ConfigurationError):
        loop_transit_lead(1.0, 0.9)


def test_lead_exceeds_drive_width_over_fiber_index_range():
    # with the stock 1 m delay line the drive pulse always fits;
    # bracket from the arithmetic oracle n/c at the range ends
    lo = 1.44 / SPEED_OF_LIGHT
    hi = 1.47 / SPEED_OF_LIGHT
    assert lo == pytest.approx(4.803 * NS, abs=1e-12)
    assert hi == pytest.approx(4.903 * NS, abs=1e-12)
    for n_f in np.linspace(1.44, 1.47, 16):
        lead = loop_transit_lead(1.0, float(n_f))
        assert lo <= lead <= hi
        assert lead > 3.0 * NS


def test_phases_empty_waveform():
    assert phases_from_waveform(Waveform(), 0.0, 5 * NS, 4.0, 1.2 * NS) == (0.0, 0.0)


def test_phases_full_coverage_is_exact():
    # 3 ns drive centered on the pulse covers the whole truncated profile
    w = Waveform((Segment(-1.5 * NS, 3 * NS, 2.0),))
    phi_e, phi_l = phases_from_waveform(w, 0.0, 4.836 * NS, 4.0, 1.2 * NS)
    assert phi_e == pytest.approx(math.pi / 2, abs=1e-12)
    assert phi_l == pytest.approx(0.0, abs=1e-12)


def test_phases_half_overlap():
    # drive edge sitting on the pulse center -> half the profile mass -> pi/4
    w = Waveform((Segment(0.0, 3 * NS, 2.0),))
    phi_e, _ = phases_from_waveform(w, 0.0, 20 * NS, 4.0, 1.2 * NS)
    assert phi_e == pytest.approx(math.pi / 4, abs=1e-12)


def test_phases_partial_overlap_matches_quadrature():
    # numeric quadrature oracle over the truncated Gaussian intensity profile
    fwhm = 1.2 * NS
    sigma = fwhm * FWHM_TO_SIGMA
    edge = 0.3 * sigma
    support = GAUSS_TRUNCATION_SIGMA * sigma

    def profile(t):
        return np.exp(-0.5 * (t / sigma) ** 2)

    full = np.linspace(-support, support, 200001)
    covered = np.linspace(-support, edge, 200001)
    mass = float(
        np.trapezoid(profile(covered), covered) / np.trapezoid(profile(full), full)
    )
    expected = mass * (math.pi / 2)

    w = Waveform((Segment(-5 * NS, 5 * NS + edge, 2.0),))
    phi_e, _ = phases_from_waveform(w, 0.0, 30 * NS, 4.0, fwhm)
    assert phi_e == pytest.approx(expected, abs=1e-8)


def test_phases_nonzero_baseline():
    # baseline drive acts on the profile mass no segment covers
    w = Waveform((Segment(0.0, 3 * NS, 2.0),), baseline=1.0)
    phi_e, _ = phases_from_waveform(w, 0.0, 30 * NS, 4.0, 1.2 * NS)
    assert phi_e == pytest.approx(0.5 * (math.pi / 2) + 0.5 * (math.pi / 4), abs=1e-12)


def test_encode_canonical_states():
    assert fidelity(encode(0.0, 0.0, 0.0), D) == pytest.approx(1.0, abs=1e-12)
    assert fidelity(encode(math.pi / 2, 0.0, 0.0), L) == pytest.approx(1.0, abs=1e-12)
    assert fidelity(encode(0.0, math.pi / 2, 0.0), R) == pytest.approx(1.0, abs=1e-12)
    assert fidelity(encode(math.pi, 0.0, 0.0), A) == pytest.approx(1.0, abs=1e-12)


def test_encode_matches_direct_construction():
    rng = np.random.default_rng(7)
    for _ in range(1000):
        phi_e, phi_l, phi0 = rng.uniform(-2 * math.pi, 2 * math.pi, 3)
        direct = normalize(
            JonesVector(1.0, cmath.exp(1j * (phi_e - phi_l - phi0)))
        )
        assert fidelity(encode(phi_e, phi_l, phi0), direct) >= 1.0 - 1e-12


def test_encode_mub_outputs():
    out = {
        "D": encode(0.0, 0.0, 0.0),
        "L": encode(math.pi / 2, 0.0, 0.0),
        "R": encode(0.0, math.pi / 2, 0.0),
        "A": encode(math.pi, 0.0, 0.0),
    }
    assert fidelity(out["D"], out["A"]) == pytest.approx(0.0, abs=1e-12)
    assert fidelity(out["L"], out["R"]) == pytest.approx(0.0, abs=1e-12)
    for key in ("L", "R"):
        for check in ("D", "A"):
            assert fidelity(out[key], out[check]) == pytest.approx(0.5, abs=1e-12)


@given(phases, phases, phases, phases)
@settings(max_examples=150, deadline=None)
def test_encode_depends_only_on_phase_difference(phi_e, phi_l, phi0, shift):
    base = encode(phi_e, phi_l, phi0)
    shifted = encode(phi_e + shift, phi_l + shift, phi0)
    assert fidelity(base, shifted) == pytest.approx(1.0, abs=1e-12)


@given(phases, phases, phases)
@settings(max_examples=150, deadline=None)
def test_encode_two_pi_periodic(phi_e, phi_l, phi0):
    base = encode(phi_e, phi_l, phi0)
    two_pi = 2.0 * math.pi
    assert fidelity(base, encode(phi_e + two_pi, phi_l, phi0)) == pytest.approx(1.0, abs=1e-12)
    assert fidelity(base, encode(phi_e, phi_l + two_pi, phi0)) == pytest.approx(1.0, abs=1e-12)
    assert fidelity(base, encode(phi_e, phi_l, phi0 + two_pi)) == pytest.approx(1.0, abs=1e-12)


def test_constant_drift_cancels_bitwise():
    for offset in (1.3, 1e4, 123456.789, -1.0, -2.5, -123456.789):
        drift = DriftProfile.constant(offset)
        drifted = encode_with_drift(0.7, 0.2, 0.1, drift, 100.0, 100.0 + 4.836e-9)
        clean = encode(0.7, 0.2, 0.1)
        assert drifted == clean  # identical floats, not merely close


def test_linear_drift_residual_is_lead_times_rate():
    drift = DriftProfile.linear(1e-3)
    lead = loop_transit_lead(1.0, 1.45)
    drifted = encode_with_drift(0.0, 0.0, 0.0, drift, 50.0, 50.0 + lead)
    # residual phase rate * lead ~ 4.8e-12 rad
    assert fidelity(drifted, D) == pytest.approx(1.0, abs=1e-12)


def test_sinusoidal_drift_residual_bound():
    # worst-case residual is amplitude * (2 pi / period) * lead
    drift = DriftProfile.sinusoidal(math.pi, 60.0)
    lead = loop_transit_lead(1.0, 1.45)
    bound = math.pi * (2 * math.pi / 60.0) * lead
    worst = 0.0
    for t in np.linspace(0.0, 60.0, 600):
        out = encode_with_drift(0.0, 0.0, 0.0, drift, t, t + lead)
        residual = abs(cmath.phase(out.v / out.h))
        worst = max(worst, residual)
    assert worst <= bound * 1.001
    assert math.sin(worst / 2.0) ** 2 < 1e-18


def test_inline_reference_without_drift_matches_encode():
    state = inline_encoder_reference(0.8, DriftProfile.none(), 123.0)
    assert fidelity(state, encode(0.8, 0.0, 0.0)) == pytest.approx(1.0, abs=1e-12)


def test_inline_reference_worst_case():
    drift = DriftProfile.constant(math.pi)
    state = inline_encoder_reference(0.0, drift, 5.0)
    assert fidelity(state, A) == pytest.approx(1.0, abs=1e-12)


def test_inline_linear_drift_time_average():
    # numerical average oracle for <sin^2(theta/2)> over 600 s at 0.01 rad/s
    rate, horizon = 0.01, 600.0
    ts = np.linspace(0.0, horizon, 200001)
    expected = float(np.trapezoid(np.sin(rate * ts / 2.0) ** 2, ts) / horizon)
    assert expected == pytest.approx(0.5233, abs=1e-3)

    drift = DriftProfile.linear(rate)
    errors = [
        1.0 - fidelity(inline_encoder_reference(0.0, drift, float(t)), D)
        for t in np.linspace(0.0, horizon, 4001)
    ]
    assert np.mean(errors) == pytest.approx(expected, abs=2e-3)


def test_drift_profile_validation():
    with pytest.raises(ConfigurationError):
        DriftProfile(kind="bogus")
    with pytest.raises(ConfigurationError):
        DriftProfile.sinusoidal(1.0, 0.0)
    with pytest.raises(ConfigurationError):
        DriftProfile(kind="sinusoidal", amplitude_rad=-1.0, period_s=10.0)


def test_output_pc_mapping():
    u = output_pc_mapping()
    assert u.is_unitary(1e-12)
    assert fidelity(apply(u, L).state, H) == pytest.approx(1.0, abs=1e-12)
    assert fidelity(apply(u, R).state, V) == pytest.approx(1.0, abs=1e-12)
    assert fidelity(apply(u, D).state, D) == pytest.approx(1.0, abs=1e-12)
    # unitarity forces the orthogonal complement
    assert fidelity(apply(u, A).state, A) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("mode", [MODE_TWO_LEVEL, MODE_FOUR_LEVEL])
@pytest.mark.parametrize("label", ["D", "L", "R", "A"])
def test_pattern_to_state_round_trip(mode, label):
    # brute force: drive pattern -> imprinted phases -> output state
    lead = loop_transit_lead(1.0, 1.45)
    spec = PatternSpec(pulse_width=3 * NS, delay_granularity=100e-12, mode=mode)
    w = pattern_for_state(label, spec, 0.0, lead, 4.0)
    phi_e, phi_l = phases_from_waveform(w, 0.0, lead, 4.0, 1.2 * NS)
    state = encode(phi_e, phi_l, 0.0)
    target = encode(NOMINAL_PHASE[label], 0.0, 0.0)
    assert fidelity(state, target) >= 1.0 - 1e-12


@pytest.mark.parametrize("label", ["D", "L", "R", "A"])
def test_emit_pulse_ideal(label):
    config = EncoderConfig()
    pulse = emit_pulse(label, 0.0, config, 99)
    assert pulse.intended_label == label
    assert pulse.sent_label == POST_PC_LABEL[label]
    assert fidelity(pulse.state, RECEIVER_TARGET[label]) >= 1.0 - 1e-12
    assert pulse.mean_photon_number == pytest.approx(
        config.source_mean_photon_number * 10 ** (-(3.0 + 3.0 + 3.0 + 64.0) / 10.0), rel=1e-12
    )


def test_emit_pulse_deterministic_given_seed():
    config = EncoderConfig(phase_jitter_sigma=0.3)
    a = emit_pulse("L", 0.0, config, 1234)
    b = emit_pulse("L", 0.0, config, 1234)
    c = emit_pulse("L", 0.0, config, 1235)
    assert a.state == b.state
    assert fidelity(a.state, c.state) < 1.0


def test_emit_pulse_jitter_infidelity_matches_monte_carlo():
    # Monte Carlo oracle: mean sin^2(delta/2) over Gaussian phase noise
    sigma = 0.22
    rng = np.random.default_rng(5150)
    n_oracle = 400000
    oracle_samples = np.sin(rng.normal(0.0, sigma, n_oracle) / 2.0) ** 2
    oracle = float(np.mean(oracle_samples))
    oracle_se = float(np.std(oracle_samples)) / math.sqrt(n_oracle)
    closed_form = 0.5 * (1.0 - math.exp(-(sigma**2) / 2.0))
    assert oracle == pytest.approx(closed_form, abs=4 * oracle_se)
    assert closed_form == pytest.approx(sigma**2 / 4.0, rel=0.02)  # ~1.2 %

    config = EncoderConfig(phase_jitter_sigma=sigma)
    gen = np.random.default_rng(77)
    n = 100000
    infidelities = np.empty(n)
    for i in range(n):
        pulse = emit_pulse("L", 0.0, config, gen)
        infidelities[i] = 1.0 - fidelity(pulse.state, H)
    se = float(np.std(infidelities)) / math.sqrt(n)
    assert float(np.mean(infidelities)) == pytest.approx(closed_form, abs=4 * se)


def test_drive_gated_jitter():
    # drive jitter never touches the undriven D slots
    config = EncoderConfig(phase_jitter_sigma=0.0, drive_jitter_sigma=0.5)
    for seed in range(20):
        pulse = emit_pulse("D", 0.0, config, seed)
        assert fidelity(pulse.state, D) >= 1.0 - 1e-12
    jittered = emit_pulse("L", 0.0, config, 3)
    assert fidelity(jittered.state, H) < 1.0 - 1e-6


def test_pc_misalignment_shifts_every_label():
    eps = 0.3
    config = EncoderConfig(elements=ElementParams(pc_misalignment_eps=eps))
    expected = math.cos(eps / 2.0) ** 2
    for label in ("D", "L", "R", "A"):
        pulse = emit_pulse(label, 0.0, config, 1)
        assert fidelity(pulse.state, RECEIVER_TARGET[label]) == pytest.approx(expected, abs=1e-12)


def test_emit_pulse_propagates_timing_error():
    config = EncoderConfig(delta_l_m=0.5)  # lead 2.42 ns < 3 ns drive width
    with pytest.raises(ConfigurationError):
        emit_pulse("L", 0.0, config, 0)


def test_encoder_config_validation():
    with pytest.raises(ConfigurationError):
        EncoderConfig(delta_l_m=-1.0)
    with pytest.raises(ConfigurationError):
        EncoderConfig(fiber_index=0.5)
    with pytest.raises(ConfigurationError):
        EncoderConfig(phase_jitter_sigma=-0.1)
    with pytest.raises(ConfigurationError):
        EncoderConfig(encoding_mode="five-level")
