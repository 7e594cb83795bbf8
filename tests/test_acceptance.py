"""Acceptance suite: every criterion prints one PASS/FAIL line (run with
pytest -s to see them) and asserts its stated tolerance and runtime budget.
"""

import cmath
import contextlib
import io
import math
import time
from dataclasses import replace

import numpy as np
import pytest

from pognac.cli import CliInvocation, run
from pognac.encoder import (
    NOMINAL_PHASE,
    DriftProfile,
    EncoderConfig,
    emit_pulse,
    encode,
    loop_transit_lead,
    phases_from_waveform,
)
from pognac.errors import ConfigurationError
from pognac.polarization import A, D, JonesVector, L, R, fidelity, normalize
from pognac.presets import (
    REFERENCE_QBER,
    fig2_config,
    fig4_config,
    preset_config,
    preset_expected_qber,
)
from pognac.receiver import (
    DetectorParams,
    click_probabilities,
    simulate_detection,
)
from pognac.runner import drift_comparison, run_experiment
from pognac.encoder import MODE_FOUR_LEVEL, MODE_TWO_LEVEL, PatternSpec, pattern_for_state


def _report(num: int, ok: bool, detail: str):
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_1_output_state_equation():
    t0 = time.perf_counter()
    worst = 0.0
    for phases, target in [
        ((0.0, 0.0, 0.0), D),
        ((math.pi / 2, 0.0, 0.0), L),
        ((0.0, math.pi / 2, 0.0), R),
        ((math.pi, 0.0, 0.0), A),
    ]:
        worst = max(worst, 1.0 - fidelity(encode(*phases), target))
    rng = np.random.default_rng(1)
    for _ in range(1000):
        phi_e, phi_l, phi0 = rng.uniform(-2 * math.pi, 2 * math.pi, 3)
        direct = normalize(JonesVector(1.0, cmath.exp(1j * (phi_e - phi_l - phi0))))
        worst = max(worst, 1.0 - fidelity(encode(phi_e, phi_l, phi0), direct))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-12 and elapsed < 1.0
    _report(1, ok, f"worst infidelity {worst:.2e} over 4 canonical + 1000 random phase triples, {elapsed:.2f} s")


def test_criterion_2_mub_structure():
    out = {
        "D": encode(0.0, 0.0, 0.0),
        "L": encode(math.pi / 2, 0.0, 0.0),
        "R": encode(0.0, math.pi / 2, 0.0),
        "A": encode(math.pi, 0.0, 0.0),
    }
    deviations = [
        abs(fidelity(out["D"], out["A"])),
        abs(fidelity(out["L"], out["R"])),
    ]
    deviations += [
        abs(fidelity(out[a], out[b]) - 0.5)
        for a in ("L", "R")
        for b in ("D", "A")
    ]
    worst = max(deviations)
    ok = worst <= 1e-12
    _report(2, ok, f"orthogonality and 0.5 cross-overlaps hold to {worst:.2e}")


def test_criterion_3_unbiased_state_qber():
    t0 = time.perf_counter()
    config = replace(fig2_config(), repetition_rate_hz=2e4, duration_s=60.0)
    n = config.n_pulses()
    result = run_experiment(config)
    stats = result.summary["D"]
    sifted = stats.n_correct + stats.n_error
    bound = 4.0 * math.sqrt(0.25 / sifted)
    elapsed = time.perf_counter() - t0
    ok = n >= 1_000_000 and abs(stats.qber - 0.5) <= bound and elapsed < 60.0
    _report(
        3,
        ok,
        f"D in HV over {n} pulses: qber {stats.qber:.5f} vs 0.500 "
        f"(4-sigma bound {bound:.5f}, {sifted} sifted), {elapsed:.1f} s",
    )


def _oracle_click_qber(sigma: float, offset: float, mu: float, eta: float, dark: float, n: int, seed: int):
    """Brute-force Monte Carlo oracle for the mean sifted QBER.

    Samples the per-pulse phase error, evaluates the closed-form exclusive
    click masses for the error and correct branches, and returns the ratio
    estimate plus its standard error (delta method).
    """
    rng = np.random.default_rng(seed)
    e = rng.normal(offset, sigma, n)
    q_err = np.sin(e / 2.0) ** 2
    keep = 1.0 - dark
    p_err = 1.0 - keep * np.exp(-mu * eta * q_err)
    p_corr = 1.0 - keep * np.exp(-mu * eta * (1.0 - q_err))
    err_mass = p_err * (1.0 - p_corr)
    corr_mass = p_corr * (1.0 - p_err)
    me, mc = float(np.mean(err_mass)), float(np.mean(corr_mass))
    qber = me / (me + mc)
    var = (
        float(np.var(err_mass)) * (mc / (me + mc) ** 2) ** 2
        + float(np.var(corr_mass)) * (me / (me + mc) ** 2) ** 2
    ) / n
    return qber, math.sqrt(var)


def test_criterion_4_calibrated_qber_reproduction():
    t0 = time.perf_counter()
    details = []
    ok = True
    oracle_seed = 31400
    for preset_name in ("fig2", "fig3", "fig4"):
        config = preset_config(preset_name)
        result = run_experiment(config)
        targets = {lbl: q for (name, lbl), q in REFERENCE_QBER.items() if name == preset_name}
        for label, target in targets.items():
            oracle_seed += 1
            driven = label != "D"
            sigma = config.encoder.phase_jitter_sigma
            if driven:
                sigma = math.hypot(sigma, config.encoder.drive_jitter_sigma)
            mu = config.encoder.mean_photon_out()
            oracle, oracle_se = _oracle_click_qber(
                sigma,
                config.encoder.elements.pc_misalignment_eps,
                mu,
                config.detector.efficiency,
                config.detector.dark_count_prob_per_gate,
                4_000_000,
                seed=oracle_seed,
            )
            # package quadrature expectation must agree with the oracle
            analytic = preset_expected_qber(config, label)
            assert analytic == pytest.approx(oracle, abs=5 * oracle_se + 1e-6)

            stats = result.summary[label]
            sifted = stats.n_correct + stats.n_error
            se = math.sqrt(max(stats.qber * (1.0 - stats.qber), 1e-12) / sifted)
            sim_ok = abs(stats.qber - oracle) <= 3.0 * se + 4.0 * oracle_se
            target_ok = abs(analytic - target) / target <= 0.10
            ok = ok and sim_ok and target_ok
            details.append(
                f"{preset_name}/{label}: sim {stats.qber:.5f} vs oracle {oracle:.5f} "
                f"(3se {3 * se:.5f}){'' if sim_ok else ' MISS'}, expectation {analytic:.5f} "
                f"vs target {target:.5f} ({abs(analytic - target) / target:.1%}){'' if target_ok else ' MISS'}"
            )
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 120.0
    _report(4, ok, "; ".join(details) + f"; {elapsed:.1f} s")


def test_criterion_5_self_compensation():
    t0 = time.perf_counter()
    base = replace(fig2_config(), duration_s=12.0)
    baseline = run_experiment(base)

    # constant drift of any magnitude: bit-identical output
    const_ok = True
    for offset in (1.3, 98765.4321):
        paired = drift_comparison(base, DriftProfile.constant(offset))
        const_ok = const_ok and paired.pognac.series.to_csv() == baseline.series.to_csv()

    # sinusoidal drift, amplitude pi over 600 s
    drift_cfg = preset_config("drift")
    no_drift = run_experiment(replace(drift_cfg, encoder=replace(drift_cfg.encoder, drift=DriftProfile.none())))
    paired = drift_comparison(drift_cfg, drift_cfg.encoder.drift)
    max_shift = max(
        abs(paired.pognac.summary[lbl].qber - no_drift.summary[lbl].qber)
        for lbl in paired.pognac.summary
    )
    inline_worst = max(
        (r.qber for r in paired.inline.series.rows if r.sent_label in ("H", "V") and r.n_correct + r.n_error > 0),
        default=0.0,
    )
    elapsed = time.perf_counter() - t0
    ok = const_ok and max_shift < 1e-6 and inline_worst > 0.4 and elapsed < 120.0
    _report(
        5,
        ok,
        f"constant drift bit-identical: {const_ok}; sinusoidal loop-encoder mean shift "
        f"{max_shift:.2e} (< 1e-6); inline worst window {inline_worst:.3f} (> 0.4); {elapsed:.1f} s",
    )


def test_criterion_6_timing_addressability():
    t0 = time.perf_counter()
    lead = loop_transit_lead(1.0, 1.45)
    lead_ok = lead == pytest.approx(4.8367e-9, abs=1e-13) and lead > 3e-9

    worst = 0.0
    for mode in (MODE_TWO_LEVEL, MODE_FOUR_LEVEL):
        spec = PatternSpec(pulse_width=3e-9, delay_granularity=100e-12, mode=mode)
        for label in ("D", "L", "R", "A"):
            w = pattern_for_state(label, spec, 0.0, lead, 4.0)
            phi_e, phi_l = phases_from_waveform(w, 0.0, lead, 4.0, 1.2e-9)
            state = encode(phi_e, phi_l, 0.0)
            worst = max(worst, 1.0 - fidelity(state, encode(NOMINAL_PHASE[label], 0.0, 0.0)))
    round_trip_ok = worst <= 1e-12

    # shrink the delay line until the lead drops under the drive width
    error_raised = False
    delta_l = 1.0
    while loop_transit_lead(delta_l, 1.45) >= 3e-9:
        delta_l *= 0.8
    try:
        emit_pulse("L", 0.0, EncoderConfig(delta_l_m=delta_l), 0)
    except ConfigurationError:
        error_raised = True
    elapsed = time.perf_counter() - t0
    ok = lead_ok and round_trip_ok and error_raised and elapsed < 1.0
    _report(
        6,
        ok,
        f"lead {lead * 1e9:.3f} ns > 3 ns; worst round-trip infidelity {worst:.2e}; "
        f"short delay line ({delta_l:.2f} m) raises the timing error: {error_raised}; {elapsed:.2f} s",
    )


def test_criterion_7_monte_carlo_vs_analytic():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2718)
    n = 100_000
    worst_pull = 0.0
    for case in range(20):
        theta, phi = rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi)
        state = JonesVector(math.cos(theta / 2), cmath.exp(1j * phi) * math.sin(theta / 2))
        mu = float(rng.uniform(0.1, 2.0))
        params = DetectorParams(
            efficiency=float(rng.uniform(0.3, 0.95)),
            dark_count_prob_per_gate=float(10 ** rng.uniform(-6, -3)),
            basis=("HV", "DA")[case % 2],
        )
        p = click_probabilities(state, mu, params)
        from pognac.encoder import EmittedPulse

        pulse = EmittedPulse(state, mu, "D")
        gen = np.random.default_rng((9000, case))
        counts = {"click_0": 0, "click_1": 0, "double": 0, "none": 0}
        for _ in range(n):
            counts[simulate_detection(pulse, params, gen).outcome] += 1
        for outcome, expected in zip(("click_0", "click_1", "double", "none"), p):
            se = math.sqrt(max(expected * (1.0 - expected), 1e-12) / n)
            pull = abs(counts[outcome] / n - expected) / se
            worst_pull = max(worst_pull, pull)
    elapsed = time.perf_counter() - t0
    ok = worst_pull <= 4.0 and elapsed < 60.0
    _report(
        7,
        ok,
        f"20 random (state, mu, eta, dark) tuples x {n} samples: worst deviation "
        f"{worst_pull:.2f} sigma (<= 4); {elapsed:.1f} s",
    )


def test_criterion_8_byte_identical_determinism(tmp_path):
    t0 = time.perf_counter()

    # preset scenario through the CLI, twice (summaries swallowed)
    blobs = []
    for name in ("run1.csv", "run2.csv"):
        out = tmp_path / name
        with contextlib.redirect_stdout(io.StringIO()):
            status = run(CliInvocation(scenario="fig4", output_path=str(out)))
        assert status == 0
        blobs.append(out.read_bytes())
    preset_ok = blobs[0] == blobs[1]

    # window-parallel execution order must not matter: re-emit the fig4 run
    # window by window in reverse order and compare against the normal run
    config = replace(fig4_config(), duration_s=9.0, repetition_rate_hz=2e3)
    normal = run_experiment(config)
    from pognac.receiver import simulate_detection as detect
    from pognac.runner import generate_sequence, sift_and_qber

    sequence = generate_sequence(config.sequence_mode, config.n_pulses(), config.sequence_seed)
    rate, window = config.repetition_rate_hz, config.window_s
    by_window = {}
    for i in range(len(sequence)):
        by_window.setdefault(int((i / rate) // window), []).append(i)
    records = []
    for w in sorted(by_window, reverse=True):
        rng_emit = np.random.default_rng((config.detection_seed, w, 0))
        rng_det = np.random.default_rng((config.detection_seed, w, 1))
        for i in by_window[w]:
            pulse = emit_pulse(sequence[i], i / rate, config.encoder, rng_emit)
            records.append(detect(pulse, config.detector, rng_det, i))
    reordered = sift_and_qber(
        records, sequence, window, rate, config.detector.double_click_policy, config.detection_seed
    )
    parallel_ok = reordered == normal.series

    elapsed = time.perf_counter() - t0
    ok = preset_ok and parallel_ok
    _report(
        8,
        ok,
        f"fig4 CLI reruns byte-identical: {preset_ok}; window-reversed execution "
        f"reproduces the series: {parallel_ok}; {elapsed:.1f} s",
    )
