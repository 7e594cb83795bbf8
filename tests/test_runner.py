import functools
import math
import os
import platform
import subprocess
import sys
from dataclasses import replace
from itertools import product
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pognac import runner
from pognac.encoder import (
    DRIFT_LINEAR,
    DRIFT_NONE,
    DRIFT_SINUSOIDAL,
    LABEL_CODES,
    OUTPUT_PC,
    PHASE_RANGE,
    POST_PC_LABEL,
    DriftProfile,
    ElementParams,
    EmittedPulse,
    EncoderConfig,
    emit_batch,
    emit_pulse,
    label_table,
    loop_transit_lead,
    pattern_for_state,
    phase_bound,
    phase_difference,
    phases_from_waveform,
)
from pognac.errors import ConfigurationError
from pognac.polarization import fidelity
from pognac.presets import drift_config
from pognac.receiver import (
    BASIS_DA,
    DetectionRecord,
    DetectorParams,
    branch_powers,
    branch_probabilities,
    click_bound,
    click_probabilities,
    simulate_detection,
)
from pognac.runner import (
    LABEL_ORDER,
    SEQUENCE_DA,
    SEQUENCE_HVD,
    RunConfig,
    drift_comparison,
    generate_sequence,
    run_experiment,
    sift_and_qber,
)

from jones_oracles import apply, encode_with_drift, inline_encoder_reference


def quiet_config(**kw):
    defaults = dict(
        encoder=EncoderConfig(),
        detector=DetectorParams(dark_count_prob_per_gate=0.0),
        repetition_rate_hz=1e4,
        duration_s=3.0,
        window_s=3.0,
        sequence_mode=SEQUENCE_HVD,
        sequence_seed=11,
        detection_seed=12,
    )
    defaults.update(kw)
    return RunConfig(**defaults)


def test_generate_sequence_da_alternates():
    assert generate_sequence(SEQUENCE_DA, 4, 0) == ["D", "A", "D", "A"]


@pytest.mark.parametrize("size", [7, 1000, runner._BLOCK])
def test_da_label_blocks_alternate_from_d(size):
    n = 2 * runner._BLOCK + 1001  # odd, so the last block ends mid-tile at every size
    blocks = list(runner._label_blocks(SEQUENCE_DA, n, 0, size))
    assert [len(b) for b in blocks] == [min(size, n - start) for start in range(0, n, size)]
    assert all(b.dtype == np.int8 and not b.flags.writeable for b in blocks)
    assert [LABEL_CODES[c] for c in np.concatenate(blocks).tolist()] == ["DA"[i % 2] for i in range(n)]


def test_generate_sequence_reproducible():
    a = generate_sequence(SEQUENCE_HVD, 1000, 42)
    b = generate_sequence(SEQUENCE_HVD, 1000, 42)
    c = generate_sequence(SEQUENCE_HVD, 1000, 43)
    assert a == b
    assert a != c


def test_generate_sequence_uniform():
    n = 3_000_000
    seq = generate_sequence(SEQUENCE_HVD, n, 7)
    for label in ("L", "R", "D"):
        freq = seq.count(label) / n
        se = math.sqrt((1 / 3) * (2 / 3) / n)
        assert freq == pytest.approx(1 / 3, abs=4 * se)


def test_generate_sequence_rejects_empty():
    with pytest.raises(ConfigurationError):
        generate_sequence(SEQUENCE_HVD, 0, 1)


def test_sift_ideal_d_in_da():
    sequence = ["D"] * 10
    records = [DetectionRecord(i, "D", "click_0") for i in range(10)]
    series = sift_and_qber(records, sequence, 1.0, 10.0)
    stats = series.label_stats()["D"]
    assert stats.qber == 0.0
    assert stats.n_correct == 10


def test_sift_counts_errors_on_wrong_branch():
    sequence = ["D"] * 8
    records = [
        DetectionRecord(i, "D", "click_1" if i < 2 else "click_0") for i in range(8)
    ]
    series = sift_and_qber(records, sequence, 1.0, 8.0)
    stats = series.label_stats()["D"]
    assert stats.n_error == 2
    assert stats.qber == pytest.approx(0.25)


def test_sift_empty_window_flagged_nan():
    sequence = ["D"] * 10
    series = sift_and_qber([], sequence, 0.5, 10.0)
    assert len(series.rows) == 2  # two windows, one label
    for row in series.rows:
        assert math.isnan(row.qber)
        assert row.n_correct == row.n_error == 0


def test_sift_rejects_misaligned_records():
    sequence = ["D", "A"]
    bad = [DetectionRecord(1, "D", "click_0")]  # index 1 is A
    with pytest.raises(ConfigurationError):
        sift_and_qber(bad, sequence, 1.0, 2.0)
    with pytest.raises(ConfigurationError):
        sift_and_qber([DetectionRecord(5, "D", "click_0")], sequence, 1.0, 2.0)


def test_sift_rejects_a_repeated_pulse_index():
    sequence = ["D", "A"]
    twice = [DetectionRecord(0, "D", "click_0")] * 2
    with pytest.raises(ConfigurationError, match="pulse_index 0"):
        sift_and_qber(twice, sequence, 1.0, 2.0)


def test_sift_double_click_policies():
    sequence = ["D"] * 6
    records = [DetectionRecord(i, "D", "double") for i in range(6)]
    discard = sift_and_qber(records, sequence, 1.0, 6.0, "discard")
    assert discard.label_stats()["D"].n_discarded == 6
    assert math.isnan(discard.label_stats()["D"].qber)

    random_policy = sift_and_qber(records, sequence, 1.0, 6.0, "random", assignment_seed=3)
    stats = random_policy.label_stats()["D"]
    assert stats.n_discarded == 0
    assert stats.n_correct + stats.n_error == 6
    again = sift_and_qber(records, sequence, 1.0, 6.0, "random", assignment_seed=3)
    assert again.rows == random_policy.rows


def test_sift_rejects_more_windows_than_the_cap():
    # ten pulses at 1 Hz in windows of 0.1 us ask for about 9e7 windows, a 17 GB tally
    with pytest.raises(ConfigurationError, match="asks for 9e\\+07 windows, more than the cap of 1048576"):
        sift_and_qber([], ["D"] * 10, 1e-7, 1.0)
    # a rate so low that the last pulse's time overflows to inf
    with pytest.raises(ConfigurationError, match="more than the cap of 1048576"):
        sift_and_qber([], ["D"] * 10, 1.0, 1e-320)
    # the cap itself is allowed
    assert runner._window_count(2, 1.0, 1.0 / (runner._MAX_WINDOWS - 1), "two pulses") == runner._MAX_WINDOWS


def test_window_counts_sum_to_run_totals():
    config = quiet_config(duration_s=9.0, window_s=3.0, detection_seed=5)
    result = run_experiment(config)
    windows = {r.window_start_s for r in result.series.rows}
    assert windows == {0.0, 3.0, 6.0}
    for label, stats in result.summary.items():
        rows = [r for r in result.series.rows if r.sent_label == label]
        assert sum(r.n_correct for r in rows) == stats.n_correct
        assert sum(r.n_error for r in rows) == stats.n_error
        assert sum(r.n_discarded for r in rows) == stats.n_discarded


def test_zero_noise_run_has_zero_qber():
    result = run_experiment(quiet_config())
    for label in ("H", "V"):
        assert result.summary[label].qber == 0.0
    # the unbiased D label keeps both branches busy instead
    d = result.summary["D"]
    assert d.n_error > 0 and d.n_correct > 0


def test_frame_consistency_ideal_config():
    # every emitted label lands exactly on its receiver-frame target
    from test_encoder import RECEIVER_TARGET

    for label in ("D", "L", "R", "A"):
        pulse = emit_pulse(label, 0.0, EncoderConfig(), 0)
        assert fidelity(pulse.state, RECEIVER_TARGET[label]) >= 1.0 - 1e-12
        assert pulse.sent_label == POST_PC_LABEL[label]


def test_run_determinism():
    config = quiet_config(duration_s=6.0)
    a = run_experiment(config)
    b = run_experiment(config)
    assert a.series == b.series


def test_qber_converges_to_click_probability_ratio():
    # constant frame offset: analytic expectation straight from
    # click_probabilities on the actual emitted states
    offset = 0.25

    config = quiet_config(
        encoder=EncoderConfig(elements=ElementParams(pc_phase_phi0=offset)),
        duration_s=15.0,
        window_s=3.0,
        repetition_rate_hz=1e4,
    )
    result = run_experiment(config)

    for enc_label, sent_label, branch in (("L", "H", 0), ("R", "V", 1)):
        pulse = emit_pulse(enc_label, 0.0, config.encoder, 0)
        p = click_probabilities(pulse.state, pulse.mean_photon_number, config.detector)
        singles = (p.click_0, p.click_1)
        expected = singles[1 - branch] / (singles[0] + singles[1])
        stats = result.summary[sent_label]
        n = stats.n_correct + stats.n_error
        se = math.sqrt(expected * (1.0 - expected) / n)
        assert stats.qber == pytest.approx(expected, abs=4 * se)


def test_labels_follow_sequence_mode():
    hvd = run_experiment(quiet_config())
    assert hvd.series.labels == ("H", "V", "D")
    da = run_experiment(quiet_config(sequence_mode=SEQUENCE_DA, detector=DetectorParams(basis=BASIS_DA)))
    assert da.series.labels == ("D", "A")
    assert set(da.series.labels) <= set(LABEL_ORDER)


def test_drift_comparison_without_drift_is_identical():
    config = quiet_config()
    paired = drift_comparison(config, DriftProfile.none())
    assert paired.pognac.series == paired.inline.series


def test_constant_drift_leaves_loop_encoder_untouched():
    config = quiet_config(duration_s=6.0)
    baseline = run_experiment(config)
    for offset in (1.3, 43210.0):
        paired = drift_comparison(config, DriftProfile.constant(offset))
        assert paired.pognac.series == baseline.series


def test_linear_drift_hits_only_the_inline_reference():
    config = quiet_config(
        duration_s=60.0,
        window_s=3.0,
        repetition_rate_hz=2e3,
        detection_seed=21,
    )
    baseline = run_experiment(config)
    paired = drift_comparison(config, DriftProfile("linear", rate_rad_per_s=0.05))
    assert paired.pognac.series == baseline.series

    # theta sweeps 0..3 rad: time-averaged error probability
    # <sin^2(theta/2)> = 0.5 (1 - sin(3)/3) ~ 0.476
    ts = np.linspace(0.0, 60.0, 100001)
    expected = float(np.mean(np.sin(0.05 * ts / 2.0) ** 2))
    for label in ("H", "V"):
        stats = paired.inline.summary[label]
        assert stats.qber == pytest.approx(expected, abs=0.05)
        assert paired.pognac.summary[label].qber < 0.01


def test_run_config_validation():
    with pytest.raises(ConfigurationError):
        RunConfig(duration_s=1.0, window_s=3.0)
    with pytest.raises(ConfigurationError):
        RunConfig(repetition_rate_hz=0.0)
    with pytest.raises(ConfigurationError):
        RunConfig(sequence_mode="bogus")
    # a run without pulses is rejected at construction, under the keys that ask for it
    message = "^duration_s x repetition_rate_hz asks for 0.3 pulses, which rounds to 0"
    with pytest.raises(ConfigurationError, match=message):
        RunConfig(duration_s=0.3, window_s=0.3, repetition_rate_hz=1.0)


def test_series_csv_schema():
    result = run_experiment(quiet_config())
    lines = result.series.to_csv().splitlines()
    assert lines[0] == "window_start_s,sent_label,n_correct,n_error,n_discarded,qber"
    first = lines[1].split(",")
    assert first[0] == "0.0"
    assert first[1] in LABEL_ORDER


def random_policy_config(**kw):
    """Many short windows, about five photons per pulse at the analyzer, so
    double clicks are common and coin-assigned."""
    defaults = dict(
        encoder=EncoderConfig(
            phase_jitter_sigma=0.2259,
            drive_jitter_sigma=0.0436,
            elements=ElementParams(attenuator_loss_db=54.0),
        ),
        detector=DetectorParams(double_click_policy="random"),
        repetition_rate_hz=1e5,
        duration_s=0.3,
        window_s=0.01,
        sequence_seed=31,
        detection_seed=32,
    )
    defaults.update(kw)
    return RunConfig(**defaults)


def fast_drift_config():
    """The drift preset, shortened, with the drift sped up so the inline
    pipeline sweeps the whole phase circle."""
    config = replace(drift_config(), duration_s=15.0)
    return replace(config, encoder=replace(config.encoder, drift=DriftProfile.sinusoidal(math.pi, 10.0)))


def pulses_per_window(config):
    counts = {}
    for i in range(config.n_pulses()):
        w = int((i / config.repetition_rate_hz) // config.window_s)
        counts[w] = counts.get(w, 0) + 1
    return [counts[w] for w in sorted(counts)]


def assert_run_invariants(config, result):
    series = result.series
    # per window, the four outcome counts add up to the pulses sent ...
    assert [sum(counts) for counts in series.outcome_counts] == pulses_per_window(config)
    # ... and the sifted rows to its clicks
    for w, (click_0, click_1, double, _) in enumerate(series.outcome_counts):
        rows = [r for r in series.rows if r.window_start_s == w * config.window_s]
        assert sum(r.n_correct + r.n_error + r.n_discarded for r in rows) == click_0 + click_1 + double
    # the run summary is the sum of the rows
    for label, stats in result.summary.items():
        rows = [r for r in series.rows if r.sent_label == label]
        totals = tuple(sum(getattr(r, f) for r in rows) for f in ("n_correct", "n_error", "n_discarded"))
        assert totals == (stats.n_correct, stats.n_error, stats.n_discarded)


def test_outcome_and_summary_invariants():
    config = random_policy_config()
    result = run_experiment(config)
    assert sum(counts[2] for counts in result.series.outcome_counts) > 100  # doubles occur
    assert all(r.n_discarded == 0 for r in result.series.rows)
    assert_run_invariants(config, result)

    config = fast_drift_config()
    paired = drift_comparison(config, config.encoder.drift)
    assert_run_invariants(config, paired.pognac)
    assert_run_invariants(config, paired.inline)


def block_size_configs(policy):
    """Two all-live runs (click bound above one half, blocks of _BLOCK
    pulses), HVD and D/A alternating into a DA analyzer, and a partly live
    drift comparison (bound below one half, blocks of 2 * _BLOCK spanning up
    to hundreds of windows of 50 pulses), with the double-click policy
    ``policy``."""
    every = random_policy_config(duration_s=0.05, window_s=0.002, detector=DetectorParams(double_click_policy=policy))
    da = replace(every, sequence_mode=SEQUENCE_DA, detector=replace(every.detector, basis=BASIS_DA))
    drift = fast_drift_config()
    drift = replace(drift, window_s=0.05, detector=replace(drift.detector, double_click_policy=policy))
    return (every, da), drift


@functools.cache
def block_size_references(policy):
    live, drift = block_size_configs(policy)
    return [window_reversed_series(c, inline=False) for c in live], [
        window_reversed_series(drift, inline) for inline in (False, True)
    ]


@pytest.mark.parametrize("block", [7, 1000, runner._BLOCK])
def test_block_size_does_not_change_results(monkeypatch, block):
    monkeypatch.setattr(runner, "_BLOCK", block)
    for policy in ("discard", "random"):
        live, drift = block_size_configs(policy)
        for c in live:
            assert click_bound(label_table(c.encoder).mu, c.detector) >= runner._ALL_LIVE
        assert click_bound(label_table(drift.encoder).mu, drift.detector) < runner._ALL_LIVE
        expected_live, expected_drift = block_size_references(policy)
        assert [run_experiment(c).series for c in live] == expected_live
        assert [r.series for r in drift_comparison(drift, drift.encoder.drift)] == expected_drift


def live_tally_reference(n_windows, edges, ids, codes, live, outcomes, policy, seed):
    """_Tally's cells counted pulse by pulse: a live pulse in its outcome's
    slot (a double click in a coin's slot under the random policy, coins
    drawn in pulse order), every other pulse in none."""
    cells = np.zeros((n_windows, len(LABEL_CODES), runner._SLOTS), dtype=np.int64)
    window = np.repeat(ids, np.diff(edges))
    slots = np.full(len(codes), runner._NONE)
    slots[live] = outcomes
    if policy == "random":
        doubles = np.flatnonzero(slots == runner._DOUBLE)
        coins = np.random.default_rng((seed, 0xD0)).integers(0, 2, size=len(doubles))
        slots[doubles] = runner._COIN_0 + coins
    for w, c, slot in zip(window.tolist(), codes.tolist(), slots.tolist()):
        cells[w, c, slot] += 1
    return cells


@pytest.mark.parametrize("policy", ["discard", "random"])
def test_live_tally_counts_every_other_pulse_as_none(policy):
    rng = np.random.default_rng(3)
    n = 2000
    # 150 window runs, some windows skipped; run 7 gets no live pulse
    ids = np.sort(rng.choice(400, size=150, replace=False))
    edges = np.concatenate(([0], np.sort(rng.choice(np.arange(1, n), size=149, replace=False)), [n]))
    codes = rng.integers(0, len(LABEL_CODES), size=n).astype(np.int8)
    live = np.flatnonzero(rng.random(n) < 0.3)
    live = live[(live < edges[7]) | (live >= edges[8])]
    # a live pulse may still end in none
    outcomes = rng.integers(0, 4, size=len(live)).astype(np.uint8)
    tally = runner._Tally(400, policy, 9)
    block = runner._live_set(edges, ids, codes, live)
    assert len(block.base) == len(live) and block.sent.shape == (150, len(LABEL_CODES))
    tally.add(block, outcomes)
    expected = live_tally_reference(400, edges, ids, codes, live, outcomes, policy, 9)
    np.testing.assert_array_equal(tally.cells, expected)
    # a none slot is the label's pulses in the window minus its live pulses
    # that did not end in none
    sent = np.zeros((400, len(LABEL_CODES)), dtype=np.int64)
    np.add.at(sent, (np.repeat(ids, np.diff(edges)), codes), 1)
    clicked = tally.cells.sum(axis=-1) - tally.cells[..., runner._NONE]
    np.testing.assert_array_equal(tally.cells[..., runner._NONE], sent - clicked)
    assert tally.cells[ids[7], :, runner._NONE].sum() == edges[8] - edges[7]
    # the same block with every pulse live, its outcome codes none but for
    # the live ones, gives the same cells
    every = runner._Tally(400, policy, 9)
    full = np.full(n, runner._NONE, dtype=np.uint8)
    full[live] = outcomes
    every.add(runner._live_set(edges, ids, codes, slice(None)), full)
    np.testing.assert_array_equal(every.cells, expected)


def test_sift_and_qber_counts_records_through_the_live_tally():
    sequence = ["D", "A"] * 20
    # windows of 10 pulses; window 2 has no click
    outcomes = ["click_0", "none", "double", "click_1"] * 5 + ["none"] * 10 + ["click_1", "none"] * 5
    records = [DetectionRecord(i, POST_PC_LABEL[label], outcome) for i, (label, outcome) in enumerate(zip(sequence, outcomes))]
    blocks = []

    def add(self, block, outcomes, method=runner._Tally.add):
        blocks.append(block)
        return method(self, block, outcomes)

    with mock.patch.object(runner._Tally, "add", add):
        series = sift_and_qber(records, sequence, 10.0, 1.0)
    (block,) = blocks
    assert len(block.base) == sum(outcome != "none" for outcome in outcomes)
    clicks = [[outcomes[i] != "none" for i in range(w * 10, w * 10 + 10)].count(True) for w in range(4)]
    assert series.outcome_counts[:, 3].tolist() == [10 - c for c in clicks]
    assert series.outcome_counts.sum(axis=1).tolist() == [10] * 4


def scalar_emitter(enc, inline):
    """Per-pulse emission from the scalar building blocks (drive pattern ->
    phases -> encode_with_drift or inline_encoder_reference -> output
    controller), the reference for the array kernel."""
    lead = loop_transit_lead(enc.delta_l_m, enc.fiber_index)
    phi0 = enc.elements.pc_phase_phi0 + enc.elements.pc_misalignment_eps
    vpi = enc.elements.modulator_vpi
    drive = {}
    for label in ("D", "L", "R", "A"):
        pulse = pattern_for_state(label, enc.drive, 0.0, lead, vpi)
        sigma = enc.phase_jitter_sigma
        if pulse is not None:
            sigma = math.hypot(sigma, enc.drive_jitter_sigma)
        drive[label] = (*phases_from_waveform(pulse, 0.0, lead, vpi, enc.optical_fwhm_s), sigma)

    def emit(label, t, rng):
        phi_e, phi_l, sigma = drive[label]
        delta = rng.normal(0.0, sigma)
        if inline:
            state = inline_encoder_reference((phi_e + delta) - phi_l - phi0, enc.drift, t)
        else:
            state = encode_with_drift(phi_e + delta, phi_l, phi0, enc.drift, t, t + lead)
        out = apply(OUTPUT_PC, state).state
        return EmittedPulse(out, enc.mean_photon_out(), POST_PC_LABEL[label])

    return emit


@pytest.mark.parametrize("inline", [False, True])
def test_emit_batch_matches_scalar_building_blocks_bitwise(inline):
    enc = fast_drift_config().encoder
    rng = np.random.default_rng(5)
    codes = rng.integers(0, 4, size=2000)
    t = rng.uniform(0.0, 20.0, size=2000)
    emit = scalar_emitter(enc, inline)
    ref_rng = np.random.default_rng(6)
    expected = [emit(LABEL_CODES[c], ti, ref_rng).state for c, ti in zip(codes.tolist(), t.tolist())]
    h_re, h_im, v_re, v_im = emit_batch(codes, t, np.random.default_rng(6).standard_normal(2000), enc, inline)
    assert [complex(a, b) for a, b in zip(h_re.tolist(), h_im.tolist())] == [s.h for s in expected]
    assert [complex(a, b) for a, b in zip(v_re.tolist(), v_im.tolist())] == [s.v for s in expected]


@pytest.mark.parametrize("basis", ["HV", "DA"])
@pytest.mark.parametrize("inline", [False, True])
@pytest.mark.parametrize("drift", [DriftProfile.none(), DriftProfile.sinusoidal(math.pi, 10.0)], ids=["none", "sin"])
def test_closed_form_branch_powers_match_the_jones_path(basis, inline, drift):
    enc = EncoderConfig(
        phase_jitter_sigma=2.0,  # spreads every label's phase difference over the circle
        drive_jitter_sigma=0.3,
        elements=ElementParams(pc_phase_phi0=0.4, pc_misalignment_eps=-0.05),
        drift=drift,
    )
    rng = np.random.default_rng(8)
    n = 50_000
    codes = rng.integers(0, 4, size=n)
    t = rng.uniform(0.0, 20.0, size=n)
    normals = rng.standard_normal(n)
    closed = branch_probabilities(phase_difference(codes, t, normals, enc, inline), basis)
    jones = branch_powers(*emit_batch(codes, t, normals, enc, inline), basis)
    for q, ref in zip(closed, jones):
        assert np.max(np.abs(q - ref)) <= 1e-15


def window_reversed_series(config, inline):
    """Criterion 8's check: emit and detect pulse by pulse, windows in
    reverse order, each window on its own (detection_seed, w, 0|1) streams."""
    emit = scalar_emitter(config.encoder, inline)
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
            pulse = emit(sequence[i], i / rate, rng_emit)
            records.append(simulate_detection(pulse, config.detector, rng_det, i))
    return sift_and_qber(
        records, sequence, window, rate, config.detector.double_click_policy, config.detection_seed
    )


def test_window_reversed_per_pulse_matches_drift_pipelines():
    config = fast_drift_config()
    paired = drift_comparison(config, config.encoder.drift)
    assert window_reversed_series(config, inline=False) == paired.pognac.series
    assert window_reversed_series(config, inline=True) == paired.inline.series
    assert paired.inline.series != paired.pognac.series


def test_window_reversed_per_pulse_matches_random_policy():
    config = random_policy_config(duration_s=0.1)
    assert window_reversed_series(config, inline=False) == run_experiment(config).series


@pytest.mark.parametrize(
    "detector, live",
    [
        # the click bound is above 1: every pulse can click, and each double-clicks
        (DetectorParams(dark_count_prob_per_gate=1.0, double_click_policy="random"), "all"),
        # the click bound is 1e-9: no pulse of the run can click
        (DetectorParams(efficiency=0.0, dark_count_prob_per_gate=0.0), "none"),
    ],
    ids=["every-pulse-live", "no-pulse-live"],
)
def test_click_bound_extremes_match_the_per_pulse_reference(detector, live):
    config = random_policy_config(duration_s=0.05, detector=detector)
    sizes = []

    def chain(x, basis, formula=branch_probabilities):
        sizes.append(np.size(x))
        return formula(x, basis)

    with mock.patch.object(runner, "branch_probabilities", chain):
        series = run_experiment(config).series
    assert series == window_reversed_series(config, inline=False)
    n = config.n_pulses()
    outcomes = np.sum(series.outcome_counts, axis=0).tolist()
    if live == "all":
        assert sum(sizes) == n and outcomes == [0, 0, n, 0]
    else:
        assert sum(sizes) == 0 and outcomes == [0, 0, 0, n]


@pytest.mark.parametrize("attenuator_db, all_live", [(59.4, True), (59.7, False)], ids=["above-half", "below-half"])
def test_live_set_is_the_whole_block_from_a_click_bound_of_one_half(attenuator_db, all_live):
    config = random_policy_config(
        encoder=replace(random_policy_config().encoder, elements=ElementParams(attenuator_loss_db=attenuator_db)),
        duration_s=0.05,
    )
    bound = click_bound(label_table(config.encoder).mu, config.detector)
    assert (bound >= 0.5) == all_live and abs(bound - 0.5) < 0.02
    sizes = []

    def chain(x, basis, formula=branch_probabilities):
        sizes.append(np.size(x))
        return formula(x, basis)

    with mock.patch.object(runner, "branch_probabilities", chain):
        series = run_experiment(config).series
    assert series == window_reversed_series(config, inline=False)
    # at a bound of one half, about half of the pulses can click
    assert (sum(sizes) == config.n_pulses()) == all_live


def range_config(drift=DriftProfile.none(), sigma=0.0, **kw):
    """One block of 500 pulses, about a fifth of them live, with phase
    jitter ``sigma`` and ``drift``."""
    defaults = dict(
        encoder=EncoderConfig(phase_jitter_sigma=sigma, drift=drift),
        repetition_rate_hz=1e4,
        duration_s=0.05,
        window_s=0.01,
        sequence_seed=11,
        detection_seed=12,
    )
    defaults.update(kw)
    return RunConfig(**defaults)


def _linear(amplitude=0.0, rate=0.0):
    return DriftProfile(DRIFT_LINEAR, amplitude_rad=amplitude, rate_rad_per_s=rate)


# Each term of phase_bound just below PHASE_RANGE (the phase difference runs
# on the live pulses), just above it (on the whole block, in range) and far
# above it (on the whole block, which overflows), with the operation whose
# overflow each pipeline, loop and inline, reports, as the kernel reported
# it when the phase difference ran on every pulse.
RANGE_CASES = {
    "sigma-below": (range_config(sigma=2e299), "live", None, None),
    "sigma-above": (range_config(sigma=5e299), "block", None, None),
    "sigma-overflow": (range_config(sigma=1e308), "block", "multiply", "multiply"),
    # 2 pi t / period_s
    "period-below": (range_config(DriftProfile.sinusoidal(1.0, 1e-300)), "live", None, None),
    "period-above": (range_config(DriftProfile.sinusoidal(1.0, 1e-301)), "block", None, None),
    "period-overflow": (range_config(DriftProfile.sinusoidal(1.0, 1e-309)), "block", "divide", "divide"),
    # a period short enough that the two transits see unrelated drift
    "sin-amplitude-below": (range_config(DriftProfile.sinusoidal(3e299, 3e-9)), "live", None, None),
    "sin-amplitude-above": (range_config(DriftProfile.sinusoidal(6e299, 3e-9)), "block", None, None),
    "sin-amplitude-overflow": (range_config(DriftProfile.sinusoidal(1e308, 3e-9)), "block", "subtract", "subtract"),
    "rate-below": (range_config(_linear(rate=9e300)), "live", None, None),
    "rate-above": (range_config(_linear(rate=2e301)), "block", None, None),
    # only the inline modulator's rate * t overflows, after 1.8 s
    "rate-overflow": (
        range_config(_linear(rate=1e308), repetition_rate_hz=100.0, duration_s=3.0, window_s=1.0),
        "block",
        None,
        "multiply",
    ),
    "linear-amplitude-below": (range_config(_linear(amplitude=8e299)), "live", None, None),
    "linear-amplitude-above": (range_config(_linear(amplitude=2e300)), "block", None, None),
    "linear-amplitude-overflow": (range_config(_linear(amplitude=1.79e308, rate=1.7e308)), "block", None, "add"),
}


def _series_or_error(run):
    try:
        return [result.series for result in run()]
    except ConfigurationError as exc:
        return str(exc)


@pytest.mark.parametrize("config, path, loop_error, inline_error", RANGE_CASES.values(), ids=RANGE_CASES)
def test_range_proof_keeps_every_result_and_error(config, path, loop_error, inline_error):
    n = config.n_pulses()
    for inline_flags, run in [
        ((False,), lambda: [run_experiment(config)]),
        ((False, True), lambda: drift_comparison(config, config.encoder.drift)),
    ]:
        sizes, largest = [], [0.0]

        def spy(codes, *args, formula=phase_difference):
            sizes.append(np.size(codes))
            x = formula(codes, *args)
            largest.append(float(np.max(np.abs(x), initial=0.0)))
            return x

        with mock.patch.object(runner, "phase_difference", spy):
            got = _series_or_error(run)
        # the kernel before the range proof: the phase difference of every pulse
        with mock.patch.object(runner, "phase_bound", lambda *args: math.inf):
            assert _series_or_error(run) == got
        assert all(size < n for size in sizes) if path == "live" else set(sizes) == {n}
        error = loop_error if inline_flags == (False,) else loop_error or inline_error
        if error is not None:
            assert got == f"the configuration takes the simulation out of floating-point range: overflow encountered in {error}"
        elif max(largest) < 1e6:
            # the per-pulse reference adds the analyzer's offset to the phase on
            # another path, which parts from the closed form at huge phases
            assert got == [window_reversed_series(config, inline) for inline in inline_flags]


def _magnitudes():
    """Zero, ordinary and huge values, those near PHASE_RANGE included."""
    return st.one_of(
        st.just(0.0),
        st.floats(-6.0, 308.2).map(lambda e: 10.0**e),
        st.sampled_from([1e299, 3e299, 1e300, 1.7e308]),
    )


@st.composite
def range_proof_cases(draw):
    kind = draw(st.sampled_from([DRIFT_NONE, DRIFT_LINEAR, DRIFT_SINUSOIDAL]))
    sign = draw(st.sampled_from([-1.0, 1.0]))
    if kind == DRIFT_SINUSOIDAL:
        period = 10.0 ** draw(st.floats(-310.0, 10.0))
        drift = DriftProfile.sinusoidal(draw(_magnitudes()), period)
    else:
        drift = DriftProfile(kind, amplitude_rad=sign * draw(_magnitudes()), rate_rad_per_s=-sign * draw(_magnitudes()))
    enc = EncoderConfig(
        delta_l_m=draw(st.floats(1.0, 1e9)),
        phase_jitter_sigma=draw(_magnitudes()),
        drive_jitter_sigma=draw(_magnitudes()),
        elements=ElementParams(pc_phase_phi0=sign * draw(_magnitudes()), pc_misalignment_eps=draw(_magnitudes())),
        drift=drift,
    )
    return enc, 10.0 ** draw(st.floats(-6.0, 6.0)), draw(st.floats(0.0, 8.0)), draw(st.integers(0, 2**32))


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(range_proof_cases())
def test_phase_bound_covers_the_phase_difference(case):
    enc, t_max, z_max, seed = case
    bound = phase_bound(enc, t_max, z_max)
    assert bound < PHASE_RANGE or bound == math.inf
    if bound == math.inf:
        return
    rng = np.random.default_rng(seed)
    n = 256
    codes = rng.integers(0, 4, size=n)
    # the extremes of times and normals included
    t = np.append(rng.uniform(0.0, t_max, size=n - 2), [0.0, t_max])
    normals = np.append(rng.uniform(-z_max, z_max, size=n - 2), [z_max, -z_max])
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        for inline in (False, True):
            x = phase_difference(codes, t, normals, enc, inline)
            assert np.max(np.abs(x)) <= bound


@pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64 + 3])
def test_window_streams_equal_default_rng(seed):
    # the first windows, and the last ones below the cap
    feed = runner._seed_feed()
    for lo, hi in [(0, 40), (runner._MAX_WINDOWS - 40, runner._MAX_WINDOWS)]:
        roles = runner._window_streams(seed, lo, hi)
        assert roles.shape == (2, hi - lo, 4) and roles.dtype == np.uint64
        for (k, words), w in product(enumerate(roles), range(lo, hi)):
            feed.words = words[w - lo]
            rng = np.random.Generator(np.random.PCG64(feed))
            oracle = np.random.default_rng((seed, w, k))
            assert rng.bit_generator.state == oracle.bit_generator.state
            np.testing.assert_array_equal(rng.standard_normal(5), oracle.standard_normal(5))
            np.testing.assert_array_equal(rng.random(5), oracle.random(5))


# Runs a fig2 run of 2.4 M pulses twice in a fresh interpreter, whose
# glibc mmap threshold has not been raised by a large free, and prints the
# second run's minor page faults per block.
FAULT_PROBE = """
import resource
from dataclasses import replace
from pognac import presets, runner
config = presets.preset_config("fig2")
config = replace(config, duration_s=4 * config.duration_s, window_s=4 * config.window_s)
runner._BLOCK = {block}
runner.run_experiment(config)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
runner.run_experiment(config)
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / -(-config.n_pulses() // (2 * runner._BLOCK)))
"""


def block_faults(block):
    # the probe measures glibc's default allocator, so no malloc tuning from the environment
    env = {k: v for k, v in os.environ.items() if not k.startswith("MALLOC_") and k != "GLIBC_TUNABLES"}
    env["PYTHONPATH"] = str(Path(runner.__file__).parents[1])
    code = FAULT_PROBE.format(block=block)
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return float(proc.stdout)


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc's mmap threshold")
def test_blocks_stay_under_the_mmap_threshold():
    # fig2's click bound is 0.22, so its blocks hold 2 * _BLOCK pulses. The
    # second run took 2.2 faults per block at _BLOCK = 8192, 1.3 at 8160 and
    # 2.3 at 8100, the same in four fresh interpreters each, and 12.9 at
    # 12000 and 47 at 16384, whose float64 temporaries are mapped, or trimmed
    # from the heap, per block (2-vCPU VM, python 3.11.7, numpy 2.4.6). An
    # allocator that pages in nothing per block even at twice _BLOCK cannot
    # show a crossing.
    bound = 6
    if block_faults(2 * runner._BLOCK) < bound:
        pytest.skip("no per-block page faults at twice _BLOCK: the allocator keeps even those temporaries")
    assert block_faults(runner._BLOCK) < bound


def test_block_windows_out_of_range_fails_as_numpy_does():
    # a block end past the int64 range takes numpy's path: under the kernel's
    # error state a FloatingPointError, which the run reports as a config
    # error, never an OverflowError from int()
    for start, stop, rate, window_s in [(0, 2, 1e-320, 1.0), (3, 5, 1.0, 5e-324), (0, 2, 1.0, 1e-300)]:
        with np.errstate(over="raise", invalid="raise", divide="raise"), pytest.raises(FloatingPointError):
            runner._block_windows(start, stop, rate, window_s, None)


def test_windows_without_pulses_skip_their_streams(monkeypatch):
    # a pulse every 1 ms, windows of 0.3 ms: most windows hold no pulse
    config = random_policy_config(repetition_rate_hz=1e3, duration_s=0.05, window_s=3e-4)
    expected = window_reversed_series(config, inline=False)
    assert run_experiment(config).series == expected
    # pulses in windows 0, 3, 6, 10, 13, ...: with seed batches of 3 windows
    # every batch holds one such window, with batches of 7 up to three, and
    # windows without pulses straddle the batch boundaries
    for batch in (3, 7):
        monkeypatch.setattr(runner, "_SEED_BATCH", batch)
        assert run_experiment(config).series == expected


@st.composite
def block_windows_cases(draw):
    kind = draw(st.sampled_from(["shorter than a pulse period", "non-integral", "grid"]))
    if kind == "grid":
        # a whole number of pulses per window, as the presets' decimal grids have
        rate = draw(st.sampled_from([1e3, 1e4, 1e5, 1e6, 1e7, 1e9]))
        window_s = draw(st.integers(1, 300)) * draw(st.sampled_from([1e-6, 1e-4, 1e-3, 1e-2, 0.1, 1.0, 3.0]))
    else:
        rate = 10.0 ** draw(st.floats(0.0, 10.0))
        exponent = draw(st.floats(-4.0, 0.0) if kind == "shorter than a pulse period" else st.floats(0.0, 4.0))
        window_s = 10.0**exponent / rate
    start = draw(st.sampled_from([0, 10**4, 10**7, 10**9, 10**11])) + draw(st.integers(0, 10**5))
    # at most one block of pulses, so memory stays bounded whatever the draw
    stop = start + draw(st.sampled_from([2 * runner._BLOCK, runner._BLOCK, runner._BLOCK - 1, 1000, 7, 2, 1]))
    return rate, window_s, start, stop


@settings(max_examples=600, deadline=None, derandomize=True, database=None)
@given(block_windows_cases())
def test_block_windows_match_the_per_pulse_formula(case):
    rate, window_s, start, stop = case
    expected = runner._windows(np.arange(start, stop) / rate, window_s)
    lo, hi = int(expected[0]), int(expected[-1])
    sizes = []

    def windows(t, window_s, formula=runner._windows):
        sizes.append(np.size(t))
        return formula(t, window_s)

    # the pulse at which each later window of the block begins, bracketed at
    # five pulses around each predicted boundary, _SEED_BATCH windows at a time
    if hi - lo < stop - start:
        with mock.patch.object(runner, "_windows", windows):
            firsts = runner._first_pulses(lo + 1, hi + 1, rate, window_s)
        np.testing.assert_array_equal(firsts, start + np.searchsorted(expected, np.arange(lo + 1, hi + 1)))
        assert sum(sizes) == 5 * (hi - lo) and max(sizes, default=0) <= 5 * runner._SEED_BATCH
    # a block's two ends are evaluated on Python floats; a block that spans
    # windows slices its runs from the first pulses of the run's windows,
    # where they are given from window 0 (here while they are few), and
    # otherwise evaluates the formula pulse by pulse
    run_firsts = [None]
    if hi < 1 << 16:
        run_firsts.append(runner._first_pulses(0, hi + 1, rate, window_s))
    for firsts in run_firsts:
        sizes.clear()
        with mock.patch.object(runner, "_windows", windows):
            edges, ids = runner._block_windows(start, stop, rate, window_s, firsts)
        np.testing.assert_array_equal(np.repeat(ids, np.diff(edges)), expected)
        run_starts = np.flatnonzero(np.diff(expected)) + 1
        np.testing.assert_array_equal(edges, np.concatenate(([0], run_starts, [stop - start])))
        np.testing.assert_array_equal(ids, expected[edges[:-1]])
        assert sizes == ([] if lo == hi or firsts is not None else [stop - start])


def rendered_row_by_row(rows):
    """The CSV as it was rendered from one WindowRow per line."""
    lines = ["window_start_s,sent_label,n_correct,n_error,n_discarded,qber"]
    lines += [
        f"{r.window_start_s!r},{r.sent_label},{r.n_correct},{r.n_error},{r.n_discarded},{r.qber!r}" for r in rows
    ]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize(
    "config",
    [
        random_policy_config(),
        # about one photon in ten pulses, ten pulses per window: many empty cells
        quiet_config(duration_s=0.3, window_s=1e-3),
        # a pulse every 1 ms, windows of 0.3 ms: most windows hold no pulse
        random_policy_config(repetition_rate_hz=1e3, duration_s=0.05, window_s=3e-4),
    ],
    ids=["random", "discard-empty-cells", "sparse"],
)
def test_csv_and_rows_follow_the_columns(config):
    series = run_experiment(config).series
    n_windows = len(series.outcome_counts)
    assert len(series.correct) == len(series.error) == len(series.discarded) == n_windows
    correct, error, discarded = (a.tolist() for a in (series.correct, series.error, series.discarded))
    rows = [
        runner.WindowRow(w * config.window_s, label, correct[w][i], error[w][i], discarded[w][i])
        for w in range(n_windows)
        for i, label in enumerate(series.labels)
    ]
    assert series.rows == tuple(rows)
    assert series.to_csv() == rendered_row_by_row(rows)
    for label, stats in series.label_stats().items():
        mine = [r for r in rows if r.sent_label == label]
        assert (stats.n_correct, stats.n_error, stats.n_discarded) == tuple(
            sum(getattr(r, f) for r in mine) for f in ("n_correct", "n_error", "n_discarded")
        )
    if config.detector.double_click_policy == "discard":
        assert any(math.isnan(r.qber) for r in rows)
        assert "nan" in series.to_csv()


def test_series_columns_are_read_only_int64():
    series = run_experiment(random_policy_config()).series
    n_windows = 30
    for name, width in [("correct", 3), ("error", 3), ("discarded", 3), ("outcome_counts", 4)]:
        column = getattr(series, name)
        assert column.dtype == np.int64 and column.shape == (n_windows, width)
        with pytest.raises(ValueError, match="read-only"):
            column[0, 0] = 1


def test_series_equality_compares_every_column():
    config = random_policy_config()
    series = run_experiment(config).series
    assert series == run_experiment(config).series
    assert not series != run_experiment(config).series
    assert series != replace(series, labels=("H", "V", "A"))
    assert series != replace(series, window_s=0.02)
    for name in ("correct", "error", "discarded", "outcome_counts"):
        column = getattr(series, name).copy()
        column[-1, -1] += 1
        assert series != replace(series, **{name: column})
    assert series != "a series"
    assert not series == None  # noqa: E711
    with pytest.raises(TypeError, match="unhashable type: 'QberSeries'"):
        hash(series)


def test_rows_and_label_stats_are_python_numbers():
    series = run_experiment(random_policy_config()).series
    for row in series.rows:
        assert type(row.window_start_s) is float and type(row.qber) is float
        assert {type(row.n_correct), type(row.n_error), type(row.n_discarded)} == {int}
    for stats in series.label_stats().values():
        assert {type(stats.n_correct), type(stats.n_error), type(stats.n_discarded)} == {int}
        assert type(stats.qber) is float and type(stats.stderr) is float


def test_csv_chunks_join_to_the_row_by_row_render():
    # about one photon in ten pulses, and 2.5 windows per pulse period: most
    # windows hold no pulse, and more of the others hold no click
    config = quiet_config(repetition_rate_hz=1e5, duration_s=0.04, window_s=4e-6)
    series = run_experiment(config).series
    n_windows = len(series.correct)
    assert n_windows > runner._CSV_WINDOWS
    assert (series.outcome_counts.sum(axis=1) == 0).any()
    rows = series.rows
    assert any(math.isnan(r.qber) for r in rows)
    chunks = list(series.csv_chunks())
    assert len(chunks) == 1 + math.ceil(n_windows / runner._CSV_WINDOWS)
    assert "".join(chunks) == series.to_csv() == rendered_row_by_row(rows)
    with mock.patch.object(runner, "_CSV_WINDOWS", 7):
        assert "".join(series.csv_chunks()) == series.to_csv()
