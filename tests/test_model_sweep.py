"""Property sweep binding the analytic QBER to the run kernel over random
in-range configs.

Each drawn config runs about 10^5 pulses without drift; every label that
its analyzer measures in its own basis must land within a Bonferroni bound
of preset_expected_qber. On a few hundred pulses of the same config
emit_batch's states must also equal the Jones-vector chain bit for bit,
and the run kernel's closed-form branch powers must match the analyzer
applied to those states to within 1e-15.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from pognac.encoder import (
    LABEL_CODES,
    ElementParams,
    EncoderConfig,
    PatternSpec,
    emit_batch,
    loop_transit_lead,
    phase_difference,
)
from pognac.presets import preset_expected_qber
from pognac.receiver import DetectorParams, branch_powers, branch_probabilities
from pognac.runner import SEQUENCE_DA, SEQUENCE_HVD, RunConfig, run_experiment

from test_runner import scalar_emitter

EXAMPLES = 90
# Family-wise false-alarm rate of the whole sweep, shared by at most two
# in-basis labels per example (Bonferroni).
FAMILY_ALPHA = 1e-3
CHECK_ALPHA = FAMILY_ALPHA / (2 * EXAMPLES)
# Conditional on n sifted clicks, the errors of one label are Binomial(n, q):
# pulses of a label are independent and identically distributed without
# drift, and the random policy's coins are fair and independent. The
# Chernoff bound P(|z| >= b) <= 2 exp(-b^2 / 2) holds for the signed root
# of the likelihood-ratio statistic at any count, where the Wald z's
# normal tail understates rare-error labels with a handful of clicks.
Z_BOUND = math.sqrt(2.0 * math.log(2.0 / CHECK_ALPHA))


def _kl(p, q):
    """Relative entropy D(p || q) of two Bernoulli laws, inf where p puts
    mass that q does not."""

    def term(a, b):
        if a == 0.0:
            return 0.0
        return a * math.log(a / b) if b > 0.0 else math.inf

    return term(p, q) + term(1.0 - p, 1.0 - q)


def likelihood_ratio_z(n_error, n, q):
    """Signed root of the binomial likelihood-ratio statistic of n_error
    errors in n trials against error probability q."""
    p = n_error / n
    return math.copysign(math.sqrt(2.0 * n * _kl(p, q)), p - q)


@st.composite
def configs(draw):
    delta_l_m = draw(st.floats(0.3, 3.0))
    fiber_index = draw(st.floats(1.0, 1.8))
    lead = loop_transit_lead(delta_l_m, fiber_index)
    drive = PatternSpec(
        # below the transit lead, so the pulse addresses a single transit
        pulse_width=draw(st.floats(0.1, 0.9)) * lead,
        delay_granularity=draw(st.floats(10e-12, 500e-12)),
        mode=draw(st.sampled_from(["two-level", "four-level"])),
        a_pulse_direction=draw(st.sampled_from(["cw", "ccw"])),
    )
    elements = ElementParams(
        pc_phase_phi0=draw(st.floats(-math.pi, math.pi)),
        pc_misalignment_eps=draw(st.floats(-0.3, 0.3)),
        attenuator_loss_db=draw(st.floats(52.0, 74.0)),
    )
    encoder = EncoderConfig(
        delta_l_m=delta_l_m,
        fiber_index=fiber_index,
        optical_fwhm_s=draw(st.floats(0.2e-9, 3e-9)),
        drive=drive,
        phase_jitter_sigma=draw(st.floats(0.0, 0.5)),
        drive_jitter_sigma=draw(st.floats(0.0, 0.3)),
        elements=elements,
    )
    detector = DetectorParams(
        efficiency=draw(st.floats(0.05, 1.0)),
        dark_count_prob_per_gate=draw(st.floats(0.0, 1e-3)),
        basis=draw(st.sampled_from(["HV", "DA"])),
        double_click_policy=draw(st.sampled_from(["discard", "random"])),
    )
    # the alternating D/A stream sends no label the HV analyzer measures in its own basis
    modes = [SEQUENCE_HVD, SEQUENCE_DA] if detector.basis == "DA" else [SEQUENCE_HVD]
    return RunConfig(
        encoder=encoder,
        detector=detector,
        repetition_rate_hz=1e5,
        duration_s=1.0,
        window_s=0.25,
        sequence_mode=draw(st.sampled_from(modes)),
        sequence_seed=draw(st.integers(0, 2**32)),
        detection_seed=draw(st.integers(0, 2**32)),
    )


@settings(max_examples=EXAMPLES, deadline=None, derandomize=True, database=None)
@given(configs())
def test_expectation_and_kernel_agree_over_random_configs(config):
    enc = config.encoder
    rng = np.random.default_rng(config.detection_seed)
    codes = rng.integers(0, 4, size=300)
    for inline in (False, True):
        emit = scalar_emitter(enc, inline)
        ref_rng = np.random.default_rng(config.sequence_seed)
        expected = [emit(LABEL_CODES[c], 0.0, ref_rng).state for c in codes.tolist()]
        normals = np.random.default_rng(config.sequence_seed).standard_normal(len(codes))
        h_re, h_im, v_re, v_im = emit_batch(codes, np.zeros(len(codes)), normals, enc, inline)
        assert [complex(a, b) for a, b in zip(h_re.tolist(), h_im.tolist())] == [s.h for s in expected]
        assert [complex(a, b) for a, b in zip(v_re.tolist(), v_im.tolist())] == [s.v for s in expected]
        closed = branch_probabilities(phase_difference(codes, None, normals, enc, inline), config.detector.basis)
        jones = branch_powers(h_re, h_im, v_re, v_im, config.detector.basis)
        for q, ref in zip(closed, jones):
            assert np.max(np.abs(q - ref)) <= 1e-15

    summary = run_experiment(config).summary
    checked = [label for label in summary if label in config.detector.basis]
    assert checked
    for label in checked:
        stats = summary[label]
        n = stats.n_correct + stats.n_error
        z = likelihood_ratio_z(stats.n_error, n, preset_expected_qber(config, label))
        assert abs(z) <= Z_BOUND, (label, n, stats.n_error, z)
