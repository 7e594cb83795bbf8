import math
from dataclasses import fields, is_dataclass

import numpy as np
import pytest

from pognac.encoder import (
    DriftProfile,
    ElementParams,
    EncoderConfig,
    PatternSpec,
    Segment,
    loop_transit_lead,
    pattern_for_state,
    phase_from_voltage,
    phases_from_waveform,
    quantize_delay,
)
from pognac.errors import ConfigurationError
from pognac.polarization import H
from pognac.receiver import DetectorParams, branch_powers, click_probabilities
from pognac.runner import SEQUENCE_HVD, RunConfig, generate_sequence, sift_and_qber

NAN, INF = math.nan, math.inf
_CONFIG_CLASSES = (RunConfig, EncoderConfig, ElementParams, DriftProfile, DetectorParams, PatternSpec)


def _leaf_fields(obj):
    for f in fields(obj):
        value = getattr(obj, f.name)
        if is_dataclass(value):
            yield from _leaf_fields(value)
        else:
            yield f


def test_non_finite_config_values_are_rejected_at_construction():
    leaves = list(_leaf_fields(RunConfig()))
    assert len(leaves) == 31
    assert [f.name for f in leaves if "rule" not in f.metadata] == []

    checked = 0
    for cls in _CONFIG_CLASSES:
        for f in fields(cls):
            if not isinstance(f.default, float):
                continue
            for value in (NAN, INF, -INF):
                if (f.name, value) == ("pbs_extinction_db", INF):  # an ideal PBS
                    assert cls(pbs_extinction_db=INF).pbs_extinction_db == INF
                    continue
                with pytest.raises(ConfigurationError, match=f"^{f.name} must be "):
                    cls(**{f.name: value})
                checked += 1
    # the 23 float leaves of RunConfig (PatternSpec's two among them, as
    # EncoderConfig.drive), three values each, less the ideal PBS
    assert checked == 3 * 23 - 1


def _phases(pulse, fwhm=1.2e-9):
    return phases_from_waveform(pulse, 0.0, 5e-9, 4.0, fwhm)


@pytest.mark.parametrize(
    "call, message",
    [
        pytest.param(lambda: click_probabilities(H, NAN, DetectorParams()), "mean photon number", id="mu"),
        pytest.param(lambda: branch_powers(1.0, 0.0, 0.0, 0.0, "XY"), "basis", id="basis"),
        pytest.param(lambda: loop_transit_lead(NAN, 1.45), "delta_l_m", id="lead-length"),
        pytest.param(lambda: loop_transit_lead(1.0, NAN), "fiber_index", id="lead-index"),
        pytest.param(lambda: loop_transit_lead(1.0, 0.5), "fiber_index", id="lead-index-below-1"),
        pytest.param(lambda: phase_from_voltage(1.0, NAN), "modulator vpi", id="vpi"),
        pytest.param(lambda: _phases(None, fwhm=NAN), "optical FWHM", id="fwhm"),
        pytest.param(lambda: _phases(Segment(NAN, 1e-9, 1.0)), "segment start", id="segment-start"),
        pytest.param(lambda: _phases(Segment(0.0, NAN, 1.0)), "segment duration", id="segment-duration"),
        pytest.param(lambda: _phases(Segment(0.0, 1e-9, INF)), "segment level", id="segment-level"),
        pytest.param(lambda: quantize_delay(1e-9, INF), "granularity", id="granularity"),
        pytest.param(lambda: pattern_for_state("L", PatternSpec(), 0.0, 5e-9, NAN), "vpi", id="pattern-vpi"),
        pytest.param(lambda: sift_and_qber([], ["D", "A"], NAN, 2.0), "window_s", id="window"),
        pytest.param(lambda: sift_and_qber([], ["D", "A"], 1.0, INF), "repetition_rate_hz", id="rate"),
        pytest.param(lambda: generate_sequence(SEQUENCE_HVD, 4, -1), "seed", id="seed"),
        pytest.param(lambda: generate_sequence(SEQUENCE_HVD, 4, 2.0), "seed", id="seed-float"),
        pytest.param(lambda: RunConfig(detection_seed=2.7), "detection_seed", id="seed-fraction"),
        pytest.param(lambda: RunConfig(sequence_seed=True), "sequence_seed", id="seed-bool"),
        pytest.param(lambda: sift_and_qber([], ["D"], 1.0, 1.0, assignment_seed=-1), "assignment_seed", id="coin-seed"),
        pytest.param(
            lambda: sift_and_qber([], ["D"], 1.0, 1.0, "random", assignment_seed=2.7),
            "assignment_seed",
            id="coin-seed-fraction",
        ),
        pytest.param(lambda: DetectorParams(double_click_policy="coin"), "double_click_policy", id="policy"),
        pytest.param(lambda: DetectorParams(efficiency=-0.5), "efficiency", id="qber-efficiency"),
        pytest.param(lambda: DetectorParams(dark_count_prob_per_gate=2.0), "dark_count_prob_per_gate", id="qber-dark"),
    ],
)
def test_entry_points_reject_out_of_range_values(call, message):
    with pytest.raises(ConfigurationError, match=f"^{message} must be "):
        call()


def test_numpy_integer_seeds_pass():
    assert RunConfig(detection_seed=np.int64(7), sequence_seed=np.uint32(8)).detection_seed == 7
    assert generate_sequence(SEQUENCE_HVD, 4, np.int64(3)) == generate_sequence(SEQUENCE_HVD, 4, 3)
