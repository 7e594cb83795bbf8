import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pognac.encoder import (
    MODE_FOUR_LEVEL,
    MODE_TWO_LEVEL,
    PatternSpec,
    Segment,
    pattern_for_state,
    phases_from_waveform,
    quantize_delay,
)
from pognac.errors import ConfigurationError

NS = 1e-9
PS = 1e-12

SPEC = PatternSpec(pulse_width=3 * NS, delay_granularity=100 * PS)
CW = 10 * NS
CCW = CW + 4.836 * NS
VPI = 4.0


def test_quantize_zero():
    assert quantize_delay(0.0, 100 * PS) == 0.0


def test_quantize_tie_rounds_toward_zero():
    assert quantize_delay(250 * PS, 100 * PS) == pytest.approx(200 * PS, abs=1e-18)
    assert quantize_delay(-250 * PS, 100 * PS) == pytest.approx(-200 * PS, abs=1e-18)


def test_quantize_nearest():
    assert quantize_delay(4.93 * NS, 100 * PS) == pytest.approx(4.9 * NS, abs=1e-18)
    assert quantize_delay(4.96 * NS, 100 * PS) == pytest.approx(5.0 * NS, abs=1e-18)


@given(
    st.floats(min_value=-1e-6, max_value=1e-6, allow_nan=False),
    st.floats(min_value=1e-12, max_value=1e-9),
)
@settings(max_examples=200, deadline=None)
def test_quantize_idempotent_and_on_grid(requested, granularity):
    q = quantize_delay(requested, granularity)
    assert quantize_delay(q, granularity) == q
    steps = q / granularity
    assert steps == pytest.approx(round(steps), abs=1e-6)


def test_two_level_d_is_empty():
    assert pattern_for_state("D", SPEC, CW, CCW, VPI) is None


def test_two_level_l_pulses_cw():
    seg = pattern_for_state("L", SPEC, CW, CCW, VPI)
    assert seg is not None
    assert seg.level == pytest.approx(VPI / 2)
    assert seg.duration == pytest.approx(3 * NS)
    # centered on the CW arrival (10 ns start grid-aligned: 8.5 ns)
    assert seg.start == pytest.approx(CW - 1.5 * NS, abs=1e-15)
    assert seg.start + seg.duration / 2 == pytest.approx(CW, abs=1e-15)


def test_two_level_r_pulses_ccw():
    seg = pattern_for_state("R", SPEC, CW, CCW, VPI)
    assert seg.level == pytest.approx(VPI / 2)
    # start snaps to the 100 ps grid
    ideal = CCW - 1.5 * NS
    assert seg.start == pytest.approx(quantize_delay(ideal, 100 * PS), abs=1e-18)
    assert abs(seg.start - ideal) <= 50 * PS


def test_two_level_a_uses_full_wave_voltage():
    seg = pattern_for_state("A", SPEC, CW, CCW, VPI)
    assert seg.level == pytest.approx(VPI)
    assert seg.start + seg.duration / 2 == pytest.approx(CW, abs=1e-15)

    ccw_spec = PatternSpec(
        pulse_width=3 * NS, delay_granularity=100 * PS, a_pulse_direction="ccw"
    )
    seg = pattern_for_state("A", ccw_spec, CW, CCW, VPI)
    assert abs(seg.start + seg.duration / 2 - CCW) <= 50 * PS


def test_four_level_levels():
    spec = PatternSpec(pulse_width=3 * NS, delay_granularity=100 * PS, mode=MODE_FOUR_LEVEL)
    assert pattern_for_state("D", spec, CW, CCW, VPI) is None
    expected = {"L": VPI / 2, "A": VPI, "R": 1.5 * VPI}
    for label, level in expected.items():
        seg = pattern_for_state(label, spec, CW, CCW, VPI)
        assert seg.level == pytest.approx(level)
        assert seg.start + seg.duration / 2 == pytest.approx(CW, abs=1e-15)


def test_timing_precondition_error_names_overlap():
    with pytest.raises(ConfigurationError, match="only"):
        pattern_for_state("L", SPEC, CW, CW + 2 * NS, VPI)


def test_unknown_label_rejected():
    with pytest.raises(ConfigurationError):
        pattern_for_state("X", SPEC, CW, CCW, VPI)


@pytest.mark.parametrize("mode", [MODE_TWO_LEVEL, MODE_FOUR_LEVEL])
@pytest.mark.parametrize("label", ["D", "L", "R", "A"])
def test_addressing_discipline(mode, label):
    # at most one transit sees a nonzero drive level; the pulse is half-open
    spec = PatternSpec(pulse_width=3 * NS, delay_granularity=100 * PS, mode=mode)
    s = pattern_for_state(label, spec, CW, CCW, VPI)
    if s is not None:
        driven = [t for t in (CW, CCW) if s.level != 0.0 and s.start <= t < s.start + s.duration]
        assert len(driven) <= 1


def test_waveform_rejects_zero_duration():
    with pytest.raises(ConfigurationError):
        phases_from_waveform(Segment(0.0, 0.0, 1.0), CW, CCW, VPI, 1.2 * NS)


def test_pattern_spec_validation():
    with pytest.raises(ConfigurationError):
        PatternSpec(pulse_width=0.0)
    with pytest.raises(ConfigurationError):
        PatternSpec(delay_granularity=-1.0)
    with pytest.raises(ConfigurationError):
        PatternSpec(mode="three-level")
