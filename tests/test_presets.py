import math
from dataclasses import replace
from functools import cache
from pathlib import Path

import pytest

from pognac.cli import parse_config
from pognac.encoder import MODE_FOUR_LEVEL
from pognac.errors import ConfigurationError
from pognac.presets import REFERENCE_QBER, expected_qber, preset_config, preset_expected_qber
from pognac.receiver import DetectorParams
from pognac.runner import run_experiment

SHORT_WINDOWS_CFG = Path(__file__).parents[1] / "perfbench" / "short_windows.cfg"


# Presets with one drive or controller knob moved, so a label's phase
# difference leaves its nominal value or wraps by 2 pi: (preset, encoder edit).
VARIANTS = {
    "fig2-phi0": ("fig2", lambda enc: replace(enc, elements=replace(enc.elements, pc_phase_phi0=0.3))),
    "fig2-wide-pulse": ("fig2", lambda enc: replace(enc, optical_fwhm_s=2.6e-9)),
    "fig2-four-level": ("fig2", lambda enc: replace(enc, drive=replace(enc.drive, mode=MODE_FOUR_LEVEL))),
    "fig4-ccw-a": ("fig4", lambda enc: replace(enc, drive=replace(enc.drive, a_pulse_direction="ccw"))),
}


@cache
def config_and_summary(name):
    """Run config and run summary of a preset, of a VARIANTS entry, or of
    the benchmark's short_windows config (random double-click policy), each
    at its own seeds."""
    if name == "short_windows":
        config = parse_config(SHORT_WINDOWS_CFG.read_text())
    elif name in VARIANTS:
        base, edit = VARIANTS[name]
        config = preset_config(base)
        config = replace(config, encoder=edit(config.encoder))
    else:
        config = preset_config(name)
    return config, run_experiment(config).summary


@pytest.mark.parametrize(
    "name, label",
    [
        ("fig2", "H"),
        ("fig2", "V"),
        ("fig4", "D"),
        ("fig4", "A"),
        ("short_windows", "D"),
        ("short_windows", "A"),
        ("fig2-phi0", "H"),
        ("fig2-phi0", "V"),
        ("fig2-wide-pulse", "H"),
        ("fig2-wide-pulse", "V"),
        ("fig2-four-level", "V"),
        ("fig4-ccw-a", "A"),
    ],
)
def test_expected_qber_matches_the_run_under_either_policy(name, label):
    config, summary = config_and_summary(name)
    stats = summary[label]
    n = stats.n_correct + stats.n_error
    q0 = preset_expected_qber(config, label)
    z = (stats.n_error / n - q0) / math.sqrt(q0 * (1.0 - q0) / n)
    assert abs(z) <= 5.0


def test_discard_expectation_keeps_the_calibrated_values():
    # values of the discard-only model the preset jitters were solved against
    pinned = {
        ("fig2", "H"): 0.0116179146408328,
        ("fig2", "V"): 0.0116179146408328,
        ("fig3", "D"): 0.011204131061686311,
        ("fig4", "D"): 0.0013016278605494193,
        ("fig4", "A"): 0.002002849435202832,
    }
    assert pinned.keys() == REFERENCE_QBER.keys()
    for (name, label), value in pinned.items():
        assert preset_expected_qber(preset_config(name), label) == value


@pytest.mark.parametrize(
    "name, label",
    [("fig2", "D"), ("fig2", "A"), ("fig3", "H"), ("fig4", "V"), ("fig2", "L"), ("fig2", "HV"), ("fig2", "")],
)
def test_expectation_rejects_labels_outside_their_own_basis(name, label):
    # fig2 measures D near 0.5, so an in-basis expectation for it would mislead
    with pytest.raises(ConfigurationError, match="not measured in its own basis"):
        preset_expected_qber(preset_config(name), label)


@pytest.mark.parametrize("policy", ["discard", "random"])
def test_expectation_is_nan_when_no_click_is_possible(policy):
    assert math.isnan(expected_qber(0.0, DetectorParams(0.5, 0.0, double_click_policy=policy), 0.1))
    assert math.isnan(expected_qber(1.0, DetectorParams(0.0, 0.0, double_click_policy=policy), 0.1))
