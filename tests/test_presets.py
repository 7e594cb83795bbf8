import math
from functools import cache
from pathlib import Path

import pytest

from pognac.cli import parse_config
from pognac.presets import REFERENCE_QBER, preset_config, preset_expected_qber
from pognac.runner import run_experiment

SHORT_WINDOWS_CFG = Path(__file__).parents[1] / "perfbench" / "short_windows.cfg"


@cache
def config_and_summary(name):
    """Run config and run summary of a preset, or of the benchmark's
    short_windows config (random double-click policy) at its own seeds."""
    config = parse_config(SHORT_WINDOWS_CFG.read_text()) if name == "short_windows" else preset_config(name)
    return config, run_experiment(config).summary


@pytest.mark.parametrize(
    "name, label",
    [("fig2", "H"), ("fig2", "V"), ("fig4", "D"), ("fig4", "A"), ("short_windows", "D"), ("short_windows", "A")],
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
