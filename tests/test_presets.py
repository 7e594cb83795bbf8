import itertools
import math
import warnings
from dataclasses import replace
from functools import cache
from pathlib import Path

import numpy as np
import pytest

from pognac.cli import parse_config
from pognac.encoder import LABEL_CODES, MODE_FOUR_LEVEL, NOMINAL_PHASE, label_table
from pognac.errors import ConfigurationError
from pognac.presets import PRESETS, REFERENCE_QBER, preset_config, preset_expected_qber
from pognac.receiver import POLICY_RANDOM
from pognac.runner import LABEL_ORDER, run_experiment

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
    # the expectations the preset jitters are calibrated against, as the
    # kernel chain computes them (closed_form_qber guards their values)
    pinned = {
        ("fig2", "H"): 0.011617914640832751,
        ("fig2", "V"): 0.011617914640832762,
        ("fig3", "D"): 0.011204131061686311,
        ("fig4", "D"): 0.0013016278605493521,
        ("fig4", "A"): 0.002002849435202787,
    }
    assert pinned.keys() == REFERENCE_QBER.keys()
    for (name, label), value in pinned.items():
        assert preset_expected_qber(preset_config(name), label) == value


def closed_form_qber(config, label):
    """The expected QBER written independently of the run kernel: the
    label's phase error e = sigma z + offset, with the offset its phase
    difference off the nominal one, less the controller frame, plus the
    loop's drift residual at pulse 0; the analyzer sends sin^2(e/2) to the
    error branch and cos^2(e/2) to the correct one. Gauss-Hermite
    quadrature over z."""
    enc, det = config.encoder, config.detector
    table = label_table(enc)
    code = LABEL_ORDER.index(label)
    nominal = NOMINAL_PHASE[LABEL_CODES[code]]
    residual = math.remainder(table.phi_e[code] - table.phi_l[code] - nominal, 2.0 * math.pi)
    offset = residual - table.frame + enc.drift.theta_diff(0.0, table.lead)
    nodes, weights = np.polynomial.hermite_e.hermegauss(81)
    weights = weights / math.sqrt(2.0 * math.pi)
    q_err = np.sin((table.sigma[code] * nodes + offset) / 2.0) ** 2
    keep, gain = 1.0 - det.dark_count_prob_per_gate, table.mu * det.efficiency
    p_err, p_corr = 1.0 - keep * np.exp(-gain * q_err), 1.0 - keep * np.exp(-gain * (1.0 - q_err))
    m_err = float(np.sum(weights * p_err * (1.0 - p_corr)))
    m_corr = float(np.sum(weights * p_corr * (1.0 - p_err)))
    if det.double_click_policy == POLICY_RANDOM:
        double = float(np.sum(weights * p_err * p_corr))
        return (m_err + double / 2.0) / (m_err + m_corr + double)
    return m_err / (m_err + m_corr)


def test_expectation_matches_the_closed_form():
    checked = 0
    for name in PRESETS:
        base = preset_config(name)
        for policy, phi0 in itertools.product(("discard", "random"), (0.0, 0.3, -2.5)):
            elements = replace(base.encoder.elements, pc_phase_phi0=phi0)
            config = replace(
                base,
                encoder=replace(base.encoder, elements=elements),
                detector=replace(base.detector, double_click_policy=policy),
            )
            for label in config.detector.basis:
                assert preset_expected_qber(config, label) == pytest.approx(
                    closed_form_qber(config, label), rel=1e-13, abs=0.0
                ), (name, label, policy, phi0)
                checked += 1
    assert checked == len(PRESETS) * 2 * 3 * 2


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
    config = preset_config("fig2")
    no_dark = replace(config.detector, dark_count_prob_per_gate=0.0, double_click_policy=policy)
    blind = replace(config, detector=replace(no_dark, efficiency=0.0))
    unlit = replace(config, detector=no_dark, encoder=replace(config.encoder, source_mean_photon_number=0.0))
    for no_click in (blind, unlit):
        assert math.isnan(preset_expected_qber(no_click, "H"))


def test_expectation_out_of_range_fails_as_a_run_does():
    config = preset_config("fig2")
    config = replace(config, encoder=replace(config.encoder, phase_jitter_sigma=1e308))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConfigurationError, match="out of floating-point range"):
            preset_expected_qber(config, "H")
        with pytest.raises(ConfigurationError, match="out of floating-point range"):
            run_experiment(replace(config, duration_s=0.3, window_s=0.3))
