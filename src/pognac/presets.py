"""Canned experiment scenarios emulating the reference bench runs of the
encoder, plus the analytic QBER expectation they are calibrated against.

Calibration targets (mean sifted QBER of the emulated hardware runs):

    pseudorandom H/V/D stream, HV analyzer:   H 1.23 %, V 1.10 %
    same stream, DA analyzer:                 D 1.12 %
    alternating D/A stream, DA analyzer:      D 0.13 %, A 0.20 %

The first two scenarios share one encoder state (only the analyzer plate
turns between them), so they share one calibration: the baseline jitter is
solved from the D target and the extra drive jitter lifts H/V to the
compromise 2*1.23*1.10/(1.23+1.10) = 1.161 % that sits within 6 % of both
measured values. The alternating-D/A run used a cleaner pulse generator and
gets its own, much smaller pair. Solved by scripts/calibrate_presets.py
against preset_expected_qber() below, the package's one analytic model: it
runs the run kernel's own chain at quadrature nodes, so rerun the script if
the model changes.
"""

from __future__ import annotations

import math
from functools import cache

import numpy as np

from .encoder import DriftProfile, EncoderConfig, label_table, phase_difference
from .errors import ConfigurationError
from .receiver import BASIS_DA, BASIS_HV, POLICY_DISCARD, DetectorParams, branch_probabilities, joint_probabilities
from .runner import CORRECT_BRANCH, LABEL_ORDER, SEQUENCE_DA, SEQUENCE_HVD, RunConfig, _out_of_range_is_a_config_error

# Solved jitter calibration, radians (see module docstring).
HVD_BASE_JITTER = 0.2259
HVD_DRIVE_JITTER = 0.0436
DA_BASE_JITTER = 0.0759
DA_DRIVE_JITTER = 0.0565

# Reference mean QBERs the presets emulate, by (preset, receiver label).
REFERENCE_QBER = {
    ("fig2", "H"): 0.0123,
    ("fig2", "V"): 0.0110,
    ("fig3", "D"): 0.0112,
    ("fig4", "D"): 0.0013,
    ("fig4", "A"): 0.0020,
}


@cache
def _quadrature():
    """Gauss-Hermite nodes and weights of the average over one standard
    normal draw, weights normalized to a probability measure."""
    nodes, weights = np.polynomial.hermite_e.hermegauss(81)
    return nodes, weights / math.sqrt(2.0 * math.pi)


def preset_expected_qber(config: RunConfig, sent_label: str) -> float:
    """Analytic mean sifted QBER of ``sent_label`` measured in its own basis
    under ``config``: the run kernel's chain, phase_difference ->
    branch_probabilities -> joint_probabilities, with Gauss-Hermite nodes
    as the normal draws (a drifting config is read at pulse 0 of the
    loop), then sifting. Discard: m_err / (m_err + m_corr) over the
    exclusive click masses; random: a fair coin gives each branch half of
    the double-click mass d, (m_err + d/2) / (m_err + m_corr + d). nan when
    no sifted click is possible, as for an empty window cell of a run. Any
    label not measured in its own basis is rejected, and a config out of
    floating-point range raises ConfigurationError, as a run of it does.
    """
    basis = config.detector.basis
    if sent_label not in LABEL_ORDER or sent_label not in basis:
        raise ConfigurationError(f"label {sent_label!r} is not measured in its own basis by the {basis} analyzer")
    code = LABEL_ORDER.index(sent_label)
    nodes, weights = _quadrature()
    mu = label_table(config.encoder).mu
    with _out_of_range_is_a_config_error():
        q0, q1 = branch_probabilities(phase_difference(code, 0.0, nodes, config.encoder), basis)
        c0, c1, double, _ = (float(np.sum(weights * p)) for p in joint_probabilities(q0, q1, mu, config.detector))
    correct, error = (c0, c1) if CORRECT_BRANCH[code] == 0 else (c1, c0)
    if config.detector.double_click_policy == POLICY_DISCARD:
        double = 0.0
    den = error + correct + double
    return (error + double / 2.0) / den if den else math.nan


def _preset(basis, mode, seeds, jitter, drift=DriftProfile(), rate_hz=1e4, duration_s=60.0) -> RunConfig:
    """One bench run: 3 s analysis windows, the analyzer ``basis``, the
    sequence ``mode``, (sequence, detection) ``seeds`` and (baseline,
    drive) ``jitter`` in radians."""
    return RunConfig(
        encoder=EncoderConfig(phase_jitter_sigma=jitter[0], drive_jitter_sigma=jitter[1], drift=drift),
        detector=DetectorParams(basis=basis),
        repetition_rate_hz=rate_hz,
        duration_s=duration_s,
        window_s=3.0,
        sequence_mode=mode,
        sequence_seed=seeds[0],
        detection_seed=seeds[1],
    )


_HVD_JITTER = (HVD_BASE_JITTER, HVD_DRIVE_JITTER)


def fig2_config() -> RunConfig:
    """Pseudorandom H/V/D stream analyzed in the HV basis."""
    return _preset(BASIS_HV, SEQUENCE_HVD, (101, 201), _HVD_JITTER)


def fig3_config() -> RunConfig:
    """Same encoder state as fig2, analyzer plate turned to the DA basis."""
    return _preset(BASIS_DA, SEQUENCE_HVD, (101, 202), _HVD_JITTER)


def fig4_config() -> RunConfig:
    """Alternating D/A stream with full-wave drive, analyzed in DA."""
    return _preset(BASIS_DA, SEQUENCE_DA, (104, 204), (DA_BASE_JITTER, DA_DRIVE_JITTER))


def drift_config() -> RunConfig:
    """Slow sinusoidal loop drift (amplitude pi over 10 minutes) for the
    loop-vs-inline comparison."""
    drift = DriftProfile.sinusoidal(math.pi, 600.0)
    return _preset(BASIS_HV, SEQUENCE_HVD, (105, 205), _HVD_JITTER, drift, rate_hz=1e3, duration_s=300.0)


PRESETS = {
    "fig2": fig2_config,
    "fig3": fig3_config,
    "fig4": fig4_config,
    "drift": drift_config,
}


def preset_config(name: str) -> RunConfig:
    try:
        return PRESETS[name]()
    except KeyError:
        raise ConfigurationError(
            f"unknown scenario {name!r}; expected one of {sorted(PRESETS)} or custom"
        ) from None
