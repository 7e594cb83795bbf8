"""Free-space analyzer (half-wave plate + PBS) and single-photon detection
statistics for attenuated coherent pulses.

Two detectors, one per analyzer port, click independently. Each pulse ends
in exactly one of four outcomes: a single click on either branch, a double
click, or nothing. ``joint_probabilities`` and ``sample_outcomes`` are the
array kernel; ``click_probabilities`` and ``simulate_detection`` apply it
to one pulse.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .elements import make_hwp
from .encoder import EmittedPulse
from .errors import ConfigurationError
from .polarization import transform

BASIS_HV = "HV"
BASIS_DA = "DA"

OUTCOME_CLICK_0 = "click_0"
OUTCOME_CLICK_1 = "click_1"
OUTCOME_DOUBLE = "double"
OUTCOME_NONE = "none"

# Outcome of each uint8 outcome code.
OUTCOMES = (OUTCOME_CLICK_0, OUTCOME_CLICK_1, OUTCOME_DOUBLE, OUTCOME_NONE)

POLICY_DISCARD = "discard"
POLICY_RANDOM = "random"

# Analyzer branches: HWP at 0 (HV) or pi/8 (DA) followed by an ideal PBS.
# Branch 0 is the transmitted port (H after the plate), branch 1 the
# reflected port; the effective projection bras are the HWP matrix rows.
_ANALYZER = {BASIS_HV: make_hwp(0.0), BASIS_DA: make_hwp(math.pi / 8.0)}


@dataclass(frozen=True)
class DetectorParams:
    """Analyzer basis and detector behaviour.

    double_click_policy controls sifting later on: "discard" drops double
    clicks from the QBER tally (the conservative default), "random" assigns
    them to a branch with a fair coin.
    """

    efficiency: float = 0.5
    dark_count_prob_per_gate: float = 1e-5
    basis: str = BASIS_HV
    double_click_policy: str = POLICY_DISCARD

    def __post_init__(self):
        if not 0.0 <= self.efficiency <= 1.0:
            raise ConfigurationError(f"efficiency must be in [0, 1], got {self.efficiency}")
        if not 0.0 <= self.dark_count_prob_per_gate <= 1.0:
            raise ConfigurationError(
                f"dark_count_prob_per_gate must be in [0, 1], got {self.dark_count_prob_per_gate}"
            )
        if self.basis not in (BASIS_HV, BASIS_DA):
            raise ConfigurationError(f"basis must be HV or DA, got {self.basis!r}")
        if self.double_click_policy not in (POLICY_DISCARD, POLICY_RANDOM):
            raise ConfigurationError(
                f"double_click_policy must be discard or random, got {self.double_click_policy!r}"
            )


class ClickProbabilities(NamedTuple):
    click_0: float
    click_1: float
    double: float
    none: float


class DetectionRecord(NamedTuple):
    pulse_index: int
    sent_label: str
    basis: str
    outcome: str


def joint_probabilities(h_re, h_im, v_re, v_im, mu: float, params: DetectorParams):
    """Exclusive outcome probabilities (click_0, click_1, double, none) of
    pulses in states (h, v) with mean photon number ``mu``.

    The analyzer projects each state onto the two branch powers q0, q1; each
    detector then fires with marginal 1 - (1 - d) exp(-mu eta q). The four
    outcomes are mutually exclusive and sum to one. Amplitudes may be
    floats or arrays.
    """
    if mu < 0.0:
        raise ConfigurationError(f"mean photon number must be >= 0, got {mu}")
    a0_re, a0_im, a1_re, a1_im = transform(_ANALYZER[params.basis], h_re, h_im, v_re, v_im)
    q0 = a0_re * a0_re + a0_im * a0_im
    q1 = a1_re * a1_re + a1_im * a1_im
    gain = mu * params.efficiency
    keep = 1.0 - params.dark_count_prob_per_gate
    p0 = 1.0 - keep * np.exp(-gain * q0)
    p1 = 1.0 - keep * np.exp(-gain * q1)
    return p0 * (1.0 - p1), p1 * (1.0 - p0), p0 * p1, (1.0 - p0) * (1.0 - p1)


def sample_outcomes(probabilities, u):
    """Outcome codes (index into OUTCOMES) for uniform draws ``u``: the first
    outcome whose cumulative probability exceeds u, none when no click does."""
    c0, c1, double, _ = probabilities
    c01 = c0 + c1
    return 3 - (u < c0) - (u < c01) - (u < c01 + double)


def click_probabilities(state, mu: float, params: DetectorParams) -> ClickProbabilities:
    """joint_probabilities for one pulse in Jones state ``state``."""
    p = joint_probabilities(state.h.real, state.h.imag, state.v.real, state.v.imag, mu, params)
    return ClickProbabilities(*map(float, p))


def simulate_detection(
    pulse: EmittedPulse,
    params: DetectorParams,
    rng_seed,
    pulse_index: int = 0,
) -> DetectionRecord:
    """Sample one joint detection outcome; deterministic given ``rng_seed``
    (a seed or a hot Generator)."""
    p = click_probabilities(pulse.state, pulse.mean_photon_number, params)
    code = sample_outcomes(p, np.random.default_rng(rng_seed).random())
    return DetectionRecord(pulse_index, pulse.sent_label, params.basis, OUTCOMES[code])
