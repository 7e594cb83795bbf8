"""Free-space analyzer (half-wave plate + PBS) and single-photon detection
statistics for attenuated coherent pulses. ``make_hwp`` builds the plate's
transfer matrix.

Two detectors, one per analyzer port, click independently. Each pulse ends
in exactly one of four outcomes: a single click on either branch, a double
click, or nothing. ``branch_probabilities`` (the analyzer, in closed form;
``branch_powers`` for any Jones state), ``click_marginals`` (the one copy
of the detectors' firing model), ``joint_probabilities`` and
``sample_outcomes`` are the array kernel; ``click_probabilities``,
``simulate_detection`` and ``presets.preset_expected_qber`` call the same model.
Each step is one expression path that takes floats and arrays alike, so
the per-pulse reference and the run kernel run the same code; a float
pulse gives numpy scalars. A step works in place only on arrays it made
itself, by augmented assignment, and never writes to an argument: the
drift pipelines share their inputs. It reorders an operation only where
IEEE arithmetic gives the same bits (a + b = b + a, a * b = b * a, and
1 - k*e as (e * -k) + 1). The chance of
no click does not depend on the pulse's phase, so ``click_bound`` reads it
from ``joint_probabilities`` once per run: a uniform draw at or above the
bound samples none for every pulse, and the run kernel runs the chain only
on draws below it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .encoder import OUTPUT_PC, EmittedPulse
from .errors import NONNEG, UNIT_INTERVAL, check_fields, one_of, ruled
from .polarization import TransferMatrix, transform

BASIS_HV = "HV"
BASIS_DA = "DA"
BASES = one_of(BASIS_HV, BASIS_DA)

OUTCOME_CLICK_0 = "click_0"
OUTCOME_CLICK_1 = "click_1"
OUTCOME_DOUBLE = "double"
OUTCOME_NONE = "none"

# Outcome of each uint8 outcome code.
OUTCOMES = (OUTCOME_CLICK_0, OUTCOME_CLICK_1, OUTCOME_DOUBLE, OUTCOME_NONE)

POLICY_DISCARD = "discard"
POLICY_RANDOM = "random"
POLICIES = one_of(POLICY_DISCARD, POLICY_RANDOM)

def make_hwp(angle: float) -> TransferMatrix:
    """Half-wave retarder with its fast axis at ``angle`` to horizontal.

    theta = 0 leaves |H> and |V> alone; theta = pi/8 swaps the {H, V} and
    {D, A} bases. Applying the same plate twice is the identity up to a
    global phase.
    """
    c = math.cos(2.0 * angle)
    s = math.sin(2.0 * angle)
    return TransferMatrix(np.array([[c, s], [s, -c]], dtype=complex))


# Analyzer branches: HWP at 0 (HV) or pi/8 (DA) followed by an ideal PBS.
# Branch 0 is the transmitted port (H after the plate), branch 1 the
# reflected port; the effective projection bras are the HWP matrix rows.
_ANALYZER = {BASIS_HV: make_hwp(0.0), BASIS_DA: make_hwp(math.pi / 8.0)}


def _branch_offset(basis: str) -> float:
    """Phase delta of the composite u = analyzer x output controller, as seen
    from branch 0: a loop state (|H> + e^{ix} |V>)/sqrt(2) sends branch 0 the
    power |u00 + u01 e^{ix}|^2 / 2 = (1 + cos(x + delta)) / 2, with
    delta = arg(u01 / u00), provided the row is balanced (|u00| = |u01|)."""
    u = _ANALYZER[basis].m @ OUTPUT_PC.m
    assert math.isclose(abs(u[0, 0]), abs(u[0, 1]), rel_tol=1e-15), f"unbalanced {basis} analyzer row {u[0]}"
    return float(np.angle(u[0, 1] / u[0, 0]))


# delta of each basis: -pi/2 for HV, 0 (to an ulp) for DA.
_BRANCH_OFFSET = {basis: _branch_offset(basis) for basis in _ANALYZER}


@dataclass(frozen=True)
class DetectorParams:
    """Analyzer basis and detector behaviour.

    double_click_policy controls sifting later on: "discard" drops double
    clicks from the QBER tally (the conservative default), "random" assigns
    them to a branch with a fair coin.
    """

    efficiency: float = ruled(0.5, UNIT_INTERVAL)
    dark_count_prob_per_gate: float = ruled(1e-5, UNIT_INTERVAL)
    basis: str = ruled(BASIS_HV, BASES)
    double_click_policy: str = ruled(POLICY_DISCARD, POLICIES)

    def __post_init__(self):
        check_fields(self)


class ClickProbabilities(NamedTuple):
    click_0: float
    click_1: float
    double: float
    none: float


class DetectionRecord(NamedTuple):
    pulse_index: int
    sent_label: str
    outcome: str


def branch_powers(h_re, h_im, v_re, v_im, basis: str):
    """Powers (q0, q1) that the ``basis`` analyzer sends to branches 0 and 1
    from states (h, v). Amplitudes may be floats or arrays."""
    a0_re, a0_im, a1_re, a1_im = transform(_ANALYZER[BASES.check("basis", basis)], h_re, h_im, v_re, v_im)
    return a0_re * a0_re + a0_im * a0_im, a1_re * a1_re + a1_im * a1_im


def branch_probabilities(x, basis: str):
    """Powers (q0, q1) that the ``basis`` analyzer sends to branches 0 and 1
    from loop states of phase difference ``x`` (encoder.phase_difference):
    branch_powers of the Jones states emit_batch builds, in closed form.
    ``x`` may be a float or an array."""
    c = np.cos(x + _BRANCH_OFFSET[BASES.check("basis", basis)])
    # 0.5 - 0.5 c as (c * -0.5) + 0.5, and 0.5 + 0.5 c in place on c
    q1 = c * -0.5
    q1 += 0.5
    c *= 0.5
    c += 0.5
    return c, q1


def click_marginals(q0, q1, mu: float, params: DetectorParams):
    """Firing probabilities (p0, p1) of the two detectors when branch powers
    q0, q1 of a pulse with mean photon number ``mu`` reach them: each fires
    with 1 - (1 - d) exp(-mu eta q), independently of the other."""
    NONNEG.check("mean photon number", mu)
    gain = mu * params.efficiency
    keep = 1.0 - params.dark_count_prob_per_gate
    # 1 - keep * e as (e * -keep) + 1, in place on e
    p0 = np.exp(q0 * -gain)
    p0 *= -keep
    p0 += 1.0
    p1 = np.exp(q1 * -gain)
    p1 *= -keep
    p1 += 1.0
    return p0, p1


def joint_probabilities(q0, q1, mu: float, params: DetectorParams):
    """Exclusive outcome probabilities (click_0, click_1, double, none) for
    branch powers q0, q1 (see branch_powers); they sum to one."""
    p0, p1 = click_marginals(q0, q1, mu, params)
    n0, n1 = 1.0 - p0, 1.0 - p1
    none = n0 * n1
    # the other three in place on p0, n0 and n1, which this step made
    n1 *= p0
    n0 *= p1
    p0 *= p1
    return n1, n0, p0, none


def click_bound(mu: float, params: DetectorParams) -> float:
    """A uniform draw at or above this bound samples no click, whatever the
    phase of the pulse of mean photon number ``mu``.

    The detectors fire independently, so neither does with probability
    (1 - p0)(1 - p1) = (1 - d)^2 exp(-mu eta (q0 + q1)) (see
    click_marginals), and q0 + q1 = 1 for every state: the chance of no
    click, (1 - d)^2 exp(-mu eta), is the same for every pulse, so it is
    read from joint_probabilities at q0 = 1, q1 = 0.
    sample_outcomes returns none whenever u >= c0 + c1 + double =
    1 - (1 - d)^2 exp(-mu eta), up to the rounding of the computed sum and
    of the bound, which the 1e-9 margin covers (over 400 random detectors x
    200 k phases in both bases, the computed sum was at most 3.6e-16 above
    the exact one, and the bound less its margin at most 2.3e-16 below it).
    """
    return 1.0 - float(joint_probabilities(1.0, 0.0, mu, params)[3]) + 1e-9


def sample_outcomes(probabilities, u):
    """Outcome codes (uint8, index into OUTCOMES) for uniform draws ``u``, a
    float or an array: the first outcome whose cumulative probability
    exceeds u, so a draw equal to a cumulative sum goes to the next outcome;
    none when no click does."""
    c0, c1, double, _ = probabilities
    code = np.uint8(3) - (u < c0)
    # c0 + c1, then c0 + c1 + double, in place on the sum
    c = c0 + c1
    code -= u < c
    c += double
    code -= u < c
    return code


def click_probabilities(state, mu: float, params: DetectorParams) -> ClickProbabilities:
    """The outcome probabilities of one pulse in Jones state ``state``."""
    q0, q1 = branch_powers(state.h.real, state.h.imag, state.v.real, state.v.imag, params.basis)
    return ClickProbabilities(*map(float, joint_probabilities(q0, q1, mu, params)))


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
    return DetectionRecord(pulse_index, pulse.sent_label, OUTCOMES[code])
