"""Sagnac-loop polarization encoder.

The loop maps the drive timing onto a phase difference between the
clockwise and counter-clockwise transits; only that difference reaches the
output state, so disturbances common to both directions cancel. This module
covers the label codes, the encoder's parameters (its optical elements'
losses and imperfections included, with the dB and drive-voltage
conversions), transit timing, the quantized-delay drive pulse that
addresses one transit and the phases it imprints, the output-state algebra,
a drift model to exercise the self-compensation, and pulse emission: the
array kernel ``phase_difference`` (all a run needs of a pulse), the bound
``phase_bound`` that proves it cannot overflow on a block, the Jones
states ``emit_batch`` builds from it and their per-pulse adapter
``emit_pulse``.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import FINITE, NONNEG, POSITIVE, ConfigurationError, Rule, check_fields, one_of, ruled
from .polarization import SQRT_HALF, JonesVector, TransferMatrix, transform

SPEED_OF_LIGHT = 299792458.0  # m/s

# FWHM of a Gaussian intensity profile -> standard deviation.
FWHM_TO_SIGMA = 1.0 / (2.0 * math.sqrt(2.0 * math.log(2.0)))

# The optical intensity profile is treated as a Gaussian truncated at
# +-2.5 sigma. A drive pulse that covers the whole support imprints its
# phase exactly; with the stock numbers (3 ns drive, 1.2 ns FWHM) the
# support spans +-1.27 ns, well inside the drive window even after the
# start is snapped to the delay grid.
GAUSS_TRUNCATION_SIGMA = 2.5
_TRUNC_NORM = math.erf(GAUSS_TRUNCATION_SIGMA / math.sqrt(2.0))

# Encoder-frame label of each int8 label code. Code c is also the c-th
# receiver-frame label in row order (H, V, D, A) and the c-th draw of the
# hvd-pseudorandom generator (L, R, D).
LABEL_CODES = ("L", "R", "D", "A")


def label_code(label: str) -> int:
    """int8 code of an encoder-frame label."""
    try:
        return LABEL_CODES.index(label)
    except ValueError:
        raise ConfigurationError(f"unknown state label {label!r}; expected one of {LABEL_CODES}") from None


# Receiver-frame names of the encoder-frame labels after the output
# polarization controller.
POST_PC_LABEL = {"D": "D", "L": "H", "R": "V", "A": "A"}

# Encoder-frame phase difference phi_e - phi_l that nominally produces each
# label (phi0 = 0 frame).
NOMINAL_PHASE = {"D": 0.0, "L": math.pi / 2.0, "R": -math.pi / 2.0, "A": math.pi}

MODE_TWO_LEVEL = "two-level"
MODE_FOUR_LEVEL = "four-level"
MODES = one_of(MODE_TWO_LEVEL, MODE_FOUR_LEVEL)
DIRECTIONS = one_of("cw", "ccw")

DRIFT_NONE = "none"
DRIFT_LINEAR = "linear"
DRIFT_SINUSOIDAL = "sinusoidal"

# A group index below 1 would outrun light in vacuum.
_GROUP_INDEX = Rule(">= 1 and finite", lambda v: 1.0 <= v < math.inf)


@dataclass(frozen=True)
class DriftProfile:
    """Slow loop-phase drift theta(t) seen by both propagation directions.

    kind "none":       theta = 0
    kind "linear":     theta = amplitude_rad + rate_rad_per_s * t
                       (rate 0 gives a constant offset of either sign)
    kind "sinusoidal": theta = amplitude_rad * sin(2 pi t / period_s)

    Times may be floats or numpy arrays.
    """

    kind: str = ruled(DRIFT_NONE, one_of(DRIFT_NONE, DRIFT_LINEAR, DRIFT_SINUSOIDAL))
    amplitude_rad: float = ruled(0.0, FINITE)
    rate_rad_per_s: float = ruled(0.0, FINITE)
    period_s: float = ruled(0.0, NONNEG)

    def __post_init__(self):
        check_fields(self)
        if self.kind == DRIFT_SINUSOIDAL:
            if self.amplitude_rad < 0.0:
                raise ConfigurationError(f"sinusoidal drift amplitude must be >= 0, got {self.amplitude_rad}")
            if self.period_s <= 0.0:
                raise ConfigurationError("sinusoidal drift needs a positive period_s")

    def theta(self, t: float) -> float:
        if self.kind == DRIFT_LINEAR:
            return self.amplitude_rad + self.rate_rad_per_s * t
        if self.kind == DRIFT_SINUSOIDAL:
            return self.amplitude_rad * np.sin(2.0 * math.pi * t / self.period_s)
        return 0.0

    def theta_diff(self, t1: float, t2: float) -> float:
        """theta(t1) - theta(t2) with the constant part cancelled exactly,
        so a pure offset never perturbs the output, whatever its size."""
        if self.kind == DRIFT_LINEAR:
            return self.rate_rad_per_s * (t1 - t2)
        if self.kind == DRIFT_SINUSOIDAL:
            return self.theta(t1) - self.theta(t2)
        return 0.0

    @staticmethod
    def none() -> "DriftProfile":
        return DriftProfile()

    @staticmethod
    def constant(offset_rad: float) -> "DriftProfile":
        return DriftProfile(DRIFT_LINEAR, amplitude_rad=offset_rad)

    @staticmethod
    def sinusoidal(amplitude_rad: float, period_s: float) -> "DriftProfile":
        return DriftProfile(DRIFT_SINUSOIDAL, amplitude_rad=amplitude_rad, period_s=period_s)


def db_to_power(db: float) -> float:
    """Power transmission factor 10^(-dB/10) of a loss given in dB."""
    return 10.0 ** (-db / 10.0)


@dataclass(frozen=True)
class ElementParams:
    """Imperfection and loss knobs for the optical elements of the encoder.

    pbs_extinction_db        power extinction ratio of the loop PBS
                             (math.inf = ideal); recorded in every
                             provenance header but not modelled: the loop
                             PBS is ideal
    pc_phase_phi0            equator angle phi0 the input controller dials in
    pc_misalignment_eps      residual controller misalignment, radians
    bs_insertion_loss_db     per-pass loss of the 50:50 splitter standing in
                             for a circulator (two passes per pulse)
    attenuator_loss_db       output attenuator bringing pulses down to the
                             single-photon level
    modulator_vpi            half-wave voltage of the phase modulator
    modulator_insertion_loss_db

    Each field declares its valid range (errors.ruled), checked here and by
    the config parser: losses >= 0, vpi > 0, every value finite except an
    ideal PBS's infinite extinction.
    """

    pbs_extinction_db: float = ruled(30.0, Rule(">= 0 (inf: an ideal PBS)", lambda v: v >= 0))
    pc_phase_phi0: float = ruled(0.0, FINITE)
    pc_misalignment_eps: float = ruled(0.0, FINITE)
    bs_insertion_loss_db: float = ruled(3.0, NONNEG)
    attenuator_loss_db: float = ruled(64.0, NONNEG)
    modulator_vpi: float = ruled(4.0, POSITIVE)
    modulator_insertion_loss_db: float = ruled(3.0, NONNEG)

    def __post_init__(self):
        check_fields(self)


@dataclass(frozen=True)
class PatternSpec:
    """Timing grid of the pulse generator driving the modulator.

    a_pulse_direction picks which transit carries the full-wave pulse for
    the A state in two-level mode (either works; CW is the default).
    """

    pulse_width: float = ruled(3e-9, POSITIVE)  # s
    delay_granularity: float = ruled(100e-12, POSITIVE)  # s
    mode: str = ruled(MODE_TWO_LEVEL, MODES)
    a_pulse_direction: str = ruled("cw", DIRECTIONS)

    def __post_init__(self):
        check_fields(self)


@dataclass(frozen=True)
class EncoderConfig:
    """Physical parameters of the encoder and its drive electronics.

    phase_jitter_sigma is per-pulse Gaussian phase noise on every emitted
    pulse (residual electrical/interferometric noise); drive_jitter_sigma
    adds in quadrature on pulses that carry an electrical drive pulse,
    standing in for generator amplitude/shape imperfections. Undriven
    states (D) see only the first knob. ``drive`` is the timing grid of the
    drive electronics.
    """

    delta_l_m: float = ruled(1.0, NONNEG)  # loop delay-line length
    fiber_index: float = ruled(1.45, _GROUP_INDEX)  # PM fiber group index
    optical_fwhm_s: float = ruled(1.2e-9, POSITIVE)  # laser pulse intensity FWHM
    drive: PatternSpec = field(default_factory=PatternSpec)
    phase_jitter_sigma: float = ruled(0.0, NONNEG)  # rad
    drive_jitter_sigma: float = ruled(0.0, NONNEG)  # rad
    source_mean_photon_number: float = ruled(1e7, NONNEG)  # photons/pulse before losses
    elements: ElementParams = field(default_factory=ElementParams)
    drift: DriftProfile = field(default_factory=DriftProfile)

    def __post_init__(self):
        check_fields(self)

    def mean_photon_out(self) -> float:
        """Mean photon number after both splitter passes, the modulator
        insertion loss, and the output attenuator."""
        total_db = (
            2.0 * self.elements.bs_insertion_loss_db
            + self.elements.modulator_insertion_loss_db
            + self.elements.attenuator_loss_db
        )
        return self.source_mean_photon_number * db_to_power(total_db)


@dataclass(frozen=True, slots=True)
class EmittedPulse:
    """One attenuated pulse in flight toward the analyzer."""

    state: JonesVector  # receiver frame (after the output controller)
    mean_photon_number: float
    sent_label: str  # receiver frame: D, H, V, A


def loop_transit_lead(delta_l_m: float, fiber_index: float) -> float:
    """Time by which the CW pulse reaches the modulator before the CCW one.

    The extra length is traversed at the group velocity c/n, so the lead is
    n * delta_l / c.
    """
    NONNEG.check("delta_l_m", delta_l_m)
    _GROUP_INDEX.check("fiber_index", fiber_index)
    return fiber_index * delta_l_m / SPEED_OF_LIGHT


def quantize_delay(requested: float, granularity: float) -> float:
    """Snap a delay to the nearest multiple of the generator granularity.

    Exact half-step ties round toward zero. Idempotent.
    """
    POSITIVE.check("granularity", granularity)
    steps = abs(requested) / granularity
    if not math.isfinite(steps):
        raise ConfigurationError(f"delay {requested} s is not a finite number of {granularity} s steps")
    k = math.floor(steps)
    if steps - k > 0.5:
        k += 1
    return math.copysign(k * granularity, requested)


class Segment(NamedTuple):
    start: float  # s
    duration: float  # s
    level: float  # V


def pattern_for_state(
    state: str,
    spec: PatternSpec,
    cw_arrival: float,
    ccw_arrival: float,
    vpi: float,
) -> Segment | None:
    """The one drive pulse selecting an output state, or None for no pulse.

    Two-level mode: D no pulse; L a vpi/2 pulse on the CW transit; R a vpi/2
    pulse on the CCW transit; A a vpi pulse on the transit named by
    spec.a_pulse_direction. Four-level mode: a single pulse on the CW
    transit at {0, vpi/2, vpi, 3 vpi/2} for {D, L, A, R}; the zero level is
    no pulse.

    Pulses are centered on the addressed arrival time, with the start
    snapped to the delay granularity. The two transits must be separated by
    more than one pulse width so a pulse can address exactly one of them.
    """
    label_code(state)  # rejects an unknown label
    POSITIVE.check("vpi", vpi)
    gap = abs(cw_arrival - ccw_arrival)
    if not gap > spec.pulse_width:
        raise ConfigurationError(
            f"electrical pulse width {spec.pulse_width} s overlaps both transits: "
            f"CW at {cw_arrival} s and CCW at {ccw_arrival} s are only {gap} s apart"
        )

    if spec.mode == MODE_TWO_LEVEL:
        if state == "D":
            return None
        if state == "L":
            center, level = cw_arrival, vpi / 2.0
        elif state == "R":
            center, level = ccw_arrival, vpi / 2.0
        else:  # A
            center = cw_arrival if spec.a_pulse_direction == "cw" else ccw_arrival
            level = vpi
    else:
        level = {"D": 0.0, "L": vpi / 2.0, "A": vpi, "R": 1.5 * vpi}[state]
        if level == 0.0:
            return None
        center = cw_arrival

    start = quantize_delay(center - spec.pulse_width / 2.0, spec.delay_granularity)
    return Segment(start, spec.pulse_width, level)


def _profile_mass(a: float, b: float, center: float, sigma: float) -> float:
    """Fraction of the truncated optical intensity profile inside [a, b]."""
    half_support = GAUSS_TRUNCATION_SIGMA * sigma
    lo = max(a, center - half_support)
    hi = min(b, center + half_support)
    if hi <= lo:
        return 0.0
    z = 1.0 / (sigma * math.sqrt(2.0))
    return (math.erf((hi - center) * z) - math.erf((lo - center) * z)) / (2.0 * _TRUNC_NORM)


def phase_from_voltage(volts: float, vpi: float) -> float:
    """Linear electro-optic response pi * volts / vpi, not wrapped."""
    POSITIVE.check("modulator vpi", vpi)
    return math.pi * volts / vpi


def _mean_phase(pulse: Segment, arrival: float, vpi: float, sigma: float) -> float:
    mass = _profile_mass(pulse.start, pulse.start + pulse.duration, arrival, sigma)
    return phase_from_voltage(pulse.level, vpi) * mass


def phases_from_waveform(
    pulse: Segment | None,
    cw_arrival: float,
    ccw_arrival: float,
    vpi: float,
    optical_fwhm: float,
) -> tuple[float, float]:
    """Intensity-weighted modulator phases (phi_e, phi_l) picked up by the
    CW and CCW transits from one rectangular drive pulse (None: no pulse).

    The pulse contributes its phase weighted by the optical-profile mass it
    covers at each transit; the overlap integral is exact (erf).
    """
    POSITIVE.check("optical FWHM", optical_fwhm)
    if pulse is None:
        return 0.0, 0.0
    FINITE.check("segment start", pulse.start)
    POSITIVE.check("segment duration", pulse.duration)
    FINITE.check("segment level", pulse.level)
    sigma = optical_fwhm * FWHM_TO_SIGMA
    return _mean_phase(pulse, cw_arrival, vpi, sigma), _mean_phase(pulse, ccw_arrival, vpi, sigma)


def encode(phi_e: float, phi_l: float, phi0: float) -> JonesVector:
    """Loop output state (|H> + e^{i(phi_e - phi_l - phi0)} |V>)/sqrt(2).

    Only the phase difference enters; adding the same offset to both
    modulator phases leaves the state untouched.
    """
    return JonesVector(SQRT_HALF + 0j, cmath.exp(1j * (phi_e - phi_l - phi0)) * SQRT_HALF)


_EXP_P = cmath.exp(0.25j * math.pi)
_EXP_M = cmath.exp(-0.25j * math.pi)
# Receiver-frame alignment unitary of the output controller: |L> -> |H>,
# |R> -> |V>, |D> -> |D> (and so |A> -> |A>). The -pi/2 phase offset between
# the two mapped axes is forced by the |D> condition.
OUTPUT_PC = TransferMatrix(
    np.array([[_EXP_P, _EXP_M], [_EXP_M, _EXP_P]], dtype=complex) * SQRT_HALF
)


class LabelTable(NamedTuple):
    """The phase model of one encoder config, read by both the emission
    kernel and the analytic QBER: per-label-code drive phases and jitter
    sigma (read-only arrays indexed by label code), the mean photon number
    every pulse leaves with, the transit lead and the controller frame."""

    phi_e: np.ndarray
    phi_l: np.ndarray
    sigma: np.ndarray
    mu: float
    lead: float  # s, CW transit ahead of CCW (loop_transit_lead)
    frame: float  # rad, pc_phase_phi0 + pc_misalignment_eps off every phase difference


@lru_cache(maxsize=64)
def label_table(config: EncoderConfig) -> LabelTable:
    """Drive phases picked up by the CW (phi_e) and CCW (phi_l) transits and
    the jitter sigma of each label, built once per config.

    Drive times are relative to the slot trigger: the CW transit crosses
    the modulator at 0, the CCW one a transit lead later. Every slot gets
    the baseline jitter; slots that carry a drive pulse add the drive
    jitter in quadrature.
    """
    lead = loop_transit_lead(config.delta_l_m, config.fiber_index)
    vpi = config.elements.modulator_vpi
    rows = []
    for label in LABEL_CODES:
        pulse = pattern_for_state(label, config.drive, 0.0, lead, vpi)
        phi_e, phi_l = phases_from_waveform(pulse, 0.0, lead, vpi, config.optical_fwhm_s)
        sigma = config.phase_jitter_sigma
        if pulse is not None:
            sigma = math.hypot(sigma, config.drive_jitter_sigma)
        rows.append((phi_e, phi_l, sigma))
    columns = [np.array(col) for col in zip(*rows)]
    for col in columns:
        col.setflags(write=False)
    frame = config.elements.pc_phase_phi0 + config.elements.pc_misalignment_eps
    return LabelTable(*columns, config.mean_photon_out(), lead, frame)


def phase_difference(codes, t, normals, config: EncoderConfig, inline: bool = False):
    """Loop phase difference x = phi_e - phi_l - frame of pulses with label
    codes ``codes`` emitted at times ``t``, jitter and drift included: the
    one quantity that reaches the output state (|H> + e^{ix} |V>)/sqrt(2).

    ``normals`` holds one standard normal draw per pulse; sigma * z is how
    numpy's own normal(0, sigma) scales it, so a stream drawn here matches
    one drawn pulse by pulse. The loop drift is sampled at each direction's
    modulator transit, so only theta(cw) - theta(ccw) survives; with
    ``inline``, a single-pass modulator's drift theta(t) adds straight onto
    the applied phase. Without drift ``t`` is not read (None will do).
    Arguments may be arrays or scalars. Every operation is elementwise, so
    a pulse's x has the same bits whichever other pulses share the call:
    the run kernel calls this on the pulses that can click only, where
    phase_bound proves that no pulse of the block can overflow here.
    """
    table = label_table(config)
    drifts = config.drift.kind != DRIFT_NONE
    x = table.phi_e[codes] + table.sigma[codes] * normals
    # in place on arrays, in the operation order of
    # x (+ loop drift) - phi_l - frame (+ inline drift)
    if drifts and not inline:
        x += config.drift.theta_diff(t, t + table.lead)
    x -= table.phi_l[codes]
    x -= table.frame
    if drifts and inline:
        x += config.drift.theta(t)
    return x


# Bound on every intermediate of phase_difference below which no operation
# of it can overflow (see phase_bound); the largest double is 1.8e308.
PHASE_RANGE = 1e300


def phase_bound(config: EncoderConfig, t_max: float, z_max: float) -> float:
    """An upper bound, below PHASE_RANGE, on the magnitude of every
    intermediate of phase_difference, loop and inline, for pulses with
    |normal| <= ``z_max`` emitted at 0 <= t <= ``t_max``; inf when it cannot
    give one.

    x is phi_e + sigma z, plus the drift, minus phi_l and frame, so every
    partial sum is at most max|phi_e| + max|phi_l| + |frame| +
    max(sigma) z_max + D, where D bounds the drift terms:
    - sinusoidal: each theta is amplitude * sin(2 pi t / period_s), so a
      difference of two is at most 2 amplitude; 2 pi t and its quotient by
      period_s, at most 2 pi (t_max + |lead|) / period_s, are intermediates
      too;
    - linear: the loop adds rate * (t - (t + lead)), the inline modulator
      amplitude + rate * t. The computed t + lead can round away from t by
      far more than lead, so only |t - (t + lead)| <= 2 (t_max + |lead|) is
      used: D = |amplitude| + 2 |rate| (t_max + |lead|); t and t + lead
      themselves are at most t_max + |lead|.
    Each computed intermediate is a few rounded sums and products of these
    terms, so it exceeds its exact value by a few relative 2^-53, which the
    relative margin of 1e-12 covers. A bound below PHASE_RANGE thus keeps
    every computed value a factor 1e8 below the largest double: nothing
    overflows, so no inf appears to make an operation invalid (inf - inf,
    0 * inf, sin(inf)), and the one division is by period_s > 0. Times and
    normals are finite, as the run kernel draws them. The bound is computed
    in Python floats, where an overflow gives inf, not an exception, and a
    nan from inf * 0 fails the range check as inf does.
    """
    table = label_table(config)
    bound = (
        max(map(abs, table.phi_e.tolist()))
        + max(map(abs, table.phi_l.tolist()))
        + abs(table.frame)
        + max(table.sigma.tolist()) * z_max
    )
    drift = config.drift
    span = t_max + abs(table.lead)
    if drift.kind == DRIFT_SINUSOIDAL:
        turn = 2.0 * math.pi * span
        bound = max(bound + 2.0 * drift.amplitude_rad, turn, turn / drift.period_s)
    elif drift.kind == DRIFT_LINEAR:
        bound = max(bound + abs(drift.amplitude_rad) + 2.0 * abs(drift.rate_rad_per_s) * span, span)
    bound *= 1.0 + 1e-12
    return bound if bound < PHASE_RANGE else math.inf


def emit_batch(codes, t, normals, config: EncoderConfig, inline: bool = False):
    """Receiver-frame states of pulses with label codes ``codes`` emitted at
    times ``t``, as amplitudes (h.real, h.imag, v.real, v.imag).

    The chain is encode() of phase_difference (see there for ``normals``,
    the drift and ``inline``) -> output controller -> normalization.
    tests/jones_oracles.py spells the same chain pulse by pulse with Jones
    vectors, in the same operation order, and emit_batch must match it bit
    for bit. Arguments may be arrays or scalars.
    """
    x = phase_difference(codes, t, normals, config, inline)
    loop_v_re, loop_v_im = np.cos(x) * SQRT_HALF, np.sin(x) * SQRT_HALF
    h_re, h_im, v_re, v_im = transform(OUTPUT_PC, SQRT_HALF, 0.0, loop_v_re, loop_v_im)
    n = np.sqrt((h_re * h_re + h_im * h_im) + (v_re * v_re + v_im * v_im))
    return h_re / n, h_im / n, v_re / n, v_im / n


def emit_pulse(label: str, t: float, config: EncoderConfig, rng_seed) -> EmittedPulse:
    """Emit one attenuated pulse at absolute time ``t``: emit_batch for a
    single pulse.

    Runs the full chain: drive pattern -> modulator phases -> loop output
    with drift -> output controller -> receiver-frame state, with the mean
    photon number charged for all dB losses. Deterministic given
    ``rng_seed`` (anything numpy's default_rng accepts, including a hot
    Generator when the caller manages streams itself).
    """
    code = label_code(label)
    # Drawn even at sigma = 0 so toggling noise never shifts the stream.
    normal = np.random.default_rng(rng_seed).standard_normal()
    h_re, h_im, v_re, v_im = emit_batch(code, t, normal, config)
    state = JonesVector(complex(h_re, h_im), complex(v_re, v_im))
    return EmittedPulse(state, label_table(config).mu, POST_PC_LABEL[label])
