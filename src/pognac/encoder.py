"""Sagnac-loop polarization encoder.

The loop maps the drive timing onto a phase difference between the
clockwise and counter-clockwise transits; only that difference reaches the
output state, so disturbances common to both directions cancel. This module
covers transit timing, drive-to-phase conversion, the output-state algebra,
a drift model to exercise the self-compensation, and pulse emission: the
array kernel ``emit_batch`` and its per-pulse adapter ``emit_pulse``.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .elements import ElementParams, db_to_power, phase_from_voltage
from .errors import ConfigurationError
from .polarization import SQRT_HALF, JonesVector, TransferMatrix, transform
from .waveform import (
    MODE_FOUR_LEVEL,
    MODE_TWO_LEVEL,
    PatternSpec,
    Waveform,
    pattern_for_state,
)

SPEED_OF_LIGHT = 299792458.0  # m/s

# FWHM of a Gaussian intensity profile -> standard deviation.
FWHM_TO_SIGMA = 1.0 / (2.0 * math.sqrt(2.0 * math.log(2.0)))

# The optical intensity profile is treated as a Gaussian truncated at
# +-2.5 sigma. A drive segment that covers the whole support imprints its
# phase exactly; with the stock numbers (3 ns drive, 1.2 ns FWHM) the
# support spans +-1.27 ns, well inside the drive window even after the
# start is snapped to the delay grid.
GAUSS_TRUNCATION_SIGMA = 2.5
_TRUNC_NORM = math.erf(GAUSS_TRUNCATION_SIGMA / math.sqrt(2.0))

# Receiver-frame names of the encoder-frame labels after the output
# polarization controller.
POST_PC_LABEL = {"D": "D", "L": "H", "R": "V", "A": "A"}

# Encoder-frame label of each int8 label code. Code c is also the c-th
# receiver-frame label in row order (H, V, D, A) and the c-th draw of the
# hvd-pseudorandom generator (L, R, D).
LABEL_CODES = ("L", "R", "D", "A")

# Encoder-frame phase difference phi_e - phi_l that nominally produces each
# label (phi0 = 0 frame).
NOMINAL_PHASE = {"D": 0.0, "L": math.pi / 2.0, "R": -math.pi / 2.0, "A": math.pi}

DRIFT_NONE = "none"
DRIFT_LINEAR = "linear"
DRIFT_SINUSOIDAL = "sinusoidal"


@dataclass(frozen=True)
class DriftProfile:
    """Slow loop-phase drift theta(t) seen by both propagation directions.

    kind "none":       theta = 0
    kind "linear":     theta = amplitude_rad + rate_rad_per_s * t
                       (rate 0 gives a constant offset of either sign)
    kind "sinusoidal": theta = amplitude_rad * sin(2 pi t / period_s)

    Times may be floats or numpy arrays.
    """

    kind: str = DRIFT_NONE
    amplitude_rad: float = 0.0
    rate_rad_per_s: float = 0.0
    period_s: float = 0.0

    def __post_init__(self):
        if self.kind not in (DRIFT_NONE, DRIFT_LINEAR, DRIFT_SINUSOIDAL):
            raise ConfigurationError(f"unknown drift kind {self.kind!r}")
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
    def linear(rate_rad_per_s: float, offset_rad: float = 0.0) -> "DriftProfile":
        return DriftProfile(DRIFT_LINEAR, amplitude_rad=offset_rad, rate_rad_per_s=rate_rad_per_s)

    @staticmethod
    def sinusoidal(amplitude_rad: float, period_s: float) -> "DriftProfile":
        return DriftProfile(DRIFT_SINUSOIDAL, amplitude_rad=amplitude_rad, period_s=period_s)


@dataclass(frozen=True)
class EncoderConfig:
    """Physical parameters of the encoder and its drive electronics.

    phase_jitter_sigma is per-pulse Gaussian phase noise on every emitted
    pulse (residual electrical/interferometric noise); drive_jitter_sigma
    adds in quadrature on pulses that carry an electrical drive pulse,
    standing in for generator amplitude/shape imperfections. Undriven
    states (D) see only the first knob.
    """

    delta_l_m: float = 1.0  # loop delay-line length
    fiber_index: float = 1.45  # PM fiber group index
    optical_fwhm_s: float = 1.2e-9  # laser pulse intensity FWHM
    electrical_pulse_width_s: float = 3e-9
    delay_granularity_s: float = 100e-12
    encoding_mode: str = MODE_TWO_LEVEL
    a_pulse_direction: str = "cw"
    phase_jitter_sigma: float = 0.0  # rad
    drive_jitter_sigma: float = 0.0  # rad
    source_mean_photon_number: float = 1e7  # photons/pulse before losses
    elements: ElementParams = field(default_factory=ElementParams)
    drift: DriftProfile = field(default_factory=DriftProfile)

    def __post_init__(self):
        if self.delta_l_m < 0.0:
            raise ConfigurationError(f"delta_l_m must be >= 0, got {self.delta_l_m}")
        if self.fiber_index < 1.0:
            raise ConfigurationError(f"fiber_index must be >= 1, got {self.fiber_index}")
        if self.optical_fwhm_s <= 0.0:
            raise ConfigurationError(f"optical_fwhm_s must be positive, got {self.optical_fwhm_s}")
        if self.phase_jitter_sigma < 0.0 or self.drive_jitter_sigma < 0.0:
            raise ConfigurationError("jitter sigmas must be >= 0")
        if self.source_mean_photon_number < 0.0:
            raise ConfigurationError("source_mean_photon_number must be >= 0")
        if self.encoding_mode not in (MODE_TWO_LEVEL, MODE_FOUR_LEVEL):
            raise ConfigurationError(f"unknown encoding mode {self.encoding_mode!r}")

    @property
    def phi0(self) -> float:
        return self.elements.pc_phase_phi0

    @property
    def vpi(self) -> float:
        return self.elements.modulator_vpi

    def pattern_spec(self) -> PatternSpec:
        return PatternSpec(
            pulse_width=self.electrical_pulse_width_s,
            delay_granularity=self.delay_granularity_s,
            mode=self.encoding_mode,
            a_pulse_direction=self.a_pulse_direction,
        )

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

    emission_time_s: float
    state: JonesVector  # receiver frame (after the output controller)
    mean_photon_number: float
    intended_label: str  # encoder frame: D, L, R, A
    sent_label: str  # receiver frame: D, H, V, A


def loop_transit_lead(delta_l_m: float, fiber_index: float) -> float:
    """Time by which the CW pulse reaches the modulator before the CCW one.

    The extra length is traversed at the group velocity c/n, so the lead is
    n * delta_l / c.
    """
    if delta_l_m < 0.0:
        raise ConfigurationError(f"delta_l_m must be >= 0, got {delta_l_m}")
    if fiber_index < 1.0:
        raise ConfigurationError(f"fiber_index must be >= 1, got {fiber_index}")
    return fiber_index * delta_l_m / SPEED_OF_LIGHT


def _profile_mass(a: float, b: float, center: float, sigma: float) -> float:
    """Fraction of the truncated optical intensity profile inside [a, b]."""
    half_support = GAUSS_TRUNCATION_SIGMA * sigma
    lo = max(a, center - half_support)
    hi = min(b, center + half_support)
    if hi <= lo:
        return 0.0
    z = 1.0 / (sigma * math.sqrt(2.0))
    return (math.erf((hi - center) * z) - math.erf((lo - center) * z)) / (2.0 * _TRUNC_NORM)


def _mean_phase(w: Waveform, arrival: float, vpi: float, sigma: float) -> float:
    phi = 0.0
    covered = 0.0
    for seg in w.segments:
        mass = _profile_mass(seg.start, seg.start + seg.duration, arrival, sigma)
        if mass > 0.0:
            phi += phase_from_voltage(seg.level, vpi) * mass
            covered += mass
    if w.baseline != 0.0:
        phi += phase_from_voltage(w.baseline, vpi) * (1.0 - covered)
    return phi


def phases_from_waveform(
    w: Waveform,
    cw_arrival: float,
    ccw_arrival: float,
    vpi: float,
    optical_fwhm: float,
) -> tuple[float, float]:
    """Intensity-weighted modulator phases (phi_e, phi_l) picked up by the
    CW and CCW transits.

    Each rectangular drive segment contributes its phase weighted by the
    optical-profile mass it covers; the overlap integral is exact (erf).
    """
    if optical_fwhm <= 0.0:
        raise ConfigurationError(f"optical FWHM must be positive, got {optical_fwhm}")
    sigma = optical_fwhm * FWHM_TO_SIGMA
    return _mean_phase(w, cw_arrival, vpi, sigma), _mean_phase(w, ccw_arrival, vpi, sigma)


def encode(phi_e: float, phi_l: float, phi0: float) -> JonesVector:
    """Loop output state (|H> + e^{i(phi_e - phi_l - phi0)} |V>)/sqrt(2).

    Only the phase difference enters; adding the same offset to both
    modulator phases leaves the state untouched.
    """
    return JonesVector(SQRT_HALF + 0j, cmath.exp(1j * (phi_e - phi_l - phi0)) * SQRT_HALF)


def encode_with_drift(
    phi_e: float,
    phi_l: float,
    phi0: float,
    drift: DriftProfile,
    cw_time: float,
    ccw_time: float,
) -> JonesVector:
    """encode() with the loop drift sampled at each direction's modulator
    transit time; only theta(cw) - theta(ccw) survives."""
    return encode(phi_e + drift.theta_diff(cw_time, ccw_time), phi_l, phi0)


def inline_encoder_reference(phi_applied: float, drift: DriftProfile, t: float) -> JonesVector:
    """Single-pass modulator baseline: the drift adds straight onto the
    applied phase, (|H> + e^{i(phi_applied + theta(t))} |V>)/sqrt(2)."""
    return encode(phi_applied + drift.theta(t), 0.0, 0.0)


_EXP_P = cmath.exp(0.25j * math.pi)
_EXP_M = cmath.exp(-0.25j * math.pi)
_OUTPUT_PC = TransferMatrix(
    np.array([[_EXP_P, _EXP_M], [_EXP_M, _EXP_P]], dtype=complex) * SQRT_HALF
)


def output_pc_mapping() -> TransferMatrix:
    """Receiver-frame alignment unitary: |L> -> |H>, |R> -> |V>, |D> -> |D>
    (and so |A> -> |A>).

    The -pi/2 phase offset between the two mapped axes is forced by the |D>
    condition.
    """
    return _OUTPUT_PC


class LabelTable(NamedTuple):
    """Per-label-code drive phases and phase-jitter sigma of one encoder
    config (read-only arrays indexed by label code), plus the mean photon
    number every pulse leaves with."""

    phi_e: np.ndarray
    phi_l: np.ndarray
    sigma: np.ndarray
    mu: float


@lru_cache(maxsize=64)
def label_table(config: EncoderConfig) -> LabelTable:
    """Drive phases picked up by the CW (phi_e) and CCW (phi_l) transits and
    the jitter sigma of each label, built once per config.

    Waveform times are relative to the slot trigger: the CW transit crosses
    the modulator at 0, the CCW one a transit lead later. Every slot gets
    the baseline jitter; slots that carry a drive pulse add the drive
    jitter in quadrature.
    """
    lead = loop_transit_lead(config.delta_l_m, config.fiber_index)
    spec = config.pattern_spec()
    rows = []
    for label in LABEL_CODES:
        w = pattern_for_state(label, spec, 0.0, lead, config.vpi)
        phi_e, phi_l = phases_from_waveform(w, 0.0, lead, config.vpi, config.optical_fwhm_s)
        sigma = config.phase_jitter_sigma
        if w.segments:
            sigma = math.hypot(sigma, config.drive_jitter_sigma)
        rows.append((phi_e, phi_l, sigma))
    columns = [np.array(col) for col in zip(*rows)]
    for col in columns:
        col.setflags(write=False)
    return LabelTable(*columns, config.mean_photon_out())


def emit_batch(codes, t, normals, config: EncoderConfig, inline: bool = False):
    """Receiver-frame states of pulses with label codes ``codes`` emitted at
    times ``t``, as amplitudes (h.real, h.imag, v.real, v.imag).

    ``normals`` holds one standard normal draw per pulse; sigma * z is how
    numpy's own normal(0, sigma) scales it, so a stream drawn here matches
    one drawn pulse by pulse. The chain is that of the scalar building
    blocks: encode_with_drift (or, with ``inline``, inline_encoder_reference,
    where the drift adds straight onto the applied phase) -> output
    controller -> normalization, in the same operation order. Arguments may
    be arrays or scalars.
    """
    table = label_table(config)
    phi0 = config.phi0 + config.elements.pc_misalignment_eps
    x = table.phi_e[codes] + table.sigma[codes] * normals
    if inline:
        x = x - table.phi_l[codes] - phi0 + config.drift.theta(t)
    else:
        lead = loop_transit_lead(config.delta_l_m, config.fiber_index)
        x = x + config.drift.theta_diff(t, t + lead) - table.phi_l[codes] - phi0
    loop_v_re, loop_v_im = np.cos(x) * SQRT_HALF, np.sin(x) * SQRT_HALF
    h_re, h_im, v_re, v_im = transform(_OUTPUT_PC, SQRT_HALF, 0.0, loop_v_re, loop_v_im)
    n = np.sqrt((h_re * h_re + h_im * h_im) + (v_re * v_re + v_im * v_im))
    return h_re / n, h_im / n, v_re / n, v_im / n


def label_code(label: str) -> int:
    """int8 code of an encoder-frame label."""
    try:
        return LABEL_CODES.index(label)
    except ValueError:
        raise ConfigurationError(f"unknown state label {label!r}; expected one of {LABEL_CODES}") from None


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
    return EmittedPulse(t, state, label_table(config).mu, label, POST_PC_LABEL[label])
