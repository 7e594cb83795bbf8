"""Optical element parameters of the link, the half-wave plate of the
analyzer, and the dB and drive-voltage conversions.

Loss bookkeeping is scalar (dB -> power factor); polarization action is a
2x2 transfer matrix. Everything here is pure and the matrices are
immutable, so it is safe to share between threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import FINITE, NONNEG, POSITIVE, Rule, check_fields, ruled
from .polarization import TransferMatrix


def db_to_power(db: float) -> float:
    """Power transmission factor 10^(-dB/10) of a loss given in dB."""
    return 10.0 ** (-db / 10.0)


@dataclass(frozen=True)
class ElementParams:
    """Imperfection and loss knobs for every optical element in the chain.

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


def phase_from_voltage(volts: float, vpi: float) -> float:
    """Linear electro-optic response pi * volts / vpi, not wrapped."""
    POSITIVE.check("modulator vpi", vpi)
    return math.pi * volts / vpi


def make_hwp(angle: float) -> TransferMatrix:
    """Half-wave retarder with its fast axis at ``angle`` to horizontal.

    theta = 0 leaves |H> and |V> alone; theta = pi/8 swaps the {H, V} and
    {D, A} bases. Applying the same plate twice is the identity up to a
    global phase.
    """
    c = math.cos(2.0 * angle)
    s = math.sin(2.0 * angle)
    return TransferMatrix(np.array([[c, s], [s, -c]], dtype=complex))
