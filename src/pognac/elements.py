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

from .errors import ConfigurationError
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
    """

    pbs_extinction_db: float = 30.0
    pc_phase_phi0: float = 0.0
    pc_misalignment_eps: float = 0.0
    bs_insertion_loss_db: float = 3.0
    attenuator_loss_db: float = 64.0
    modulator_vpi: float = 4.0
    modulator_insertion_loss_db: float = 3.0

    def __post_init__(self):
        for name in (
            "pbs_extinction_db",
            "bs_insertion_loss_db",
            "attenuator_loss_db",
            "modulator_insertion_loss_db",
        ):
            if getattr(self, name) < 0.0:
                raise ConfigurationError(f"{name} must be >= 0 dB, got {getattr(self, name)}")
        if self.modulator_vpi <= 0.0:
            raise ConfigurationError(f"modulator_vpi must be positive, got {self.modulator_vpi}")


def phase_from_voltage(volts: float, vpi: float) -> float:
    """Linear electro-optic response pi * volts / vpi, not wrapped."""
    if vpi <= 0.0:
        raise ConfigurationError(f"modulator vpi must be positive, got {vpi}")
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
