"""Scalar Jones-calculus references the array kernels are checked against.

Each function works on one pulse with Python complex numbers. The array
kernel ``pognac.encoder.emit_batch`` must reproduce the emission chain
built from them bit for bit (test_runner.py), so the operation order here
is part of that contract: change one side only together with the other.
"""

import math
from typing import NamedTuple

import numpy as np

from pognac.encoder import DriftProfile, encode
from pognac.polarization import JonesVector, TransferMatrix, transform

# Sentinel returned by apply() when an element extinguishes the state
# completely; identity-check it, never normalize it.
ABSORBED = JonesVector(0j, 0j)


class ApplyResult(NamedTuple):
    state: JonesVector
    survival: float


def apply(e: TransferMatrix, v: JonesVector) -> ApplyResult:
    """Propagate ``v`` through ``e``.

    Returns the normalized output state and the power survival probability
    |e v|^2. A fully extinguished input comes back as (ABSORBED, 0.0).
    """
    h_re, h_im, v_re, v_im = transform(e, v.h.real, v.h.imag, v.v.real, v.v.imag)
    p = (h_re * h_re + h_im * h_im) + (v_re * v_re + v_im * v_im)
    if p == 0.0:
        return ApplyResult(ABSORBED, 0.0)
    n = math.sqrt(p)
    return ApplyResult(JonesVector(complex(h_re / n, h_im / n), complex(v_re / n, v_im / n)), p)


def is_unitary(e: TransferMatrix, tol: float = 1e-12) -> bool:
    return bool(np.max(np.abs(e.m.conj().T @ e.m - np.eye(2))) <= tol)


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
