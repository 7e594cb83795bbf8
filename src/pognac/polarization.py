"""Jones-calculus core: polarization states, 2x2 transfer matrices and
fidelity.

States never compare by raw components. The global phase of a Jones vector
carries no physics, so every comparison in this package goes through
``fidelity``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

SQRT_HALF = math.sqrt(0.5)


@dataclass(frozen=True)
class JonesVector:
    """Pure polarization state as complex amplitudes on the {H, V} axes."""

    h: complex
    v: complex

    def norm_sq(self) -> float:
        return abs(self.h) ** 2 + abs(self.v) ** 2

    def inner(self, other: "JonesVector") -> complex:
        """<self|other>."""
        return self.h.conjugate() * other.h + self.v.conjugate() * other.v


H = JonesVector(1.0 + 0j, 0j)
V = JonesVector(0j, 1.0 + 0j)
D = JonesVector(SQRT_HALF + 0j, SQRT_HALF + 0j)
A = JonesVector(SQRT_HALF + 0j, -SQRT_HALF + 0j)
L = JonesVector(SQRT_HALF + 0j, SQRT_HALF * 1j)
R = JonesVector(SQRT_HALF + 0j, -SQRT_HALF * 1j)


def normalize(v: JonesVector) -> JonesVector:
    """Unit-norm copy of ``v``; direction preserved.

    Raises ValueError for the zero vector, which is not a state.
    """
    n = math.sqrt(v.norm_sq())
    if n == 0.0:
        raise ValueError("cannot normalize the zero Jones vector")
    return JonesVector(v.h / n, v.v / n)


def fidelity(a: JonesVector, b: JonesVector) -> float:
    """|<a|b>|^2 for normalized inputs; symmetric and global-phase invariant."""
    return abs(a.inner(b)) ** 2


@dataclass(frozen=True, eq=False)
class TransferMatrix:
    """2x2 complex amplitude transfer in the {H, V} basis.

    Unitary for lossless elements; singular values stay <= 1 for passive
    lossy ones.
    """

    m: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.m, dtype=complex)
        if m.shape != (2, 2):
            raise ValueError(f"transfer matrix must be 2x2, got shape {m.shape}")
        m.setflags(write=False)
        object.__setattr__(self, "m", m)


def transform(e: TransferMatrix, h_re, h_im, v_re, v_im):
    """Unnormalized amplitudes of ``e`` applied to (h, v), as the four real
    parts (out_h.real, out_h.imag, out_v.real, out_v.imag).

    The inputs may be floats or numpy arrays of any matching shape. The real
    arithmetic is that of Python's complex product and sum, term for term,
    so array elements equal the scalar complex result bit for bit.
    """
    (a, b), (c, d) = e.m.tolist()
    return (
        (a.real * h_re - a.imag * h_im) + (b.real * v_re - b.imag * v_im),
        (a.real * h_im + a.imag * h_re) + (b.real * v_im + b.imag * v_re),
        (c.real * h_re - c.imag * h_im) + (d.real * v_re - d.imag * v_im),
        (c.real * h_im + c.imag * h_re) + (d.real * v_im + d.imag * v_re),
    )
