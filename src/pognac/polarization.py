"""Jones-calculus core: polarization states, 2x2 transfer matrices and
fidelity.

States never compare by raw components. The global phase of a Jones vector
carries no physics, so every comparison in this package goes through
``fidelity``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

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

# Sentinel returned by apply() when an element extinguishes the state
# completely; identity-check it, never normalize it.
ABSORBED = JonesVector(0j, 0j)


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
    lossy ones. Compose left-to-right in propagation order with ``@``
    (last element leftmost, as in matrix algebra).
    """

    m: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.m, dtype=complex)
        if m.shape != (2, 2):
            raise ValueError(f"transfer matrix must be 2x2, got shape {m.shape}")
        m.setflags(write=False)
        object.__setattr__(self, "m", m)

    def __matmul__(self, other: "TransferMatrix") -> "TransferMatrix":
        return TransferMatrix(self.m @ other.m)

    def is_unitary(self, tol: float = 1e-12) -> bool:
        return bool(np.max(np.abs(self.m.conj().T @ self.m - np.eye(2))) <= tol)

    @staticmethod
    def identity() -> "TransferMatrix":
        return TransferMatrix(np.eye(2, dtype=complex))


class ApplyResult(NamedTuple):
    state: JonesVector
    survival: float


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
