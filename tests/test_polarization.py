import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pognac.polarization import (
    ABSORBED,
    A,
    D,
    H,
    JonesVector,
    L,
    R,
    TransferMatrix,
    V,
    apply,
    fidelity,
    normalize,
)

from conftest import su2

angles = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)
amplitudes = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False)


def random_state(a, b, c, d):
    return normalize(JonesVector(complex(a, b), complex(c, d)))


def valid_components(t):
    a, b, c, d = t
    return abs(complex(a, b)) ** 2 + abs(complex(c, d)) ** 2 > 1e-6


states = (
    st.tuples(amplitudes, amplitudes, amplitudes, amplitudes)
    .filter(valid_components)
    .map(lambda t: random_state(*t))
)


def test_normalize_identity():
    v = normalize(JonesVector(1.0, 0.0))
    assert fidelity(v, H) == pytest.approx(1.0, abs=1e-12)
    assert v.norm_sq() == pytest.approx(1.0, abs=1e-12)


def test_normalize_balanced():
    v = normalize(JonesVector(1.0, 1.0))
    assert v.h == pytest.approx(math.sqrt(0.5), abs=1e-12)
    assert v.v == pytest.approx(math.sqrt(0.5), abs=1e-12)


def test_normalize_zero_vector_raises():
    with pytest.raises(ValueError):
        normalize(JonesVector(0.0, 0.0))


def test_fidelity_examples():
    assert fidelity(H, H) == pytest.approx(1.0, abs=1e-12)
    assert fidelity(H, D) == pytest.approx(0.5, abs=1e-12)
    assert fidelity(L, R) == pytest.approx(0.0, abs=1e-12)


def test_mub_structure():
    # {D, A} and {L, R} are orthonormal and mutually unbiased
    assert fidelity(D, A) == pytest.approx(0.0, abs=1e-12)
    assert fidelity(L, R) == pytest.approx(0.0, abs=1e-12)
    for key in (L, R):
        for check in (D, A):
            assert fidelity(key, check) == pytest.approx(0.5, abs=1e-12)


def test_apply_identity():
    out = apply(TransferMatrix.identity(), D)
    assert fidelity(out.state, D) == pytest.approx(1.0, abs=1e-12)
    assert out.survival == pytest.approx(1.0, abs=1e-12)


def test_apply_ideal_polarizer():
    polarizer = TransferMatrix(np.diag([1.0, 0.0]))
    out = apply(polarizer, D)
    assert fidelity(out.state, H) == pytest.approx(1.0, abs=1e-12)
    assert out.survival == pytest.approx(0.5, abs=1e-12)


def test_apply_neutral_loss():
    att = TransferMatrix(np.diag([math.sqrt(0.5), math.sqrt(0.5)]))
    out = apply(att, H)
    assert fidelity(out.state, H) == pytest.approx(1.0, abs=1e-12)
    assert out.survival == pytest.approx(0.5, abs=1e-12)


def test_apply_absorbed_marker():
    polarizer = TransferMatrix(np.diag([1.0, 0.0]))
    out = apply(polarizer, V)
    assert out.state is ABSORBED
    assert out.survival == 0.0


def test_transfer_matrix_shape_check():
    with pytest.raises(ValueError):
        TransferMatrix(np.eye(3))


@given(angles, angles, angles, angles, angles, angles, states)
@settings(max_examples=100, deadline=None)
def test_composition_associativity(a1, b1, c1, a2, b2, c2, v):
    big = su2(a1, b1, c1)
    small = su2(a2, b2, c2)
    chained = apply(big, apply(small, v).state).state
    composed = apply(big @ small, v).state
    assert fidelity(chained, composed) == pytest.approx(1.0, abs=1e-12)


@given(angles, angles, angles, states, states)
@settings(max_examples=100, deadline=None)
def test_fidelity_invariant_under_common_unitary(a, b, c, x, y):
    u = su2(a, b, c)
    before = fidelity(x, y)
    after = fidelity(apply(u, x).state, apply(u, y).state)
    assert after == pytest.approx(before, abs=1e-12)


@given(states, angles)
@settings(max_examples=100, deadline=None)
def test_fidelity_invariant_under_global_phase(v, phase):
    shifted = JonesVector(v.h * cmath.exp(1j * phase), v.v * cmath.exp(1j * phase))
    assert fidelity(v, shifted) == pytest.approx(1.0, abs=1e-12)
