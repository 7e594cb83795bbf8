import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pognac.elements import (
    ElementParams,
    db_to_power,
    make_hwp,
    phase_from_voltage,
)
from pognac.errors import ConfigurationError
from pognac.polarization import A, D, H, L, V, apply, fidelity

from test_polarization import states

angles = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)


def test_phase_from_voltage_ladder():
    vpi = 4.0
    assert phase_from_voltage(0.0, vpi) == 0.0
    assert phase_from_voltage(vpi / 2, vpi) == pytest.approx(math.pi / 2, abs=1e-15)
    assert phase_from_voltage(vpi, vpi) == pytest.approx(math.pi, abs=1e-15)
    assert phase_from_voltage(1.5 * vpi, vpi) == pytest.approx(1.5 * math.pi, abs=1e-15)


def test_phase_from_voltage_rejects_bad_vpi():
    with pytest.raises(ConfigurationError):
        phase_from_voltage(1.0, 0.0)
    with pytest.raises(ConfigurationError):
        phase_from_voltage(1.0, -2.0)


def test_hwp_at_zero_keeps_h():
    hwp = make_hwp(0.0)
    assert fidelity(apply(hwp, H).state, H) == pytest.approx(1.0, abs=1e-12)
    assert fidelity(apply(hwp, V).state, V) == pytest.approx(1.0, abs=1e-12)


def test_hwp_at_pi_8_swaps_bases():
    hwp = make_hwp(math.pi / 8)
    assert fidelity(apply(hwp, D).state, H) == pytest.approx(1.0, abs=1e-12)
    assert fidelity(apply(hwp, A).state, V) == pytest.approx(1.0, abs=1e-12)


def test_hwp_on_circular_state():
    # matrix oracle: L through the pi/8 plate lands halfway between H and V
    m = make_hwp(math.pi / 8).m
    v_in = np.array([1.0, 1j]) / math.sqrt(2.0)
    out = m @ v_in
    assert abs(out[0]) ** 2 == pytest.approx(0.5, abs=1e-12)

    state = apply(make_hwp(math.pi / 8), L).state
    assert fidelity(state, H) == pytest.approx(0.5, abs=1e-12)
    assert fidelity(state, V) == pytest.approx(0.5, abs=1e-12)


@given(angles, states)
@settings(max_examples=100, deadline=None)
def test_hwp_is_involution(theta, state):
    hwp = make_hwp(theta)
    back = apply(hwp, apply(hwp, state).state).state
    assert fidelity(back, state) == pytest.approx(1.0, abs=1e-12)


@given(angles)
@settings(max_examples=100, deadline=None)
def test_lossless_elements_are_unitary(theta):
    assert make_hwp(theta).is_unitary(1e-12)


def test_element_params_validation():
    with pytest.raises(ConfigurationError):
        ElementParams(pbs_extinction_db=-1.0)
    with pytest.raises(ConfigurationError):
        ElementParams(modulator_vpi=0.0)
    with pytest.raises(ConfigurationError):
        ElementParams(attenuator_loss_db=-0.5)


def test_db_to_power():
    assert db_to_power(3.0) == pytest.approx(0.501187, abs=1e-6)
    assert db_to_power(0.0) == 1.0
