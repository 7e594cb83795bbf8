"""Electrical drive model: the quantized-delay rectangular pulse that
addresses the clockwise or counter-clockwise transit of each optical pulse.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from .errors import POSITIVE, ConfigurationError, check_fields, one_of, ruled

MODE_TWO_LEVEL = "two-level"
MODE_FOUR_LEVEL = "four-level"
MODES = one_of(MODE_TWO_LEVEL, MODE_FOUR_LEVEL)
DIRECTIONS = one_of("cw", "ccw")

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


class Segment(NamedTuple):
    start: float  # s
    duration: float  # s
    level: float  # V


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
