"""Electrical drive model: quantized-delay rectangular pulse patterns that
address the clockwise or counter-clockwise transit of each optical pulse.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from .errors import ConfigurationError

MODE_TWO_LEVEL = "two-level"
MODE_FOUR_LEVEL = "four-level"
ENCODER_LABELS = ("D", "L", "R", "A")


class Segment(NamedTuple):
    start: float  # s
    duration: float  # s
    level: float  # V


@dataclass(frozen=True)
class Waveform:
    """Piecewise-constant voltage vs time: sorted, non-overlapping segments
    over a constant baseline (0 V unless stated)."""

    segments: tuple[Segment, ...] = ()
    baseline: float = 0.0

    def __post_init__(self):
        segs = tuple(sorted((Segment(*s) for s in self.segments), key=lambda s: s.start))
        for seg in segs:
            if seg.duration <= 0.0:
                raise ConfigurationError(f"segment durations must be positive, got {seg.duration}")
        for prev, nxt in zip(segs, segs[1:]):
            if prev.start + prev.duration > nxt.start:
                raise ConfigurationError(
                    f"segments overlap: [{prev.start}, {prev.start + prev.duration}) and "
                    f"[{nxt.start}, {nxt.start + nxt.duration})"
                )
        object.__setattr__(self, "segments", segs)


@dataclass(frozen=True)
class PatternSpec:
    """Timing grid of the pulse generator driving the modulator.

    a_pulse_direction picks which transit carries the full-wave pulse for
    the A state in two-level mode (either works; CW is the default).
    """

    pulse_width: float = 3e-9  # s
    delay_granularity: float = 100e-12  # s
    mode: str = MODE_TWO_LEVEL
    a_pulse_direction: str = "cw"

    def __post_init__(self):
        if self.pulse_width <= 0.0:
            raise ConfigurationError(f"pulse_width must be positive, got {self.pulse_width}")
        if self.delay_granularity <= 0.0:
            raise ConfigurationError(
                f"delay_granularity must be positive, got {self.delay_granularity}"
            )
        if self.mode not in (MODE_TWO_LEVEL, MODE_FOUR_LEVEL):
            raise ConfigurationError(f"unknown encoding mode {self.mode!r}")
        if self.a_pulse_direction not in ("cw", "ccw"):
            raise ConfigurationError(f"a_pulse_direction must be cw or ccw, got {self.a_pulse_direction!r}")


def quantize_delay(requested: float, granularity: float) -> float:
    """Snap a delay to the nearest multiple of the generator granularity.

    Exact half-step ties round toward zero. Idempotent.
    """
    if granularity <= 0.0:
        raise ConfigurationError(f"granularity must be positive, got {granularity}")
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
) -> Waveform:
    """Drive waveform selecting one of the four output states.

    Two-level mode: D no pulse; L a vpi/2 pulse on the CW transit; R a vpi/2
    pulse on the CCW transit; A a vpi pulse on the transit named by
    spec.a_pulse_direction. Four-level mode: a single pulse on the CW
    transit at {0, vpi/2, vpi, 3 vpi/2} for {D, L, A, R}; the zero level is
    the empty waveform.

    Pulses are centered on the addressed arrival time, with the start
    snapped to the delay granularity. The two transits must be separated by
    more than one pulse width so a pulse can address exactly one of them.
    """
    if state not in ENCODER_LABELS:
        raise ConfigurationError(f"unknown state label {state!r}; expected one of {ENCODER_LABELS}")
    if vpi <= 0.0:
        raise ConfigurationError(f"vpi must be positive, got {vpi}")
    gap = abs(cw_arrival - ccw_arrival)
    if not gap > spec.pulse_width:
        raise ConfigurationError(
            f"electrical pulse width {spec.pulse_width} s overlaps both transits: "
            f"CW at {cw_arrival} s and CCW at {ccw_arrival} s are only {gap} s apart"
        )

    if spec.mode == MODE_TWO_LEVEL:
        if state == "D":
            return Waveform()
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
            return Waveform()
        center = cw_arrival

    start = quantize_delay(center - spec.pulse_width / 2.0, spec.delay_granularity)
    return Waveform((Segment(start, spec.pulse_width, level),))
