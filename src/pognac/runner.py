"""Experiment orchestration: pseudorandom state sequences, windowed QBER
accounting, and the drift comparison against an inline-modulator baseline.

A run streams through one array kernel in blocks of at most _BLOCK pulses:
int8 label codes -> emit_batch -> joint_probabilities -> sample_outcomes
(uint8 outcome codes) -> one np.bincount per block over (window, label,
outcome). Peak memory is O(block), not O(run).

Randomness is organized so results are bit-identical however the work is
chunked: the label sequence comes from one seeded generator, each analysis
window draws its emission and detection randomness from streams seeded
identically to np.random.default_rng((detection_seed, window, 0|1)), and
the coins that assign double clicks under the random policy come from one
run-wide generator; every stream is consumed in pulse order. The window
streams' PCG64 states are computed for a batch of windows at once
(_window_streams) and loaded into one reused generator per role.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from itertools import islice
from typing import NamedTuple

import numpy as np

from .encoder import (
    LABEL_CODES,
    POST_PC_LABEL,
    DriftProfile,
    EncoderConfig,
    emit_batch,
    label_code,
    label_table,
    output_pc_mapping,
)
from .errors import ConfigurationError
from .receiver import (
    OUTCOMES,
    POLICY_DISCARD,
    POLICY_RANDOM,
    DetectorParams,
    joint_probabilities,
    sample_outcomes,
)

__all__ = [
    "RunConfig",
    "QberSeries",
    "WindowRow",
    "LabelStats",
    "RunResult",
    "DriftComparisonResult",
    "output_pc_mapping",
    "generate_sequence",
    "sift_and_qber",
    "run_experiment",
    "drift_comparison",
    "SEQUENCE_HVD",
    "SEQUENCE_DA",
    "LABEL_ORDER",
]

SEQUENCE_HVD = "hvd-pseudorandom"
SEQUENCE_DA = "da-alternating"

# Deterministic row order of receiver-frame labels in every output; a
# label's position is its label code.
LABEL_ORDER = tuple(POST_PC_LABEL[label] for label in LABEL_CODES)

# Nominal analyzer branch of each label code, the same in both bases.
# Branch 0 is the transmitted port. Labels unbiased to the measured basis
# keep a fixed conventional branch (H, D -> 0; V, A -> 1) and hover at
# QBER 0.5.
CORRECT_BRANCH = np.array([0, 1, 0, 1])

_DA_CODES = np.array([label_code("D"), label_code("A")], dtype=np.int8)

# Pulses per kernel call; a block holds a few dozen float64 arrays of this
# length, whatever the run or window length. Each is 64 KiB, under glibc's
# 128 KiB mmap threshold, so the kernel's temporaries are reused from the
# heap; 512 KiB arrays were mapped or trimmed away between blocks and paged
# in afresh, about 3000 page faults per block of the drift preset.
_BLOCK = 1 << 13

# Caps on one run, checked by RunConfig before anything is allocated: the
# tally holds 24 int64 per window and pipeline, and the kernel runs at a
# few million pulses per second. _MAX_WINDOWS < 2**32 also keeps every
# window index a single uint32 word of seed entropy (see _window_streams).
_MAX_WINDOWS = 1 << 20
_MAX_PULSES = 1 << 40

# Windows whose stream seeds are computed in one array pass.
_SEED_BATCH = 1 << 10

# Slots of one (window, label) tally cell: the outcome codes in OUTCOMES
# order, then a double click that the random policy's coin assigned to
# branch 0 or branch 1.
_CLICK_0, _CLICK_1, _DOUBLE, _NONE, _COIN_0, _COIN_1 = range(6)
_SLOTS = 6


@dataclass(frozen=True)
class RunConfig:
    """Everything one experiment run needs.

    sequence_seed drives only the label sequence; detection_seed drives all
    physical randomness (per-pulse phase jitter and detector sampling).
    """

    encoder: EncoderConfig = field(default_factory=EncoderConfig)
    detector: DetectorParams = field(default_factory=DetectorParams)
    repetition_rate_hz: float = 1e6
    duration_s: float = 3.0
    window_s: float = 3.0
    sequence_mode: str = SEQUENCE_HVD
    sequence_seed: int = 1
    detection_seed: int = 2

    def __post_init__(self):
        for name in ("repetition_rate_hz", "window_s", "duration_s"):
            value = getattr(self, name)
            if not 0.0 < value < math.inf:
                raise ConfigurationError(f"{name} must be positive and finite, got {value}")
        if self.sequence_seed < 0 or self.detection_seed < 0:
            raise ConfigurationError(
                f"seeds must be >= 0, got {self.sequence_seed} and {self.detection_seed}"
            )
        if self.duration_s < self.window_s:
            raise ConfigurationError(
                f"duration {self.duration_s} s must cover at least one window of {self.window_s} s"
            )
        pulses = self.duration_s * self.repetition_rate_hz
        if pulses > _MAX_PULSES:
            raise ConfigurationError(
                f"duration_s x repetition_rate_hz asks for {pulses:g} pulses, more than the cap of {_MAX_PULSES}"
            )
        # the last window's index as a float, which overflows to inf, not int()
        last = ((self.n_pulses() - 1) / self.repetition_rate_hz) // self.window_s
        if last >= _MAX_WINDOWS:
            raise ConfigurationError(
                f"duration_s / window_s asks for {last + 1:g} windows, more than the cap of {_MAX_WINDOWS}"
            )
        if self.sequence_mode not in (SEQUENCE_HVD, SEQUENCE_DA):
            raise ConfigurationError(f"unknown sequence mode {self.sequence_mode!r}")

    def n_pulses(self) -> int:
        return int(round(self.duration_s * self.repetition_rate_hz))


@dataclass(frozen=True, slots=True)
class WindowRow:
    """Sifted counts for one (window, sent label) cell."""

    window_start_s: float
    sent_label: str
    n_correct: int
    n_error: int
    n_discarded: int

    @property
    def qber(self) -> float:
        """error/(correct+error); nan flags an empty cell, never silent 0."""
        n = self.n_correct + self.n_error
        return self.n_error / n if n else math.nan


@dataclass(frozen=True, slots=True)
class LabelStats:
    """Run-level pooled statistics for one sent label."""

    sent_label: str
    n_correct: int
    n_error: int
    n_discarded: int
    qber: float
    stderr: float


@dataclass(frozen=True)
class QberSeries:
    """Windowed QBER time series plus run-level per-label statistics."""

    rows: tuple[WindowRow, ...]
    labels: tuple[str, ...]
    window_s: float
    # Per window: pulses ending in each outcome of OUTCOMES (click_0,
    # click_1, double, none), whatever their label.
    outcome_counts: tuple[tuple[int, int, int, int], ...]

    def label_stats(self) -> dict[str, LabelStats]:
        out = {}
        for label in self.labels:
            nc = sum(r.n_correct for r in self.rows if r.sent_label == label)
            ne = sum(r.n_error for r in self.rows if r.sent_label == label)
            nd = sum(r.n_discarded for r in self.rows if r.sent_label == label)
            n = nc + ne
            if n:
                q = ne / n
                se = math.sqrt(q * (1.0 - q) / n)
            else:
                q = math.nan
                se = math.nan
            out[label] = LabelStats(label, nc, ne, nd, q, se)
        return out

    def to_csv(self) -> str:
        """Windowed series in the fixed output schema."""
        lines = ["window_start_s,sent_label,n_correct,n_error,n_discarded,qber"]
        lines += [
            f"{r.window_start_s!r},{r.sent_label},{r.n_correct},{r.n_error},"
            f"{r.n_discarded},{r.qber!r}"
            for r in self.rows
        ]
        return "\n".join(lines) + "\n"


class RunResult(NamedTuple):
    series: QberSeries
    summary: dict[str, LabelStats]


class DriftComparisonResult(NamedTuple):
    pognac: RunResult
    inline: RunResult


def _n_windows(n_pulses: int, repetition_rate_hz: float, window_s: float) -> int:
    return int(((n_pulses - 1) / repetition_rate_hz) // window_s) + 1 if n_pulses else 0


def _windows(index, repetition_rate_hz: float, window_s: float):
    """Analysis window of each pulse index."""
    return ((index / repetition_rate_hz) // window_s).astype(np.int64)


def _label_blocks(mode: str, n_pulses: int, seed):
    """The emission sequence as int8 label codes, in blocks of at most
    _BLOCK pulses (see generate_sequence)."""
    if n_pulses <= 0:
        raise ConfigurationError(f"n_pulses must be positive, got {n_pulses}")
    if mode not in (SEQUENCE_HVD, SEQUENCE_DA):
        raise ConfigurationError(f"unknown sequence mode {mode!r}")
    rng = np.random.default_rng(seed) if mode == SEQUENCE_HVD else None
    for start in range(0, n_pulses, _BLOCK):
        stop = min(start + _BLOCK, n_pulses)
        if rng is None:
            yield _DA_CODES[np.arange(start, stop) % 2]
        else:
            yield rng.integers(0, 3, size=stop - start).astype(np.int8)


def generate_sequence(mode: str, n_pulses: int, seed) -> list[str]:
    """Reproducible emission sequence in encoder-frame labels.

    HVD mode draws uniformly from {L, R, D} (H, V, D at the receiver) with
    numpy's default PCG64 generator, index order L, R, D; DA mode alternates
    D, A deterministically.
    """
    codes = np.concatenate(list(_label_blocks(mode, n_pulses, seed)))
    return [LABEL_CODES[c] for c in codes.tolist()]


# PCG64's 128-bit LCG multiplier.
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK32 = 0xFFFFFFFF
_MASK128 = (1 << 128) - 1


def _hasher(const: int, mult: int):
    """SeedSequence's running uint32 hash; the constant steps the same way
    whatever the data, so one scalar serves a whole column of seeds."""

    def hashmix(value):
        nonlocal const
        value = value ^ np.uint32(const)
        const = const * mult & _MASK32
        value = value * np.uint32(const)
        return value ^ (value >> 16)

    return hashmix


def _mix(x, y):
    r = x * np.uint32(0xCA01F9DD) - y * np.uint32(0x4973F715)
    return r ^ (r >> 16)


def _window_streams(seed: int, n_windows: int):
    """Yield, for w = 0, 1, ..., n_windows - 1, the PCG64 states of
    np.random.default_rng((seed, w, 0)) and default_rng((seed, w, 1)).

    numpy's SeedSequence (entropy mixed into a pool of four uint32 words,
    then generate_state(4, uint64)) and PCG64's set-seed, computed on uint32
    arrays for _SEED_BATCH windows and both roles at once. Each window
    index is a single entropy word because w < _MAX_WINDOWS < 2**32.
    """
    seed = int(seed)
    seed_words = [(seed >> s) & _MASK32 for s in range(0, max(seed.bit_length(), 1), 32)]
    for lo in range(0, n_windows, _SEED_BATCH):
        windows = np.arange(lo, min(lo + _SEED_BATCH, n_windows), dtype=np.uint32)
        shape = (len(windows), 2)
        entropy = [np.full(shape, x, np.uint32) for x in seed_words]
        entropy += [np.broadcast_to(windows[:, None], shape), np.broadcast_to(np.uint32([0, 1]), shape)]
        hashmix = _hasher(0x43B0D7E5, 0x931E8875)
        pool = [hashmix(entropy[i] if i < len(entropy) else np.zeros(shape, np.uint32)) for i in range(4)]
        for src in range(4):
            for dst in range(4):
                if src != dst:
                    pool[dst] = _mix(pool[dst], hashmix(pool[src]))
        for word in entropy[4:]:
            for dst in range(4):
                pool[dst] = _mix(pool[dst], hashmix(word))
        hashmix = _hasher(0x8B51F9DD, 0x58F38DED)
        out = [hashmix(pool[i % 4]).astype(np.uint64) for i in range(8)]
        # little-endian uint32 pairs -> the uint64 words (state hi, lo, seq hi, lo)
        words = [(out[i] | out[i + 1] << np.uint64(32)).ravel().tolist() for i in range(0, 8, 2)]
        states = (_pcg64_state(s_hi << 64 | s_lo, q_hi << 64 | q_lo) for s_hi, s_lo, q_hi, q_lo in zip(*words))
        yield from zip(states, states)


def _pcg64_state(initstate: int, initseq: int) -> dict:
    """PCG64's state after seeding with (initstate, initseq)."""
    inc = (initseq << 1 | 1) & _MASK128
    state = ((inc + initstate) * _PCG64_MULT + inc) & _MASK128
    return {"bit_generator": "PCG64", "state": {"state": state, "inc": inc}, "has_uint32": 0, "uinteger": 0}


class _Tally:
    """Pulse counts of one pipeline per (window, label code, tally slot),
    fed in pulse order so the random policy's coins are too."""

    def __init__(self, n_windows: int, double_click_policy: str, assignment_seed):
        self.cells = np.zeros((n_windows, len(LABEL_CODES), _SLOTS), dtype=np.int64)
        self.coin = None
        if double_click_policy == POLICY_RANDOM:
            self.coin = np.random.default_rng((assignment_seed, 0xD0))

    def add(self, windows, codes, outcomes) -> None:
        slots = outcomes.astype(np.int64)
        if self.coin is not None:
            doubles = np.flatnonzero(outcomes == _DOUBLE)
            slots[doubles] = _COIN_0 + self.coin.integers(0, 2, size=len(doubles))
        lo, hi = int(windows[0]), int(windows[-1]) + 1
        flat = ((windows - lo) * len(LABEL_CODES) + codes) * _SLOTS + slots
        counts = np.bincount(flat, minlength=(hi - lo) * len(LABEL_CODES) * _SLOTS)
        self.cells[lo:hi] += counts.reshape(hi - lo, len(LABEL_CODES), _SLOTS)

    def sifted(self):
        """(n_correct, n_error, n_discarded), each indexed [window, label code]."""
        c = self.cells
        branch0 = c[..., _CLICK_0] + c[..., _COIN_0]
        branch1 = c[..., _CLICK_1] + c[..., _COIN_1]
        first = CORRECT_BRANCH == 0
        return np.where(first, branch0, branch1), np.where(first, branch1, branch0), c[..., _DOUBLE]

    def series(self, labels, window_s: float) -> QberSeries:
        """The windowed series for the label codes ``labels`` (ascending)."""
        correct, error, discarded = (a.tolist() for a in self.sifted())
        rows = tuple(
            WindowRow(w * window_s, LABEL_ORDER[k], correct[w][k], error[w][k], discarded[w][k])
            for w in range(len(self.cells))
            for k in labels
        )
        c = self.cells.sum(axis=1)
        outcomes = np.stack(
            [c[:, _CLICK_0], c[:, _CLICK_1], c[:, _DOUBLE] + c[:, _COIN_0] + c[:, _COIN_1], c[:, _NONE]],
            axis=1,
        )
        labels = tuple(LABEL_ORDER[k] for k in labels)
        return QberSeries(rows, labels, window_s, tuple(map(tuple, outcomes.tolist())))


def sift_and_qber(
    records,
    sequence,
    window_s: float,
    repetition_rate_hz: float,
    double_click_policy: str = POLICY_DISCARD,
    assignment_seed=0,
) -> QberSeries:
    """Windowed per-label sifting of detection records.

    A click in the branch matching the sent label (CORRECT_BRANCH) counts
    as correct, the opposite branch as an error; empty outcomes drop out.
    Double clicks are discarded or coin-assigned per the policy (the coin
    stream is consumed in pulse-index order). Records must align with the
    sequence by pulse index. The counting is the run kernel's tally.
    """
    if window_s <= 0.0 or repetition_rate_hz <= 0.0:
        raise ConfigurationError("window and repetition rate must be positive")
    if double_click_policy not in (POLICY_DISCARD, POLICY_RANDOM):
        raise ConfigurationError(f"unknown double-click policy {double_click_policy!r}")

    n = len(sequence)
    codes = np.array([label_code(s) for s in sequence], dtype=np.int8)
    index, outcomes = [], []
    for rec in sorted(records, key=lambda r: r.pulse_index):
        idx = rec.pulse_index
        if not 0 <= idx < n:
            raise ConfigurationError(f"record pulse_index {idx} outside the sequence of {n} pulses")
        expected = LABEL_ORDER[codes[idx]]
        if rec.sent_label != expected:
            raise ConfigurationError(
                f"record {idx} carries sent_label {rec.sent_label!r} but the sequence says {expected!r}"
            )
        if rec.outcome not in OUTCOMES:
            raise ConfigurationError(f"unknown outcome {rec.outcome!r} in record {idx}")
        index.append(idx)
        outcomes.append(OUTCOMES.index(rec.outcome))

    tally = _Tally(_n_windows(n, repetition_rate_hz, window_s), double_click_policy, assignment_seed)
    if index:
        index = np.array(index)
        windows = _windows(index, repetition_rate_hz, window_s)
        tally.add(windows, codes[index], np.array(outcomes, dtype=np.uint8))
    return tally.series(np.unique(codes).tolist(), window_s)


@contextmanager
def _out_of_range_is_a_config_error():
    """A numpy overflow, NaN or division by zero in the kernel comes from a
    config value out of simulable range: raise it as a ConfigurationError."""
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            yield
    except FloatingPointError as exc:
        raise ConfigurationError(f"the configuration takes the simulation out of floating-point range: {exc}") from None


def _simulate(config: RunConfig, inline_flags) -> list[RunResult]:
    """Stream one run through the kernel for each pipeline in
    ``inline_flags`` (False: loop encoder, True: inline modulator).

    The pipelines share the label codes and every random draw, exactly as
    separate runs with the same seeds would draw them. Window w draws from
    its own (detection_seed, w, 0|1) streams, so any window-parallel
    execution reproduces the same outcomes.
    """
    rate, window_s, det = config.repetition_rate_hz, config.window_s, config.detector
    n = config.n_pulses()
    n_windows = _n_windows(n, rate, window_s)
    tallies = [_Tally(n_windows, det.double_click_policy, config.detection_seed) for _ in inline_flags]
    mu = label_table(config.encoder).mu
    pulses = np.zeros(n_windows, dtype=np.int64)
    streams = _window_streams(config.detection_seed, n_windows)
    bitgens = (np.random.PCG64(), np.random.PCG64())  # each window loads its own states
    rng_emit, rng_det = (np.random.Generator(b) for b in bitgens)
    open_window = -1
    start = 0
    with _out_of_range_is_a_config_error():
        for codes in _label_blocks(config.sequence_mode, n, config.sequence_seed):
            index = np.arange(start, start + len(codes))
            start += len(codes)
            t = index / rate
            windows = _windows(index, rate, window_s)
            normals = np.empty(len(codes))
            uniforms = np.empty(len(codes))
            cuts = [0, *(np.flatnonzero(np.diff(windows)) + 1).tolist(), len(codes)]
            for a, b in zip(cuts, cuts[1:]):
                w = int(windows[a])
                # a window continued from the previous block keeps its streams'
                # state; windows without pulses skip theirs
                if w != open_window:
                    for bitgen, state in zip(bitgens, next(islice(streams, w - open_window - 1, None))):
                        bitgen.state = state
                    open_window = w
                rng_emit.standard_normal(out=normals[a:b])
                rng_det.random(out=uniforms[a:b])
                pulses[w] += b - a
            for inline, tally in zip(inline_flags, tallies):
                state = emit_batch(codes, t, normals, config.encoder, inline)
                outcomes = sample_outcomes(joint_probabilities(*state, mu, det), uniforms).astype(np.uint8)
                tally.add(windows, codes, outcomes)

    # every pulse lands in some slot, so a label was sent iff it has counts
    labels = np.flatnonzero(tallies[0].cells.sum(axis=(0, 2))).tolist()
    results = []
    for tally in tallies:
        assert np.array_equal(tally.cells.sum(axis=(1, 2)), pulses), "outcomes per window != pulses sent"
        series = tally.series(labels, window_s)
        summary = series.label_stats()
        totals = np.stack(tally.sifted(), axis=-1).sum(axis=0).tolist()
        assert all(
            [s.n_correct, s.n_error, s.n_discarded] == totals[LABEL_ORDER.index(label)]
            for label, s in summary.items()
        ), "label_stats() != the sum of the rows"
        results.append(RunResult(series, summary))
    return results


def run_experiment(config: RunConfig) -> RunResult:
    """Deterministic end-to-end pipeline, streamed in blocks: label codes ->
    emit_batch -> joint_probabilities -> sample_outcomes -> windowed tally.
    """
    (result,) = _simulate(config, (False,))
    return result


def drift_comparison(config: RunConfig, drift: DriftProfile) -> DriftComparisonResult:
    """Identical sequence, seeds, and noise through the loop encoder and an
    inline single-pass modulator; only the drift response differs.

    With zero drift the two pipelines produce identical records.
    """
    cfg = replace(config, encoder=replace(config.encoder, drift=drift))
    return DriftComparisonResult(*_simulate(cfg, (False, True)))
