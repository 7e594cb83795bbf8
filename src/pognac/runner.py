"""Experiment orchestration: pseudorandom state sequences, windowed QBER
accounting, and the drift comparison against an inline-modulator baseline.

A run streams through one array kernel in blocks of _BLOCK or 2 * _BLOCK
pulses: int8 label codes -> phase_difference (the loop phase difference,
the only thing of a pulse that reaches the analyzer) ->
branch_probabilities (the analyzer's branch powers in closed form) ->
joint_probabilities -> sample_outcomes (uint8 outcome codes) -> the
tally's np.bincount over (window, label, outcome). No Jones vector is
built per pulse, emission times are computed only when the loop drifts,
and each block's windows are sliced from where each window of the run
begins (_first_pulses, _block_windows), not taken from every pulse.
The chance of no click is the same for every pulse, so the live set, the
pulses whose detection draw lies below receiver.click_bound, is taken
right after the draws; the others end in none, as sample_outcomes would
have given them. The whole chain from phase_difference on runs on the
live set alone wherever encoder.phase_bound proves that no pulse of the
block can overflow in phase_difference; elsewhere phase_difference runs
on every pulse, so an overflow is reported as it always was. From a
click bound of one half, the live set is the whole block, as a slice.
Such a block holds _BLOCK pulses; a partly live one holds 2 * _BLOCK,
which halves the fixed cost per block (see _BLOCK).

The tally is O(live) per pipeline (_live_set, _Tally.add): per block,
one np.bincount counts the pulses of each (window run, label), shared by
both drift pipelines; per pipeline, one np.bincount counts the live
pulses by (window run, label, outcome), and a cell's none slot also gets
the label's pulses in that run minus the live ones counted there. A
block that is live as a whole skips the first count: it derives no none.
sift_and_qber counts its records the same way, those with a click live.
Peak memory is O(block), not O(run), beyond the per-window tally and starts.

A QberSeries holds its counts as read-only int64 columns of shape
[window, label]; its CSV is rendered from them _CSV_WINDOWS windows at a
time (QberSeries.csv_chunks), which the CLI writes to the file one by one.

Randomness is organized so results are bit-identical however the work is
chunked: the label sequence comes from one seeded generator, each analysis
window draws its emission and detection randomness from streams seeded
identically to np.random.default_rng((detection_seed, window, 0|1)), and
the coins that assign double clicks under the random policy come from one
run-wide generator; every stream is consumed in pulse order. The window
streams' seed words are handed over in batches of up to _SEED_BATCH
windows (_window_streams), and each window that holds pulses gets its own
Generator(PCG64) per role, built from them: one reused seed sequence
(_seed_feed) hands each PCG64 its words.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from .encoder import (
    DRIFT_NONE,
    LABEL_CODES,
    PHASE_RANGE,
    POST_PC_LABEL,
    DriftProfile,
    EncoderConfig,
    label_code,
    label_table,
    phase_bound,
    phase_difference,
)
from .errors import POSITIVE, SEED, ConfigurationError, check_fields, one_of, ruled
from .receiver import (
    OUTCOMES,
    POLICIES,
    POLICY_DISCARD,
    POLICY_RANDOM,
    DetectorParams,
    branch_probabilities,
    click_bound,
    joint_probabilities,
    sample_outcomes,
)

SEQUENCE_HVD = "hvd-pseudorandom"
SEQUENCE_DA = "da-alternating"
_SEQUENCE_MODES = one_of(SEQUENCE_HVD, SEQUENCE_DA)

# Deterministic row order of receiver-frame labels in every output; a
# label's position is its label code.
LABEL_ORDER = tuple(POST_PC_LABEL[label] for label in LABEL_CODES)

# Nominal analyzer branch of each label code, the same in both bases.
# Branch 0 is the transmitted port. Labels unbiased to the measured basis
# keep a fixed conventional branch (H, D -> 0; V, A -> 1) and hover at
# QBER 0.5.
CORRECT_BRANCH = np.array([0, 1, 0, 1])

_DA_CODES = np.array([label_code("D"), label_code("A")], dtype=np.int8)

# Pulses per kernel call of a run whose every pulse is live; a run with a
# click bound below _ALL_LIVE takes 2 * _BLOCK, since its chain runs on the
# live set, a fraction of the block. Whatever the run or window length, a
# block's arrays are then at most 2 * _BLOCK float64 or intp (128 KiB), which
# glibc reuses from the heap once a run's first freed block has raised its
# mmap threshold: a second run of 2.4 M fig2 pulses took about 2 minor
# faults per block, and 47 at twice this _BLOCK, whose longer arrays are
# mapped or trimmed away between blocks and paged in afresh.
# All-live runs keep _BLOCK: their chain of block-sized temporaries ran
# slower at twice it.
_BLOCK = 1 << 13

# Caps on one run, checked by RunConfig before anything is allocated: the
# tally holds 24 int64 per window and pipeline, and the kernel runs at a
# few million pulses per second. _MAX_WINDOWS < 2**32 also keeps every
# window index a single uint32 word of seed entropy (see _window_streams).
_MAX_WINDOWS = 1 << 20
_MAX_PULSES = 1 << 40

# Windows whose stream seeds, or first pulses, are computed in one array pass.
_SEED_BATCH = 1 << 10

# Windows of one piece of CSV text (QberSeries.csv_chunks): a few MB of
# rows, whatever the number of windows.
_CSV_WINDOWS = 1 << 13

# Slots of one (window, label) tally cell: the outcome codes in OUTCOMES
# order, then a double click that the random policy's coin assigned to
# branch 0 or branch 1.
_CLICK_0, _CLICK_1, _DOUBLE, _NONE, _COIN_0, _COIN_1 = range(6)
_SLOTS = 6

# Click bound (receiver.click_bound) from which every pulse counts as live:
# gathering a live set of most of a block costs more than running the
# chain on the few pulses that cannot click, which it gives none anyway.
_ALL_LIVE = 0.5


@dataclass(frozen=True)
class RunConfig:
    """Everything one experiment run needs.

    sequence_seed drives only the label sequence; detection_seed drives all
    physical randomness (per-pulse phase jitter and detector sampling).
    """

    encoder: EncoderConfig = field(default_factory=EncoderConfig)
    detector: DetectorParams = field(default_factory=DetectorParams)
    repetition_rate_hz: float = ruled(1e6, POSITIVE)
    duration_s: float = ruled(3.0, POSITIVE)
    window_s: float = ruled(3.0, POSITIVE)
    sequence_mode: str = ruled(SEQUENCE_HVD, _SEQUENCE_MODES)
    sequence_seed: int = ruled(1, SEED)
    detection_seed: int = ruled(2, SEED)

    def __post_init__(self):
        check_fields(self)
        if self.duration_s < self.window_s:
            raise ConfigurationError(
                f"duration {self.duration_s} s must cover at least one window of {self.window_s} s"
            )
        pulses = self.duration_s * self.repetition_rate_hz
        if pulses > _MAX_PULSES:
            raise ConfigurationError(
                f"duration_s x repetition_rate_hz asks for {pulses:g} pulses, more than the cap of {_MAX_PULSES}"
            )
        if self.n_pulses() == 0:
            raise ConfigurationError(f"duration_s x repetition_rate_hz asks for {pulses:g} pulses, which rounds to 0")
        _window_count(self.n_pulses(), self.repetition_rate_hz, self.window_s, "duration_s / window_s")

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
        return _qber(self.n_correct, self.n_error)


def _qber(n_correct: int, n_error: int) -> float:
    """error/(correct+error); nan flags an empty cell, never silent 0."""
    n = n_correct + n_error
    return n_error / n if n else math.nan


@dataclass(frozen=True, slots=True)
class LabelStats:
    """Run-level pooled statistics for one sent label."""

    sent_label: str
    n_correct: int
    n_error: int
    n_discarded: int
    qber: float
    stderr: float


@dataclass(frozen=True, eq=False)
class QberSeries:
    """Windowed QBER time series plus run-level per-label statistics.

    The sifted counts are read-only int64 columns of shape [window, label],
    for the sent label labels[i] in column i: correct, error and discarded
    (double clicks the discard policy dropped). Window w starts at
    w * window_s.
    """

    labels: tuple[str, ...]
    window_s: float
    correct: np.ndarray
    error: np.ndarray
    discarded: np.ndarray
    # Per window: pulses ending in each outcome of OUTCOMES (click_0,
    # click_1, double, none), whatever their label; shape [window, 4].
    outcome_counts: np.ndarray

    def __eq__(self, other):
        if not isinstance(other, QberSeries):
            return NotImplemented
        return (self.labels, self.window_s) == (other.labels, other.window_s) and all(
            np.array_equal(getattr(self, name), getattr(other, name))
            for name in ("correct", "error", "discarded", "outcome_counts")
        )

    __hash__ = None  # the columns are arrays

    def _columns(self, lo: int, hi: int, starts):
        """The rows of windows lo..hi-1, in CSV order, as parallel lists:
        window start (starts[w - lo]), label, n_correct, n_error,
        n_discarded."""
        return (
            np.repeat(starts, len(self.labels)).tolist(),
            self.labels * (hi - lo),
            *(a[lo:hi].ravel().tolist() for a in (self.correct, self.error, self.discarded)),
        )

    @property
    def rows(self) -> tuple[WindowRow, ...]:
        """One row per (window, sent label), in CSV order."""
        n_windows = len(self.correct)
        return tuple(map(WindowRow, *self._columns(0, n_windows, np.arange(n_windows) * self.window_s)))

    def label_stats(self) -> dict[str, LabelStats]:
        totals = (a.sum(axis=0).tolist() for a in (self.correct, self.error, self.discarded))
        out = {}
        for label, nc, ne, nd in zip(self.labels, *totals):
            n = nc + ne
            q = _qber(nc, ne)
            se = math.sqrt(q * (1.0 - q) / n) if n else math.nan
            out[label] = LabelStats(label, nc, ne, nd, q, se)
        return out

    def csv_chunks(self):
        """to_csv() in pieces of at most _CSV_WINDOWS windows, header first."""
        yield "window_start_s,sent_label,n_correct,n_error,n_discarded,qber\n"
        row = "{},{},{},{},{},{}\n".format
        for lo in range(0, len(self.correct), _CSV_WINDOWS):
            hi = min(lo + _CSV_WINDOWS, len(self.correct))
            error = self.error[lo:hi]
            n = self.correct[lo:hi] + error
            # counts stay below 2**53 (_MAX_PULSES), so IEEE division gives Python's
            # int quotient bit for bit; nan flags an empty cell, as _qber does
            qber = np.divide(error, n, out=np.full(n.shape, math.nan), where=n > 0)
            columns = self._columns(lo, hi, _reprs(np.arange(lo, hi) * self.window_s))
            yield "".join(map(row, *columns, _reprs(qber.ravel()).tolist()))

    def to_csv(self) -> str:
        """Windowed series in the fixed output schema."""
        return "".join(self.csv_chunks())


def _reprs(values):
    """repr() of each float of the 1-d array ``values``, as an object array;
    each distinct value is rendered once. Values equal under == share a
    repr, so -0.0 would print as 0.0; no window start or QBER is negative."""
    distinct, index = np.unique(values, return_inverse=True)
    return np.array(list(map(repr, distinct.tolist())), dtype=object)[index]


class RunResult(NamedTuple):
    series: QberSeries
    summary: dict[str, LabelStats]


class DriftComparisonResult(NamedTuple):
    pognac: RunResult
    inline: RunResult


def _window_count(n_pulses: int, repetition_rate_hz: float, window_s: float, what: str) -> int:
    """The number of windows of ``n_pulses`` pulses, 0 for none; more than
    _MAX_WINDOWS are rejected before a tally is allocated for them, and
    ``what`` names the inputs that ask for them."""
    if not n_pulses:
        return 0
    # the last window's index as a float, which overflows to inf (or nan), not int()
    last = ((n_pulses - 1) / repetition_rate_hz) // window_s
    if not last < _MAX_WINDOWS:
        raise ConfigurationError(f"{what} asks for {last + 1:g} windows, more than the cap of {_MAX_WINDOWS}")
    return int(last) + 1


def _windows(t, window_s: float):
    """Analysis window of each emission time."""
    return (t // window_s).astype(np.int64)


def _runs(windows):
    """(edges, ids) of a non-decreasing window array: entries
    edges[k]..edges[k+1]-1 fall in window ids[k]."""
    edges = np.concatenate(([0], np.flatnonzero(np.diff(windows)) + 1, [len(windows)]))
    return edges, windows[edges[:-1]]


def _first_pulses(lo: int, hi: int, rate: float, window_s: float):
    """The pulse at which each window lo..hi-1 begins, as _windows(i / rate,
    window_s) places pulse i, or None if a bracket misses: the index is
    monotone in i, so window w begins at the first pulse whose window is w
    or later, predicted to be ceil(w * window_s * rate), and the formula is
    evaluated only at the five pulses within two of each prediction, which
    must bracket it, _SEED_BATCH windows at a time."""
    firsts = np.empty(hi - lo, dtype=np.int64)
    for a in range(lo, hi, _SEED_BATCH):
        w = np.arange(a, min(a + _SEED_BATCH, hi))
        bracket = np.ceil(w * window_s * rate).astype(np.int64)[:, None] + np.arange(-2, 3)
        before = _windows(bracket / rate, window_s) < w[:, None]
        if not before[:, 0].all() or before[:, -1].any():
            return None
        np.add(bracket[:, 0], before.sum(axis=1), out=firsts[a - lo : a - lo + len(w)])
    return firsts


def _block_windows(start: int, stop: int, rate: float, window_s: float, firsts):
    """Windows of pulses start..stop-1, as _windows(i / rate, window_s) gives
    them, in runs: (edges, ids), where pulses edges[k]..edges[k+1]-1 of the
    block fall in window ids[k]. Only windows that hold pulses have a run.

    The windows of the block's two ends come from Python floats, whose
    division and floor division are numpy's bit for bit; a value past the
    int64 range (or nan) takes numpy's path, with its warnings or errors.
    A block inside one window is one run. Otherwise the block's windows
    begin where ``firsts``, the _first_pulses of the run's windows from
    window 0, says; where that is None (a bracket missed, or the run has
    as many windows as pulses), the block is evaluated pulse by pulse, so
    memory stays O(block) whatever window_s * rate is.
    """
    n = stop - start
    lo, hi = (start / rate) // window_s, ((stop - 1) / rate) // window_s
    if 0 <= lo and hi < 2**63:
        lo, hi = int(lo), int(hi)
    else:
        lo, hi = _windows(np.array([start, stop - 1]) / rate, window_s).tolist()
    if lo == hi:
        return np.array([0, n]), np.array([lo])
    if firsts is None:
        return _runs(_windows(np.arange(start, stop) / rate, window_s))
    edges = np.concatenate(([start], firsts[lo + 1 : hi + 1], [stop])) - start
    full = np.flatnonzero(np.diff(edges))
    return np.append(edges[full], n), lo + full


def _label_blocks(mode: str, n_pulses: int, seed, size: int):
    """The emission sequence as int8 label codes, in blocks of at most
    ``size`` pulses (see generate_sequence)."""
    if n_pulses <= 0:
        raise ConfigurationError(f"n_pulses must be positive, got {n_pulses}")
    _SEQUENCE_MODES.check("mode", mode)
    SEED.check("seed", seed)
    rng = np.random.default_rng(seed) if mode == SEQUENCE_HVD else None
    tile = _DA_CODES[np.arange(size + 1) % 2]  # D, A, D, ...: each DA block is a view of it
    tile.flags.writeable = False
    for start in range(0, n_pulses, size):
        stop = min(start + size, n_pulses)
        if rng is None:
            yield tile[start % 2 : start % 2 + stop - start]
        else:
            yield rng.integers(0, 3, size=stop - start).astype(np.int8)


def generate_sequence(mode: str, n_pulses: int, seed) -> list[str]:
    """Reproducible emission sequence in encoder-frame labels.

    HVD mode draws uniformly from {L, R, D} (H, V, D at the receiver) with
    numpy's default PCG64 generator, index order L, R, D; DA mode alternates
    D, A deterministically.
    """
    codes = np.concatenate(list(_label_blocks(mode, n_pulses, seed, _BLOCK)))
    return [LABEL_CODES[c] for c in codes.tolist()]


_MASK32 = 0xFFFFFFFF


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


def _window_streams(seed: int, lo: int, hi: int):
    """The seed words of windows lo..hi-1, as a uint64 array of shape
    (2, hi - lo, 4) whose entry [k, w - lo] holds the four words for which
    PCG64 starts where np.random.default_rng((seed, w, k)) does, role k = 0
    (emission) or 1 (detection), when _seed_feed() hands them over.

    The words are the generate_state(4, uint64) words of numpy's
    SeedSequence (entropy mixed into a pool of four uint32 words), computed
    on uint32 arrays for all the windows and both roles at once. Each
    window index is a single entropy word because w < _MAX_WINDOWS < 2**32.
    """
    seed = int(seed)
    seed_words = [(seed >> s) & _MASK32 for s in range(0, max(seed.bit_length(), 1), 32)]
    windows = np.arange(lo, hi, dtype=np.uint32)
    shape = (2, len(windows))
    entropy = [np.full(shape, x, np.uint32) for x in seed_words]
    entropy += [np.broadcast_to(windows, shape), np.broadcast_to(np.uint32([[0], [1]]), shape)]
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
    # little-endian uint32 pairs -> the uint64 words, contiguous per (role, window),
    # as PCG64's set-seed reads them
    return np.stack([out[i] | out[i + 1] << np.uint64(32) for i in range(0, 8, 2)], axis=-1)


def _seed_feed():
    """A seed sequence that hands PCG64 the words last put in its ``words``
    attribute, as SeedSequence.generate_state(4, uint64) would; one instance
    serves every stream of a run."""
    from numpy.random.bit_generator import ISeedSequence  # on first run, not at import

    class Feed(ISeedSequence):
        words = None

        def generate_state(self, n_words, dtype=np.uint32):
            return self.words

    return Feed()


class _LiveSet(NamedTuple):
    """A block of pulses as _Tally.add counts it: run k of the block falls
    in window ids[k] and holds sent[k, c] pulses of label code c (None when
    every pulse is live); base is the tally index (run k, label code c) =
    (k * 4 + c) * _SLOTS of each live pulse, in pulse order, to which its
    outcome code is added."""

    ids: np.ndarray
    sent: np.ndarray | None
    base: np.ndarray


def _live_set(edges, ids, codes, live) -> _LiveSet:
    """The _LiveSet of the pulses with label codes ``codes``, whose entries
    edges[k]..edges[k+1]-1 fall in window ids[k] (see _runs), and whose
    live pulses are codes[live] (ascending indices, or slice(None) for all)."""
    cell = len(LABEL_CODES) * _SLOTS
    base = codes * np.intp(_SLOTS)
    if len(ids) > 1:
        base += np.repeat(np.arange(0, len(ids) * cell, cell), np.diff(edges))
    if isinstance(live, slice):
        return _LiveSet(ids, None, base)
    sent = np.bincount(base, minlength=len(ids) * cell)[::_SLOTS]
    return _LiveSet(ids, sent.reshape(len(ids), len(LABEL_CODES)), base[live])


class _Tally:
    """Pulse counts of one pipeline per (window, label code, tally slot),
    fed in pulse order so the random policy's coins are too."""

    def __init__(self, n_windows: int, double_click_policy: str, assignment_seed):
        self.cells = np.zeros((n_windows, len(LABEL_CODES), _SLOTS), dtype=np.int64)
        self.coin = None
        if double_click_policy == POLICY_RANDOM:
            self.coin = np.random.default_rng((assignment_seed, 0xD0))

    def add(self, block: _LiveSet, outcomes) -> None:
        """Count a block whose live pulses end in the outcome codes
        ``outcomes``, by one np.bincount over them; each other pulse ends in
        none, so a cell's none slot also gets the label's pulses in that run
        minus the live ones counted there."""
        flat = block.base + outcomes
        if self.coin is not None:
            doubles = np.flatnonzero(outcomes == _DOUBLE)
            flat[doubles] += (_COIN_0 - _DOUBLE) + self.coin.integers(0, 2, size=len(doubles))
        counts = np.bincount(flat, minlength=len(block.ids) * len(LABEL_CODES) * _SLOTS)
        counts = counts.reshape(len(block.ids), len(LABEL_CODES), _SLOTS)
        if block.sent is not None:
            dead = block.sent - counts.sum(axis=-1)
            assert dead.min() >= 0, "more live pulses than pulses sent in a (window, label) cell"
            counts[..., _NONE] += dead
        self.cells[block.ids] += counts

    def series(self, labels, window_s: float) -> QberSeries:
        """The windowed series for the label codes ``labels`` (ascending)."""
        outcomes = self.cells[..., : _NONE + 1].sum(axis=1)  # the slots in OUTCOMES order
        outcomes[:, _DOUBLE] += self.cells[..., _COIN_0:].sum(axis=(1, 2))
        columns = _sifted(self.cells, labels)
        for a in (*columns, outcomes):
            a.flags.writeable = False
        names = tuple(LABEL_ORDER[k] for k in labels)
        return QberSeries(names, window_s, *columns, outcomes)


def _sifted(cells, labels):
    """(n_correct, n_error, n_discarded) of tally cells [..., label code,
    slot], each indexed [..., i] for the label code labels[i]. A label's
    correct branch b = CORRECT_BRANCH[code] sums slots click_b and coin_b,
    its error branch the other two."""
    codes = np.asarray(labels, dtype=np.intp)
    b = CORRECT_BRANCH[codes]
    correct = cells[..., codes, _CLICK_0 + b] + cells[..., codes, _COIN_0 + b]
    error = cells[..., codes, _CLICK_1 - b] + cells[..., codes, _COIN_1 - b]
    return correct, error, cells[..., codes, _DOUBLE]


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
    sequence by pulse index, one per pulse. The counting is the run kernel's tally,
    capped at _MAX_WINDOWS windows as a run is.
    """
    POSITIVE.check("window_s", window_s)
    POSITIVE.check("repetition_rate_hz", repetition_rate_hz)
    POLICIES.check("double_click_policy", double_click_policy)
    SEED.check("assignment_seed", assignment_seed)

    n = len(sequence)
    n_windows = _window_count(n, repetition_rate_hz, window_s, "len(sequence) / repetition_rate_hz / window_s")
    codes = np.array([label_code(s) for s in sequence], dtype=np.int8)
    index, outcomes = [], []
    for rec in sorted(records, key=lambda r: r.pulse_index):
        idx = rec.pulse_index
        if not 0 <= idx < n:
            raise ConfigurationError(f"record pulse_index {idx} outside the sequence of {n} pulses")
        if index and idx == index[-1]:
            raise ConfigurationError(f"two records for pulse_index {idx}")
        expected = LABEL_ORDER[codes[idx]]
        if rec.sent_label != expected:
            raise ConfigurationError(
                f"record {idx} carries sent_label {rec.sent_label!r} but the sequence says {expected!r}"
            )
        if rec.outcome not in OUTCOMES:
            raise ConfigurationError(f"unknown outcome {rec.outcome!r} in record {idx}")
        index.append(idx)
        outcomes.append(OUTCOMES.index(rec.outcome))

    tally = _Tally(n_windows, double_click_policy, assignment_seed)
    if index:
        index = np.array(index)
        edges, ids = _runs(_windows(index / repetition_rate_hz, window_s))
        outcomes = np.array(outcomes, dtype=np.uint8)
        # a record with a click is live; the others are counted as none
        live = np.flatnonzero(outcomes != _NONE)
        tally.add(_live_set(edges, ids, codes[index], live), outcomes[live])
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
    rate, window_s, det, enc = config.repetition_rate_hz, config.window_s, config.detector, config.encoder
    n = config.n_pulses()
    n_windows = _window_count(n, rate, window_s, "duration_s / window_s")
    tallies = [_Tally(n_windows, det.double_click_policy, config.detection_seed) for _ in inline_flags]
    mu = label_table(enc).mu
    bound = click_bound(mu, det)
    all_live = bound >= _ALL_LIVE
    drifts = enc.drift.kind != DRIFT_NONE
    pulses = np.zeros(n_windows, dtype=np.int64)
    feed = _seed_feed()
    Generator, PCG64 = np.random.Generator, np.random.PCG64
    open_window = batch_hi = -1
    start = 0
    with _out_of_range_is_a_config_error():
        # a run with as many windows as pulses evaluates each pulse's window instead
        firsts = _first_pulses(0, n_windows, rate, window_s) if n_windows < n else None
        # blocks of a partly live run are twice as long (see _BLOCK)
        for codes in _label_blocks(config.sequence_mode, n, config.sequence_seed, _BLOCK if all_live else 2 * _BLOCK):
            stop = start + len(codes)
            edges, ids = _block_windows(start, stop, rate, window_s, firsts)
            pulses[ids] += np.diff(edges)
            normals = np.empty(len(codes))
            uniforms = np.empty(len(codes))
            for a, b, w in zip(edges.tolist(), edges[1:].tolist(), ids.tolist()):
                # a window continued from the previous block keeps its streams;
                # windows without pulses get none
                if w != open_window:
                    if w >= batch_hi:
                        batch_lo, batch_hi = w, min(w + _SEED_BATCH, n_windows)
                        words_emit, words_det = _window_streams(config.detection_seed, batch_lo, batch_hi)
                    feed.words = words_emit[w - batch_lo]
                    rng_emit = Generator(PCG64(feed))
                    feed.words = words_det[w - batch_lo]
                    rng_det = Generator(PCG64(feed))
                    open_window = w
                rng_emit.standard_normal(out=normals[a:b])
                rng_det.random(out=uniforms[a:b])
            # only these pulses can click (see click_bound); the others end in none
            live = slice(None) if all_live else np.flatnonzero(uniforms < bound)
            block = _live_set(edges, ids, codes, live)
            # phase_difference is elementwise, so it runs on the live pulses
            # alone where phase_bound proves that no pulse of the block can
            # overflow there; elsewhere on all of them, so an overflow raises as before
            on, pick = live, slice(None)
            if not all_live:
                z_max = float(max(-normals.min(), normals.max()))
                if phase_bound(enc, (stop - 1) / rate, z_max) >= PHASE_RANGE:
                    on, pick = slice(None), live
            t = None
            if drifts:
                t = (np.arange(start, stop) if isinstance(on, slice) else on + start) / rate
            args = codes[on], t, normals[on]
            start = stop
            u_live = uniforms[live]
            for inline, tally in zip(inline_flags, tallies):
                x = phase_difference(*args, enc, inline)[pick]
                # q0, q1 kept bound until the next block: freed earlier, glibc trims the heap and faults it in again
                q0, q1 = branch_probabilities(x, det.basis)
                tally.add(block, sample_outcomes(joint_probabilities(q0, q1, mu, det), u_live))

    # every pulse lands in some slot, so a label was sent iff it has counts
    labels = np.flatnonzero(tallies[0].cells.sum(axis=(0, 2))).tolist()
    results = []
    for tally in tallies:
        assert np.array_equal(tally.cells.sum(axis=(1, 2)), pulses), "outcomes per window != pulses sent"
        series = tally.series(labels, window_s)
        summary = series.label_stats()
        totals = np.stack(_sifted(tally.cells.sum(axis=0), labels), axis=-1).tolist()
        assert {label: [s.n_correct, s.n_error, s.n_discarded] for label, s in summary.items()} == {
            LABEL_ORDER[k]: t for k, t in zip(labels, totals)
        }, "label_stats() != the totals of the tally cells"
        results.append(RunResult(series, summary))
    return results


def run_experiment(config: RunConfig) -> RunResult:
    """Deterministic end-to-end pipeline, streamed in blocks: label codes ->
    phase_difference -> branch_probabilities -> joint_probabilities ->
    sample_outcomes -> windowed tally."""
    (result,) = _simulate(config, (False,))
    return result


def drift_comparison(config: RunConfig, drift: DriftProfile) -> DriftComparisonResult:
    """Identical sequence, seeds, and noise through the loop encoder and an
    inline single-pass modulator; only the drift response differs.

    With zero drift the two pipelines produce identical records.
    """
    cfg = replace(config, encoder=replace(config.encoder, drift=drift))
    return DriftComparisonResult(*_simulate(cfg, (False, True)))
