"""Experiment orchestration: pseudorandom state sequences, windowed QBER
accounting, and the drift comparison against an inline-modulator baseline.

A run streams through one array kernel in blocks of _BLOCK or 2 * _BLOCK
pulses: int8 label codes -> phase_difference (the loop phase difference,
the only thing of a pulse that reaches the analyzer) ->
branch_probabilities (the analyzer's branch powers in closed form) ->
joint_probabilities -> sample_outcomes (uint8 outcome codes) -> the
tally's np.bincount over (window, label, outcome). No Jones vector is
built per pulse and emission times are computed only when the loop
drifts. Every block is one contiguous range of windows, lo..hi, cut at
the pulse where each of them begins (_block_windows, _first_pulses), not
by a window index taken from every pulse.
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
one np.bincount counts the pulses of each (window, label), shared by
both drift pipelines; per pipeline, one np.bincount counts the live
pulses by (window, label, outcome), and a cell's none slot also gets
the label's pulses in that window minus the live ones counted there;
the block's cells are added to windows lo..hi as one slice. A block
that is live as a whole skips the first count: it derives no none.
sift_and_qber counts its records the same way, those with a click live.

The tally holds a pipeline's windows and hands them out (_Tally.hand_out,
a _Piece). Windows close in order: a block's first window can only
continue the previous block's last one. So _simulate hands the windows
out as they close, each time at least _SEED_BATCH of them are closed and
once at the end, and a run holds the tally cells of at most _SEED_BATCH
windows plus one block's windows, whatever its number of windows. Two
checks run on a run and on sift_and_qber alike: per block, the outcomes
of each window add up to the pulses sent in it; per hand-out, the label
totals of the cells equal the sums of the piece's rows.
run_experiment and drift_comparison copy the pieces into the columns of a
QberSeries: read-only int64 columns of shape [window, label]. The CLI
writes each piece's CSV rows as it arrives (_stream_csv), through a
temporary file, and keeps only running label totals. One renderer
(_csv_rows) turns at most _SEED_BATCH windows at a time into CSV text, for
QberSeries.to_csv and the CLI alike.

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

# The most windows one block spans: a block of shorter windows is cut to
# span about this many, since it holds about 1 KiB of tally and live-set
# counts per window it spans, about 4 MiB here. A cut to _SEED_BATCH
# windows read about 4 % fewer pulses/s at one and two pulses per window;
# this one read no loss.
_BLOCK_WINDOWS = 1 << 12

# Caps on one run, checked by RunConfig before anything is allocated: the
# tally holds 24 int64 per window and pipeline, and the kernel runs at a
# few million pulses per second. _MAX_WINDOWS < 2**32 also keeps every
# window index a single uint32 word of seed entropy (see _window_streams).
_MAX_WINDOWS = 1 << 20
_MAX_PULSES = 1 << 40

# Windows whose stream seeds, or first pulses, are computed in one array
# pass; the fewest closed windows a run hands out at a time, and the most
# rendered into one piece of CSV text.
_SEED_BATCH = 1 << 10

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

    @property
    def rows(self) -> tuple[WindowRow, ...]:
        """One row per (window, sent label), in CSV order."""
        starts = np.repeat(np.arange(len(self.correct)) * self.window_s, len(self.labels)).tolist()
        counts = (a.ravel().tolist() for a in (self.correct, self.error, self.discarded))
        return tuple(map(WindowRow, starts, self.labels * len(self.correct), *counts))

    def label_stats(self) -> dict[str, LabelStats]:
        return _label_stats(self.labels, *(a.sum(axis=0).tolist() for a in (self.correct, self.error, self.discarded)))

    def to_csv(self) -> str:
        """Windowed series in the fixed output schema."""
        return _CSV_HEADER + "".join(_csv_rows(self.labels, self.window_s, 0, self.correct, self.error, self.discarded))


_CSV_HEADER = "window_start_s,sent_label,n_correct,n_error,n_discarded,qber\n"


def _label_stats(labels, n_correct, n_error, n_discarded) -> dict[str, LabelStats]:
    """The LabelStats of each label labels[i], from its totals n_correct[i],
    n_error[i] and n_discarded[i] (Python ints)."""
    out = {}
    for label, nc, ne, nd in zip(labels, n_correct, n_error, n_discarded):
        n = nc + ne
        q = _qber(nc, ne)
        se = math.sqrt(q * (1.0 - q) / n) if n else math.nan
        out[label] = LabelStats(label, nc, ne, nd, q, se)
    return out


def _csv_rows(labels, window_s: float, lo: int, correct, error, discarded):
    """The CSV rows of windows lo, lo + 1, ..., whose [window, label]
    counts are given, as pieces of text of at most _SEED_BATCH windows.
    Each piece is one %-format over an object array of its rows' six
    fields: the starts and qbers as repr strings, the counts as Python ints."""
    for a in range(0, len(correct), _SEED_BATCH):
        b = min(a + _SEED_BATCH, len(correct))
        n = correct[a:b] + error[a:b]
        # counts stay below 2**53 (_MAX_PULSES), so IEEE division gives Python's
        # int quotient bit for bit; nan flags an empty cell, as _qber does
        qber = np.divide(error[a:b], n, out=np.full(n.shape, math.nan), where=n > 0)
        fields = np.empty((b - a, len(labels), 6), dtype=object)
        fields[..., 0] = _reprs(np.arange(lo + a, lo + b) * window_s)[:, None]
        fields[..., 1] = labels
        for k, column in enumerate((correct, error, discarded), 2):
            fields[..., k] = column[a:b]
        fields[..., 5] = _reprs(qber.ravel()).reshape(qber.shape)
        yield ("%s,%s,%s,%s,%s,%s\n" * n.size) % tuple(fields.ravel())


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


def _edges(windows, lo: int, hi: int):
    """Where each window lo..hi of the non-decreasing window array
    ``windows`` (all within lo..hi) begins: entries edges[k]..edges[k+1]-1
    fall in window lo + k, and a window without entries has a zero-length
    run."""
    return np.searchsorted(windows, np.arange(lo, hi + 2))


def _first_pulses(lo: int, hi: int, rate: float, window_s: float):
    """The pulse at which each window lo..hi-1 begins, as _windows(i / rate,
    window_s) places pulse i, or None if a bracket misses: the index is
    monotone in i, so window w begins at the first pulse whose window is w
    or later, predicted to be ceil(w * window_s * rate), and the formula is
    evaluated only at the five pulses within two of each prediction, which
    must bracket it, _SEED_BATCH windows at a time. A window without pulses
    begins where the next window that holds one does."""
    firsts = np.empty(hi - lo, dtype=np.int64)
    for a in range(lo, hi, _SEED_BATCH):
        w = np.arange(a, min(a + _SEED_BATCH, hi))
        bracket = np.ceil(w * window_s * rate).astype(np.int64)[:, None] + np.arange(-2, 3)
        before = _windows(bracket / rate, window_s) < w[:, None]
        if not before[:, 0].all() or before[:, -1].any():
            return None
        np.add(bracket[:, 0], before.sum(axis=1), out=firsts[a - lo : a - lo + len(w)])
    return firsts


def _block_windows(start: int, stop: int, rate: float, window_s: float):
    """Windows of pulses start..stop-1, as _windows(i / rate, window_s) gives
    them, as one window range: (lo, edges), where pulses
    edges[k]..edges[k+1]-1 of the block fall in window lo + k. The edges
    cover every window from the block's first to its last; one without
    pulses has a zero-length run.

    The formula is evaluated at the block's two ends, which give its first
    and last windows, and around the pulse at which each later window
    begins (_first_pulses); only where a bracket misses is it evaluated
    pulse by pulse. Work and memory are O(block + windows spanned).
    """
    lo, hi = _windows(np.array([start, stop - 1]) / rate, window_s).tolist()
    firsts = _first_pulses(lo + 1, hi + 1, rate, window_s)
    if firsts is None:
        return lo, _edges(_windows(np.arange(start, stop) / rate, window_s), lo, hi)
    return lo, np.concatenate(([start], firsts, [stop])) - start


def _label_blocks(mode: str, n_pulses: int, seed, size: int):
    """The emission sequence as int8 label codes, in blocks of at most
    ``size`` pulses (see generate_sequence)."""
    if not (SEED.ok(n_pulses) and n_pulses > 0):
        raise ConfigurationError(f"n_pulses must be a positive integer, got {n_pulses}")
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
    words = np.stack([out[i] | out[i + 1] << np.uint64(32) for i in range(0, 8, 2)], axis=-1)
    # PCG64 reads four uint64 words from where each row begins, unchecked
    if words.dtype != np.uint64 or words.shape[-1] != 4 or not words.flags.c_contiguous:
        raise TypeError(f"seed words must be C-contiguous uint64 rows of 4, got {words.dtype} {words.shape}")
    return words


def _seed_feed():
    """A seed sequence that hands PCG64 the words last put in its ``words``
    attribute, as SeedSequence.generate_state(4, uint64) would; one instance
    serves every stream of a run."""
    from numpy.random.bit_generator import ISeedSequence  # on first run, not at import

    class Feed(ISeedSequence):
        words = None

        def generate_state(self, n_words, dtype=np.uint32):
            # PCG64 reads the words through a raw pointer: None would be read as data
            if self.words is None:
                raise ValueError("no seed words were handed to the seed sequence")
            return self.words

    return Feed()


class _LiveSet(NamedTuple):
    """A block of pulses as _Tally.add counts it: it spans the n_windows
    windows from lo on, and window lo + k holds pulses[k] pulses, sent[k, c]
    of them of label code c (None when every pulse is live); base is the
    tally index (window lo + k, label code c) = (k * 4 + c) * _SLOTS of each
    live pulse, in pulse order, to which its outcome code is added."""

    lo: int
    n_windows: int
    pulses: np.ndarray
    sent: np.ndarray | None
    base: np.ndarray


def _live_set(lo: int, edges, codes, live) -> _LiveSet:
    """The _LiveSet of the pulses with label codes ``codes``, whose entries
    edges[k]..edges[k+1]-1 fall in window lo + k (see _block_windows), and
    whose live pulses are codes[live] (ascending indices, or slice(None)
    for all)."""
    cell = len(LABEL_CODES) * _SLOTS
    pulses = np.diff(edges)
    n_windows = len(pulses)
    base = codes * np.intp(_SLOTS)
    if n_windows > 1:
        base += np.repeat(np.arange(0, n_windows * cell, cell), pulses)
    if isinstance(live, slice):
        return _LiveSet(lo, n_windows, pulses, None, base)
    sent = np.bincount(base, minlength=n_windows * cell)[::_SLOTS]
    return _LiveSet(lo, n_windows, pulses, sent.reshape(n_windows, len(LABEL_CODES)), base[live])


class _Piece(NamedTuple):
    """Windows lo, lo + 1, ... of one pipeline's run, as the columns of a
    QberSeries hold them."""

    lo: int
    correct: np.ndarray
    error: np.ndarray
    discarded: np.ndarray
    outcome_counts: np.ndarray


class _Tally:
    """Pulse counts of one pipeline per (window, label code, tally slot),
    fed in pulse order so the random policy's coins are too, for the
    windows lo, lo + 1, ... not handed out yet, in cells[w - lo]. Windows
    close in order, so cells are added at the end as blocks reach later
    windows and handed out from the front; the tally holds at most the
    windows between two hand-outs, and as many spare rows, up to
    _SEED_BATCH."""

    def __init__(self, double_click_policy: str, assignment_seed):
        self.lo = 0
        self.top = 0  # windows lo..lo+top-1 may hold counts
        self.cells = np.zeros((0, len(LABEL_CODES), _SLOTS), dtype=np.int64)
        self.coin = None
        if double_click_policy == POLICY_RANDOM:
            self.coin = np.random.default_rng((assignment_seed, 0xD0))

    def _reach(self, n: int) -> None:
        if n > len(self.cells):
            cells = np.zeros((n + min(n, _SEED_BATCH), *self.cells.shape[1:]), dtype=np.int64)
            cells[: self.top] = self.cells[: self.top]
            self.cells = cells

    def add(self, block: _LiveSet, outcomes) -> None:
        """Count a block, from self.lo on, whose live pulses end in the
        outcome codes ``outcomes``, by one np.bincount over them; each other
        pulse ends in none, so a cell's none slot also gets the label's
        pulses in that window minus the live ones counted there. The
        block's outcomes in each window must add up to its pulses there."""
        flat = block.base + outcomes
        if self.coin is not None:
            doubles = np.flatnonzero(outcomes == _DOUBLE)
            flat[doubles] += (_COIN_0 - _DOUBLE) + self.coin.integers(0, 2, size=len(doubles))
        counts = np.bincount(flat, minlength=block.n_windows * len(LABEL_CODES) * _SLOTS)
        counts = counts.reshape(block.n_windows, len(LABEL_CODES), _SLOTS)
        if block.sent is not None:
            dead = block.sent - counts.sum(axis=-1)
            assert dead.min() >= 0, "more live pulses than pulses sent in a (window, label) cell"
            counts[..., _NONE] += dead
        assert np.array_equal(counts.sum(axis=(1, 2)), block.pulses), "outcomes per window != pulses sent"
        a = block.lo - self.lo
        top = a + block.n_windows
        self._reach(top)
        self.cells[a:top] += counts
        self.top = max(self.top, top)

    def hand_out(self, hi: int, labels) -> _Piece:
        """Windows lo..hi-1, which are closed, as a _Piece with the columns
        of the label codes ``labels``, whose rows must add up to the label
        totals of its cells; the windows from hi on move to the front."""
        k = hi - self.lo
        self._reach(k)
        cells = self.cells[:k]
        piece = _Piece(self.lo, *_columns(cells, labels))
        totals = _sifted(cells.sum(axis=0), labels)
        assert all(
            np.array_equal(a.sum(axis=0), t) for a, t in zip(piece[1:4], totals)
        ), "label totals != the sums of the piece's rows"
        rest = max(self.top - k, 0)
        self.cells[:rest] = self.cells[k : k + rest]
        self.cells[rest : k + rest] = 0
        self.lo, self.top = hi, rest
        return piece


def _columns(cells, labels):
    """(correct, error, discarded, outcome_counts) of the tally cells
    [window, label code, slot], the first three for the label codes
    ``labels`` (see _sifted); outcome_counts[w] holds window w's pulses
    ending in each outcome of OUTCOMES, whatever their label."""
    outcomes = cells[..., : _NONE + 1].sum(axis=1)  # the slots in OUTCOMES order
    outcomes[:, _DOUBLE] += cells[..., _COIN_0:].sum(axis=(1, 2))
    return (*_sifted(cells, labels), outcomes)


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


def _series(labels, window_s: float, columns) -> QberSeries:
    """The QberSeries of the label codes ``labels`` (ascending) from its
    columns (correct, error, discarded, outcome_counts), made read-only."""
    for a in columns:
        a.flags.writeable = False
    return QberSeries(_names(labels), window_s, *columns)


def _names(labels) -> tuple[str, ...]:
    return tuple(LABEL_ORDER[k] for k in labels)


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
    for rec in sorted(records, key=lambda r: SEED.check("pulse_index", r.pulse_index)):
        idx = rec.pulse_index
        if idx >= n:
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

    tally = _Tally(double_click_policy, assignment_seed)
    if index:
        index = np.array(index)
        windows = _windows(index / repetition_rate_hz, window_s)
        lo, hi = windows[[0, -1]].tolist()
        edges = _edges(windows, lo, hi)
        outcomes = np.array(outcomes, dtype=np.uint8)
        # a record with a click is live; the others are counted as none
        live = np.flatnonzero(outcomes != _NONE)
        tally.add(_live_set(lo, edges, codes[index], live), outcomes[live])
    labels = np.unique(codes).tolist()
    return _series(labels, window_s, tally.hand_out(n_windows, labels)[1:])


@contextmanager
def _out_of_range_is_a_config_error():
    """A numpy overflow, NaN or division by zero in the kernel comes from a
    config value out of simulable range: raise it as a ConfigurationError."""
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            yield
    except FloatingPointError as exc:
        raise ConfigurationError(f"the configuration takes the simulation out of floating-point range: {exc}") from None


def _sent_labels(config: RunConfig) -> list[int]:
    """The label codes sent anywhere in the run, ascending. The label
    sequence is read again, block by block from a fresh generator, until
    every code its mode can send has appeared: pulses 0 and 1 for D/A,
    normally the first block for HVD, and the whole of a run too short to
    send them all."""
    sendable = len(_DA_CODES) if config.sequence_mode == SEQUENCE_DA else 3  # HVD: codes 0..2
    seen = np.zeros(len(LABEL_CODES), dtype=bool)
    # short blocks: the first one all but always holds every code
    for codes in _label_blocks(config.sequence_mode, config.n_pulses(), config.sequence_seed, 256):
        seen[codes] = True
        if seen.sum() == sendable:
            break
    return np.flatnonzero(seen).tolist()


def _simulate(config: RunConfig, inline_flags, labels):
    """Stream one run through the kernel for each pipeline in
    ``inline_flags`` (False: loop encoder, True: inline modulator), and
    hand its windows out as they close: each time at least _SEED_BATCH
    windows are closed, and once at the end, yield one _Piece per
    pipeline, with the columns of the label codes ``labels``
    (_sent_labels). The pieces cover windows 0, 1, ... in order.

    The pipelines share the label codes and every random draw, exactly as
    separate runs with the same seeds would draw them. Window w draws from
    its own (detection_seed, w, 0|1) streams, so any window-parallel
    execution reproduces the same outcomes.
    """
    rate, window_s, det, enc = config.repetition_rate_hz, config.window_s, config.detector, config.encoder
    n = config.n_pulses()
    n_windows = _window_count(n, rate, window_s, "duration_s / window_s")
    tallies = [_Tally(det.double_click_policy, config.detection_seed) for _ in inline_flags]
    mu = label_table(enc).mu
    bound = click_bound(mu, det)
    all_live = bound >= _ALL_LIVE
    drifts = enc.drift.kind != DRIFT_NONE
    feed = _seed_feed()
    Generator, PCG64 = np.random.Generator, np.random.PCG64
    # blocks of a partly live run are twice as long (see _BLOCK), and span
    # at most about _BLOCK_WINDOWS windows
    size = _BLOCK if all_live else 2 * _BLOCK
    span = _BLOCK_WINDOWS * window_s * rate
    if span < size:
        size = max(int(span), 1)
    open_window = batch_hi = -1
    start = 0
    for codes in _label_blocks(config.sequence_mode, n, config.sequence_seed, size):
        stop = start + len(codes)
        with _out_of_range_is_a_config_error():
            lo, edges = _block_windows(start, stop, rate, window_s)
            normals = np.empty(len(codes))
            uniforms = np.empty(len(codes))
            for w, (a, b) in enumerate(zip(edges.tolist(), edges[1:].tolist()), lo):
                if a == b:
                    continue  # a window without pulses gets no streams
                # a window continued from the previous block keeps its streams
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
            block = _live_set(lo, edges, codes, live)
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
            u_live = uniforms[live]
            for inline, tally in zip(inline_flags, tallies):
                x = phase_difference(*args, enc, inline)[pick]
                # q0, q1 kept bound until the next block: freed earlier, glibc trims the heap and faults it in again
                q0, q1 = branch_probabilities(x, det.basis)
                tally.add(block, sample_outcomes(joint_probabilities(q0, q1, mu, det), u_live))
        start = stop
        # the next block begins in this block's last window or a later one
        closed = n_windows if stop == n else lo + len(edges) - 2
        if closed - tallies[0].lo >= _SEED_BATCH or stop == n:
            yield tuple(tally.hand_out(closed, labels) for tally in tallies)


def _collect(config: RunConfig, inline_flags) -> list[RunResult]:
    """The RunResult of each pipeline of _simulate, its pieces copied into
    columns allocated once for the whole run."""
    labels = _sent_labels(config)
    n_windows = _window_count(config.n_pulses(), config.repetition_rate_hz, config.window_s, "duration_s / window_s")
    columns = [
        [np.empty((n_windows, width), dtype=np.int64) for width in (len(labels),) * 3 + (len(OUTCOMES),)]
        for _ in inline_flags
    ]
    for pieces in _simulate(config, inline_flags, labels):
        for piece, pipeline in zip(pieces, columns):
            for column, part in zip(pipeline, piece[1:]):
                column[piece.lo : piece.lo + len(part)] = part
    results = []
    for pipeline in columns:
        series = _series(labels, config.window_s, pipeline)
        results.append(RunResult(series, series.label_stats()))
    return results


def _stream_csv(config: RunConfig, inline_flags, files) -> list[dict[str, LabelStats]]:
    """Run ``config`` as _simulate does and write each pipeline's CSV, the
    column header first, to files[k] (open text files) as its windows
    close; return each pipeline's label_stats(), from running totals."""
    labels = _sent_labels(config)
    names = _names(labels)
    totals = np.zeros((len(files), 3, len(labels)), dtype=np.int64)
    for f in files:
        f.write(_CSV_HEADER)
    for pieces in _simulate(config, inline_flags, labels):
        for f, piece, total in zip(files, pieces, totals):
            f.writelines(_csv_rows(names, config.window_s, *piece[:4]))
            total += [a.sum(axis=0) for a in piece[1:4]]
    return [_label_stats(names, *total.tolist()) for total in totals]


def run_experiment(config: RunConfig) -> RunResult:
    """Deterministic end-to-end pipeline, streamed in blocks: label codes ->
    phase_difference -> branch_probabilities -> joint_probabilities ->
    sample_outcomes -> windowed tally."""
    (result,) = _collect(config, (False,))
    return result


def drift_comparison(config: RunConfig, drift: DriftProfile) -> DriftComparisonResult:
    """Identical sequence, seeds, and noise through the loop encoder and an
    inline single-pass modulator; only the drift response differs.

    With zero drift the two pipelines produce identical records.
    """
    cfg = replace(config, encoder=replace(config.encoder, drift=drift))
    return DriftComparisonResult(*_collect(cfg, (False, True)))
