"""5G ON-OFF loop detection (Figure 4).

A loop exists when a subsequence of serving cell sets containing both a
5G-ON and a 5G-OFF set repeats twice or more.  The loop is *persistent*
if the run ends inside the periodic region — the complete repetitions,
plus any partial-block tail that is a prefix of the block, extend to
the very end of the deduplicated sequence — and *semi-persistent* if
the sequence later leaves the loop.

Detection looks for the earliest, shortest periodic block of the
deduplicated cell set sequence; the reported block is rotated to the
canonical phase (starting at a 5G-ON set that follows a 5G-OFF one),
matching the paper's "starts with 5G ON, ends with 5G OFF"
presentation.

There is one scan, :class:`IncrementalLoopDetector`, which consumes the
sequence one interval at a time.  It maintains, per candidate period
``p``, the length of the maximal sequence suffix that matches itself at
distance ``p`` (``run[p]``), and relies on two facts about the rule:

1. *Validity is monotone*: once a ``(start, period)`` pair repeats
   ``min_repetitions`` times it stays valid as the sequence grows (the
   pair's match length never shrinks).
2. *A pair becomes valid at exactly one length*: ``(s, p)`` first
   repeats ``min_repetitions`` times at dedup length
   ``n = s + min_repetitions * p`` — a match grows only while it runs
   to the end of the sequence, so a pair that is not valid the moment
   its window completes never becomes valid.

Newly valid pairs at length ``n`` are therefore exactly
``{(n - min_repetitions * p, p) : run[p] >= (min_repetitions-1) * p}``,
and the answer — the lexicographically smallest valid
``(start, period)`` with a state-mixed block — is a running minimum
over those enumerations.  The winner's match length is tracked forward
with an open/closed flag (open == the periodic region still reaches the
end of the sequence == the persistence rule).

:func:`detect_loop` is that detector fed a whole run; the streaming
plane (:mod:`repro.core.incremental`) feeds it record by record, so
batch and live verdicts come from the same code.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from repro.core.cellset import CellSet, CellSetInterval


class LoopKind(enum.Enum):
    """Outcome of loop detection for one run (Figure 4's I / II-P / II-SP)."""

    NO_LOOP = "I"
    PERSISTENT = "II-P"
    SEMI_PERSISTENT = "II-SP"

    @property
    def is_loop(self) -> bool:
        return self is not LoopKind.NO_LOOP


@dataclass(frozen=True)
class LoopDetection:
    """The result of loop detection on one cell set sequence.

    Attributes:
        kind: no-loop / persistent / semi-persistent.
        start_index: index (into the deduplicated sequence) where the
            periodic region begins.
        period: length of the repeating block.
        repetitions: how many complete times the block repeats.
        block: the canonical (ON-first) rotation of the repeating block.
    """

    kind: LoopKind
    start_index: int = -1
    period: int = 0
    repetitions: int = 0
    block: tuple[CellSet, ...] = ()

    @property
    def is_loop(self) -> bool:
        return self.kind.is_loop


class SpanDedup:
    """Span-preserving dedup of a cell-set interval sequence.

    Consecutive equal cell sets collapse into one *element* whose time
    span covers all merged intervals.  This is the one implementation
    shared by :func:`dedup_sequence`, :func:`loop_window` and
    :class:`IncrementalLoopDetector`.

    Elements are stored as parallel lists (``cellsets``/``starts``/
    ``ends``).  Long-lived streams may :meth:`evict` old elements;
    ``base`` is the absolute index of the first retained element, so
    absolute indices (what :class:`LoopDetection.start_index` uses)
    stay stable across eviction.  Batch callers never evict and can
    index the lists directly.
    """

    __slots__ = ("cellsets", "starts", "ends", "base")

    def __init__(self) -> None:
        self.cellsets: list[CellSet] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.base = 0

    def __len__(self) -> int:
        """The absolute dedup-sequence length (including evicted)."""
        return self.base + len(self.cellsets)

    def push(self, cellset: CellSet, start_s: float, end_s: float) -> bool:
        """Add one interval; True when a new element was appended
        (False: it merged into the last element's span)."""
        if self.cellsets and self.cellsets[-1] == cellset:
            self.ends[-1] = end_s
            return False
        self.cellsets.append(cellset)
        self.starts.append(start_s)
        self.ends.append(end_s)
        return True

    def extend(self, intervals: list[CellSetInterval]) -> None:
        for interval in intervals:
            self.push(interval.cellset, interval.start_s, interval.end_s)

    def evict(self, keep_last: int) -> None:
        """Drop all but the last ``keep_last`` elements (ring bound)."""
        excess = len(self.cellsets) - keep_last
        if excess > 0:
            del self.cellsets[:excess]
            del self.starts[:excess]
            del self.ends[:excess]
            self.base += excess


def dedup_sequence(intervals: list[CellSetInterval]) -> list[CellSet]:
    """The cell set sequence with consecutive duplicates merged."""
    dedup = SpanDedup()
    dedup.extend(intervals)
    return dedup.cellsets


def _canonical_rotation(block: list[CellSet]) -> tuple[CellSet, ...]:
    """Rotate the block to start at an ON set preceded (cyclically) by OFF."""
    n = len(block)
    for shift in range(n):
        first = block[shift]
        previous = block[(shift - 1) % n]
        if first.five_g_on and not previous.five_g_on:
            return tuple(block[shift:] + block[:shift])
    return tuple(block)


class IncrementalLoopDetector:
    """The loop scan, one interval at a time (see the module docstring).

    Feed deduplicated cell-set elements via :meth:`push` (one call per
    interval; consecutive equal cell sets merge into the shared
    :class:`SpanDedup`); read the current verdict via :meth:`detection`.
    Each *new* dedup element costs ``O(min(n, horizon))`` — and dedup
    elements only appear when the serving cell set actually changes, so
    the per-record amortized cost on real streams is far lower.
    """

    def __init__(self, *, min_repetitions: int = 2,
                 horizon: int | None = None) -> None:
        if min_repetitions < 1:
            raise ValueError("min_repetitions must be >= 1")
        if horizon is not None and horizon < 2 * min_repetitions:
            raise ValueError(
                f"horizon {horizon} cannot hold even one "
                f"{min_repetitions}-repetition loop of period 2")
        self.min_repetitions = min_repetitions
        self.horizon = horizon
        self._max_period = horizon // min_repetitions if horizon else None
        self.dedup = SpanDedup()
        # Interning: cell set -> small int code (+ its 5G-ON flag), so
        # all periodicity comparisons are int comparisons.
        self._codes: dict[CellSet, int] = {}
        self._code_on: list[int] = []
        # Interned codes, parallel to dedup.cellsets, as a growable
        # numpy buffer: the per-period run update below is one
        # vectorized compare over the lag window instead of a Python
        # loop (that loop dominated per-record cost at large horizons).
        self._seq = np.empty(256, dtype=np.int64)
        self._seq_len = 0                 # ring-relative element count
        self._on_prefix: list[int] = [0]  # running 5G-ON prefix sums
        self._run = np.zeros(256, dtype=np.int64)  # run[p]: match at lag p
        self._best: tuple[int, int] | None = None   # (start, period)
        self._best_lcp = 0
        self._best_open = False
        self._best_block: tuple[CellSet, ...] = ()
        self._best_window_start = 0.0

    @property
    def best(self) -> tuple[int, int] | None:
        """The current winning ``(start_index, period)`` (None: no loop)."""
        return self._best

    @property
    def best_open(self) -> bool:
        """Whether the winner's periodic region reaches the sequence end."""
        return self._best_open

    @property
    def window_start_s(self) -> float:
        """Start time of the winning periodic region (0.0 before one)."""
        return self._best_window_start

    def __len__(self) -> int:
        """Absolute dedup-sequence length (including evicted elements)."""
        return len(self.dedup)

    def push(self, cellset: CellSet, start_s: float, end_s: float) -> bool:
        """Feed one (final) interval; True when the verdict may have moved."""
        if not self.dedup.push(cellset, start_s, end_s):
            return False
        code = self._codes.get(cellset)
        if code is None:
            code = len(self._codes)
            self._codes[cellset] = code
            self._code_on.append(1 if cellset.five_g_on else 0)
        seq = self._seq
        if self._seq_len == seq.size:
            seq = np.concatenate([seq, np.empty(seq.size, dtype=np.int64)])
            self._seq = seq
        seq[self._seq_len] = code
        self._seq_len += 1
        self._on_prefix.append(self._on_prefix[-1] + self._code_on[code])

        n = len(self.dedup)
        base = self.dedup.base
        rel = n - 1 - base               # new element, ring-relative
        moved = False

        # 1. Extend the winner's match while it still reaches the end
        #    of the sequence (== the persistence rule).
        if self._best_open:
            if seq[rel] == seq[rel - self._best[1]]:
                self._best_lcp += 1
            else:
                self._best_open = False
                moved = True

        # Only periods whose implied start can still beat the winner
        # matter, now or later: s = n - min_repetitions * p <= bs
        # requires p >= ceil((n - bs) / min_repetitions).  That bound
        # only grows with n, so run[p] below it is never read again and
        # steps 2-3 skip it: once a winner exists, each new element
        # costs O(n - p_lo) in the update and O(bs / min_repetitions)
        # in the enumeration.
        min_reps = self.min_repetitions
        best = self._best
        p_lo = 2 if best is None \
            else max(2, -((best[0] - n) // min_reps))
        # 2. Update the per-period suffix self-match lengths — one
        #    vectorized pass: run[p] advances when seq[rel - p] equals
        #    the new code and resets to zero otherwise.
        limit = rel if self._max_period is None \
            else min(rel, self._max_period)
        # The longest period that can become valid now.  It never
        # exceeds limit when min_repetitions >= 2; with 1 no match is
        # needed, so lags past the sequence start (run == 0) still count.
        p_hi = n // min_reps if self._max_period is None \
            else min(n // min_reps, self._max_period)
        run = self._run
        if run.size <= max(limit, p_hi):
            grown = np.zeros(max(run.size * 2, limit + 1, p_hi + 1),
                             dtype=np.int64)
            grown[:run.size] = run
            self._run = run = grown
        if p_lo <= limit:
            # lagged[i] = seq[rel - (p_lo + i)]
            lagged = seq[rel - limit:rel - p_lo + 1][::-1]
            window = run[p_lo:limit + 1]
            window += 1
            window *= lagged == code
        # 3. Enumerate the pairs becoming valid exactly now — (s, p)
        #    with s = n - min_repetitions * p — and fold them into the
        #    running lexicographic minimum (the (s, p) >= best check is
        #    the exact filter; p_lo is purely a prune).
        need = min_reps - 1
        for p, length in enumerate(run[p_lo:p_hi + 1].tolist(), p_lo):
            if length < need * p:
                continue
            s = n - min_reps * p
            if best is not None and (s, p) >= best:
                continue
            sp = s - base
            on_in_block = self._on_prefix[sp + p] - self._on_prefix[sp]
            if on_in_block == 0 or on_in_block == p:
                continue
            best = (s, p)
            self._elect(s, p)
            moved = True
        # 4. Ring eviction (amortized: trim half when past 2x horizon).
        if self.horizon is not None and self._seq_len > 2 * self.horizon:
            excess = self._seq_len - self.horizon
            self.dedup.evict(self.horizon)
            seq[:self.horizon] = seq[excess:self._seq_len]
            self._seq_len = self.horizon
            del self._on_prefix[:excess]
        return moved

    def _elect(self, start: int, period: int) -> None:
        """Install a new winner; materialize its block out of the ring."""
        first = start - self.dedup.base
        self._best = (start, period)
        # At election the window [start, start + min_reps * period) just
        # completed, so the match is exactly the repeated part and open.
        self._best_lcp = (self.min_repetitions - 1) * period
        self._best_open = True
        self._best_block = _canonical_rotation(
            self.dedup.cellsets[first:first + period])
        self._best_window_start = self.dedup.starts[first]

    def detection(self) -> LoopDetection:
        """The :class:`LoopDetection` for the sequence seen so far
        (what :func:`detect_loop` returns on it whenever the dedup length
        fits the horizon)."""
        if self._best is None:
            return LoopDetection(kind=LoopKind.NO_LOOP)
        start, period = self._best
        kind = LoopKind.PERSISTENT if self._best_open \
            else LoopKind.SEMI_PERSISTENT
        return LoopDetection(kind=kind, start_index=start, period=period,
                             repetitions=1 + self._best_lcp // period,
                             block=self._best_block)


def detect_loop(intervals: list[CellSetInterval],
                min_repetitions: int = 2) -> LoopDetection:
    """Detect a 5G ON-OFF loop in a cell set interval sequence.

    Finds the earliest start index, then the shortest period, whose
    block repeats at least ``min_repetitions`` times and visits both 5G
    states.  Persistence follows the paper's rule: the periodic region
    (complete repetitions plus a partial-block tail that is a prefix of
    the block) must extend to the end of the run.
    """
    detector = IncrementalLoopDetector(min_repetitions=min_repetitions)
    for interval in intervals:
        detector.push(interval.cellset, interval.start_s, interval.end_s)
    return detector.detection()


def loop_window(intervals: list[CellSetInterval],
                detection: LoopDetection) -> tuple[float, float] | None:
    """The [start, end) time span of a detection's periodic region.

    ``LoopDetection.start_index`` indexes the *deduplicated* sequence;
    this maps the periodic region — the complete repetitions plus any
    partial-block tail that continues the block — back onto the interval
    timeline, so cycle metrics can be restricted to the loop itself.
    Returns ``None`` when there is no loop or the detection does not fit
    the given intervals.
    """
    if not detection.is_loop:
        return None
    # Aggregate the intervals into deduplicated elements with time spans.
    dedup = SpanDedup()
    dedup.extend(intervals)
    cellsets = dedup.cellsets
    first = detection.start_index
    period = detection.period
    tail_start = first + period * detection.repetitions
    if first < 0 or tail_start > len(cellsets):
        return None
    block = cellsets[first:first + period]
    tail = 0
    while tail < period and tail_start + tail < len(cellsets) and \
            cellsets[tail_start + tail] == block[tail]:
        tail += 1
    last = tail_start + tail - 1
    return dedup.starts[first], dedup.ends[last]
