"""Serving cell set extraction (the paper's Appendix B).

The serving cell set (CS) at any instant is the PCell plus the MCG
SCells plus, over NSA, the SCG.  The sequence of cell sets is retrieved
by replaying the RRC signaling messages:

* RRC Setup Complete / Reestablishment Complete -> new PCell, empty set;
* RRC Reconfiguration -> apply ``sCellToAddModList`` (index -> cell) and
  ``sCellToReleaseList`` (indices!), PCell handovers, SCG setup/release;
* RRC Release, a Reestablishment *Request*, or an MM5G DEREGISTERED
  state line -> everything released (IDLE).

The index bookkeeping matters: ``sCellToReleaseList {3}`` only says
"release sCellIndex 3" — which cell that is depends on the add/mod
history, exactly as in Figure 26.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cells.cell import CellIdentity, Rat
from repro.traces.records import (
    MmStateRecord,
    Record,
    RrcReconfigurationRecord,
    RrcReestablishmentCompleteRecord,
    RrcReestablishmentRequestRecord,
    RrcReleaseRecord,
    RrcSetupCompleteRecord,
)


@dataclass(frozen=True)
class CellSet:
    """One serving cell set (immutable, hashable)."""

    pcell: CellIdentity | None = None
    mcg_scells: frozenset[CellIdentity] = frozenset()
    scg_pscell: CellIdentity | None = None
    scg_scells: frozenset[CellIdentity] = frozenset()

    @property
    def is_idle(self) -> bool:
        return self.pcell is None

    @property
    def five_g_on(self) -> bool:
        """The paper's 5G ON definition: any 5G resource actively used."""
        if self.pcell is not None and self.pcell.rat is Rat.NR:
            return True
        return self.scg_pscell is not None

    def all_cells(self) -> frozenset[CellIdentity]:
        cells: set[CellIdentity] = set()
        if self.pcell is not None:
            cells.add(self.pcell)
        cells.update(self.mcg_scells)
        if self.scg_pscell is not None:
            cells.add(self.scg_pscell)
        cells.update(self.scg_scells)
        return frozenset(cells)

    def nr_cells(self) -> frozenset[CellIdentity]:
        return frozenset(cell for cell in self.all_cells() if cell.rat is Rat.NR)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        if self.is_idle:
            return "{IDLE}"
        parts = [f"P:{self.pcell.notation}"]
        parts.extend(f"S:{cell.notation}" for cell in sorted(self.mcg_scells))
        if self.scg_pscell is not None:
            parts.append(f"PS:{self.scg_pscell.notation}")
            parts.extend(f"SS:{cell.notation}" for cell in sorted(self.scg_scells))
        return "{" + ", ".join(parts) + "}"


IDLE_CELLSET = CellSet()


@dataclass(frozen=True)
class CellSetInterval:
    """One cell set holding over a time interval."""

    cellset: CellSet
    start_s: float
    end_s: float

    @property
    def duration_s(self) -> float:
        return self.end_s - self.start_s


class _CellSetTracker:
    """Replays signaling records to maintain the current cell set."""

    def __init__(self) -> None:
        self.pcell: CellIdentity | None = None
        self.scell_table: dict[int, CellIdentity] = {}
        self.scg_pscell: CellIdentity | None = None
        self.scg_scells: tuple[CellIdentity, ...] = ()

    def snapshot(self) -> CellSet:
        return CellSet(
            pcell=self.pcell,
            mcg_scells=frozenset(self.scell_table.values()),
            scg_pscell=self.scg_pscell,
            scg_scells=frozenset(self.scg_scells),
        )

    def _reset(self) -> None:
        self.pcell = None
        self.scell_table.clear()
        self.scg_pscell = None
        self.scg_scells = ()

    def apply(self, record: Record) -> bool:
        """Apply one record; returns True if the cell set may have changed."""
        if isinstance(record, (RrcSetupCompleteRecord, RrcReestablishmentCompleteRecord)):
            self._reset()
            self.pcell = record.cell
            return True
        if isinstance(record, RrcReestablishmentRequestRecord):
            self._reset()
            return True
        if isinstance(record, RrcReleaseRecord):
            self._reset()
            return True
        if isinstance(record, MmStateRecord):
            if record.state == "DEREGISTERED":
                self._reset()
                return True
            return False
        if isinstance(record, RrcReconfigurationRecord):
            return self._apply_reconfiguration(record)
        return False

    def _apply_reconfiguration(self, record: RrcReconfigurationRecord) -> bool:
        changed = False
        if record.handover_target is not None:
            self.pcell = record.handover_target
            self.scell_table.clear()
            changed = True
        for index in record.scell_release_indices:
            if self.scell_table.pop(index, None) is not None:
                changed = True
        for entry in record.scell_add_mod:
            self.scell_table[entry.scell_index] = entry.identity
            changed = True
        if record.release_scg and (self.scg_pscell is not None or self.scg_scells):
            self.scg_pscell = None
            self.scg_scells = ()
            changed = True
        if record.scg_pscell is not None:
            self.scg_pscell = record.scg_pscell
            self.scg_scells = tuple(record.scg_scells)
            changed = True
        return changed


#: Timestamp regressions within this tolerance are clock jitter, not
#: reordering — the same slack :meth:`SignalingTrace.append` allows.
_TIME_TOLERANCE_S = 1e-9


class CellSetSequenceBuilder:
    """Streaming form of :func:`extract_cellset_sequence`.

    Records are :meth:`push`-ed one at a time; :attr:`intervals` grows
    as cell-set changes are committed and :meth:`finish` flushes the
    pending interval.  The batch function is a thin wrapper, so the two
    are identical by construction.

    Stability contract (what the incremental analyzer relies on): after
    pushing a record at time ``t``, every interval with ``end_s < t``
    is final — only the *last* interval can still be reabsorbed, and
    only by a same-instant state change (``end_s == t``).

    Out-of-order records — timestamps regressing by more than the
    trace's own 1e-9 jitter tolerance, which live streams will deliver
    — are handled per ``on_disorder``: ``"strict"`` raises
    :class:`~repro.resilience.errors.OutOfOrderRecordError`;
    ``"recover"`` clamps the record to the running maximum time and
    counts it (``records_out_of_order_total`` plus the
    :attr:`records_out_of_order` tally).  Without the clamp the builder
    would silently emit negative-duration intervals.
    """

    def __init__(self, *, on_disorder: str = "strict") -> None:
        if on_disorder not in ("strict", "recover"):
            raise ValueError(f"unknown on_disorder mode: {on_disorder!r}")
        self._tracker = _CellSetTracker()
        self._on_disorder = on_disorder
        self._started = False
        self._current: CellSet = IDLE_CELLSET
        self._current_start = 0.0
        self._last_time = 0.0
        #: Committed intervals (see the stability contract above).
        self.intervals: list[CellSetInterval] = []
        #: Intervals ever committed (stays correct when a live consumer
        #: drains :attr:`intervals`; merge-back pops do decrement it).
        self.committed = 0
        #: Out-of-order records seen so far (recover mode only).
        self.records_out_of_order = 0

    @property
    def last_time_s(self) -> float:
        """The running maximum record time (0.0 before any record)."""
        return self._last_time

    def push(self, record: Record) -> None:
        """Feed one record; may commit intervals into :attr:`intervals`."""
        time_s = record.time_s
        if self._started and time_s < self._last_time:
            if self._last_time - time_s > _TIME_TOLERANCE_S:
                if self._on_disorder == "strict":
                    from repro.resilience.errors import OutOfOrderRecordError
                    raise OutOfOrderRecordError(
                        f"record at t={time_s} precedes stream tail "
                        f"t={self._last_time}",
                        record_kind=getattr(record, "kind", None))
                self.records_out_of_order += 1
                from repro.obs import get_instrumentation
                get_instrumentation().registry.counter(
                    "records_out_of_order_total").inc()
            # Clamp: jitter-sized regressions in either mode, genuine
            # reordering in recover mode.  Effective times stay
            # non-decreasing, so no negative-duration interval can form.
            time_s = self._last_time
        if not self._started:
            self._started = True
            self._current = self._tracker.snapshot()
            self._current_start = time_s
        self._last_time = time_s
        if not self._tracker.apply(record):
            return
        new_set = self._tracker.snapshot()
        if new_set == self._current:
            return
        if time_s == self._current_start:
            # Same-timestamp state change: replace the pending state
            # instead of emitting a zero-width interval.  If the new
            # state matches the previous interval's, the split was
            # transient — merge back into it.
            if self.intervals and self.intervals[-1].cellset == new_set \
                    and self.intervals[-1].end_s == self._current_start:
                self._current_start = self.intervals.pop().start_s
                self.committed -= 1
            self._current = new_set
            return
        self.intervals.append(
            CellSetInterval(self._current, self._current_start, time_s))
        self.committed += 1
        self._current = new_set
        self._current_start = time_s

    def finish(self, end_time_s: float | None = None) -> list[CellSetInterval]:
        """Flush the pending interval and return the full sequence."""
        if not self._started:
            return self.intervals
        final_end = end_time_s if end_time_s is not None else self._last_time
        final_end = max(final_end, self._current_start)
        if final_end > self._current_start or self.committed == 0:
            self.intervals.append(
                CellSetInterval(self._current, self._current_start, final_end))
            self.committed += 1
        return self.intervals


def extract_cellset_sequence(records: list[Record],
                             end_time_s: float | None = None,
                             *, on_disorder: str = "strict",
                             ) -> list[CellSetInterval]:
    """Replay a record list into the sequence of serving cell sets.

    Consecutive identical cell sets are merged; the sequence always
    starts at the first record's time (IDLE if the trace starts before
    any setup).

    Consecutive state-changing records sharing a timestamp (a release
    immediately re-logged as a setup, say) never emit a zero-duration
    interval: the last state recorded at that instant wins.  Without
    this, downstream ``five_g_timeline``/``loop_cycles_columnar`` can see
    degenerate zero-width ON segments and produce ``on_s == 0`` cycles.

    Regressing timestamps raise
    :class:`~repro.resilience.errors.OutOfOrderRecordError` by default;
    ``on_disorder="recover"`` clamps and counts them instead (see
    :class:`CellSetSequenceBuilder`).
    """
    builder = CellSetSequenceBuilder(on_disorder=on_disorder)
    for record in records:
        builder.push(record)
    return builder.finish(end_time_s)


def five_g_timeline(intervals: list[CellSetInterval]) -> list[tuple[bool, float, float]]:
    """Collapse a cell set sequence into (is_on, start, end) segments.

    Adjacent same-state intervals merge only when they are contiguous
    (``segments[-1][2] == interval.start_s``): a gap between intervals
    (dropped stream chunks) must not be silently absorbed into ON/OFF
    time.  Batch-extracted sequences are always contiguous, so their
    segments are unchanged.
    """
    segments: list[tuple[bool, float, float]] = []
    for interval in intervals:
        on = interval.cellset.five_g_on
        if segments and segments[-1][0] == on \
                and segments[-1][2] == interval.start_s:
            previous = segments[-1]
            segments[-1] = (on, previous[1], interval.end_s)
        else:
            segments.append((on, interval.start_s, interval.end_s))
    return segments
