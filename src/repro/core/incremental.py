"""Online (record-at-a-time) loop analysis for live device streams.

``analyze_trace`` needs the whole trace before it says anything; a
fleet-scale ingest service (see :mod:`repro.serve`) needs a verdict
*while* the stream is open.  This module provides the streaming core:

* :class:`~repro.core.loops.IncrementalLoopDetector` — the one loop
  scan, shared with :func:`~repro.core.loops.detect_loop`.  Here it runs
  with a ``horizon`` ring: only the last ``horizon`` dedup elements are
  retained (:meth:`~repro.core.loops.SpanDedup.evict`), capping the
  detectable period at ``horizon // min_repetitions``.  Verdicts equal
  ``detect_loop``'s whenever the final dedup length fits the horizon;
  the winning block is materialized the moment it is elected, so
  eviction never invalidates an already-reported loop.

* :class:`IncrementalAnalyzer` — feeds records through a streaming
  :class:`~repro.core.cellset.CellSetSequenceBuilder` and the detector.
  Only *stable* intervals are published to the detector: the cell-set
  builder may still reabsorb its most recent interval on a
  same-timestamp state change, so an interval enters the dedup sequence
  once the stream clock has strictly passed its end.  In ``mode="full"``
  the analyzer also accumulates the columnar record tables
  (:class:`~repro.core.columnar.RecordColumnsBuilder`) and
  :meth:`finalize` assembles a :class:`~repro.core.pipeline.RunAnalysis`
  through the same :func:`~repro.core.pipeline.assemble_analysis` the
  batch pipeline uses — field-for-field identical to ``analyze_trace``
  on the same records (Hypothesis-gated in
  ``tests/test_core_incremental.py``).  ``mode="live"`` retains no
  records or intervals at all — per-stream state is the tracker, the
  dedup ring and a handful of counters — and :meth:`finalize` returns a
  compact :class:`StreamVerdict`.

Out-of-order records (live streams deliver them; batch traces cannot)
follow the ``extract_cellset_sequence`` taxonomy: ``on_disorder=
"strict"`` raises :class:`~repro.resilience.errors.OutOfOrderRecordError`,
``"recover"`` clamps the record to the running maximum time and counts
it (``records_out_of_order_total``).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable, Iterable

from repro.core.cellset import _TIME_TOLERANCE_S, CellSetSequenceBuilder
from repro.core.columnar import IntervalColumns, RecordColumnsBuilder
from repro.core.loops import IncrementalLoopDetector, LoopDetection
from repro.core.pipeline import RunAnalysis, assemble_analysis
from repro.traces.log import TraceMetadata
from repro.traces.records import Record, ThroughputSampleRecord

__all__ = [
    "IncrementalAnalyzer",
    "StreamVerdict",
]

#: ``on_event`` callback signature: ``callback(name, **fields)``.
EventCallback = Callable[..., None]


@dataclass(frozen=True)
class StreamVerdict:
    """What ``mode="live"`` :meth:`IncrementalAnalyzer.finalize` returns."""

    detection: LoopDetection
    records: int
    dedup_elements: int
    records_out_of_order: int
    duration_s: float

    def to_dict(self) -> dict:
        return {
            "kind": self.detection.kind.value,
            "start_index": self.detection.start_index,
            "period": self.detection.period,
            "repetitions": self.detection.repetitions,
            "records": self.records,
            "dedup_elements": self.dedup_elements,
            "records_out_of_order": self.records_out_of_order,
            "duration_s": self.duration_s,
        }


class IncrementalAnalyzer:
    """Record-at-a-time analysis of one device stream.

    ``mode="full"`` (default) retains what the batch pipeline retains —
    record columns and the interval list — and :meth:`finalize` returns
    a :class:`RunAnalysis` field-for-field identical to
    ``analyze_trace`` on the same records.  ``mode="live"`` keeps only
    bounded state (tracker + dedup ring + counters) and :meth:`finalize`
    returns a :class:`StreamVerdict`; with a ``horizon`` set, per-stream
    memory is O(horizon + distinct cell sets) regardless of stream
    length.

    ``on_event`` (optional) receives live detector transitions:
    ``loop_onset`` (first loop detected), ``loop_update`` (an earlier /
    shorter periodic block took over), ``loop_end`` (the periodic
    region closed — the loop is now at best semi-persistent).  Each
    event carries the stream clock and the current detection shape.
    """

    def __init__(self, metadata: TraceMetadata | None = None, *,
                 min_repetitions: int = 2,
                 horizon: int | None = None,
                 on_disorder: str = "strict",
                 mode: str = "full",
                 on_event: EventCallback | None = None) -> None:
        if mode not in ("full", "live"):
            raise ValueError(f"unknown mode: {mode!r}")
        if on_disorder not in ("strict", "recover"):
            raise ValueError(f"unknown on_disorder mode: {on_disorder!r}")
        self.metadata = metadata if metadata is not None else TraceMetadata()
        self.mode = mode
        self._strict = on_disorder == "strict"
        self._cells = CellSetSequenceBuilder(on_disorder=on_disorder)
        self.detector = IncrementalLoopDetector(
            min_repetitions=min_repetitions, horizon=horizon)
        self._columns = RecordColumnsBuilder() if mode == "full" else None
        self._on_event = on_event
        self._published = 0          # intervals already fed to the detector
        self._last_best: tuple[int, int] | None = None
        self._last_open = False
        self.records_fed = 0
        self.records_out_of_order = 0
        self._first_time = 0.0       # raw time of the first record
        self._end_time = 0.0         # raw time of the latest record
        self._max_time = 0.0         # running max (ordering watermark)
        self._finalized = False

    # ------------------------------------------------------------------
    # Ingest
    # ------------------------------------------------------------------

    def _admit(self, record: Record) -> Record:
        """Ordering policy: raise, clamp-and-count, or pass through."""
        time_s = record.time_s
        if self.records_fed and time_s < self._max_time - _TIME_TOLERANCE_S:
            if self._strict:
                from repro.resilience.errors import OutOfOrderRecordError
                raise OutOfOrderRecordError(
                    f"record at t={time_s} precedes stream tail "
                    f"t={self._max_time}",
                    record_kind=getattr(record, "kind", None))
            self.records_out_of_order += 1
            from repro.obs import get_instrumentation
            get_instrumentation().registry.counter(
                "records_out_of_order_total").inc()
            record = dataclasses.replace(record, time_s=self._max_time)
            time_s = self._max_time
        if not self.records_fed:
            self._first_time = time_s
            self._max_time = time_s
        elif time_s > self._max_time:
            self._max_time = time_s
        self._end_time = time_s
        return record

    def feed(self, record: Record) -> None:
        """Ingest one record (raises after :meth:`finalize`)."""
        if self._finalized:
            raise RuntimeError("stream already finalized")
        record = self._admit(record)
        self.records_fed += 1
        if self._columns is not None:
            self._columns.push(record)
        if isinstance(record, ThroughputSampleRecord):
            return
        self._cells.push(record)
        self._publish_stable()
        self._emit_transitions()

    def feed_many(self, records: Iterable[Record]) -> None:
        """Ingest a chunk; identical to feeding record-by-record."""
        for record in records:
            self.feed(record)

    def _publish_stable(self) -> None:
        """Feed the detector every interval the stream clock has passed.

        The builder may still reabsorb its most recent interval on a
        same-timestamp state change, so only intervals with
        ``end_s < last_time_s`` (strictly) are final — published
        intervals are never retracted, hence neither are events.
        """
        intervals = self._cells.intervals
        cutoff = self._cells.last_time_s
        published = self._published
        detector = self.detector
        while published < len(intervals) \
                and intervals[published].end_s < cutoff:
            interval = intervals[published]
            detector.push(interval.cellset, interval.start_s, interval.end_s)
            published += 1
        if self.mode == "live" and published:
            # Live streams never look back: drop published intervals so
            # per-stream memory stays bounded by the dedup ring alone.
            del intervals[:published]
            published = 0
        self._published = published

    # ------------------------------------------------------------------
    # Live events
    # ------------------------------------------------------------------

    def _emit_transitions(self) -> None:
        if self._on_event is None:
            return
        detector = self.detector
        best = detector.best
        open_ = detector.best_open
        if best != self._last_best:
            name = "loop_onset" if self._last_best is None else "loop_update"
            self._last_best = best
            self._last_open = open_
            self._emit(name)
        elif best is not None and self._last_open and not open_:
            self._last_open = open_
            self._emit("loop_end")

    def _emit(self, name: str) -> None:
        detection = self.detector.detection()
        self._on_event(
            name,
            time_s=self._end_time,
            kind=detection.kind.value,
            start_index=detection.start_index,
            period=detection.period,
            repetitions=detection.repetitions,
            window_start_s=self.detector.window_start_s,
        )

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------

    @property
    def detection(self) -> LoopDetection:
        """The live verdict over the published (stable) prefix."""
        return self.detector.detection()

    def finalize(self, end_time_s: float | None = None,
                 ) -> RunAnalysis | StreamVerdict:
        """Flush pending state and return the stream's verdict.

        ``mode="full"``: a :class:`RunAnalysis` bit-identical to
        ``analyze_trace`` over the same records.  ``mode="live"``: a
        :class:`StreamVerdict`.  ``end_time_s`` extends the final
        interval past the last record, exactly like
        ``extract_cellset_sequence``'s parameter (the batch pipeline
        passes the last record's time, which is the default here).
        """
        if self._finalized:
            raise RuntimeError("stream already finalized")
        self._finalized = True
        if end_time_s is None and self.records_fed:
            end_time_s = self._end_time
        intervals = self._cells.finish(end_time_s)
        detector = self.detector
        for interval in intervals[self._published:]:
            detector.push(interval.cellset, interval.start_s, interval.end_s)
        self._published = len(intervals)
        self._emit_transitions()
        detection = detector.detection()
        duration_s = self._end_time - self._first_time \
            if self.records_fed else 0.0
        if self._columns is None:
            return StreamVerdict(
                detection=detection,
                records=self.records_fed,
                dedup_elements=len(detector),
                records_out_of_order=self.records_out_of_order,
                duration_s=duration_s,
            )
        rcolumns = self._columns.build()
        icolumns = IntervalColumns.from_intervals(intervals)
        return assemble_analysis(self.metadata, rcolumns, icolumns,
                                 intervals, detection, duration_s)
