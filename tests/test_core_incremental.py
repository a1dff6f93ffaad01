"""Property tests: the streaming analysis plane ≡ the batch pipeline.

The contract under test is *bit-identity*: any trace fed record by
record (or in arbitrary chunks) through an
:class:`~repro.core.incremental.IncrementalAnalyzer` must finalize to
field-for-field the same :class:`~repro.core.pipeline.RunAnalysis` as
``analyze_trace`` on the same records — including same-timestamp record
bursts, which exercise the cell-set builder's merge-back path, and the
detector's horizon ring, which must not change verdicts while the dedup
sequence fits inside it.
"""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from repro.cells.cell import Rat
from repro.core.cellset import CellSet, CellSetInterval
from repro.core.incremental import IncrementalAnalyzer, StreamVerdict
from repro.core.loops import IncrementalLoopDetector, LoopKind
from repro.core.pipeline import RunAnalysis, analyze_trace
from repro.resilience.errors import OutOfOrderRecordError
from repro.traces.records import (
    RrcReleaseRecord,
    RrcSetupCompleteRecord,
)
from tests.conftest import cell_id
from tests.oracles import naive_detection
from tests.test_core_columnar import traces

IDLE = CellSet()
ON_A = CellSet(pcell=cell_id(393, 521310))
ON_B = CellSet(pcell=cell_id(393, 521310),
               mcg_scells=frozenset({cell_id(273, 387410)}))
ON_C = CellSet(pcell=cell_id(104, 501390))
OFF_LTE = CellSet(pcell=cell_id(380, 5145, rat=Rat.LTE))
CANDIDATES = [ON_A, ON_B, ON_C, IDLE, OFF_LTE]


def _intervals(cellsets: list[CellSet]) -> list[CellSetInterval]:
    return [CellSetInterval(cellset, float(index), float(index + 1))
            for index, cellset in enumerate(cellsets)]


def _assert_analyses_equal(actual: RunAnalysis, expected: RunAnalysis):
    for field in dataclasses.fields(RunAnalysis):
        assert getattr(actual, field.name) == getattr(expected, field.name), \
            f"incremental analysis diverges from batch on {field.name}"


class TestBatchEquivalence:
    """The ISSUE's acceptance property: incremental ≡ batch, bit for bit."""

    @given(traces())
    @settings(max_examples=80, deadline=None)
    def test_record_by_record_matches_analyze_trace(self, trace):
        analyzer = IncrementalAnalyzer(trace.metadata)
        for record in trace.records:
            analyzer.feed(record)
        _assert_analyses_equal(analyzer.finalize(), analyze_trace(trace))

    @given(traces(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_chunk_boundaries_are_invisible(self, trace, data):
        """Any chunking of the stream yields the identical analysis."""
        analyzer = IncrementalAnalyzer(trace.metadata)
        records = list(trace.records)
        position = 0
        while position < len(records):
            size = data.draw(st.integers(1, len(records) - position),
                             label="chunk size")
            analyzer.feed_many(records[position:position + size])
            position += size
        _assert_analyses_equal(analyzer.finalize(), analyze_trace(trace))

    @given(traces())
    @settings(max_examples=40, deadline=None)
    def test_live_mode_detection_matches_batch(self, trace):
        analyzer = IncrementalAnalyzer(trace.metadata, mode="live",
                                       horizon=256)
        analyzer.feed_many(trace.records)
        verdict = analyzer.finalize()
        assert isinstance(verdict, StreamVerdict)
        assert verdict.detection == analyze_trace(trace).detection
        assert verdict.records == len(trace.records)


class TestDetectorPrefixEquivalence:
    """The online detector equals the naive oracle at EVERY prefix."""

    @given(st.lists(st.sampled_from(CANDIDATES), max_size=24))
    def test_every_prefix_matches_detect_loop(self, cellsets):
        intervals = _intervals(cellsets)
        detector = IncrementalLoopDetector()
        for length, interval in enumerate(intervals, start=1):
            detector.push(interval.cellset, interval.start_s, interval.end_s)
            assert detector.detection() == naive_detection(intervals[:length])

    @given(st.lists(st.sampled_from(CANDIDATES), max_size=30),
           st.integers(min_value=4, max_value=12))
    def test_horizon_preserves_verdict_when_sequence_fits(self, cellsets,
                                                          horizon):
        intervals = _intervals(cellsets)
        bounded = IncrementalLoopDetector(horizon=horizon)
        for interval in intervals:
            bounded.push(interval.cellset, interval.start_s, interval.end_s)
        from repro.core.loops import dedup_sequence
        if len(dedup_sequence(intervals)) <= horizon:
            assert bounded.detection() == naive_detection(intervals)

    def test_best_flip_after_semi_persistence(self):
        # A X Y X Y A X Y X Y: the (1, 2) winner goes semi-persistent,
        # then (0, 5) takes over at length 10 and is persistent — naive
        # "latch the first winner" implementations get this wrong.
        a, x, y = ON_A, IDLE, ON_B
        detector = IncrementalLoopDetector()
        for interval in _intervals([a, x, y, x, y, a, x, y, x, y]):
            detector.push(interval.cellset, interval.start_s, interval.end_s)
        detection = detector.detection()
        assert (detection.start_index, detection.period) == (0, 5)
        assert detection.kind is LoopKind.PERSISTENT

    def test_horizon_rejects_degenerate_ring(self):
        with pytest.raises(ValueError):
            IncrementalLoopDetector(horizon=3)


class TestOutOfOrder:
    """Live streams reorder; batch traces cannot.  Strict raises the
    taxonomy error, recover clamps to the running max and counts."""

    def _records(self):
        return [
            RrcSetupCompleteRecord(time_s=1.0, cell=cell_id(393, 521310)),
            RrcReleaseRecord(time_s=5.0),
            RrcSetupCompleteRecord(time_s=3.0,  # regression!
                                   cell=cell_id(104, 501390)),
            RrcReleaseRecord(time_s=7.0),
        ]

    def test_strict_mode_raises(self):
        analyzer = IncrementalAnalyzer()
        with pytest.raises(OutOfOrderRecordError):
            analyzer.feed_many(self._records())

    def test_recover_mode_clamps_and_counts(self):
        analyzer = IncrementalAnalyzer(on_disorder="recover")
        analyzer.feed_many(self._records())
        assert analyzer.records_out_of_order == 1
        analysis = analyzer.finalize()
        # The clamped stream is the in-order stream with t=3.0 -> 5.0.
        clamped = IncrementalAnalyzer()
        clamped.feed_many([
            RrcSetupCompleteRecord(time_s=1.0, cell=cell_id(393, 521310)),
            RrcReleaseRecord(time_s=5.0),
            RrcSetupCompleteRecord(time_s=5.0, cell=cell_id(104, 501390)),
            RrcReleaseRecord(time_s=7.0),
        ])
        _assert_analyses_equal(analysis, clamped.finalize())

    def test_recover_mode_live_verdict_counts(self):
        analyzer = IncrementalAnalyzer(on_disorder="recover", mode="live")
        analyzer.feed_many(self._records())
        verdict = analyzer.finalize()
        assert verdict.records_out_of_order == 1
        assert verdict.records == 4

    @given(traces(), st.randoms(use_true_random=False))
    @settings(max_examples=40, deadline=None)
    def test_recover_equals_batch_on_preclamped_records(self, trace, rng):
        """Shuffled-then-clamped ≡ batch over the clamped record list."""
        records = list(trace.records)
        rng.shuffle(records)
        analyzer = IncrementalAnalyzer(trace.metadata, on_disorder="recover")
        analyzer.feed_many(records)
        clamped, running_max = [], None
        for record in records:
            if running_max is not None and record.time_s < running_max:
                record = dataclasses.replace(record, time_s=running_max)
            running_max = record.time_s if running_max is None \
                else max(running_max, record.time_s)
            clamped.append(record)
        oracle = IncrementalAnalyzer(trace.metadata)
        oracle.feed_many(clamped)
        _assert_analyses_equal(analyzer.finalize(), oracle.finalize())


class TestLiveEvents:
    """Transition events: onset once, never retracted, end on closure."""

    def _drive(self, cellsets, **kwargs):
        events = []
        analyzer = IncrementalAnalyzer(
            mode="live",
            on_event=lambda name, **fields: events.append((name, fields)),
            **kwargs)
        for interval in _intervals(cellsets):
            # Events fire on feed(); drive the detector directly through
            # its stable-interval path by pushing and emitting manually.
            analyzer.detector.push(interval.cellset, interval.start_s,
                                   interval.end_s)
            analyzer._emit_transitions()
        return events, analyzer

    def test_onset_then_end(self):
        events, _ = self._drive([ON_A, IDLE, ON_A, IDLE, ON_C, ON_C])
        names = [name for name, _ in events]
        assert names[0] == "loop_onset"
        assert "loop_end" in names
        assert names.index("loop_end") > names.index("loop_onset")

    def test_onset_carries_detection_shape(self):
        events, analyzer = self._drive([ON_A, IDLE, ON_A, IDLE])
        assert len(events) == 1
        name, fields = events[0]
        assert name == "loop_onset"
        assert fields["kind"] == LoopKind.PERSISTENT.value
        assert fields["period"] == 2
        assert analyzer.detection.is_loop

    def test_no_events_without_loop(self):
        events, _ = self._drive([IDLE, ON_A, ON_B, OFF_LTE])
        assert events == []

    def test_update_when_better_window_takes_over(self):
        a, x, y = ON_A, IDLE, ON_B
        events, _ = self._drive([a, x, y, x, y, a, x, y, x, y])
        names = [name for name, _ in events]
        assert names[0] == "loop_onset"
        assert "loop_update" in names

    def test_end_to_end_events_match_finalize(self):
        events = []
        analyzer = IncrementalAnalyzer(
            mode="live",
            on_event=lambda name, **fields: events.append((name, fields)))
        cell = cell_id(393, 521310)
        t = 0.0
        for _ in range(3):
            analyzer.feed(RrcSetupCompleteRecord(time_s=t, cell=cell))
            analyzer.feed(RrcReleaseRecord(time_s=t + 4.0))
            t += 8.0
        verdict = analyzer.finalize()
        assert verdict.detection.kind is LoopKind.PERSISTENT
        assert [name for name, _ in events] == ["loop_onset"]
        assert events[0][1]["kind"] == verdict.detection.kind.value


class TestLifecycle:
    def test_finalize_twice_raises(self):
        analyzer = IncrementalAnalyzer()
        analyzer.finalize()
        with pytest.raises(RuntimeError):
            analyzer.finalize()

    def test_feed_after_finalize_raises(self):
        analyzer = IncrementalAnalyzer()
        analyzer.finalize()
        with pytest.raises(RuntimeError):
            analyzer.feed(RrcReleaseRecord(time_s=1.0))

    def test_empty_stream_matches_batch(self):
        from repro.traces.log import SignalingTrace, TraceMetadata
        trace = SignalingTrace(metadata=TraceMetadata())
        _assert_analyses_equal(IncrementalAnalyzer(trace.metadata).finalize(),
                               analyze_trace(trace))

    def test_bad_mode_rejected(self):
        with pytest.raises(ValueError):
            IncrementalAnalyzer(mode="batch")
        with pytest.raises(ValueError):
            IncrementalAnalyzer(on_disorder="ignore")
