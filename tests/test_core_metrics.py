"""Tests for cycle metrics, speed split and SCG measurement delays."""

import pytest
from hypothesis import given, strategies as st

from repro.cells.cell import Rat
from repro.core.cellset import CellSet, CellSetInterval
from repro.core.metrics import CycleMetrics
from repro.traces.records import (
    CellMeasurement,
    MeasurementReportRecord,
    ScgFailureRecord,
)
from tests.conftest import cell_id
from tests.oracles import loop_cycles, run_performance, scg_measurement_delays

ON = CellSet(pcell=cell_id(393, 521310))
OFF = CellSet()
LTE_ONLY = CellSet(pcell=cell_id(380, 5145, Rat.LTE))


def intervals_from(pattern):
    """pattern: list of (cellset, duration)."""
    intervals = []
    t = 0.0
    for cellset, duration in pattern:
        intervals.append(CellSetInterval(cellset, t, t + duration))
        t += duration
    return intervals


class TestCycleMetrics:
    def test_basic_properties(self):
        cycle = CycleMetrics(on_s=30.0, off_s=10.0)
        assert cycle.cycle_s == 40.0
        assert cycle.off_ratio == pytest.approx(0.25)

    def test_zero_cycle_ratio(self):
        assert CycleMetrics(0.0, 0.0).off_ratio == 0.0

    @given(st.floats(min_value=0.0, max_value=1e4),
           st.floats(min_value=0.0, max_value=1e4))
    def test_ratio_bounded(self, on, off):
        ratio = CycleMetrics(on, off).off_ratio
        assert 0.0 <= ratio <= 1.0


class TestLoopCycles:
    def test_extracts_on_off_pairs(self):
        intervals = intervals_from([(OFF, 1.0), (ON, 30.0), (OFF, 10.0),
                                    (ON, 25.0), (OFF, 12.0), (ON, 40.0)])
        cycles = loop_cycles(intervals)
        assert len(cycles) == 2
        assert cycles[0].on_s == pytest.approx(30.0)
        assert cycles[0].off_s == pytest.approx(10.0)
        assert cycles[1].off_s == pytest.approx(12.0)

    def test_lte_only_counts_as_off(self):
        intervals = intervals_from([(ON, 20.0), (LTE_ONLY, 5.0), (ON, 20.0)])
        cycles = loop_cycles(intervals)
        assert len(cycles) == 1
        assert cycles[0].off_s == pytest.approx(5.0)

    def test_no_cycles_without_off(self):
        assert loop_cycles(intervals_from([(ON, 60.0)])) == []

    def test_trailing_on_ignored(self):
        intervals = intervals_from([(ON, 10.0), (OFF, 5.0), (ON, 100.0)])
        assert len(loop_cycles(intervals)) == 1


class TestLoopCycleWindow:
    """Cycle extraction restricted to the detected loop's time span."""

    def test_window_excludes_pre_and_post_loop_cycles(self):
        # A slow pre-loop cycle, two in-loop cycles, a slow post-loop
        # cycle.  Without the window all four pollute the distribution.
        intervals = intervals_from([
            (ON, 90.0), (OFF, 60.0),              # pre-loop
            (ON, 10.0), (OFF, 5.0), (ON, 10.0), (OFF, 5.0),   # the loop
            (ON, 80.0), (OFF, 70.0), (ON, 1.0),   # post-loop
        ])
        window = (150.0, 180.0)
        cycles = loop_cycles(intervals, window)
        assert len(cycles) == 2
        assert all(cycle.on_s == pytest.approx(10.0) for cycle in cycles)
        assert all(cycle.off_s == pytest.approx(5.0) for cycle in cycles)

    def test_straddling_segments_clipped_to_window(self):
        intervals = intervals_from([(ON, 20.0), (OFF, 20.0)])
        cycles = loop_cycles(intervals, (10.0, 30.0))
        assert len(cycles) == 1
        assert cycles[0].on_s == pytest.approx(10.0)
        assert cycles[0].off_s == pytest.approx(10.0)

    def test_none_window_keeps_full_timeline(self):
        intervals = intervals_from([(ON, 10.0), (OFF, 5.0), (ON, 10.0)])
        assert len(loop_cycles(intervals, None)) == 1

    def test_loop_window_spans_repetitions_and_tail(self):
        from repro.core.loops import detect_loop, loop_window

        # Loop (ON 10s, OFF 5s) x2 plus a partial ON tail, after a
        # 30-second pre-loop stretch that must be excluded.
        intervals = intervals_from([
            (LTE_ONLY, 30.0),
            (ON, 10.0), (OFF, 5.0), (ON, 10.0), (OFF, 5.0), (ON, 12.0),
        ])
        detection = detect_loop(intervals)
        assert detection.is_loop
        window = loop_window(intervals, detection)
        assert window == (pytest.approx(30.0), pytest.approx(72.0))

    def test_loop_window_stops_where_loop_exits(self):
        from repro.core.loops import detect_loop, loop_window

        intervals = intervals_from([
            (ON, 10.0), (OFF, 5.0), (ON, 10.0), (OFF, 5.0),
            (LTE_ONLY, 100.0), (ON, 3.0),
        ])
        detection = detect_loop(intervals)
        assert detection.is_loop
        window = loop_window(intervals, detection)
        assert window == (pytest.approx(0.0), pytest.approx(30.0))

    def test_loop_window_none_without_loop(self):
        from repro.core.loops import LoopDetection, LoopKind, loop_window

        detection = LoopDetection(kind=LoopKind.NO_LOOP)
        assert loop_window(intervals_from([(ON, 10.0)]), detection) is None


class TestRunPerformance:
    def test_speed_split_by_state(self):
        intervals = intervals_from([(ON, 10.0), (OFF, 10.0)])
        series = [(t + 0.5, 200.0 if t < 10 else 0.0) for t in range(20)]
        performance = run_performance(intervals, series)
        assert performance.median_on_mbps == pytest.approx(200.0)
        assert performance.median_off_mbps == pytest.approx(0.0)
        assert performance.median_speed_loss_mbps == pytest.approx(200.0)

    def test_empty_inputs(self):
        performance = run_performance([], [])
        assert performance.median_on_mbps == 0.0
        assert performance.median_off_mbps == 0.0

    def test_per_cycle_losses(self):
        intervals = intervals_from([(ON, 10.0), (OFF, 10.0), (ON, 10.0),
                                    (OFF, 10.0)])
        series = []
        for t in range(40):
            on = (t // 10) % 2 == 0
            series.append((t + 0.5, 100.0 if on else 40.0))
        performance = run_performance(intervals, series)
        assert len(performance.cycle_speed_losses) == 2
        assert performance.median_speed_loss_mbps == pytest.approx(60.0)

    def test_loss_fallback_without_cycle_data(self):
        intervals = intervals_from([(ON, 10.0), (OFF, 10.0)])
        # Throughput samples only inside the ON period.
        series = [(t + 0.5, 150.0) for t in range(10)]
        performance = run_performance(intervals, series)
        assert performance.median_speed_loss_mbps == pytest.approx(150.0)

    def test_samples_before_timeline_are_dropped(self):
        # The seed counted samples captured before the first signaling
        # record as OFF speed, biasing median_off_mbps low.  They carry
        # no known 5G state and must be dropped.
        intervals = [CellSetInterval(ON, 10.0, 20.0),
                     CellSetInterval(OFF, 20.0, 30.0)]
        series = [(5.0, 0.0), (7.0, 0.0),          # before the timeline
                  (15.0, 100.0), (25.0, 40.0)]
        performance = run_performance(intervals, series)
        assert performance.off_speed_samples == [40.0]
        assert performance.median_off_mbps == pytest.approx(40.0)
        assert performance.on_speed_samples == [100.0]

    def test_samples_past_timeline_extrapolate_last_state(self):
        intervals = [CellSetInterval(ON, 0.0, 10.0),
                     CellSetInterval(OFF, 10.0, 20.0)]
        series = [(5.0, 120.0), (15.0, 30.0), (25.0, 35.0), (40.0, 32.0)]
        performance = run_performance(intervals, series)
        # Samples past the final segment keep its (OFF) state.
        assert performance.off_speed_samples == [30.0, 35.0, 32.0]
        assert performance.on_speed_samples == [120.0]


class TestScgMeasurementDelays:
    def test_delay_to_next_nr_report(self):
        nr = cell_id(66, 632736)
        records = [
            ScgFailureRecord(time_s=10.0),
            MeasurementReportRecord(time_s=12.0, measurements=(
                CellMeasurement(cell_id(380, 5145, Rat.LTE), -90.0, -15.0),)),
            MeasurementReportRecord(time_s=40.5, measurements=(
                CellMeasurement(nr, -100.0, -15.0),)),
        ]
        delays = scg_measurement_delays(records)
        assert delays == [pytest.approx(30.5)]

    def test_no_delay_without_failures(self):
        assert scg_measurement_delays([]) == []

    def test_failure_without_recovery_yields_nothing(self):
        records = [ScgFailureRecord(time_s=10.0)]
        assert scg_measurement_delays(records) == []

    def test_multiple_failures(self):
        nr = cell_id(66, 632736)
        records = [
            ScgFailureRecord(time_s=10.0),
            MeasurementReportRecord(time_s=13.0, measurements=(
                CellMeasurement(nr, -100.0, -15.0),)),
            ScgFailureRecord(time_s=50.0),
            MeasurementReportRecord(time_s=80.0, measurements=(
                CellMeasurement(nr, -100.0, -15.0),)),
        ]
        delays = scg_measurement_delays(records)
        assert delays == [pytest.approx(3.0), pytest.approx(30.0)]
