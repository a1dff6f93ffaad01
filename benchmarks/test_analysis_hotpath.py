"""Perf gates for the analysis hot path (not a paper figure).

Each test times the current implementation against the seed's naive
one — kept here verbatim as a reference oracle — on campaign-scale
synthetic inputs, asserts the outputs agree, gates on the required
speedup, and appends the timings to ``BENCH_analysis.json`` so CI can
archive the bench trajectory.

Gates: >=5x on ``detect_loop`` for a 1,000-element dedup sequence, >=3x
on end-to-end ``analyze_trace`` for a large synthetic trace, and >=3x
for the columnar ``analyze_trace`` against the per-record pipeline of
``tests/oracles.py``.  The production ``run_performance_columnar`` and
``scg_measurement_delays_columnar`` are timed against the naive
versions (on column tables built beforehand: the pipeline builds them
once per trace for all stages, which the end-to-end gates cover) and
gated only on output equality.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np
import pytest

from repro.cells.cell import CellIdentity, Rat
from repro.core.cellset import CellSet, CellSetInterval, five_g_timeline
from repro.core.columnar import (
    IntervalColumns,
    RecordColumnsBuilder,
    run_performance_columnar,
    scg_measurement_delays_columnar,
)
from repro.core.loops import LoopKind, dedup_sequence, detect_loop
from repro.core.metrics import RunPerformance
from repro.core.pipeline import analyze_trace
from repro.traces.log import SignalingTrace, TraceMetadata
from repro.traces.records import (
    CellMeasurement,
    MeasurementReportRecord,
    MmStateRecord,
    Record,
    RrcReconfigurationRecord,
    RrcReleaseRecord,
    RrcSetupCompleteRecord,
    ScellAddMod,
    ScgFailureRecord,
    ThroughputSampleRecord,
)
from benchmarks.conftest import print_header
from tests.oracles import run_performance, scg_measurement_delays

pytestmark = pytest.mark.perf

BENCH_PATH = Path(__file__).resolve().parents[1] / "BENCH_analysis.json"

IDLE = CellSet()
LOOP_ON = CellSet(pcell=CellIdentity(500, 521310))
NR_NEIGHBOUR = CellIdentity(42, 632736)
LTE_NEIGHBOUR = CellIdentity(380, 5145, Rat.LTE)


def _record_timing(case: str, naive_s: float, fast_s: float) -> float:
    speedup = naive_s / fast_s if fast_s > 0 else float("inf")
    data = {}
    if BENCH_PATH.exists():
        data = json.loads(BENCH_PATH.read_text())
    data[case] = {"naive_s": round(naive_s, 6), "fast_s": round(fast_s, 6),
                  "speedup": round(speedup, 2)}
    BENCH_PATH.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
    print(f"{case}: naive {naive_s * 1e3:.1f} ms, fast {fast_s * 1e3:.1f} ms "
          f"-> {speedup:.1f}x")
    return speedup


def _best_of(function, repeats: int = 3) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        function()
        best = min(best, time.perf_counter() - start)
    return best


# ----------------------------------------------------------------------
# The seed implementations, kept verbatim as timing/correctness oracles.
# ----------------------------------------------------------------------


def _block_has_both_states(block):
    has_on = any(cellset.five_g_on for cellset in block)
    has_off = any(not cellset.five_g_on for cellset in block)
    return has_on and has_off


def _count_repetitions(sequence, start, period):
    block = sequence[start:start + period]
    repetitions = 0
    position = start
    while position + period <= len(sequence) and \
            sequence[position:position + period] == block:
        repetitions += 1
        position += period
    return repetitions


def _naive_detect_loop(intervals, min_repetitions=2):
    """The seed's O(n^3)-O(n^4) slice-enumerating scan."""
    sequence = dedup_sequence(intervals)
    n = len(sequence)
    for start in range(n):
        max_period = (n - start) // min_repetitions
        for period in range(2, max_period + 1):
            block = sequence[start:start + period]
            if not _block_has_both_states(block):
                continue
            repetitions = _count_repetitions(sequence, start, period)
            if repetitions < min_repetitions:
                continue
            return start, period, repetitions
    return None


def _is_on_at(segments, t):
    for on, start, end in segments:
        if start <= t < end:
            return on
    return bool(segments and segments[-1][0] and t >= segments[-1][2])


def _naive_run_performance(intervals, throughput_series):
    """The seed's per-sample scan plus per-segment series rescans."""
    segments = five_g_timeline(intervals)
    performance = RunPerformance()
    if not segments or not throughput_series:
        return performance
    for t, mbps in throughput_series:
        if _is_on_at(segments, t):
            performance.on_speed_samples.append(mbps)
        else:
            performance.off_speed_samples.append(mbps)
    for index in range(len(segments) - 1):
        on_segment = segments[index]
        off_segment = segments[index + 1]
        if not (on_segment[0] and not off_segment[0]):
            continue
        on_speeds = [mbps for t, mbps in throughput_series
                     if on_segment[1] <= t < on_segment[2]]
        off_speeds = [mbps for t, mbps in throughput_series
                      if off_segment[1] <= t < off_segment[2]]
        if on_speeds and off_speeds:
            loss = float(np.median(on_speeds)) - float(np.median(off_speeds))
            performance.cycle_speed_losses.append(loss)
    return performance


def _naive_scg_delays(records):
    """The seed's O(failures x reports) rescan."""
    delays = []
    failures = [record for record in records
                if isinstance(record, ScgFailureRecord)]
    reports = [record for record in records
               if isinstance(record, MeasurementReportRecord)]
    for failure in failures:
        for report in reports:
            if report.time_s <= failure.time_s:
                continue
            has_nr = any(measurement.identity.rat is Rat.NR
                         for measurement in report.measurements)
            if has_nr:
                delays.append(report.time_s - failure.time_s)
                break
    return delays


def _naive_scell_outcomes(trace):
    """The seed's tail-slicing scan (re-materializes the record list)."""
    records = trace.signaling_records()
    outcomes = []
    for index, record in enumerate(records):
        if not isinstance(record, RrcReconfigurationRecord):
            continue
        if record.is_handover or record.adds_scg or record.release_scg:
            continue
        if not (record.scell_add_mod and record.scell_release_indices):
            continue
        failed = False
        for later in records[index + 1:]:
            if later.time_s > record.time_s + 1.5:
                break
            if isinstance(later, MmStateRecord) \
                    and later.state == "DEREGISTERED":
                failed = True
                break
        for entry in record.scell_add_mod:
            outcomes.append((entry.identity.channel, failed))
    return outcomes


def _naive_analyze_trace(trace):
    """The seed's pipeline shape: three record materializations, naive
    detection/metrics.  Classification and cell-set extraction are the
    unchanged shared stages, called exactly as the seed did."""
    from repro.core.cellset import extract_cellset_sequence
    from repro.core.classify import LoopSubtype
    from tests.oracles import classify_loop

    records = trace.signaling_records()
    end_time = trace.records[-1].time_s if trace.records else 0.0
    intervals = extract_cellset_sequence(records, end_time_s=end_time)
    detection = _naive_detect_loop(intervals)
    if detection is not None:
        subtype, transitions = classify_loop(records, intervals)
    else:
        subtype, transitions = LoopSubtype.UNKNOWN, []
    performance = _naive_run_performance(intervals, trace.throughput_series())
    delays = _naive_scg_delays(trace.signaling_records())
    outcomes = _naive_scell_outcomes(trace)
    return intervals, detection, subtype, performance, delays, outcomes


# ----------------------------------------------------------------------
# Synthetic inputs
# ----------------------------------------------------------------------


def _distinct_on(index: int) -> CellSet:
    return CellSet(pcell=CellIdentity(index % 1008, 521310 + index // 1008))


def _distinct_off(index: int) -> CellSet:
    return CellSet(pcell=CellIdentity(index % 1008, 5145 + index // 1008,
                                      Rat.LTE))


def _long_dedup_intervals(n: int = 1000, prefix_pairs: int = 30):
    """``n`` dedup elements: an aperiodic both-state prefix (every cell
    set distinct, so no block ever repeats) followed by a persistent
    (LOOP_ON, IDLE) loop filling the rest of the sequence."""
    cellsets = []
    for pair in range(prefix_pairs):
        cellsets.append(_distinct_on(pair))
        cellsets.append(_distinct_off(pair))
    while len(cellsets) < n:
        cellsets.append(LOOP_ON)
        cellsets.append(IDLE)
    cellsets = cellsets[:n]
    return [CellSetInterval(cellset, float(i), float(i + 1))
            for i, cellset in enumerate(cellsets)]


def _dense_timeline(duration_s: int = 3600, on_s: int = 20, off_s: int = 10):
    intervals = []
    t = 0
    while t < duration_s:
        intervals.append(CellSetInterval(LOOP_ON, float(t),
                                         float(min(t + on_s, duration_s))))
        t += on_s
        if t < duration_s:
            intervals.append(CellSetInterval(IDLE, float(t),
                                             float(min(t + off_s, duration_s))))
            t += off_s
    segments = five_g_timeline(intervals)
    series = [(t + 0.5, 180.0 if _is_on_at(segments, t + 0.5) else 12.0)
              for t in range(duration_s)]
    return intervals, series


def _synthetic_trace(prefix_pairs: int = 40, cycles: int = 440) -> SignalingTrace:
    """A large SA-style trace: an aperiodic prefix of distinct cell sets,
    then a persistent ON-OFF loop, with 1 Hz throughput, periodic
    measurement reports and SCell modification attempts along the way."""
    trace = SignalingTrace(metadata=TraceMetadata(operator="SYNTH",
                                                  area="BENCH",
                                                  location="BENCH-P1"))
    t = 0.0
    sample_t = 0.0

    def advance_to(until: float, on: bool) -> None:
        nonlocal sample_t
        while sample_t < until:
            trace.append(ThroughputSampleRecord(time_s=sample_t,
                                                mbps=180.0 if on else 0.0))
            if int(sample_t) % 5 == 0:
                trace.append(MeasurementReportRecord(
                    time_s=sample_t + 0.1,
                    measurements=(
                        CellMeasurement(NR_NEIGHBOUR, -95.0, -12.0),
                        CellMeasurement(LTE_NEIGHBOUR, -88.0, -11.0),
                    )))
            sample_t += 1.0

    for pair in range(prefix_pairs):
        pcell = _distinct_on(pair).pcell
        trace.append(RrcSetupCompleteRecord(time_s=t, cell=pcell))
        advance_to(t + 2.0, True)
        t += 2.0
        off_cell = _distinct_off(pair).pcell
        trace.append(RrcSetupCompleteRecord(time_s=t, cell=off_cell))
        advance_to(t + 2.0, False)
        t += 2.0
    for cycle in range(cycles):
        trace.append(RrcSetupCompleteRecord(time_s=t, cell=LOOP_ON.pcell))
        advance_to(t + 1.0, True)
        if cycle % 3 == 0:
            # An SCell modification attempt every third cycle: gives the
            # outcome scanner work to do and stretches the loop block to
            # period 7 (ON, ON+SCell, IDLE, ON, IDLE, ON, IDLE).
            trace.append(RrcReconfigurationRecord(
                time_s=t + 1.0, pcell=LOOP_ON.pcell,
                scell_add_mod=(ScellAddMod(7, NR_NEIGHBOUR),),
                scell_release_indices=(7,)))
        advance_to(t + 4.0, True)
        t += 4.0
        trace.append(RrcReleaseRecord(time_s=t))
        advance_to(t + 2.0, False)
        t += 2.0
    return trace


# ----------------------------------------------------------------------
# The gates
# ----------------------------------------------------------------------


def test_detect_loop_speedup_on_1000_element_sequence():
    intervals = _long_dedup_intervals(n=1000)
    assert len(dedup_sequence(intervals)) == 1000

    naive_s = _best_of(lambda: _naive_detect_loop(intervals), repeats=1)
    fast_s = _best_of(lambda: detect_loop(intervals), repeats=3)

    naive = _naive_detect_loop(intervals)
    fast = detect_loop(intervals)
    assert naive is not None and fast.is_loop
    assert (fast.start_index, fast.period, fast.repetitions) == naive
    assert fast.kind is LoopKind.PERSISTENT

    print_header("Hot path — detect_loop, 1000-element dedup sequence")
    speedup = _record_timing("detect_loop_1000", naive_s, fast_s)
    assert speedup >= 5.0, f"detect_loop speedup {speedup:.1f}x < 5x"


def test_run_performance_columnar_matches_and_wins():
    intervals, series = _dense_timeline()
    icolumns = IntervalColumns.from_intervals(intervals)
    builder = RecordColumnsBuilder()
    for t, mbps in series:
        builder.push(ThroughputSampleRecord(time_s=t, mbps=mbps))
    rcolumns = builder.build()

    naive_s = _best_of(lambda: _naive_run_performance(intervals, series))
    fast_s = _best_of(lambda: run_performance_columnar(icolumns, rcolumns))

    naive = _naive_run_performance(intervals, series)
    fast = run_performance_columnar(icolumns, rcolumns)
    # The series starts at the first segment, so the dropped-prefix fix
    # changes nothing here: the buckets must agree exactly.
    assert fast.on_speed_samples == naive.on_speed_samples
    assert fast.off_speed_samples == naive.off_speed_samples
    assert fast.cycle_speed_losses == naive.cycle_speed_losses

    print_header("Hot path — run_performance_columnar, 1 h trace at 1 Hz")
    _record_timing("run_performance_3600", naive_s, fast_s)


def test_scg_delays_columnar_matches_and_wins():
    records: list[Record] = []
    for t in range(3600):
        if t % 10 == 5:
            records.append(ScgFailureRecord(time_s=float(t)))
        nr_visible = t % 30 == 0
        cells = ((CellMeasurement(NR_NEIGHBOUR, -100.0, -14.0),)
                 if nr_visible else
                 (CellMeasurement(LTE_NEIGHBOUR, -90.0, -12.0),) * 4)
        records.append(MeasurementReportRecord(time_s=t + 0.4,
                                               measurements=cells))

    builder = RecordColumnsBuilder()
    for record in records:
        builder.push(record)
    rcolumns = builder.build()

    naive_s = _best_of(lambda: _naive_scg_delays(records))
    fast_s = _best_of(lambda: scg_measurement_delays_columnar(rcolumns))

    assert scg_measurement_delays_columnar(rcolumns) == \
        _naive_scg_delays(records)

    print_header("Hot path — scg_measurement_delays_columnar, 360 failures")
    _record_timing("scg_delays_3600", naive_s, fast_s)


def test_analyze_trace_end_to_end_speedup():
    trace = _synthetic_trace()

    naive_s = _best_of(lambda: _naive_analyze_trace(trace), repeats=1)
    fast_s = _best_of(lambda: analyze_trace(trace), repeats=3)

    intervals, naive_det, subtype, naive_perf, delays, outcomes = \
        _naive_analyze_trace(trace)
    analysis = analyze_trace(trace)
    assert naive_det is not None and analysis.has_loop
    assert (analysis.detection.start_index, analysis.detection.period,
            analysis.detection.repetitions) == naive_det
    assert analysis.subtype is subtype
    assert analysis.performance.on_speed_samples == \
        naive_perf.on_speed_samples
    assert analysis.performance.off_speed_samples == \
        naive_perf.off_speed_samples
    assert analysis.scg_meas_delays == delays
    assert [(mod.channel, mod.failed) for mod in analysis.scell_mods] == \
        outcomes

    print_header("Hot path — analyze_trace end to end, synthetic trace")
    print(f"trace: {len(trace)} records, "
          f"{len(dedup_sequence(intervals))} dedup cell sets")
    speedup = _record_timing("analyze_trace_end_to_end", naive_s, fast_s)
    assert speedup >= 3.0, f"analyze_trace speedup {speedup:.1f}x < 3x"


def _pr5_analyze_trace(trace):
    """The pre-columnar pipeline: the per-record oracles of
    ``tests/oracles.py``, called in the exact shape ``analyze_trace``
    had before the columnar data plane (one record materialization,
    per-record two-pointer merges and cursors)."""
    from repro.core.cellset import extract_cellset_sequence
    from repro.core.classify import LoopSubtype
    from repro.core.loops import loop_window
    from repro.core.pipeline import RunAnalysis
    from repro.cells.cell import Rat
    from tests.oracles import (
        _collect_measurement_stats,
        _scell_modification_outcomes,
        classify_loop,
        loop_cycles,
    )

    records = trace.signaling_records()
    end_time = trace.records[-1].time_s if trace.records else 0.0
    intervals = extract_cellset_sequence(records, end_time_s=end_time)
    detection = detect_loop(intervals)
    if detection.is_loop:
        subtype, transitions = classify_loop(records, intervals)
    else:
        subtype, transitions = LoopSubtype.UNKNOWN, []
    cycles = loop_cycles(intervals, loop_window(intervals, detection)) \
        if detection.is_loop else []
    performance = run_performance(intervals, trace.throughput_series())
    analysis = RunAnalysis(
        metadata=trace.metadata,
        intervals=intervals,
        detection=detection,
        subtype=subtype,
        transitions=transitions,
        cycles=cycles,
        performance=performance,
        scg_meas_delays=scg_measurement_delays(records),
        scell_mods=_scell_modification_outcomes(records),
        duration_s=trace.duration_s,
        n_cs_samples=len(intervals),
    )
    for interval in intervals:
        analysis.unique_cellsets.add(interval.cellset)
    for cellset in analysis.unique_cellsets:
        for cell in cellset.all_cells():
            analysis.observed_cells.add(cell)
            if cell.rat is Rat.NR:
                analysis.serving_nr_channels.add(cell.channel)
            else:
                analysis.serving_lte_channels.add(cell.channel)
    _collect_measurement_stats(records, analysis)
    return analysis


def test_analyze_trace_columnar_vs_per_record_bit_identical_and_faster():
    """The tentpole gate: the columnar data plane must beat the PR 5
    per-record pipeline >=3x end to end while staying bit-identical on
    every ``RunAnalysis`` field."""
    import dataclasses

    trace = _synthetic_trace()

    pr5_s = _best_of(lambda: _pr5_analyze_trace(trace), repeats=3)
    fast_s = _best_of(lambda: analyze_trace(trace), repeats=3)

    expected = _pr5_analyze_trace(trace)
    actual = analyze_trace(trace)
    for field in dataclasses.fields(type(expected)):
        assert getattr(actual, field.name) == getattr(expected, field.name), \
            f"columnar analyze_trace diverges on {field.name}"

    print_header("Hot path — analyze_trace, columnar vs per-record")
    speedup = _record_timing("analyze_trace_columnar", pr5_s, fast_s)
    assert speedup >= 3.0, \
        f"columnar analyze_trace speedup {speedup:.1f}x < 3x"
