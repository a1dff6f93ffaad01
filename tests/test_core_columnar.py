"""Property tests: the columnar data plane ≡ the per-record oracles.

The per-record implementations in ``tests/oracles.py`` are the
reference; these tests drive both sides with random traces — including same-timestamp
record bursts, reports before the first interval, and throughput
samples straddling the timeline — and require *bit-identical* results,
field by field.
"""

from __future__ import annotations

import dataclasses

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.cells.cell import CellIdentity, Rat
from repro.core.cellset import extract_cellset_sequence
from repro.core.classify import LoopSubtype
from repro.core.columnar import (
    IntervalColumns,
    RecordColumns,
    _median,
    classify_loop_columnar,
    loop_cycles_columnar,
    run_performance_columnar,
    scg_measurement_delays_columnar,
)
from repro.core.loops import detect_loop, loop_window
from repro.core.metrics import RunPerformance
from repro.core.pipeline import (
    RunAnalysis,
    _collect_measurement_stats_columnar,
    _scell_modification_outcomes_columnar,
    analyze_trace,
)
from repro.traces.log import SignalingTrace, TraceMetadata
from repro.traces.records import (
    CellMeasurement,
    MeasurementReportRecord,
    MmStateRecord,
    RrcReconfigurationRecord,
    RrcReestablishmentRequestRecord,
    RrcReleaseRecord,
    RrcSetupCompleteRecord,
    ScellAddMod,
    ScgFailureRecord,
    ThroughputSampleRecord,
)
from tests.oracles import (
    _collect_measurement_stats,
    _scell_modification_outcomes,
    classify_loop,
    loop_cycles,
    run_performance,
    scg_measurement_delays,
)

identities = st.builds(
    CellIdentity,
    pci=st.integers(min_value=0, max_value=30),
    channel=st.sampled_from([387410, 521310, 632736, 5145, 66661]),
    rat=st.sampled_from([Rat.NR, Rat.LTE]),
)

measurements = st.builds(
    CellMeasurement,
    identity=identities,
    rsrp_dbm=st.floats(min_value=-140.0, max_value=-40.0)
    .map(lambda v: round(v, 2)),
    rsrq_db=st.floats(min_value=-30.0, max_value=-5.0)
    .map(lambda v: round(v, 2)),
    is_serving=st.booleans(),
)


def _record_strategies(time):
    return st.one_of(
        st.builds(RrcSetupCompleteRecord, time_s=time, cell=identities),
        st.builds(RrcReleaseRecord, time_s=time),
        st.builds(MmStateRecord, time_s=time,
                  state=st.sampled_from(["REGISTERED", "DEREGISTERED"])),
        st.builds(ScgFailureRecord, time_s=time,
                  failure_type=st.sampled_from(["randomAccessProblem",
                                                "rlf"])),
        st.builds(RrcReestablishmentRequestRecord, time_s=time,
                  cause=st.sampled_from(["otherFailure", "handoverFailure"]),
                  cell=st.one_of(st.none(), identities)),
        st.builds(MeasurementReportRecord, time_s=time,
                  event=st.sampled_from(["periodic", "A3", "B1"]),
                  measurements=st.lists(measurements, min_size=1,
                                        max_size=3).map(tuple)),
        st.builds(RrcReconfigurationRecord, time_s=time, pcell=identities,
                  scell_add_mod=st.lists(
                      st.builds(ScellAddMod,
                                scell_index=st.integers(1, 8),
                                identity=identities),
                      max_size=2).map(tuple),
                  scell_release_indices=st.lists(st.integers(1, 8),
                                                 max_size=2).map(tuple),
                  handover_target=st.one_of(st.none(), identities),
                  scg_pscell=st.one_of(st.none(), identities),
                  release_scg=st.booleans()),
        st.builds(ThroughputSampleRecord, time_s=time,
                  mbps=st.floats(min_value=0.0, max_value=500.0)
                  .map(lambda v: round(v, 3))),
    )


@st.composite
def traces(draw):
    """Random traces on a coarse half-second grid.

    The grid makes same-timestamp record bursts common (the zero-width
    interval edge case), and because reports can land before the first
    RRC setup, pre-timeline measurement reports occur naturally.
    """
    count = draw(st.integers(min_value=0, max_value=30))
    times = sorted(draw(st.integers(min_value=0, max_value=80)) / 2.0
                   for _ in range(count))
    trace = SignalingTrace(metadata=TraceMetadata(
        operator="PROP", area="A1", location="P1"))
    for time in times:
        trace.append(draw(_record_strategies(st.just(time))))
    return trace


def _columns(trace):
    rcolumns = RecordColumns.from_trace(trace)
    end_time = trace.records[-1].time_s if trace.records else 0.0
    intervals = extract_cellset_sequence(rcolumns.signaling,
                                         end_time_s=end_time)
    return rcolumns, intervals, IntervalColumns.from_intervals(intervals)


def _blank_analysis(intervals) -> RunAnalysis:
    return RunAnalysis(
        metadata=TraceMetadata(), intervals=intervals,
        detection=detect_loop(intervals), subtype=LoopSubtype.UNKNOWN,
        transitions=[], cycles=[], performance=RunPerformance(),
        scg_meas_delays=[], scell_mods=[])


@given(traces())
@settings(max_examples=60, deadline=None)
def test_run_performance_columnar_matches_oracle(trace):
    rcolumns, intervals, icolumns = _columns(trace)
    expected = run_performance(intervals, trace.throughput_series())
    actual = run_performance_columnar(icolumns, rcolumns)
    assert actual == expected


@given(traces(), st.one_of(st.none(), st.tuples(
    st.integers(0, 80).map(lambda v: v / 2.0),
    st.integers(0, 80).map(lambda v: v / 2.0))))
@settings(max_examples=60, deadline=None)
def test_loop_cycles_columnar_matches_oracle(trace, window):
    _, intervals, icolumns = _columns(trace)
    assert loop_cycles_columnar(icolumns, window) == \
        loop_cycles(intervals, window)


@given(traces())
@settings(max_examples=60, deadline=None)
def test_classify_loop_columnar_matches_oracle(trace):
    rcolumns, intervals, icolumns = _columns(trace)
    expected = classify_loop(rcolumns.signaling, intervals)
    actual = classify_loop_columnar(rcolumns, icolumns)
    assert actual == expected


@given(traces())
@settings(max_examples=60, deadline=None)
def test_scg_delays_and_scell_outcomes_match_oracles(trace):
    rcolumns, _, _ = _columns(trace)
    assert scg_measurement_delays_columnar(rcolumns) == \
        scg_measurement_delays(rcolumns.signaling)
    assert _scell_modification_outcomes_columnar(rcolumns) == \
        _scell_modification_outcomes(rcolumns.signaling)


@given(traces())
@settings(max_examples=60, deadline=None)
def test_collect_measurement_stats_columnar_matches_oracle(trace):
    rcolumns, intervals, icolumns = _columns(trace)
    expected = _blank_analysis(intervals)
    _collect_measurement_stats(rcolumns.signaling, expected)
    actual = _blank_analysis(intervals)
    _collect_measurement_stats_columnar(rcolumns, icolumns, actual)
    assert actual.observed_cells == expected.observed_cells
    assert actual.n_rsrp_samples == expected.n_rsrp_samples
    assert actual.serving_nr_rsrp == expected.serving_nr_rsrp


@given(traces())
@settings(max_examples=40, deadline=None)
def test_analyze_trace_matches_per_record_assembly(trace):
    """End-to-end: ``analyze_trace`` ≡ the per-record pipeline shape."""
    rcolumns, intervals, _ = _columns(trace)
    records = rcolumns.signaling
    detection = detect_loop(intervals)
    if detection.is_loop:
        subtype, transitions = classify_loop(records, intervals)
        cycles = loop_cycles(intervals, loop_window(intervals, detection))
    else:
        subtype, transitions, cycles = LoopSubtype.UNKNOWN, [], []
    expected = RunAnalysis(
        metadata=trace.metadata, intervals=intervals, detection=detection,
        subtype=subtype, transitions=transitions, cycles=cycles,
        performance=run_performance(intervals, trace.throughput_series()),
        scg_meas_delays=scg_measurement_delays(records),
        scell_mods=_scell_modification_outcomes(records),
        duration_s=trace.duration_s, n_cs_samples=len(intervals))
    for interval in intervals:
        expected.unique_cellsets.add(interval.cellset)
    for cellset in expected.unique_cellsets:
        for cell in cellset.all_cells():
            expected.observed_cells.add(cell)
            if cell.rat is Rat.NR:
                expected.serving_nr_channels.add(cell.channel)
            else:
                expected.serving_lte_channels.add(cell.channel)
    _collect_measurement_stats(records, expected)

    actual = analyze_trace(trace)
    for field in dataclasses.fields(RunAnalysis):
        assert getattr(actual, field.name) == getattr(expected, field.name), \
            f"analyze_trace diverges from the oracle on {field.name}"


@given(st.lists(st.floats(min_value=-1e6, max_value=1e6,
                          allow_nan=False), min_size=1, max_size=15))
@settings(max_examples=200, deadline=None)
def test_median_bit_identical_to_numpy(values):
    assert _median(values) == float(np.median(values))
