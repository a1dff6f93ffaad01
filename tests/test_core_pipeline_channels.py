"""Tests for the end-to-end pipeline and the channel analysis."""

import pytest

from repro.core.channels import (
    channel_usage_breakdown,
    median_rsrp_per_area,
    median_rsrp_per_subtype,
    nsa_channel_usage,
    scell_mod_failure_ratios,
    tenth_percentile_rsrp_per_location,
)
from repro.core.classify import LoopSubtype
from repro.core.loops import LoopKind
from repro.core.pipeline import analyze_trace
from repro.traces.log import SignalingTrace, TraceMetadata
from repro.traces.records import (
    CellMeasurement,
    MeasurementReportRecord,
    MmStateRecord,
    RrcReconfigurationRecord,
    RrcSetupCompleteRecord,
    ScellAddMod,
    ThroughputSampleRecord,
)
from tests.conftest import cell_id, make_s1e3_cycle, make_sa_setup_records


class TestAnalyzeTrace:
    def test_s1e3_trace_end_to_end(self, s1e3_trace):
        analysis = analyze_trace(s1e3_trace)
        assert analysis.has_loop
        assert analysis.loop_kind is LoopKind.PERSISTENT
        assert analysis.subtype is LoopSubtype.S1E3
        assert analysis.detection.repetitions >= 2
        assert analysis.metadata.location == "P16"

    def test_cycles_extracted(self, s1e3_trace):
        analysis = analyze_trace(s1e3_trace)
        assert len(analysis.cycles) == 2
        assert all(cycle.off_s > 0 for cycle in analysis.cycles)

    def test_channel_bookkeeping(self, s1e3_trace):
        analysis = analyze_trace(s1e3_trace)
        assert {521310, 387410} <= analysis.serving_nr_channels
        assert analysis.n_cs_samples == len(analysis.intervals)
        assert analysis.n_rsrp_samples > 0

    def test_serving_rsrp_only_counts_serving_cells(self, s1e3_trace):
        analysis = analyze_trace(s1e3_trace)
        # 371@387410 was reported as a neighbour, never serving.
        assert 387410 in analysis.serving_nr_rsrp
        values = analysis.serving_nr_rsrp[387410]
        assert all(value == pytest.approx(-85.0) for value in values)

    def test_scell_mod_outcomes(self, s1e3_trace):
        analysis = analyze_trace(s1e3_trace)
        assert len(analysis.scell_mods) == 2
        assert all(outcome.channel == 387410 for outcome in analysis.scell_mods)
        assert all(outcome.failed for outcome in analysis.scell_mods)

    def test_empty_trace(self):
        analysis = analyze_trace(SignalingTrace())
        assert not analysis.has_loop
        assert analysis.intervals == []

    def test_throughput_ignored_by_signaling_analysis(self, s1e3_trace):
        with_throughput = SignalingTrace(metadata=s1e3_trace.metadata)
        for record in s1e3_trace.records:
            with_throughput.append(record)
        with_throughput.append(ThroughputSampleRecord(time_s=100.0, mbps=50.0))
        analysis = analyze_trace(with_throughput)
        assert analysis.subtype is LoopSubtype.S1E3

    @pytest.mark.parametrize("columnar", [False, True])
    def test_pre_timeline_reports_count_but_are_not_serving(self, columnar):
        # A report timestamped before the first interval carries no
        # known serving set: it must feed observed_cells /
        # n_rsrp_samples but never serving_nr_rsrp — even if it
        # measures the cell that becomes the PCell moments later (the
        # old cursor attributed it to the first interval, inflating
        # Figure 17).
        from repro.core.cellset import CellSet, CellSetInterval
        from repro.core.columnar import IntervalColumns, RecordColumns
        from repro.core.pipeline import _collect_measurement_stats_columnar
        from tests.oracles import _collect_measurement_stats

        pcell = cell_id(393, 521310)
        trace = SignalingTrace()
        trace.append(MeasurementReportRecord(
            time_s=0.5,
            measurements=(CellMeasurement(pcell, -80.0, -10.0),)))
        trace.append(MeasurementReportRecord(
            time_s=2.0,
            measurements=(CellMeasurement(pcell, -81.0, -10.0),)))
        intervals = [CellSetInterval(CellSet(pcell=pcell), 1.0, 60.0)]
        analysis = analyze_trace(SignalingTrace())
        analysis.intervals = intervals
        if columnar:
            _collect_measurement_stats_columnar(
                RecordColumns.from_trace(trace),
                IntervalColumns.from_intervals(intervals), analysis)
        else:
            _collect_measurement_stats(trace.signaling_records(), analysis)
        assert pcell in analysis.observed_cells
        assert analysis.n_rsrp_samples == 2
        # Only the in-timeline report (t=2.0) is attributed as serving.
        assert analysis.serving_nr_rsrp == {521310: [-81.0]}

    def test_successful_modification_not_counted_failed(self):
        pcell = cell_id(393, 521310)
        trace = SignalingTrace()
        for record in make_sa_setup_records(0.0, pcell):
            trace.append(record)
        trace.append(RrcReconfigurationRecord(
            time_s=3.0, pcell=pcell,
            scell_add_mod=(ScellAddMod(1, cell_id(273, 387410)),)))
        trace.append(RrcReconfigurationRecord(
            time_s=6.0, pcell=pcell,
            scell_add_mod=(ScellAddMod(2, cell_id(371, 387410)),),
            scell_release_indices=(1,)))
        # No exception follows: the modification succeeded.
        trace.append(MmStateRecord(time_s=60.0, state="REGISTERED"))
        analysis = analyze_trace(trace)
        assert len(analysis.scell_mods) == 1
        assert not analysis.scell_mods[0].failed


def _analysis(location="P1", area="A1", subtype_cycles=2):
    pcell = cell_id(393, 521310)
    trace = SignalingTrace(metadata=TraceMetadata(operator="OP_T", area=area,
                                                  location=location,
                                                  device="OnePlus 12R"))
    t = 0.0
    for _ in range(subtype_cycles):
        for record in make_s1e3_cycle(t, pcell, cell_id(273, 387410),
                                      cell_id(371, 387410)):
            trace.append(record)
        t += 16.0
    return analyze_trace(trace)


def _no_loop_analysis(location="P2", area="A1"):
    pcell = cell_id(104, 501390)
    trace = SignalingTrace(metadata=TraceMetadata(operator="OP_T", area=area,
                                                  location=location))
    for record in make_sa_setup_records(0.0, pcell):
        trace.append(record)
    trace.append(RrcReconfigurationRecord(
        time_s=3.0, pcell=pcell,
        scell_add_mod=(ScellAddMod(1, cell_id(273, 398410)),)))
    # Let the post-reconfiguration state hold for a while — a state
    # change at the trace's final timestamp would be zero-width.
    trace.append(MmStateRecord(time_s=10.0, state="REGISTERED"))
    return analyze_trace(trace)


class TestChannelAnalysis:
    def test_usage_breakdown_sums_to_one(self):
        analyses = [_analysis(), _no_loop_analysis()]
        usage = channel_usage_breakdown(analyses)
        for shares in usage.values():
            assert sum(shares.values()) == pytest.approx(1.0)

    def test_loop_usage_separated_from_no_loop(self):
        analyses = [_analysis(), _no_loop_analysis()]
        usage = channel_usage_breakdown(analyses)
        assert 387410 in usage["loop"]
        assert 387410 not in usage["no-loop"]
        assert 398410 in usage["no-loop"]

    def test_subtype_category_present(self):
        usage = channel_usage_breakdown([_analysis()])
        assert "S1E3" in usage

    def test_failure_ratios(self):
        stats = scell_mod_failure_ratios([_analysis(), _no_loop_analysis()])
        assert stats[387410].failure_ratio == pytest.approx(1.0)
        assert stats[387410].attempts == 2

    def test_failure_ratio_zero_attempts(self):
        stats = scell_mod_failure_ratios([_no_loop_analysis()])
        assert stats == {}

    def test_tenth_percentile_per_location(self):
        per_location = tenth_percentile_rsrp_per_location(
            [_analysis("P1"), _analysis("P9")], 387410)
        assert set(per_location) == {"P1", "P9"}
        assert all(value <= -80.0 for value in per_location.values())

    def test_median_per_area(self):
        values = median_rsrp_per_area([_analysis(area="A1"),
                                       _analysis("P5", area="A2")], 387410)
        assert set(values) == {"A1", "A2"}

    def test_median_per_subtype(self):
        values = median_rsrp_per_subtype([_analysis(), _no_loop_analysis()],
                                         387410)
        assert "S1E3" in values

    def test_nsa_channel_usage_shapes(self):
        usage = nsa_channel_usage([_analysis(), _no_loop_analysis()],
                                  LoopSubtype.S1E3, use_nr=True)
        assert set(usage) == {"S1E3", "no-loop"}
        assert sum(usage["S1E3"].values()) == pytest.approx(1.0)
