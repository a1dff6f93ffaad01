"""Differential test of the trace codec over a campaign sample.

Every run is taken through simulator -> JSONL / NSG text -> parser ->
analysis and checked against the in-memory path: the text re-renders
byte for byte, the loop verdicts agree, the metadata survives, and the
parsed identities are interned (one object per distinct cell).  The
second half covers the codec's strict RAT labels in both formats.
"""

from __future__ import annotations

import json

import pytest

from repro.campaign import build_deployment, device, operator
from repro.campaign.locations import sparse_locations, walking_path
from repro.campaign.runner import run_once
from repro.cells.cell import CellIdentity
from repro.core.pipeline import analyze_trace
from repro.resilience.errors import MalformedRecordError
from repro.traces.log import SignalingTrace
from repro.traces.nsg_format import (
    NsgFormatError,
    parse_nsg_text,
    render_trace,
)
from repro.traces.parser import parse_jsonl, parse_trace
from repro.traces.records import (
    MeasurementReportRecord,
    RrcReconfigurationRecord,
    ThroughputSampleRecord,
)

DEPLOYMENTS = (("OP_T", "A1"), ("OP_A", "A6"), ("OP_V", "A9"))
DURATIONS_S = (300, 60)
LOCATIONS = 2


WALK = "OP_T/A1/walk/120s"
NAMES = [f"{operator_name}/{area_name}/L{index}/{duration_s}s"
         for operator_name, area_name in DEPLOYMENTS
         for duration_s in DURATIONS_S
         for index in range(LOCATIONS)] + [WALK]


@pytest.fixture(scope="module")
def sample() -> dict:
    """The simulated campaign sample, keyed by the names in NAMES."""
    phone = device("OnePlus 12R")
    runs = {}
    for operator_name, area_name in DEPLOYMENTS:
        profile = operator(operator_name)
        deployment = build_deployment(profile, area_name)
        points = sparse_locations(deployment.area, LOCATIONS, seed=13)
        for duration_s in DURATIONS_S:
            for index, point in enumerate(points):
                name = f"{operator_name}/{area_name}/L{index}/{duration_s}s"
                runs[name] = run_once(
                    deployment, profile, phone, point, f"L{index}", 0,
                    duration_s=duration_s, keep_trace=True)
    profile = operator("OP_T")
    deployment = build_deployment(profile, "A1")
    start, end = sparse_locations(deployment.area, 2, seed=13)
    runs[WALK] = run_once(
        deployment, profile, phone, start, "walk", 0, duration_s=120,
        keep_trace=True, mode="walking",
        point_provider=walking_path(start, end, duration_s=120))
    assert sorted(runs) == sorted(NAMES)
    return runs


def verdict(analysis) -> tuple:
    detection = analysis.detection
    return (detection.kind.value, detection.start_index, detection.period,
            analysis.subtype.value)


def identities(trace: SignalingTrace) -> list[CellIdentity]:
    """Every cell identity a trace's records reference."""
    found = []
    for record in trace.records:
        if isinstance(record, MeasurementReportRecord):
            found.extend(m.identity for m in record.measurements)
        elif isinstance(record, RrcReconfigurationRecord):
            found.append(record.pcell)
            found.extend(entry.identity for entry in record.scell_add_mod)
            found.extend(cell for cell in (record.handover_target,
                                           record.scg_pscell) if cell)
            found.extend(record.scg_scells)
        elif getattr(record, "cell", None) is not None:
            found.append(record.cell)
        elif getattr(record, "pcell", None) is not None:
            found.append(record.pcell)
    return found


@pytest.fixture(params=NAMES)
def run(request, sample):
    return sample[request.param]


class TestJsonlCodec:
    def test_round_trip_is_byte_identical(self, run):
        text = run.trace.to_jsonl()
        assert parse_jsonl(text).to_jsonl() == text

    def test_verdict_matches_in_memory_analysis(self, run):
        parsed = parse_jsonl(run.trace.to_jsonl())
        assert verdict(analyze_trace(parsed)) == verdict(run.analysis)

    def test_metadata_survives(self, run):
        assert parse_jsonl(run.trace.to_jsonl()).metadata == run.metadata

    def test_identities_are_interned(self, run):
        cells = identities(parse_jsonl(run.trace.to_jsonl()))
        assert cells
        assert len({id(cell) for cell in cells}) == len(set(cells))


class TestNsgCodec:
    def test_round_trip_is_byte_identical(self, run):
        text = render_trace(run.trace)
        assert render_trace(parse_nsg_text(text)) == text

    def test_verdict_matches_signaling_subset(self, run):
        signaling = SignalingTrace(run.trace.metadata, [
            record for record in run.trace.records
            if not isinstance(record, ThroughputSampleRecord)])
        parsed = parse_nsg_text(render_trace(run.trace))
        assert verdict(analyze_trace(parsed)) == \
            verdict(analyze_trace(signaling))

    def test_metadata_survives(self, run):
        assert parse_nsg_text(render_trace(run.trace)).metadata \
            == run.metadata

    def test_identities_are_interned(self, run):
        cells = identities(parse_nsg_text(render_trace(run.trace)))
        assert cells
        assert len({id(cell) for cell in cells}) == len(set(cells))


def test_walking_mode_survives_both_formats(sample):
    walk = sample[WALK]
    assert walk.metadata.mode == "walking"
    assert parse_jsonl(walk.trace.to_jsonl()).metadata.mode == "walking"
    assert parse_nsg_text(render_trace(walk.trace)).metadata.mode == "walking"


BAD_LABELS = ("5g", "6G", "NR", "")


def _jsonl_with_bad_label(label: str) -> str:
    good = {"t": 1.0, "kind": "rrc_setup",
            "cell": {"pci": 1, "ch": 387410, "rat": "5G"}}
    bad = {"t": 2.0, "kind": "meas_report", "event": "periodic",
           "meas": [{"cell": {"pci": 1, "ch": 387410, "rat": label},
                     "rsrp": -90.0, "rsrq": -10.0, "serving": True}]}
    return "\n".join(json.dumps(line) for line in (good, bad)) + "\n"


class TestStrictRatLabels:
    @pytest.mark.parametrize("label", BAD_LABELS)
    def test_jsonl_strict_raises(self, label):
        with pytest.raises(MalformedRecordError) as info:
            parse_trace(_jsonl_with_bad_label(label))
        assert info.value.line_number == 2

    @pytest.mark.parametrize("label", BAD_LABELS)
    def test_jsonl_recover_quarantines(self, label):
        result = parse_trace(_jsonl_with_bad_label(label), errors="recover")
        assert len(result.trace) == 1
        assert result.report.skipped_records == 1
        assert result.report.errors_by_class["MalformedRecordError"] == 1

    @pytest.mark.parametrize("label", ["6G", "5g", "NR"])
    def test_nsg_cell_reference_raises(self, label):
        text = ("00:00:01.000 NR5G RRC OTA Packet -- DL_CCCH / RRC Setup\n"
                f"  Physical Cell ID = 1, Freq = 387410, RAT = {label}\n")
        with pytest.raises(NsgFormatError):
            parse_nsg_text(text)

    @pytest.mark.parametrize("label", ["6G", "5g", "NR"])
    def test_nsg_measurement_line_raises(self, label):
        text = ("00:00:01.000 RRC OTA Packet -- UL_DCCH / MeasurementReport "
                "(event periodic)\n"
                f"  1@387410/{label} (serving): -90.0dBm -10.0dB\n")
        with pytest.raises(NsgFormatError):
            parse_nsg_text(text)
