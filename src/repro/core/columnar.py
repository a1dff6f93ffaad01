"""Columnar data plane for the analysis hot path.

This module builds numpy-backed tables **once per trace** — per-kind
record time arrays (:class:`RecordColumns`) and interval
start/end/5G-on/interned cell-set-id arrays (:class:`IntervalColumns`)
— and answers every classification and metric query as
``np.searchsorted`` lookups over them, instead of re-filtering the
record list per OFF transition, advancing a Python cursor per
throughput sample, or re-walking the interval list per report.

These are the only implementations of the primitives in ``repro``.
Their plain record-by-record versions live in ``tests/oracles.py``: the
property tests in ``tests/test_core_columnar.py`` require the two to be
*bit-identical*, and ``benchmarks/test_analysis_hotpath.py`` times the
pipeline against them.  Results keep the dataclass schemas of
:mod:`repro.core.metrics` and :mod:`repro.core.classify`.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from repro.cells.cell import CellIdentity, Rat
from repro.core.cellset import CellSet, CellSetInterval
from repro.core.classify import (
    _POOR_RSRQ_DB,
    _REPORT_LOOKBACK_S,
    _TRIGGER_WINDOW_AFTER_S,
    _TRIGGER_WINDOW_BEFORE_S,
    LoopSubtype,
    OffTransition,
)
from repro.core.metrics import CycleMetrics, RunPerformance
from repro.traces.log import SignalingTrace
from repro.traces.records import (
    MeasurementReportRecord,
    MmStateRecord,
    Record,
    RrcReconfigurationRecord,
    RrcReestablishmentRequestRecord,
    ScgFailureRecord,
    ThroughputSampleRecord,
)

__all__ = [
    "IntervalColumns",
    "RecordColumns",
    "RecordColumnsBuilder",
    "classify_loop_columnar",
    "loop_cycles_columnar",
    "run_performance_columnar",
    "scg_measurement_delays_columnar",
]

_EMPTY_F64 = np.empty(0, dtype=np.float64)
_EMPTY_I64 = np.empty(0, dtype=np.int64)
_EMPTY_BOOL = np.empty(0, dtype=bool)


def _median(values: list[float]) -> float:
    """``float(np.median(values))`` without the per-call numpy overhead.

    Bit-identical: ``np.median`` selects the middle element for odd
    sizes and averages the two middle elements (``(a + b) / 2`` in
    float64) for even sizes — the per-cycle segments here hold a
    handful of samples each, where ``sorted`` beats ``np.partition``'s
    fixed cost by an order of magnitude.
    """
    ordered = sorted(values)
    n = len(ordered)
    mid = n >> 1
    if n & 1:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def _as_f64(values: list[float]) -> np.ndarray:
    return np.asarray(values, dtype=np.float64) if values else _EMPTY_F64


def _as_i64(values: list[int]) -> np.ndarray:
    return np.asarray(values, dtype=np.int64) if values else _EMPTY_I64


@dataclass
class RecordColumns:
    """Per-kind record tables of one trace, built in a single pass.

    All time arrays are float64 and non-decreasing (traces guarantee
    record order); the parallel object lists keep the original record
    order so "first/last match in a window" lookups resolve ties the
    same way a forward scan over the record list does.
    """

    #: The RRC capture proper (throughput samples excluded), in order.
    signaling: list[Record]
    throughput_t: np.ndarray
    throughput_mbps: np.ndarray
    #: Measurement reports + their times; NR-bearing report times feed
    #: the SCG recovery-delay match.
    meas_reports: list[MeasurementReportRecord]
    meas_t: np.ndarray
    nr_report_t: np.ndarray
    scg_failure_t: np.ndarray
    reest: list[RrcReestablishmentRequestRecord]
    reest_t: np.ndarray
    #: MM5G DEREGISTERED lines: times + their indices into ``signaling``
    #: (the SCell-outcome lookahead is index-ordered).
    dereg_t: np.ndarray
    dereg_sig_index: np.ndarray
    #: Reconfigurations carrying an SCG config (the N2 problem PSCell).
    scg_config_t: np.ndarray
    scg_config_pscells: list[CellIdentity]
    #: Handover reconfigurations that also release the SCG (N2E1).
    ho_release_t: np.ndarray
    ho_release_targets: list[CellIdentity | None]
    #: Non-handover SCG releases (the legacy A2-B1 trigger).
    scg_release_t: np.ndarray
    #: Reconfigurations with both an add/mod list and release indices —
    #: the broad S1E3 predicate; the SCell-outcome pass filters further.
    scellmod: list[RrcReconfigurationRecord]
    scellmod_t: np.ndarray
    scellmod_sig_index: np.ndarray

    @staticmethod
    def from_trace(trace: SignalingTrace) -> "RecordColumns":
        builder = RecordColumnsBuilder()
        for record in trace.records:
            builder.push(record)
        return builder.build()


class RecordColumnsBuilder:
    """Push-based accumulator behind :meth:`RecordColumns.from_trace`.

    The per-kind dispatch used to live inline in ``from_trace``; it is
    a class so the incremental analyzer (:mod:`repro.core.incremental`)
    can feed records one at a time and :meth:`build` the identical
    column set at finalize — the batch path goes through the same
    ``push`` calls, so the two cannot drift.
    """

    def __init__(self) -> None:
        self.signaling: list[Record] = []
        self.throughput_t: list[float] = []
        self.throughput_mbps: list[float] = []
        self.meas_reports: list[MeasurementReportRecord] = []
        self.meas_t: list[float] = []
        self.nr_report_t: list[float] = []
        self.scg_failure_t: list[float] = []
        self.reest: list[RrcReestablishmentRequestRecord] = []
        self.reest_t: list[float] = []
        self.dereg_t: list[float] = []
        self.dereg_sig_index: list[int] = []
        self.scg_config_t: list[float] = []
        self.scg_config_pscells: list[CellIdentity] = []
        self.ho_release_t: list[float] = []
        self.ho_release_targets: list[CellIdentity | None] = []
        self.scg_release_t: list[float] = []
        self.scellmod: list[RrcReconfigurationRecord] = []
        self.scellmod_t: list[float] = []
        self.scellmod_sig_index: list[int] = []

    def push(self, record: Record) -> None:
        if isinstance(record, ThroughputSampleRecord):
            self.throughput_t.append(record.time_s)
            self.throughput_mbps.append(record.mbps)
            return
        sig_index = len(self.signaling)
        self.signaling.append(record)
        if isinstance(record, MeasurementReportRecord):
            self.meas_reports.append(record)
            self.meas_t.append(record.time_s)
            if any(measurement.identity.rat is Rat.NR
                   for measurement in record.measurements):
                self.nr_report_t.append(record.time_s)
        elif isinstance(record, ScgFailureRecord):
            self.scg_failure_t.append(record.time_s)
        elif isinstance(record, RrcReestablishmentRequestRecord):
            self.reest.append(record)
            self.reest_t.append(record.time_s)
        elif isinstance(record, MmStateRecord):
            if record.state == "DEREGISTERED":
                self.dereg_t.append(record.time_s)
                self.dereg_sig_index.append(sig_index)
        elif isinstance(record, RrcReconfigurationRecord):
            if record.scg_pscell is not None:
                self.scg_config_t.append(record.time_s)
                self.scg_config_pscells.append(record.scg_pscell)
            if record.release_scg:
                if record.is_handover:
                    self.ho_release_t.append(record.time_s)
                    self.ho_release_targets.append(record.handover_target)
                else:
                    self.scg_release_t.append(record.time_s)
            if record.scell_add_mod and record.scell_release_indices:
                self.scellmod.append(record)
                self.scellmod_t.append(record.time_s)
                self.scellmod_sig_index.append(sig_index)

    def build(self) -> RecordColumns:
        return RecordColumns(
            signaling=self.signaling,
            throughput_t=_as_f64(self.throughput_t),
            throughput_mbps=_as_f64(self.throughput_mbps),
            meas_reports=self.meas_reports,
            meas_t=_as_f64(self.meas_t),
            nr_report_t=_as_f64(self.nr_report_t),
            scg_failure_t=_as_f64(self.scg_failure_t),
            reest=self.reest,
            reest_t=_as_f64(self.reest_t),
            dereg_t=_as_f64(self.dereg_t),
            dereg_sig_index=_as_i64(self.dereg_sig_index),
            scg_config_t=_as_f64(self.scg_config_t),
            scg_config_pscells=self.scg_config_pscells,
            ho_release_t=_as_f64(self.ho_release_t),
            ho_release_targets=self.ho_release_targets,
            scg_release_t=_as_f64(self.scg_release_t),
            scellmod=self.scellmod,
            scellmod_t=_as_f64(self.scellmod_t),
            scellmod_sig_index=_as_i64(self.scellmod_sig_index),
        )


@dataclass
class IntervalColumns:
    """The cell-set interval sequence as parallel arrays.

    Cell sets are interned: ``cellsets`` holds each distinct set once
    (first-appearance order) and ``cellset_id`` maps intervals into it.
    The collapsed 5G timeline (``seg_*``, the exact segments
    :func:`repro.core.cellset.five_g_timeline` produces) and the
    ON-interval projection (``on_*``, for the classifier's
    serving-set-before-OFF lookup) are precomputed here because three
    different stages reuse them.
    """

    start: np.ndarray
    end: np.ndarray
    on: np.ndarray
    cellset_id: np.ndarray
    cellsets: list[CellSet]
    seg_on: np.ndarray
    seg_start: np.ndarray
    seg_end: np.ndarray
    on_start: np.ndarray
    on_end: np.ndarray
    on_cellset_id: np.ndarray

    @staticmethod
    def from_intervals(intervals: list[CellSetInterval]) -> "IntervalColumns":
        n = len(intervals)
        cellsets: list[CellSet] = []
        table: dict[CellSet, int] = {}
        ids = np.empty(n, dtype=np.int64)
        start = np.empty(n, dtype=np.float64)
        end = np.empty(n, dtype=np.float64)
        for index, interval in enumerate(intervals):
            cellset_id = table.get(interval.cellset)
            if cellset_id is None:
                cellset_id = len(cellsets)
                table[interval.cellset] = cellset_id
                cellsets.append(interval.cellset)
            ids[index] = cellset_id
            start[index] = interval.start_s
            end[index] = interval.end_s
        unique_on = np.fromiter((cellset.five_g_on for cellset in cellsets),
                                dtype=bool, count=len(cellsets)) \
            if cellsets else _EMPTY_BOOL
        on = unique_on[ids] if n else _EMPTY_BOOL

        if n:
            # Same-state intervals only merge into one segment when
            # contiguous — mirrors the five_g_timeline gap rule (a gap
            # between intervals must survive as a segment boundary).
            change = np.flatnonzero((on[1:] != on[:-1])
                                    | (start[1:] != end[:-1]))
            seg_first = np.concatenate(([0], change + 1))
            seg_last = np.concatenate((change, [n - 1]))
            seg_on = on[seg_first]
            seg_start = start[seg_first]
            seg_end = end[seg_last]
        else:
            seg_on, seg_start, seg_end = _EMPTY_BOOL, _EMPTY_F64, _EMPTY_F64

        return IntervalColumns(
            start=start, end=end, on=on, cellset_id=ids, cellsets=cellsets,
            seg_on=seg_on, seg_start=seg_start, seg_end=seg_end,
            on_start=start[on], on_end=end[on], on_cellset_id=ids[on],
        )


# ----------------------------------------------------------------------
# Metrics (result types: repro.core.metrics)
# ----------------------------------------------------------------------


def run_performance_columnar(icolumns: IntervalColumns,
                             rcolumns: RecordColumns) -> RunPerformance:
    """Split the 1 Hz speed series by 5G state and compute per-cycle losses.

    Samples captured *before* the first signaling record carry no known
    5G state and are dropped; samples past the final segment extrapolate
    its state, as the capture simply outlived the signaling.  An
    in-range sample belongs to the first segment with ``t < end``, which
    is ``searchsorted(seg_end, t, side='right')``; samples before the
    first / past the last segment split off as contiguous prefix/suffix
    blocks because both series are time-ordered.
    """
    performance = RunPerformance()
    seg_on, seg_end = icolumns.seg_on, icolumns.seg_end
    t = rcolumns.throughput_t
    if seg_on.size == 0 or t.size == 0:
        return performance
    mbps = rcolumns.throughput_mbps
    first_start = icolumns.seg_start[0]
    last_end = seg_end[-1]
    lo = int(np.searchsorted(t, first_start, side="left"))
    hi = int(np.searchsorted(t, last_end, side="left"))
    in_mbps = mbps[lo:hi]
    idx = np.searchsorted(seg_end, t[lo:hi], side="right")
    on_mask = seg_on[idx]
    performance.on_speed_samples = in_mbps[on_mask].tolist()
    performance.off_speed_samples = in_mbps[~on_mask].tolist()
    tail = mbps[hi:]
    if tail.size:
        # Samples past the last segment extrapolate its state.
        bucket = performance.on_speed_samples if seg_on[-1] \
            else performance.off_speed_samples
        bucket.extend(tail.tolist())
    # Per-cycle loss over each consecutive (ON, OFF) segment pair; idx
    # is non-decreasing, so each segment's samples are one slice.
    pairs = np.flatnonzero(seg_on[:-1] & ~seg_on[1:])
    if pairs.size:
        bounds = np.searchsorted(idx, np.arange(seg_on.size + 1), side="left")
        samples = in_mbps.tolist()
        for index in pairs:
            on_speeds = samples[bounds[index]:bounds[index + 1]]
            off_speeds = samples[bounds[index + 1]:bounds[index + 2]]
            if on_speeds and off_speeds:
                performance.cycle_speed_losses.append(
                    _median(on_speeds) - _median(off_speeds))
    return performance


def loop_cycles_columnar(icolumns: IntervalColumns,
                         window: tuple[float, float] | None = None,
                         ) -> list[CycleMetrics]:
    """Every complete ON-then-OFF cycle of the 5G timeline.

    ``window`` restricts extraction to a [start, end) time span —
    normally the detected loop's span (see
    :func:`repro.core.loops.loop_window`), so cycles outside the
    periodic region do not contaminate the Figure 10 distributions.
    Segments straddling the window boundary are clipped to it.
    """
    seg_on = icolumns.seg_on
    seg_start = icolumns.seg_start
    seg_end = icolumns.seg_end
    if window is not None:
        start_w, end_w = window
        seg_start = np.maximum(seg_start, start_w)
        seg_end = np.minimum(seg_end, end_w)
        keep = seg_end > seg_start
        seg_on, seg_start, seg_end = seg_on[keep], seg_start[keep], seg_end[keep]
    return [CycleMetrics(on_s=float(seg_end[i] - seg_start[i]),
                         off_s=float(seg_end[i + 1] - seg_start[i + 1]))
            for i in np.flatnonzero(seg_on[:-1] & ~seg_on[1:])]


def scg_measurement_delays_columnar(rcolumns: RecordColumns) -> list[float]:
    """Delay from each SCG failure to the next report containing a 5G cell."""
    failure_t = rcolumns.scg_failure_t
    report_t = rcolumns.nr_report_t
    if failure_t.size == 0:
        return []
    positions = np.searchsorted(report_t, failure_t, side="right")
    valid = positions < report_t.size
    return (report_t[positions[valid]] - failure_t[valid]).tolist()


# ----------------------------------------------------------------------
# Classification (vocabulary: repro.core.classify)
# ----------------------------------------------------------------------


def _window_count(times: np.ndarray, lo: np.ndarray,
                  hi: np.ndarray) -> np.ndarray:
    """How many of ``times`` fall in each inclusive ``[lo, hi]`` window."""
    return (np.searchsorted(times, hi, side="right")
            - np.searchsorted(times, lo, side="left"))


def _on_cellset_before(icolumns: IntervalColumns,
                       t_off: float) -> CellSet | None:
    """The serving cell set active just before an OFF transition: the
    last ON interval with ``start < t_off + eps`` and
    ``end <= t_off + eps``."""
    cutoff = t_off + 1e-6
    index = int(np.searchsorted(icolumns.on_end, cutoff, side="right")) - 1
    while index >= 0 and not (icolumns.on_start[index] < cutoff):
        index -= 1
    if index < 0:
        return None
    return icolumns.cellsets[icolumns.on_cellset_id[index]]


def _classify_sa_exception(rcolumns: RecordColumns,
                           icolumns: IntervalColumns,
                           t_off: float) -> tuple[LoopSubtype,
                                                  CellIdentity | None]:
    """Split an MM-DEREGISTERED exception into S1E1 / S1E2 / S1E3."""
    mod_index = int(np.searchsorted(rcolumns.scellmod_t, t_off - 2.0,
                                    side="left"))
    if mod_index < rcolumns.scellmod_t.size \
            and rcolumns.scellmod_t[mod_index] <= t_off + 1e-6:
        return (LoopSubtype.S1E3,
                rcolumns.scellmod[mod_index].scell_add_mod[0].identity)

    cellset = _on_cellset_before(icolumns, t_off)
    if cellset is None or cellset.pcell is None:
        return LoopSubtype.UNKNOWN, None
    serving_scells = [cell for cell in cellset.mcg_scells if cell.rat is Rat.NR]
    if not serving_scells:
        return LoopSubtype.UNKNOWN, None

    report_lo = int(np.searchsorted(rcolumns.meas_t,
                                    t_off - _REPORT_LOOKBACK_S, side="left"))
    report_hi = int(np.searchsorted(rcolumns.meas_t, t_off, side="right"))
    recent_reports = rcolumns.meas_reports[report_lo:report_hi]
    if recent_reports:
        for scell in serving_scells:
            seen = any(report.measurement_of(scell) is not None
                       for report in recent_reports)
            if not seen:
                return LoopSubtype.S1E1, scell
        poor_votes = 0
        worst_scell = None
        for report in recent_reports:
            for scell in serving_scells:
                measurement = report.measurement_of(scell)
                if measurement is not None and measurement.rsrq_db <= _POOR_RSRQ_DB:
                    poor_votes += 1
                    worst_scell = scell
                    break
        if poor_votes >= max(1, len(recent_reports) // 2):
            return LoopSubtype.S1E2, worst_scell
    return LoopSubtype.UNKNOWN, None


def classify_loop_columnar(rcolumns: RecordColumns,
                           icolumns: IntervalColumns,
                           ) -> tuple[LoopSubtype, list[OffTransition]]:
    """Classify every OFF transition and majority-vote the loop sub-type.

    Triggers are looked up in the window around each transition (see
    :mod:`repro.core.classify` for the rules), except the N1
    reestablishment search: an N1 loop loses the 4G connection
    *somewhere within* the OFF period — e.g. OP_A's blind redirect to a
    weak twin fails a second or two after the SCG-releasing handover
    that started the OFF — so that search spans the whole period.
    Every window membership test is a pair of ``searchsorted`` bounds,
    batched across *all* OFF transitions at once; the per-transition
    loop then only dispatches on the precomputed bounds (plus the small
    per-report S1 analysis).
    """
    seg_on = icolumns.seg_on
    off_indices = np.flatnonzero(seg_on[:-1] & ~seg_on[1:]) + 1
    if off_indices.size == 0:
        return LoopSubtype.UNKNOWN, []
    t_offs = icolumns.seg_start[off_indices]
    t_ends = icolumns.seg_end[off_indices]
    window_lo = t_offs - _TRIGGER_WINDOW_BEFORE_S
    window_hi = t_offs + _TRIGGER_WINDOW_AFTER_S

    has_scg_failure = _window_count(rcolumns.scg_failure_t,
                                    window_lo, window_hi) > 0
    # Reestablishment search spans the whole OFF period (N1 loops lose
    # the 4G leg somewhere within it), not just the trigger window.
    reest_first = np.searchsorted(rcolumns.reest_t, window_lo, side="left")
    has_dereg = _window_count(rcolumns.dereg_t, window_lo, window_hi) > 0
    ho_first = np.searchsorted(rcolumns.ho_release_t, window_lo, side="left")
    has_ho_release = _window_count(rcolumns.ho_release_t,
                                   window_lo, window_hi) > 0
    has_scg_release = _window_count(rcolumns.scg_release_t,
                                    window_lo, window_hi) > 0
    # N2 problem cell: the latest SCG PSCell at or before t_off + after.
    pscell_pos = np.searchsorted(rcolumns.scg_config_t, window_hi,
                                 side="right") - 1

    transitions: list[OffTransition] = []
    for k in range(off_indices.size):
        t_off = float(t_offs[k])
        subtype = LoopSubtype.UNKNOWN
        problem_cell: CellIdentity | None = None
        reest_index = int(reest_first[k])
        if has_scg_failure[k]:
            subtype = LoopSubtype.N2E2
            if pscell_pos[k] >= 0:
                problem_cell = rcolumns.scg_config_pscells[pscell_pos[k]]
        elif reest_index < rcolumns.reest_t.size \
                and rcolumns.reest_t[reest_index] <= float(t_ends[k]):
            request = rcolumns.reest[reest_index]
            subtype = LoopSubtype.N1E2 if request.cause == "handoverFailure" \
                else LoopSubtype.N1E1
            problem_cell = request.cell
        elif has_dereg[k]:
            subtype, problem_cell = _classify_sa_exception(
                rcolumns, icolumns, t_off)
        elif has_ho_release[k]:
            problem_cell = rcolumns.ho_release_targets[int(ho_first[k])]
            subtype = LoopSubtype.N2E1
        elif has_scg_release[k]:
            subtype = LoopSubtype.N2_A2B1
            if pscell_pos[k] >= 0:
                problem_cell = rcolumns.scg_config_pscells[pscell_pos[k]]
        transitions.append(OffTransition(t_off, subtype, problem_cell))

    votes = Counter(transition.subtype for transition in transitions
                    if transition.subtype is not LoopSubtype.UNKNOWN)
    if not votes:
        return LoopSubtype.UNKNOWN, transitions
    return votes.most_common(1)[0][0], transitions
