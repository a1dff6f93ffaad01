"""Campaign results and dataset statistics (Table 3).

A :class:`CampaignResult` is the in-memory equivalent of the released
dataset: every run's metadata plus its full analysis (loop detection,
classification, metrics), with optional raw traces.  The aggregation
helpers here feed most of section 4's figures.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field

from repro.cells.cell import CellIdentity, Rat
from repro.core.classify import LoopSubtype
from repro.core.loops import LoopKind
from repro.core.pipeline import RunAnalysis
from repro.radio.geometry import Point
from repro.traces.log import SignalingTrace, TraceMetadata


@dataclass
class RunResult:
    """One analysed run of the campaign.

    ``trace_jsonl`` is the trace's canonical serialisation, kept next to
    ``trace`` so it is built once per run: a pool worker ships only the
    text when the campaign checkpoints but does not keep traces.
    """

    metadata: TraceMetadata
    analysis: RunAnalysis
    trace: SignalingTrace | None = None
    point: Point | None = None
    trace_jsonl: str | None = None

    @property
    def has_loop(self) -> bool:
        return self.analysis.has_loop

    def trace_text(self) -> str | None:
        """The trace's JSONL, serialising the trace at most once."""
        if self.trace_jsonl is None and self.trace is not None:
            self.trace_jsonl = self.trace.to_jsonl()
        return self.trace_jsonl

    def drop_trace(self) -> None:
        self.trace = None
        self.trace_jsonl = None


@dataclass(frozen=True)
class QuarantinedRun:
    """One run that failed permanently and was isolated from the results."""

    operator: str
    area: str
    location: str
    run_index: int
    error: str
    attempts: int = 1

    @property
    def key(self) -> tuple[str, str, str, int]:
        return (self.operator, self.area, self.location, self.run_index)

    def __str__(self) -> str:
        return (f"{self.operator}/{self.area}/{self.location}"
                f"/run{self.run_index} after {self.attempts} attempt(s): "
                f"{self.error}")


@dataclass
class CampaignResult:
    """All runs of one campaign, with aggregation helpers.

    ``scheduled`` counts every run the campaign planned; completed runs
    land in ``runs`` and permanently failed ones in ``quarantined``, so
    ``scheduled == len(runs) + len(quarantined)`` for a finished
    campaign (filtered sub-results keep ``scheduled == 0``).
    """

    runs: list[RunResult] = field(default_factory=list)
    quarantined: list[QuarantinedRun] = field(default_factory=list)
    scheduled: int = 0

    def add(self, run: RunResult) -> None:
        self.runs.append(run)

    def quarantine(self, entry: QuarantinedRun) -> None:
        self.quarantined.append(entry)

    @property
    def completed(self) -> int:
        return len(self.runs)

    def reconciles(self) -> bool:
        """Does every scheduled run appear as completed or quarantined?"""
        if not self.scheduled:
            return True
        return self.scheduled == len(self.runs) + len(self.quarantined)

    def __len__(self) -> int:
        return len(self.runs)

    # ------------------------------------------------------------------
    # Filtering
    # ------------------------------------------------------------------

    def for_operator(self, operator: str) -> "CampaignResult":
        return CampaignResult([run for run in self.runs
                               if run.metadata.operator == operator])

    def for_area(self, area: str) -> "CampaignResult":
        return CampaignResult([run for run in self.runs
                               if run.metadata.area == area])

    def for_location(self, location: str) -> "CampaignResult":
        return CampaignResult([run for run in self.runs
                               if run.metadata.location == location])

    @property
    def operators(self) -> list[str]:
        return sorted({run.metadata.operator for run in self.runs})

    @property
    def areas(self) -> list[str]:
        return sorted({run.metadata.area for run in self.runs},
                      key=lambda name: (len(name), name))

    @property
    def locations(self) -> list[str]:
        return sorted({run.metadata.location for run in self.runs})

    @property
    def analyses(self) -> list[RunAnalysis]:
        return [run.analysis for run in self.runs]

    # ------------------------------------------------------------------
    # Loop aggregation (Figures 6, 8, 9, 16)
    # ------------------------------------------------------------------

    def loop_kind_ratios(self) -> dict[LoopKind, float]:
        """Share of runs per Figure 4 category (I / II-P / II-SP)."""
        if not self.runs:
            return {kind: 0.0 for kind in LoopKind}
        counts = {kind: 0 for kind in LoopKind}
        for run in self.runs:
            counts[run.analysis.loop_kind] += 1
        return {kind: counts[kind] / len(self.runs) for kind in LoopKind}

    def loop_ratio(self) -> float:
        """Share of runs in which a loop was observed."""
        if not self.runs:
            return 0.0
        return sum(1 for run in self.runs if run.has_loop) / len(self.runs)

    def loop_likelihood_per_location(self) -> dict[str, float]:
        """Per-location loop likelihood (Figure 8)."""
        totals: dict[str, int] = defaultdict(int)
        loops: dict[str, int] = defaultdict(int)
        for run in self.runs:
            totals[run.metadata.location] += 1
            if run.has_loop:
                loops[run.metadata.location] += 1
        return {location: loops[location] / totals[location]
                for location in totals}

    def subtype_breakdown(self) -> dict[LoopSubtype, float]:
        """Share of loop runs per sub-type (Figure 16)."""
        loop_runs = [run for run in self.runs if run.has_loop]
        if not loop_runs:
            return {}
        counts: dict[LoopSubtype, int] = defaultdict(int)
        for run in loop_runs:
            counts[run.analysis.subtype] += 1
        return {subtype: counts[subtype] / len(loop_runs) for subtype in counts}

    def all_cycles(self):
        """Every ON-OFF cycle of every loop run (Figure 10)."""
        cycles = []
        for run in self.runs:
            if run.has_loop:
                cycles.extend(run.analysis.cycles)
        return cycles

    def cycles_by_subtype(self) -> dict[LoopSubtype, list]:
        grouped: dict[LoopSubtype, list] = defaultdict(list)
        for run in self.runs:
            if run.has_loop:
                grouped[run.analysis.subtype].extend(run.analysis.cycles)
        return dict(grouped)


@dataclass
class DatasetStatistics:
    """One operator's Table 3 row."""

    operator: str
    areas: list[str]
    area_size_km2: float
    n_locations: int
    total_time_min: float
    mode: str
    nr_bands: list[str]
    lte_bands: list[str]
    n_nr_cells: int
    n_lte_cells: int
    n_rsrp_samples: int
    n_cs_samples: int
    n_unique_cellsets: int
    n_loops: int

    @staticmethod
    def from_campaign(result: CampaignResult, operator: str,
                      area_sizes_km2: dict[str, float] | None = None,
                      mode: str = "",
                      ) -> "DatasetStatistics":
        """Aggregate one operator's runs into its Table 3 row."""
        subset = result.for_operator(operator)
        observed: set[CellIdentity] = set()
        cellsets = set()
        n_rsrp = 0
        n_cs = 0
        total_s = 0.0
        n_loops = 0
        for run in subset.runs:
            observed.update(run.analysis.observed_cells)
            cellsets.update(run.analysis.unique_cellsets)
            n_rsrp += run.analysis.n_rsrp_samples
            n_cs += run.analysis.n_cs_samples
            total_s += run.analysis.duration_s
            if run.has_loop:
                n_loops += run.analysis.detection.repetitions
        nr_cells = [cell for cell in observed if cell.rat is Rat.NR]
        lte_cells = [cell for cell in observed if cell.rat is Rat.LTE]
        nr_bands = sorted({cell.band.name for cell in nr_cells})
        lte_bands = sorted({cell.band.name for cell in lte_cells})
        areas = subset.areas
        size = sum((area_sizes_km2 or {}).get(area, 0.0) for area in areas)
        return DatasetStatistics(
            operator=operator,
            areas=areas,
            area_size_km2=size,
            n_locations=len(subset.locations),
            total_time_min=total_s / 60.0,
            mode=mode,
            nr_bands=nr_bands,
            lte_bands=lte_bands,
            n_nr_cells=len(nr_cells),
            n_lte_cells=len(lte_cells),
            n_rsrp_samples=n_rsrp,
            n_cs_samples=n_cs,
            n_unique_cellsets=len(cellsets),
            n_loops=n_loops,
        )
