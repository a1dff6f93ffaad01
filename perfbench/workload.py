"""The benchmark's workloads: set-up, the three measured phases, checks.

Every workload runs the same three phases on its own seeded inputs:

* **campaign** — a reduced paper campaign (one area per operator: SA
  ``OP_T`` in A1, NSA ``OP_A`` in A6 and ``OP_V`` in A9) through
  ``CampaignRunner`` with the process-pool scheduler, checkpoint fsync
  on and a cold analysis memo, followed by ``campaign_report``.
* **ingest** — offline analysis of captured logs: set-up writes the
  seeded trace set as NSG text and JSONL; the phase parses and analyses
  them in-process and runs cold ``python -m repro analyze`` processes.
* **stream** — an open-loop fleet replay against a ``repro stream
  serve`` subprocess: fixed-rate segments for latency and floods for
  capacity.

The workloads differ in the run length every phase uses (see
``WORKLOADS``).  Nothing here changes the program: the phases call its
public API and CLI, and the traced pass times those calls from outside
(see :mod:`perfbench.spans` and :mod:`perfbench.layers`).
"""

from __future__ import annotations

import asyncio
import json
import os
import re
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import urllib.request
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from perfbench import layers
from perfbench.loadgen import EncodedTrace, Plan, PlanResult, build_plan, \
    run_plan
from perfbench.spans import Patched, SpanRecorder

from repro.analysis import report as report_mod
from repro.campaign import OPERATORS
from repro.campaign import runner as runner_mod
from repro.campaign.devices import device as device_by_name
from repro.core import pipeline
from repro.core.incremental import IncrementalAnalyzer
from repro.serve import server as server_mod
from repro.traces import nsg_format, parser
from repro.traces.log import SignalingTrace
from repro.traces.records import ThroughputSampleRecord

#: One area per operator: SA OP_T (A1), NSA OP_A (A6) and OP_V (A9).
CAMPAIGN_AREAS = ["A1", "A6", "A9"]
RUNS_PER_LOCATION = 2
#: Set-up repeats; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: The stream latency segments' offered rate.  It stays well below
#: saturation even when a shared host runs at half speed: at 5 000/s a
#: slow stretch pushed the server near capacity and multiplied the
#: median ack latency by four.
LATENCY_RATE_RPS = 2500.0
#: A flood's nominal rate: every record is due within a few ms, so the
#: server sees a standing backlog and runs at its capacity.
FLOOD_RATE_RPS = 5e6
STREAM_CONNECTIONS = 2
#: Latency segments per round, each run after a different phase: the
#: host's wake-up latency changes from second to second, so more, shorter
#: segments spread over the run give a steadier median than one long one.
LATENCY_SLICES = 3


@dataclass(frozen=True)
class Workload:
    name: str
    run_duration_s: int
    #: Campaign locations per area in each round at ``--seconds 30``
    #: (scaled with ``--seconds``).
    campaign_locations: int
    #: Set-up trace locations per area.
    setup_locations: int


WORKLOADS = {
    # The paper's 5-minute stationary runs: per-record work dominates.
    "paper": Workload("paper", 300, 1, 4),
    # One-minute runs: five times more runs, files and streams for the
    # same records, so per-run, per-file and per-stream costs weigh more.
    "short": Workload("short", 60, 3, 10),
}


@dataclass(frozen=True)
class Sizing:
    """Per-round phase sizes, derived from ``--seconds`` alone."""

    rounds: int
    campaign_locations: int
    #: Fixed-rate latency load per round, over ``LATENCY_SLICES`` segments.
    latency_s: float
    floods: int
    flood_records: int


def sizing(workload: Workload, seconds: int) -> Sizing:
    scale = seconds / 30
    return Sizing(
        rounds=max(1, min(6, seconds // 5)),
        campaign_locations=max(1, round(workload.campaign_locations * scale)),
        latency_s=max(0.3, 1.8 * scale),
        floods=3,
        flood_records=max(1000, round(5000 * scale)),
    )


# ----------------------------------------------------------------------
# Checks and results
# ----------------------------------------------------------------------


@dataclass
class Checks:
    """Correctness failures plus attempted/failed operation counts."""

    failures: list[str] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0

    def expect(self, ok: bool, message: str) -> bool:
        if not ok:
            self.failures.append(message)
        return ok

    def ops(self, attempted: int, failed: int = 0) -> None:
        self.attempted += attempted
        self.failed += failed


def verdict(analysis) -> tuple:
    """What the format may not change: kind, start, period, subtype."""
    detection = analysis.detection
    return (detection.kind.value, detection.start_index, detection.period,
            analysis.subtype.value)


def fingerprint(result) -> list[tuple]:
    return [(run.metadata.operator, run.metadata.area,
             run.metadata.location, run.metadata.run_seed)
            + verdict(run.analysis) for run in result.runs]


# ----------------------------------------------------------------------
# Set-up
# ----------------------------------------------------------------------


@dataclass
class Inputs:
    traces: list
    nsg: list[str]
    jsonl: list[str]
    jsonl_files: list[Path]
    verdicts: list[tuple]
    #: Verdicts of the RRC-visible subset, which is all the NSG text
    #: carries (it has no throughput samples; see ``nsg_format``).
    nsg_verdicts: list[tuple]
    encoded: list[EncodedTrace]
    #: Per trace: index of the record whose processing emits the live
    #: ``loop_onset`` (``len(records)`` = at close), or ``None``.
    onset_index: list[int | None]


class Bench:
    """One benchmark invocation: paths, sizes and the seeded inputs."""

    def __init__(self, root: Path, workload: str, seed: int, seconds: int,
                 work: Path) -> None:
        self.workload = WORKLOADS[workload]
        self.seed = seed
        self.size = sizing(self.workload, seconds)
        self.work = work
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"),
                        PYTHONHASHSEED="0")
        self.workers = min(2, os.cpu_count() or 1)
        self.inputs: Inputs | None = None
        self.stream_records_sent = 0
        self.parse_errors = 0

    def fresh_dir(self, name: str) -> Path:
        path = self.work / name
        shutil.rmtree(path, ignore_errors=True)
        path.mkdir(parents=True)
        return path

    # -- set-up ---------------------------------------------------------

    def setup(self) -> Inputs:
        """Simulate, render and pre-analyse the seeded trace set."""
        config = runner_mod.CampaignConfig(
            area_names=CAMPAIGN_AREAS,
            a1_locations=self.workload.setup_locations,
            a1_runs_per_location=1,
            locations_per_area=self.workload.setup_locations,
            runs_per_location=1,
            duration_s=self.workload.run_duration_s,
            keep_traces=True,
            seed=1_000_003 + self.seed,
        )
        result = runner_mod.CampaignRunner(list(OPERATORS.values()),
                                           config).run()
        directory = self.fresh_dir("traces")
        traces, nsg, jsonl, files, verdicts = [], [], [], [], []
        nsg_verdicts, encoded, onsets = [], [], []
        for index, run in enumerate(result.runs):
            trace = run.trace
            traces.append(trace)
            nsg.append(nsg_format.render_trace(trace))
            text = trace.to_jsonl()
            jsonl.append(text)
            path = directory / f"trace-{index:03d}.jsonl"
            path.write_text(text, encoding="utf-8")
            files.append(path)
            verdicts.append(verdict(pipeline.analyze_trace(trace)))
            nsg_verdicts.append(verdict(pipeline.analyze_trace(
                SignalingTrace(trace.metadata, [
                    record for record in trace.records
                    if not isinstance(record, ThroughputSampleRecord)]))))
            bodies = [json.dumps(record.to_dict(),
                                 separators=(",", ":")).encode()
                      for record in trace.records]
            meta = json.dumps(trace.metadata.to_dict(),
                              separators=(",", ":")).encode()
            encoded.append(EncodedTrace(meta=meta, records=bodies))
            onsets.append(live_onset_index(trace.metadata, bodies))
        return Inputs(traces, nsg, jsonl, files, verdicts, nsg_verdicts,
                      encoded, onsets)

    def run_setup(self, repeats: int) -> list[float]:
        times = []
        for _ in range(repeats):
            start = time.perf_counter()
            self.inputs = self.setup()
            times.append(time.perf_counter() - start)
        return times

    # -- campaign ---------------------------------------------------------

    def campaign_config(self, workers: int, directory: Path,
                        round_index: int = 0):
        """Round ``round_index``'s campaign: its own seeded locations."""
        locations = self.size.campaign_locations
        return runner_mod.CampaignConfig(
            area_names=CAMPAIGN_AREAS,
            a1_locations=locations,
            a1_runs_per_location=RUNS_PER_LOCATION,
            locations_per_area=locations,
            runs_per_location=RUNS_PER_LOCATION,
            duration_s=self.workload.run_duration_s,
            seed=1000 * self.seed + round_index,
            workers=workers,
            checkpoint_path=directory / "campaign.ckpt",
            checkpoint_fsync=True,
            memo_dir=directory / "memo",
        )

    def campaign(self, workers: int, checks: Checks, round_index: int = 0):
        """One cold campaign plus its report; returns (result, wall s)."""
        directory = self.fresh_dir(f"campaign-{workers}")
        config = self.campaign_config(workers, directory, round_index)
        start = time.perf_counter()
        runner = runner_mod.CampaignRunner(list(OPERATORS.values()), config)
        result = runner.run()
        report = report_mod.campaign_report(result)
        wall = time.perf_counter() - start
        checks.ops(result.scheduled, len(result.quarantined))
        checks.expect(result.reconciles() and result.scheduled > 0,
                      f"campaign does not reconcile: {result.scheduled} "
                      f"scheduled, {result.completed} completed, "
                      f"{len(result.quarantined)} quarantined")
        checks.expect(not result.quarantined,
                      f"campaign quarantined {len(result.quarantined)} runs")
        checks.expect("DOES NOT RECONCILE" not in report,
                      "campaign report does not reconcile")
        return result, wall

    def campaign_spot_check(self, result, checks: Checks,
                            round_index: int = 0) -> None:
        """Re-simulate the first run of each operator sequentially."""
        config = self.campaign_config(1, self.work, round_index)
        runner = runner_mod.CampaignRunner(list(OPERATORS.values()), config)
        wanted = {}
        for scheduled in runner.schedule():
            wanted.setdefault(scheduled.profile.name, scheduled)
        by_seed = {run.metadata.run_seed: run for run in result.runs}
        test_device = device_by_name(config.device_name)
        for scheduled in wanted.values():
            run = runner_mod.run_once(
                scheduled.deployment, scheduled.profile, test_device,
                scheduled.point, scheduled.location_name,
                scheduled.run_index, duration_s=config.duration_s)
            pooled = by_seed.get(run.metadata.run_seed)
            checks.expect(
                pooled is not None
                and verdict(pooled.analysis) == verdict(run.analysis),
                f"pool run {scheduled.key} differs from a sequential "
                f"re-run")

    # -- ingest -----------------------------------------------------------

    def ingest_pass(self, checks: Checks,
                    recorder: SpanRecorder | None = None) -> list[float]:
        """Parse + analyse every trace from both formats.

        Returns the wall time of each file (NSG and JSONL alternate).
        """
        inputs = self.inputs
        times = []
        for index in range(len(inputs.traces)):
            for decode, text, expected, label in (
                    (nsg_format.parse_nsg_text, inputs.nsg[index],
                     inputs.nsg_verdicts[index], "NSG"),
                    (parser.parse_jsonl, inputs.jsonl[index],
                     inputs.verdicts[index], "JSONL")):
                if recorder is not None:
                    recorder.begin_unit()
                start = time.perf_counter()
                try:
                    trace = decode(text)
                except ValueError as error:  # TraceParseError, NsgFormatError
                    self.parse_errors += 1
                    checks.ops(1, 1)
                    checks.expect(False, f"{label} trace {index}: {error}")
                    continue
                got = verdict(pipeline.analyze_trace(trace))
                times.append(time.perf_counter() - start)
                checks.ops(1)
                checks.expect(got == expected,
                              f"{label} trace {index}: verdict {got} != "
                              f"set-up verdict {expected}")
        return times

    def analyze_cli(self, checks: Checks, index: int) -> float:
        """One cold ``python -m repro analyze`` of trace ``index``; wall s."""
        inputs = self.inputs
        index %= len(inputs.jsonl_files)
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "analyze",
             str(inputs.jsonl_files[index])],
            env=self.env, cwd=self.work, capture_output=True, text=True,
            timeout=120)
        wall = time.perf_counter() - start
        kind = inputs.verdicts[index][0]
        ok = proc.returncode == 0 and f"loop: {kind}" in proc.stdout
        checks.ops(1, 0 if ok else 1)
        checks.expect(ok, f"repro analyze exited {proc.returncode} or did "
                          f"not report loop {kind}: "
                          f"{proc.stderr.strip()[-200:]}")
        return wall

    def import_times(self, runs: int = 3) -> dict[str, float]:
        """Median ``-X importtime`` cumulative seconds per package."""
        samples: dict[str, list[float]] = {"repro": [], "scipy": [],
                                           "numpy": []}
        for _ in range(runs):
            proc = subprocess.run(
                [sys.executable, "-X", "importtime", "-c",
                 "import repro.cli"],
                env=self.env, cwd=self.work, capture_output=True, text=True,
                timeout=120)
            totals = importtime_totals(proc.stderr, tuple(samples))
            for name in samples:
                samples[name].append(totals[name])
        return {name: statistics.median(values)
                for name, values in samples.items()}

    # -- stream -----------------------------------------------------------

    def stream_order(self, records_wanted: int, salt: int,
                     pool: list[int] | None = None) -> list[int]:
        """Seeded trace order for a plan carrying ~``records_wanted``."""
        encoded = self.inputs.encoded
        pool = list(range(len(encoded))) if pool is None else pool
        rng = np.random.default_rng([self.seed, salt])
        order: list[int] = []
        total = 0
        while total < records_wanted:
            for index in rng.permutation(pool):
                order.append(int(index))
                total += len(encoded[index].records)
                if total >= records_wanted:
                    break
        return order

    def looping(self) -> list[int] | None:
        """Indices of the traces with a loop onset (``None``: all)."""
        looping = [index for index, onset
                   in enumerate(self.inputs.onset_index) if onset is not None]
        return looping or None

    def stream_plan(self, rate: float, records: int, prefix: str,
                    salt: int, pool: list[int] | None = None) -> Plan:
        order = self.stream_order(max(1, records), salt, pool)
        return build_plan(self.inputs.encoded, order, prefix, rate,
                          STREAM_CONNECTIONS)

    def check_verdicts(self, plan: Plan, result: PlanResult,
                       checks: Checks) -> None:
        self.stream_records_sent += plan.records
        checks.ops(plan.records, len(result.errors))
        checks.expect(not result.errors,
                      f"stream errors: {result.errors[:3]}")
        for slot in plan.streams:
            got = result.verdicts.get(slot.stream)
            want = self.inputs.verdicts[slot.trace][:3]
            live = None if got is None else (got.get("kind"),
                                             got.get("start_index"),
                                             got.get("period"))
            checks.expect(live == want,
                          f"stream {slot.stream}: live verdict {live} != "
                          f"batch {want}")

    def onset_latencies(self, plan: Plan, result: PlanResult,
                        events_path: Path, checks: Checks) -> list[float]:
        onsets: dict[str, float] = {}
        with open(events_path, encoding="utf-8") as handle:
            for line in handle:
                event = json.loads(line)
                if event.get("name") != "stream.loop_onset":
                    continue
                stream = event.get("fields", {}).get("stream")
                checks.expect(stream not in onsets,
                              f"stream {stream}: two loop onsets")
                onsets[stream] = float(event["mono_s"])
        latencies = []
        for slot in plan.streams:
            trigger = self.inputs.onset_index[slot.trace]
            seen = onsets.get(slot.stream)
            if trigger is None:
                checks.expect(seen is None,
                              f"stream {slot.stream}: unexpected onset")
                continue
            if not checks.expect(seen is not None,
                                 f"stream {slot.stream}: no live onset"):
                continue
            due = slot.close_due if trigger >= slot.record_due.size \
                else float(slot.record_due[trigger])
            latencies.append((seen - result.start_mono - due) * 1e3)
        return latencies

    def latency_segment(self, address, events_path: Path, checks: Checks,
                        index: int) -> tuple[PlanResult, list[float]]:
        """One slice of fixed-rate open-loop load; result and onset ms.

        Only traces with a loop are replayed here, so that every stream
        also gives an onset-latency sample.
        """
        seconds = self.size.latency_s / LATENCY_SLICES
        plan = self.stream_plan(
            LATENCY_RATE_RPS, round(LATENCY_RATE_RPS * seconds),
            f"F{index}", index, self.looping())
        result = run_plan(address, plan)
        self.check_verdicts(plan, result, checks)
        return result, self.onset_latencies(plan, result, events_path,
                                            checks)

    def flood(self, address, checks: Checks, index: int) -> float:
        """Records/s the server drains when a burst is offered at once."""
        plan = self.stream_plan(FLOOD_RATE_RPS, self.size.flood_records,
                                f"B{index}", 1000 + index)
        result = run_plan(address, plan)
        self.check_verdicts(plan, result, checks)
        return plan.records / result.finished_s


# ----------------------------------------------------------------------
# The stream server subprocess
# ----------------------------------------------------------------------


class ServerProcess:
    """``repro stream serve`` with its /metrics endpoint and event log."""

    def __init__(self, bench: Bench) -> None:
        directory = bench.fresh_dir("serve")
        self.events_path = directory / "events.jsonl"
        self.stderr = open(directory / "stderr.txt", "w", encoding="utf-8")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "stream", "serve",
             "--metrics-port", "0", "--events-out", str(self.events_path)],
            env=bench.env, cwd=bench.work, stdout=subprocess.PIPE,
            stderr=self.stderr, text=True)
        try:
            host, _, port = self._line().rpartition(":")
            self.address = (host, int(port))
            self.metrics_url = self._line()
        except BaseException:
            self.kill()
            raise

    def _line(self) -> str:
        line = self.proc.stdout.readline().strip()
        if not line:
            raise RuntimeError("stream server exited before it was ready")
        return line

    def cpu_s(self) -> float:
        """Server user + system CPU seconds, from /proc."""
        fields = Path(f"/proc/{self.proc.pid}/stat").read_text().rsplit(
            ")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) \
            / os.sysconf("SC_CLK_TCK")

    def peak_rss_mb(self) -> float:
        status = Path(f"/proc/{self.proc.pid}/status").read_text()
        match = re.search(r"^VmHWM:\s+(\d+) kB", status, re.MULTILINE)
        return int(match.group(1)) / 1024 if match else 0.0

    def metrics(self) -> dict[str, float]:
        with urllib.request.urlopen(self.metrics_url, timeout=10) as reply:
            text = reply.read().decode("utf-8")
        totals: dict[str, float] = {}
        for line in text.splitlines():
            if not line or line.startswith("#"):
                continue
            name_labels, _, value = line.rpartition(" ")
            name = name_labels.split("{", 1)[0]
            totals[name] = totals.get(name, 0.0) + float(value)
        return totals

    def stop(self) -> int:
        """SIGTERM, then wait; returns the exit code."""
        self.proc.send_signal(signal.SIGTERM)
        try:
            return self.proc.wait(timeout=20)
        finally:
            self.kill()

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()
        self.stderr.close()


# ----------------------------------------------------------------------
# Helpers
# ----------------------------------------------------------------------


def live_onset_index(metadata, bodies: list[bytes]) -> int | None:
    """Feed a trace as the server would; where does ``loop_onset`` fire?"""
    fired: list[int] = []
    position = 0

    def on_event(name: str, **_fields) -> None:
        if name == "loop_onset":
            fired.append(position)

    analyzer = IncrementalAnalyzer(
        metadata, min_repetitions=2, horizon=server_mod.DEFAULT_HORIZON,
        on_disorder="recover", mode="live", on_event=on_event)
    for position, body in enumerate(bodies):
        analyzer.feed(parser.parse_record(json.loads(body)))
    position = len(bodies)
    analyzer.finalize()
    return fired[0] if fired else None


def importtime_totals(stderr: str, packages: tuple[str, ...]) -> dict:
    """Cumulative import seconds of each package's outermost imports."""
    totals = {name: 0.0 for name in packages}
    stack: list[tuple[int, str]] = []   # (depth, package) of open matches
    rows = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        if not cumulative.strip().isdigit():
            continue
        depth = (len(name) - len(name.lstrip(" "))) // 2
        rows.append((depth, int(cumulative), name.strip()))
    # importtime prints children before their parent: walk in reverse so
    # an outer import is seen before the imports it contains.
    for depth, cumulative, name in reversed(rows):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        root = name.split(".")[0]
        if root in totals and not any(pkg == root for _, pkg in stack):
            totals[root] += cumulative / 1e6
        stack.append((depth, root))
    return totals


def percentile(values, q: float) -> float:
    values = np.asarray(values, dtype=float)
    return float(np.percentile(values, q)) if values.size else float("nan")


def self_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


# ----------------------------------------------------------------------
# In-process replay of the server's per-frame work (traced pass)
# ----------------------------------------------------------------------


async def _replay_connection(blob: bytes,
                             recorder: SpanRecorder | None) -> int:
    """What the server does with one connection's frames, in order."""
    reader = asyncio.StreamReader(limit=server_mod.MAX_FRAME_BYTES)
    reader.feed_data(blob)
    reader.feed_eof()
    streams: dict[str, IncrementalAnalyzer] = {}
    records = 0
    read_frame, parse_record = server_mod.read_frame, parser.parse_record
    begin_unit = recorder.begin_unit if recorder is not None else None
    while True:
        if begin_unit is not None:
            begin_unit()
        frame = await read_frame(reader)
        if frame is None:
            return records
        op = frame.get("op")
        if op == "record":
            streams[frame["stream"]].feed(parse_record(frame["record"]))
            records += 1
        elif op == "open":
            streams[frame["stream"]] = IncrementalAnalyzer(
                None, min_repetitions=2,
                horizon=server_mod.DEFAULT_HORIZON, on_disorder="recover",
                mode="live")
        elif op == "close":
            streams.pop(frame["stream"]).finalize()


def replay(plan: Plan,
           recorder: SpanRecorder | None = None) -> tuple[int, float]:
    """Replay every connection of ``plan`` in-process; (records, wall s)."""
    start = time.perf_counter()
    records = sum(asyncio.run(_replay_connection(conn.blob, recorder))
                  for conn in plan.connections)
    return records, time.perf_counter() - start


def traced(recorder: SpanRecorder, phase: str):
    """Context manager that wraps ``phase``'s layer targets."""
    return Patched(recorder, layers.TARGETS[phase])
