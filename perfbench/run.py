"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload paper --seed 1 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped;
``--trace 1`` runs each phase again with spans recorded around the
program's public calls and prints the per-layer metrics instead.  The
last stdout line is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (name -> value and unit).  A correctness
mismatch prints ``"correct": false`` and exits 1.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
#: Ingest passes per round: an in-process parse swings with the host
#: more than the other phases do, so it gets more samples.
INGEST_PASSES = 2


def _metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


# ----------------------------------------------------------------------
# Untraced run: the end-to-end metrics
# ----------------------------------------------------------------------


def end_to_end(bench, checks) -> dict:
    """Every phase, interleaved over rounds; medians or means of samples.

    A shared host's speed changes from second to second in bursts and
    drifts over minutes.  Each round runs a short slice of every phase,
    so every metric is a median or mean of samples spread over the whole
    run, scaled by the host's speed over the run (see
    :mod:`perfbench.hostspeed`).
    """
    from perfbench import workload as wl
    from perfbench.hostspeed import HostSpeed, capped_mean

    size = bench.size
    speed = HostSpeed()
    kept: dict[str, list[np.ndarray]] = {}

    def keep(key: str, values) -> None:
        kept.setdefault(key, []).append(
            np.atleast_1d(np.asarray(values, dtype=float)))
        speed.sample()

    # Set-up also runs inside later rounds (same seed: same inputs), so
    # its repeats are spread over the run too.
    setup_rounds = [r * size.rounds // wl.SETUP_REPEATS
                    for r in range(wl.SETUP_REPEATS)]
    ack99, late = [], []
    speed.sample()
    server = None

    def latency(index: int) -> None:
        fixed, onsets = bench.latency_segment(
            server.address, server.events_path, checks, index)
        keep("ack", fixed.ack_ms)
        keep("onset", onsets)
        ack99.append(wl.percentile(fixed.ack_ms, 99))
        late.append(fixed.late_ms)

    try:
        for r in range(size.rounds):
            # The round's latency slices follow different phases.
            slices = iter(range(r * wl.LATENCY_SLICES,
                                (r + 1) * wl.LATENCY_SLICES))
            for _ in range(setup_rounds.count(r)):
                keep("setup", bench.run_setup(1))
            if server is None:
                server = wl.ServerProcess(bench)
            result, wall = bench.campaign(bench.workers, checks, r)
            keep("campaign", result.completed / wall)
            if r == 0:
                bench.campaign_spot_check(result, checks, r)
            latency(next(slices))
            for _ in range(INGEST_PASSES):
                keep("ingest", bench.ingest_pass(checks))
            latency(next(slices))
            keep("cli", bench.analyze_cli(checks, r))
            for index in slices:
                latency(index)
            for f in range(size.floods):
                keep("flood", bench.flood(server.address, checks,
                                          r * size.floods + f))
        server_counts(server, bench, checks)
        serve_rss = server.peak_rss_mb()
    finally:
        if server is not None:
            stop_server(server, checks)
    onsets = np.concatenate(kept["onset"])

    def summarise(slowness: float) -> dict:
        def median(key: str) -> float:
            return float(np.median(np.concatenate(kept[key])))
        # Throughput and set-up samples are seconds long and land in the
        # host's fast or slow state (see hostspeed.py), so they are
        # averaged like the speed index: a median of a few such samples
        # jumps between the two states.  Campaign rounds are averaged as
        # seconds per run, ingest passes as the time of a whole pass.
        campaign_s = capped_mean(1 / np.concatenate(kept["campaign"]))
        pass_s = capped_mean(float(times.sum()) for times in kept["ingest"])
        files = kept["ingest"][0].size
        return {
            "campaign_runs_per_s": (slowness / campaign_s, "1/s"),
            "ingest_traces_per_s": (files / pass_s * slowness, "1/s"),
            "analyze_cli_p50_s": (median("cli") / slowness, "s"),
            "stream_ack_p50_ms": (median("ack") / slowness, "ms"),
            "setup_s": (capped_mean(np.concatenate(kept["setup"]))
                        / slowness, "s"),
        }

    metrics = summarise(speed.slowness)
    metrics["peak_rss_mb"] = (wl.self_peak_rss_mb(), "MB")
    metrics["serve_peak_rss_mb"] = (serve_rss, "MB")

    inputs = bench.inputs
    differ = sum(a != b for a, b in zip(inputs.verdicts,
                                         inputs.nsg_verdicts))
    print(f"{size.rounds} rounds over {len(inputs.traces)} set-up traces "
          f"({differ} with a different verdict on their RRC-visible "
          f"subset); host slowness {speed.slowness:.3f}")
    print("  as measured: " + ", ".join(
        f"{name} {value:.4g}" for name, (value, _) in summarise(1).items()))
    for key in ("setup", "campaign", "cli", "flood"):
        print(f"  {key:<9}" + " ".join(
            f"{float(v[0]):.4g}" for v in kept[key]))
    print(f"  {sum(v.size for v in kept['ack'])} pings (p99 "
          f"{statistics.median(ack99):.3f} ms, median of the segments), "
          f"{onsets.size} loop onsets (p50 "
          f"{wl.percentile(onsets, 50):.3f} ms), flood drain median {float(np.median(kept['flood'])):.0f} "
          f"records/s; generator late p99 "
          f"{wl.percentile(np.concatenate(late), 99):.3f} ms (all as "
          f"measured)")
    return {name: _metric(value, unit)
            for name, (value, unit) in metrics.items()}


def server_counts(server, bench, checks) -> dict[str, float]:
    """The server's own record and error counters from /metrics."""
    totals = server.metrics()
    served = totals.get("stream_records_total", 0.0)
    errors = totals.get("stream_record_errors_total", 0.0) \
        + totals.get("stream_frame_errors_total", 0.0)
    checks.expect(served == bench.stream_records_sent,
                  f"server counted {served:.0f} records, the generator "
                  f"sent {bench.stream_records_sent}")
    checks.expect(errors == 0, f"server reported {errors:.0f} error frames")
    return {"records": served, "errors": errors}


def stop_server(server, checks) -> None:
    code = server.stop()
    checks.expect(code == 143,
                  f"stream server exited {code} on SIGTERM, not 143")


# ----------------------------------------------------------------------
# Traced run: the per-layer metrics
# ----------------------------------------------------------------------


def per_layer(bench, checks, spans_dir: Path) -> dict:
    from perfbench import workload as wl
    from perfbench.spans import SpanRecorder

    metrics = {}
    phases = {}     # phase -> (table, traced wall, untraced wall)
    bench.run_setup(1)

    # campaign: untraced pool, untraced sequential, traced sequential.
    pooled, pool_wall = bench.campaign(bench.workers, checks)
    sequential, seq_wall = bench.campaign(1, checks)
    recorder = SpanRecorder()
    with wl.traced(recorder, "campaign"):
        traced_result, traced_wall = bench.campaign(1, checks)
    checks.expect(wl.fingerprint(pooled) == wl.fingerprint(traced_result)
                  == wl.fingerprint(sequential),
                  "pool and sequential campaign runs differ")
    table = recorder.reduce()
    recorder.write(spans_dir / "campaign.npz")
    phases["campaign"] = (table, traced_wall, seq_wall)
    runs = table.n_calls("campaign.runner") - 1  # minus CampaignRunner.run
    metrics.update({
        "radio.observe_s": (table.self_time("radio.observe"), "s"),
        "radio.observe_calls": (table.n_calls("radio.observe"), "count"),
        "rrc.network_s": (table.self_time("rrc.network"), "s"),
        "rrc.session_self_s": (table.self_time("rrc.session"), "s"),
        "rrc.records_emitted": (table.counters.get("rrc.session", 0),
                                "count"),
        "throughput.model_s": (table.self_time("throughput.model"), "s"),
        "traces.to_jsonl_s": (table.self_time("traces.to_jsonl"), "s"),
        "resilience.checkpoint_append_s": (
            table.self_time("resilience.checkpoint_append"), "s"),
        "resilience.memo_digest_s": (
            table.self_time("resilience.memo_digest"), "s"),
        "resilience.memo_get_s": (table.self_time("resilience.memo_get"),
                                  "s"),
        "resilience.memo_put_s": (table.self_time("resilience.memo_put"),
                                  "s"),
        "campaign.runner_self_s": (table.self_time("campaign.runner"), "s"),
        "campaign.deployment_s": (table.self_time("campaign.deployment"),
                                  "s"),
        "campaign.runs": (runs, "count"),
        "campaign.parallel_efficiency": (
            seq_wall / (pool_wall * bench.workers), "ratio"),
        "analysis.report_s": (table.self_time("analysis.report"), "s"),
    })
    print(f"campaign: pool {pool_wall:.3f} s ({bench.workers} workers), "
          f"sequential {seq_wall:.3f} s, traced sequential "
          f"{traced_wall:.3f} s")

    # ingest: untraced and traced passes alternate, and take turns going
    # first, so neither host drift nor warm caches pass for overhead.
    passes = bench.size.rounds
    recorder = SpanRecorder()
    untraced_wall = traced_wall = 0.0
    for index in range(2 * passes):
        if (index + index // 2) % 2:
            with wl.traced(recorder, "ingest"):
                start = time.perf_counter()
                bench.ingest_pass(checks, recorder)
                traced_wall += time.perf_counter() - start
        else:
            start = time.perf_counter()
            bench.ingest_pass(checks)
            untraced_wall += time.perf_counter() - start
    table = recorder.reduce()
    recorder.write(spans_dir / "ingest.npz")
    phases["ingest"] = (table, traced_wall, untraced_wall)
    loops = sum(verdict[0] != "I" for verdict in
                bench.inputs.verdicts + bench.inputs.nsg_verdicts)
    imports = bench.import_times()
    metrics.update({
        "traces.parse_nsg_s": (table.self_time("traces.parse_nsg"), "s"),
        "traces.parse_jsonl_s": (table.self_time("traces.parse_jsonl"), "s"),
        "traces.records_parsed": (
            table.counters.get("traces.parse_nsg", 0)
            + table.counters.get("traces.parse_jsonl", 0), "count"),
        "traces.parse_errors": (bench.parse_errors, "count"),
        "core.columns_s": (table.self_time("core.columns"), "s"),
        "core.cellset_s": (table.self_time("core.cellset"), "s"),
        "core.loops_s": (table.self_time("core.loops"), "s"),
        "core.classify_s": (table.self_time("core.classify"), "s"),
        "core.metrics_s": (table.self_time("core.metrics"), "s"),
        "core.stats_s": (table.self_time("core.stats"), "s"),
        "core.pipeline_self_s": (table.self_time("core.pipeline"), "s"),
        "core.loops_detected": (passes * loops, "count"),
        "import.repro_s": (imports["repro"], "s"),
        "import.scipy_s": (imports["scipy"], "s"),
        "import.numpy_s": (imports["numpy"], "s"),
    })
    print(f"ingest: {passes} passes over {len(bench.inputs.verdicts)} "
          f"traces in both formats; import repro.cli "
          f"{imports['repro']:.3f} s (scipy {imports['scipy']:.3f} s, "
          f"numpy {imports['numpy']:.3f} s)")

    # stream: the fixed-rate load against the server (untraced, for the
    # server's CPU and the load's validity), then the same frames
    # replayed in-process untraced and traced.
    server = wl.ServerProcess(bench)
    try:
        plan = bench.stream_plan(
            wl.LATENCY_RATE_RPS,
            round(wl.LATENCY_RATE_RPS * bench.size.latency_s
                  * bench.size.rounds), "F", 0, bench.looping())
        cpu_before = server.cpu_s()
        fixed = wl.run_plan(server.address, plan)
        cpu = server.cpu_s() - cpu_before
        bench.check_verdicts(plan, fixed, checks)
        onsets = bench.onset_latencies(plan, fixed, server.events_path,
                                       checks)
        floods = [bench.flood(server.address, checks, index)
                  for index in range(bench.size.floods * bench.size.rounds)]
        counts = server_counts(server, bench, checks)
    finally:
        stop_server(server, checks)
    recorder = SpanRecorder()
    untraced_wall = traced_wall = 0.0
    for _ in range(2):  # alternating, like ingest
        records, wall = wl.replay(plan)
        untraced_wall += wall
        checks.expect(records == plan.records,
                      f"replay fed {records} of {plan.records} records")
        with wl.traced(recorder, "stream"):
            _, wall = wl.replay(plan, recorder)
        traced_wall += wall
    table = recorder.reduce()
    recorder.write(spans_dir / "stream.npz")
    phases["stream"] = (table, traced_wall, untraced_wall)
    metrics.update({
        "core.incremental_feed_us": (
            table.per_call("core.incremental_feed") * 1e6, "us"),
        "core.incremental_finalize_ms": (
            table.per_call("core.incremental_finalize") * 1e3, "ms"),
        "traces.parse_record_us": (
            table.per_call("traces.parse_record") * 1e6, "us"),
        "serve.read_frame_us": (table.per_call("serve.read_frame") * 1e6,
                                "us"),
        "serve.cpu_us_per_record": (cpu / max(1, plan.records) * 1e6, "us"),
        "serve.records": (counts["records"], "count"),
        "serve.error_frames": (counts["errors"], "count"),
        "serve.ack_p99_ms": (wl.percentile(fixed.ack_ms, 99), "ms"),
        "serve.onset_p50_ms": (wl.percentile(onsets, 50) if onsets else 0.0,
                               "ms"),
        "serve.flood_drain_rps": (statistics.median(floods), "1/s"),
        "bench.gen_late_p99_ms": (wl.percentile(fixed.late_ms, 99), "ms"),
        "bench.backlog_slope": (fixed.backlog_slope, "ms/s"),
    })

    overhead = 0.0
    for name, (table, traced_wall, untraced_wall) in phases.items():
        print()
        print(table.render(name, traced_wall, traced_wall - untraced_wall))
        overhead += traced_wall - untraced_wall
        metrics[f"bench.{name}_unaccounted_share"] = (
            table.unaccounted_share(traced_wall), "ratio")
    metrics["bench.trace_overhead_s"] = (overhead, "s")
    metrics["bench.failed_ratio"] = (
        checks.failed / max(1, checks.attempted), "ratio")
    print(f"\nspans written to {spans_dir.relative_to(ROOT)}")
    return {name: _metric(value, unit)
            for name, (value, unit) in metrics.items()}


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program to measure: {ROOT / 'src' / 'repro'} is "
              f"missing", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import workload as wl
    from perfbench.workload import Bench, Checks

    if args.workload not in wl.WORKLOADS:
        print(f"error: unknown workload {args.workload!r} (choose from "
              f"{', '.join(wl.WORKLOADS)})", file=sys.stderr)
        return 2
    if args.seconds < 1:
        print("error: --seconds must be at least 1", file=sys.stderr)
        return 2
    work = ROOT / "perfbench" / "_work" / f"{args.workload}-{os.getpid()}"
    bench = Bench(ROOT, args.workload, args.seed, args.seconds, work)
    checks = Checks()
    try:
        if args.trace:
            spans_dir = ROOT / "perfbench" / "_out" / \
                f"{args.workload}-seed{args.seed}"
            metrics = per_layer(bench, checks, spans_dir)
        else:
            metrics = end_to_end(bench, checks)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for failure in checks.failures[:20]:
        print(f"MISMATCH: {failure}")
    if len(checks.failures) > 20:
        print(f"MISMATCH: ... and {len(checks.failures) - 20} more")
    print()
    for name, metric in metrics.items():
        print(f"{name:<36}{metric['value']:>16.6g} {metric['unit']}")
    print(json.dumps({"correct": not checks.failures,
                      "attempted": checks.attempted,
                      "failed": checks.failed, "metrics": metrics}))
    return 0 if not checks.failures else 1


if __name__ == "__main__":
    sys.exit(main())
