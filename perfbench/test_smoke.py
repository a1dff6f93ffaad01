"""Smoke tests of the benchmark itself (not part of the tier-1 suite).

Run from the repository root::

    python3 -m pytest perfbench -q

Each workload runs once untraced and once traced at ``--seconds 1``;
every metric ``BENCHMARK.json`` names must come out with its unit, and
a corrupted verdict must fail the command.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import run, workload  # noqa: E402
from perfbench.spans import Patched, SpanRecorder, Target  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [entry["name"] for entry in SPEC["workloads"]]


def _run(workload_name: str, trace: int) -> tuple[int, dict]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload_name,
         "--seed", "3", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    return proc.returncode, json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload_name", WORKLOADS)
@pytest.mark.parametrize("trace,section", [(0, "end_to_end"),
                                           (1, "per_layer")])
def test_every_metric_with_its_unit(workload_name, trace, section):
    code, result = _run(workload_name, trace)
    assert code == 0 and result["correct"], result
    assert result["attempted"] >= 1 and result["failed"] == 0
    for metric in SPEC[section]:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
    if trace == 0:
        assert all(result["metrics"][m["name"]]["value"] > 0
                   for m in SPEC["end_to_end"])


def test_corrupted_verdict_fails_the_command(monkeypatch, capsys):
    real_setup = workload.Bench.setup

    def corrupted_setup(self):
        inputs = real_setup(self)
        kind, start, period, subtype = inputs.verdicts[0]
        inputs.verdicts[0] = (kind, start + 1, period, subtype)
        return inputs

    monkeypatch.setattr(workload.Bench, "setup", corrupted_setup)
    code = run.main(["--workload", WORKLOADS[0], "--seed", "3",
                     "--seconds", "1", "--trace", "0"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1 and result["correct"] is False


def test_missing_program_fails_without_a_result(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for path in (ROOT / "perfbench").glob("*.py"):
        (tmp_path / "perfbench" / path.name).write_text(path.read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0],
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""


def test_self_time_subtracts_children():
    recorder = SpanRecorder()

    def inner():
        time.sleep(0.02)

    wrapped_inner = recorder.wrap(Target("inner", "x:inner"), inner)

    def outer():
        time.sleep(0.01)
        wrapped_inner()

    recorder.wrap(Target("outer", "x:outer"), outer)()
    table = recorder.reduce()
    assert table.n_calls("outer") == table.n_calls("inner") == 1
    assert 0.009 < table.self_time("outer") < 0.018
    assert 0.019 < table.self_time("inner") < 0.028
    assert table.root_s == pytest.approx(table.total_time("outer"))


def test_patched_restores_originals_and_aliases():
    from repro.core import pipeline
    from repro.campaign import runner
    original = pipeline.analyze_trace
    recorder = SpanRecorder()
    with Patched(recorder, [Target("core.pipeline",
                                   "repro.core.pipeline:analyze_trace")]):
        assert pipeline.analyze_trace is not original
        assert runner.analyze_trace is pipeline.analyze_trace
    assert pipeline.analyze_trace is original
    assert runner.analyze_trace is original


def test_importtime_counts_outermost_imports_once():
    stderr = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |     numpy.core",
        "import time:       200 |        300 |   numpy",
        "import time:        50 |         50 |     numpy.linalg",
        "import time:       400 |        450 |   scipy.stats",
        "import time:        10 |        760 | repro.cli",
    ])
    totals = workload.importtime_totals(stderr, ("repro", "scipy", "numpy"))
    assert totals == pytest.approx({"repro": 760e-6, "scipy": 450e-6,
                                    "numpy": 350e-6})
