"""CLI campaign smoke: ``--workers 2`` exports the ``--workers 1`` counters.

Runs the real ``python -m repro campaign`` entry point in subprocesses,
once in-process and once over the process pool, and requires the
exported counter snapshots to be identical for the same seed.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ENV = {**os.environ,
       "PYTHONPATH": str(Path(__file__).parent.parent / "src")}


def test_campaign_workers_two_counters_identical_to_workers_one(tmp_path):
    for workers in (1, 2):
        completed = subprocess.run(
            [sys.executable, "-m", "repro", "campaign", "--operator", "OP_V",
             "--areas", "A9", "--locations", "2", "--runs", "2",
             "--duration", "60", "--workers", str(workers),
             "--metrics-out", f"campaign-w{workers}.json"],
            cwd=tmp_path, env=ENV, capture_output=True, text=True,
            timeout=300)
        assert completed.returncode == 0, completed.stderr
    w1 = json.load(open(tmp_path / "campaign-w1.json"))["counters"]
    w2 = json.load(open(tmp_path / "campaign-w2.json"))["counters"]
    assert w1 == w2, f"campaign counters diverge:\n{w1}\n{w2}"
