"""Host speed index: a fixed reference workload timed throughout a run.

The benchmark runs on small shared VMs whose speed drifts with other
tenants' load over minutes: on the 2-vCPU box this was built on, five
consecutive runs of one workload measured every metric 25–40% slower
in the last two runs than in the first three (campaign 6.2 → 4.6
runs/s, ``repro analyze`` 1.4 → 2.0 s, set-up 2.1 → 3.0 s), with no
other process running.  That drift swamps the changes the benchmark is
meant to judge.

So before every sample the benchmark times ``yardstick()``: a fixed
parse-index-serialise job on a synthetic document, written here and
sharing no code with the program.  ``slowness`` is the mean yardstick
time of the run over ``REFERENCE_S``.  Every time metric is divided by
it and every rate multiplied by it, so the figures read as if the host
ran the yardstick in ``REFERENCE_S``.  A change to the program moves
the samples but not the yardstick, so it shows in full.

The mean, not the median: the yardstick's times are bimodal on that
box, about 3 ms in the host's fast state and 6-7 ms in its slow one,
and the host flips between the two many times within a run.  A phase
that runs for seconds sees the time-weighted mix of both states, which
the mean follows; the median jumps from one mode to the other when the
mix passes one half.  Over ten runs in which the host spent more time
in its fast state in some runs than in others, scaling by the median
would have widened the spread of the ack latency from 0.14 to 0.23
(IQR over median) and that of ``setup_s`` from 0.19 to 0.29; the mean
brings them to 0.09 and 0.20.  A sample more than twice the median is
counted as twice the median, so that a preempted sample does not weigh
more than a slow one.
"""

from __future__ import annotations

import json
import statistics
import time

#: Mean yardstick time that defines ``slowness == 1`` (about the
#: run mean on the 2-vCPU build box).
REFERENCE_S = 0.006

_DOCUMENT = json.dumps([
    {"t": i * 0.25, "kind": "meas",
     "cells": [{"pci": (i * 7 + j) % 64, "rsrp": -70.0 - (i + j) % 40}
               for j in range(6)]}
    for i in range(600)])


def yardstick() -> float:
    """Seconds to decode, index and re-encode a fixed trace-like document."""
    start = time.perf_counter()
    rows = json.loads(_DOCUMENT)
    by_cell: dict[int, list[tuple[float, float]]] = {}
    for row in rows:
        for cell in row["cells"]:
            by_cell.setdefault(cell["pci"], []).append(
                (row["t"], cell["rsrp"]))
    summary = sorted(
        (pci, sum(r for _, r in samples) / len(samples), len(samples))
        for pci, samples in by_cell.items())
    json.dumps(summary)
    return time.perf_counter() - start


class HostSpeed:
    """Yardstick samples taken through a run, and their (capped) mean."""

    def __init__(self) -> None:
        self.samples: list[float] = []

    def sample(self, times: int = 2) -> None:
        self.samples.extend(yardstick() for _ in range(times))

    @property
    def slowness(self) -> float:
        return capped_mean(self.samples) / REFERENCE_S


def capped_mean(values) -> float:
    """Mean of ``values``, each counted as at most twice their median.

    The time-weighted mix of the host's fast and slow states, without
    letting a preempted sample weigh more than a slow one.
    """
    values = list(values)
    cap = 2 * statistics.median(values)
    return statistics.fmean(min(value, cap) for value in values)
