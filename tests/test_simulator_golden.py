"""Golden trace digests: the simulator's byte-level contract.

Every case below is a seeded simulation whose output is reduced to one
SHA-256 digest — ``trace_digest(trace.to_jsonl())`` for runs, a digest
of the rendered result for the drive inventory and Table 2.  The
committed ``tests/data/simulator_digests.json`` holds the expected
values, so any change that alters a single byte of a trace (an RSRP
rounding, a tie broken the other way, a reordered random draw) fails
here, however fast it is.

Regenerate the file only for a deliberate behaviour change, and say so
in the change's notes::

    PYTHONPATH=src python -m tests.test_simulator_golden
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.analysis.tables import table2_cells
from repro.campaign import build_deployment, device, operator
from repro.campaign.driving import drive_inventory
from repro.campaign.locations import sparse_locations, walking_path
from repro.campaign.runner import run_once
from repro.radio.geometry import Point
from repro.resilience.memo import trace_digest

DIGESTS_PATH = Path(__file__).parent / "data" / "simulator_digests.json"

#: (operator, area): the SA operator and both NSA operators.
DEPLOYMENTS = (("OP_T", "A1"), ("OP_A", "A6"), ("OP_V", "A9"))
DURATIONS_S = (300, 60)
LOCATIONS = 2
RUNS = 2


def _run_digest(deployment, profile, phone, point, location, run_index,
                duration_s, **kwargs) -> str:
    result = run_once(deployment, profile, phone, point, location,
                      run_index, duration_s=duration_s, keep_trace=True,
                      **kwargs)
    return trace_digest(result.trace.to_jsonl())


def _text_digest(value) -> str:
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def compute_digests() -> dict[str, str]:
    """Every golden case's digest, keyed by a readable case name."""
    digests: dict[str, str] = {}
    phone = device("OnePlus 12R")
    for operator_name, area_name in DEPLOYMENTS:
        profile = operator(operator_name)
        deployment = build_deployment(profile, area_name)
        points = sparse_locations(deployment.area, LOCATIONS, seed=13)
        for duration_s in DURATIONS_S:
            for index, point in enumerate(points):
                for run_index in range(RUNS):
                    name = (f"{operator_name}/{area_name}/L{index}"
                            f"/run{run_index}/{duration_s}s")
                    digests[name] = _run_digest(
                        deployment, profile, phone, point, f"L{index}",
                        run_index, duration_s)

    profile = operator("OP_T")
    deployment = build_deployment(profile, "A1")
    start, end = sparse_locations(deployment.area, 2, seed=13)
    digests["OP_T/A1/L0/run0/300s/OnePlus 13R"] = _run_digest(
        deployment, profile, device("OnePlus 13R"), start, "L0", 0, 300)
    digests["OP_T/A1/walk/run0/120s"] = _run_digest(
        deployment, profile, phone, start, "walk", 0, 120, mode="walking",
        point_provider=walking_path(start, end, duration_s=120))
    digests["OP_T/A1/table2"] = _text_digest(table2_cells(
        deployment.environment, Point(500.0, 500.0),
        [cell.identity for cell in deployment.environment.cells[:4]]))

    inventory = drive_inventory(build_deployment(operator("OP_A"), "A6"))
    digests["OP_A/A6/drive_inventory"] = _text_digest({
        "observed": sorted(f"{identity.rat.value}:{identity.notation}"
                           for identity in inventory.observed),
        "points_driven": inventory.points_driven,
        "saturated": inventory.saturated,
    })
    return digests


@pytest.fixture(scope="module")
def computed() -> dict[str, str]:
    return compute_digests()


#: The committed digests ({} while regenerating a missing file).
EXPECTED: dict[str, str] = (
    json.loads(DIGESTS_PATH.read_text(encoding="utf-8"))
    if DIGESTS_PATH.exists() else {})


def test_covers_every_golden_case(computed):
    assert sorted(computed) == sorted(EXPECTED)


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_digest_matches_golden(computed, name):
    assert computed[name] == EXPECTED[name]


if __name__ == "__main__":
    DIGESTS_PATH.parent.mkdir(exist_ok=True)
    DIGESTS_PATH.write_text(json.dumps(compute_digests(), indent=2,
                                       sort_keys=True) + "\n",
                            encoding="utf-8")
    print(f"wrote {DIGESTS_PATH}")
