"""Loop sub-type classification (Figures 13-15).

Every 5G-OFF transition is classified from the signaling records around
it, exactly the way the paper's cause analysis works:

* an ``SCGFailureInformation`` just before the OFF -> **N2E2**;
* a reestablishment request with ``handoverFailure`` -> **N1E2**,
  with ``otherFailure`` (a radio link failure) -> **N1E1**;
* a handover reconfiguration that releases the SCG -> **N2E1**;
* an SCG release without a failure report -> the legacy **A2-B1** loop
  of prior work (F12; absent with current operator policies);
* an ``MM5G DEREGISTERED`` exception over SA splits into the three S1
  sub-types: a just-commanded SCell modification -> **S1E3**; a serving
  SCell missing from every recent measurement report -> **S1E1**; a
  serving SCell persistently reporting very poor RSRQ -> **S1E2**.

A loop's sub-type is the majority vote over its OFF transitions.

This module holds the vocabulary (sub-types, classified transitions and
the trigger windows); the classifier itself is
:func:`repro.core.columnar.classify_loop_columnar`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.cells.cell import CellIdentity

# How far around an OFF transition we look for its trigger.
_TRIGGER_WINDOW_BEFORE_S = 2.5
_TRIGGER_WINDOW_AFTER_S = 0.6
_REPORT_LOOKBACK_S = 8.0
_POOR_RSRQ_DB = -19.9


class LoopSubtype(enum.Enum):
    """The paper's seven loop sub-types plus the legacy and unknown buckets."""

    S1E1 = "S1E1"
    S1E2 = "S1E2"
    S1E3 = "S1E3"
    N1E1 = "N1E1"
    N1E2 = "N1E2"
    N2E1 = "N2E1"
    N2E2 = "N2E2"
    N2_A2B1 = "N2-A2B1"
    UNKNOWN = "UNKNOWN"

    @property
    def loop_type(self) -> str:
        """The coarse type: S1, N1 or N2 (Figure 13)."""
        if self.value.startswith("S1"):
            return "S1"
        if self.value.startswith("N1"):
            return "N1"
        if self.value.startswith("N2"):
            return "N2"
        return "UNKNOWN"


@dataclass(frozen=True)
class OffTransition:
    """One classified 5G-OFF transition.

    ``problem_cell`` is the cell the cause analysis pivots on (section
    5.3): the bad-apple SCell for S1E1/S1E2, the modification target for
    S1E3, the handover/redirect target for N2E1/N1E2, the failing PCell
    for N1E1, and the PSCell whose SCG failed for N2E2.
    """

    time_s: float
    subtype: LoopSubtype
    problem_cell: "CellIdentity | None" = None
