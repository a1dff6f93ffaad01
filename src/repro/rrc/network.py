"""Network-side (PCell) decision logic.

The PCell "runs its local logic to determine whether and how to change
the serving cell(s)" (section 5.1).  This module implements that logic
for both deployment modes:

* :class:`SaNetworkLogic` — OP_T-style 5G SA: blind SCell addition of
  the co-sited cell set after setup, and A3-driven intra-channel SCell
  modification.
* :class:`NsaNetworkLogic` — OP_A / OP_V-style 5G NSA: RSRQ-A3 4G
  handover selection with per-channel offsets, the "5G-disabled channel"
  redirect, B1-driven SCG addition and A3-driven SCG change.

All methods are pure decisions over the current tick's observations (a
:class:`~repro.radio.environment.TickObservations`, filtered with masks);
executing the decision (and failing to execute it, which is where loops
come from) is the session's job.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cells.cell import CellIdentity, Rat
from repro.radio.environment import CellColumns, RadioEnvironment, TickObservations
from repro.radio.geometry import Point
from repro.rrc.capabilities import DeviceCapabilities
from repro.rrc.policies import OperatorPolicy


@dataclass(frozen=True)
class ScellModification:
    """A decided SCell modification: release one index, add one cell."""

    release_index: int
    release_identity: CellIdentity
    add_identity: CellIdentity


@dataclass(frozen=True)
class HandoverDecision:
    """A decided 4G PCell handover."""

    target: CellIdentity
    keep_scg: bool
    blind: bool  # True for the policy redirect (target never measured)


class SaNetworkLogic:
    """OP_T's SA PCell logic."""

    def __init__(self, environment: RadioEnvironment, policy: OperatorPolicy) -> None:
        self._environment = environment
        self._policy = policy

    def blind_scell_set(self, pcell: CellIdentity,
                        device: DeviceCapabilities) -> list[CellIdentity]:
        """The SCells added ~3 s after setup, without UE measurements.

        The network pairs the PCell with its co-sited twin on the other
        PCell channel plus the nearest cell on each SCell channel — which
        is how an *unmeasurable* cell can end up serving (S1E1).

        Advanced devices (4 MIMO layers, V17 RRC) get the lean
        configuration: only the co-sited twin, no downlink-only-channel
        SCells (the OnePlus 13R behaviour of F6).
        """
        if not device.sa_carrier_aggregation:
            return []
        pcell_site = Point(*self._environment.cell(pcell).site_xy_m)
        lean = device.mimo_layers >= 4
        chosen: list[CellIdentity] = []
        for channel in self._policy.sa_scell_channels:
            if channel == pcell.channel:
                continue
            channel_policy = self._policy.channel_policy(channel, Rat.NR)
            if not channel_policy.scell_eligible:
                continue
            if lean and channel_policy.downlink_only_scell_config:
                continue
            cells = self._environment.cells_on_channel(channel, Rat.NR)
            if not cells:
                continue
            co_sited = [cell for cell in cells if cell.pci == pcell.pci]
            if co_sited:
                nearest = co_sited[0]
            else:
                nearest = min(cells, key=lambda cell:
                              Point(*cell.site_xy_m).distance_to(pcell_site))
            chosen.append(nearest.identity)
            if len(chosen) >= (1 if lean else device.max_sa_scells):
                break
        return chosen

    def scell_modification(
        self,
        serving_scells: dict[int, CellIdentity],
        observations: TickObservations,
    ) -> ScellModification | None:
        """A3-driven intra-channel SCell replacement (at most one per tick).

        For each serving SCell, if a same-channel neighbour measures
        ``sa_scell_mod_a3_offset_db`` stronger, command the replacement —
        the S1E3 trigger when the replacement then fails.
        """
        offset = self._policy.sa_scell_mod_a3_offset_db
        for index in sorted(serving_scells):
            serving = serving_scells[index]
            serving_obs = observations.get(serving)
            if serving_obs is None or not serving_obs.measurable:
                continue
            best = observations.strongest(
                observations.is_nr & (observations.channel == serving.channel)
                & observations.measurable
                & ~observations.mask_of(serving_scells.values()))
            if best is None:
                continue
            if observations.rsrp_dbm[best] > serving_obs.rsrp_dbm + offset:
                return ScellModification(release_index=index,
                                         release_identity=serving,
                                         add_identity=observations.identity(best))
        return None


class NsaNetworkLogic:
    """OP_A / OP_V's NSA (4G PCell) logic."""

    def __init__(self, environment: RadioEnvironment, policy: OperatorPolicy) -> None:
        self._environment = environment
        self._policy = policy
        self._a3_offsets: tuple[CellColumns, np.ndarray] | None = None

    def _a3_offsets_db(self, columns: CellColumns) -> np.ndarray:
        """Per-column LTE handover A3 offset (a run's columns never change)."""
        if self._a3_offsets is None or self._a3_offsets[0] is not columns:
            offsets = np.array([
                self._policy.channel_policy(cell.channel, Rat.LTE).handover_a3_offset_db
                for cell in columns.cells], dtype=float)
            self._a3_offsets = (columns, offsets)
        return self._a3_offsets[1]

    def redirect_target(self, pcell: CellIdentity) -> CellIdentity | None:
        """The blind redirect twin for a "5G-report" redirect, if configured.

        OP_A's 5815 policy (F15): upon receiving any 5G measurement the
        PCell hands the UE to the *same-PCI* cell on the redirect
        channel, without a measurement of the target.
        """
        channel_policy = self._policy.channel_policy(pcell.channel, Rat.LTE)
        redirect_channel = channel_policy.redirect_on_5g_report_to
        if redirect_channel is None:
            return None
        twin = CellIdentity(pci=pcell.pci, channel=redirect_channel, rat=Rat.LTE)
        if self._environment.has_cell(twin):
            return twin
        twins = self._environment.cells_on_channel(redirect_channel, Rat.LTE)
        if not twins:
            return None
        pcell_site = Point(*self._environment.cell(pcell).site_xy_m)
        nearest = min(twins, key=lambda cell:
                      Point(*cell.site_xy_m).distance_to(pcell_site))
        return nearest.identity

    def handover_decision(
        self,
        pcell: CellIdentity,
        observations: TickObservations,
        saw_5g_report: bool,
        scg_active: bool,
    ) -> HandoverDecision | None:
        """Pick a 4G handover target, if any trigger fires.

        The policy redirect takes precedence (it fires "immediately" per
        F15); otherwise the per-target-channel RSRQ A3 applies, with the
        asymmetric offsets that produce the N2E1 ping-pong.
        """
        if saw_5g_report:
            redirect = self.redirect_target(pcell)
            if redirect is not None:
                redirect_policy = self._policy.channel_policy(redirect.channel, Rat.LTE)
                keep = (scg_active and redirect_policy.allows_scg
                        and not redirect_policy.drops_scg_on_entry)
                return HandoverDecision(target=redirect, keep_scg=keep, blind=True)

        serving_obs = observations.get(pcell)
        if serving_obs is None:
            return None
        # The first largest positive margin, as a scan with ">" keeps.
        margins = observations.rsrq_db - (
            serving_obs.rsrq_db + self._a3_offsets_db(observations.columns))
        columns = (observations.is_lte & observations.measurable & (margins > 0.0)
                   & ~observations.mask_of((pcell,))).nonzero()[0]
        if not len(columns):
            return None
        best_target = observations.identity(int(columns[np.argmax(margins[columns])]))
        target_policy = self._policy.channel_policy(best_target.channel, Rat.LTE)
        keep_scg = (scg_active and target_policy.allows_scg
                    and not target_policy.drops_scg_on_entry)
        return HandoverDecision(target=best_target, keep_scg=keep_scg, blind=False)

    def scg_addition(
        self,
        pcell: CellIdentity,
        observations: TickObservations,
    ) -> tuple[CellIdentity, list[CellIdentity]] | None:
        """B1-driven SCG addition: strongest qualifying NR cell as PSCell.

        A co-sited NR cell on a second 5G channel, if deployed, is added
        as the SCG SCell (matching the paired SCG cells of Figures
        30-33, e.g. ``66@632736+66@658080``).
        """
        if not self._policy.scg_allowed_on(pcell.channel):
            return None
        nr = observations.is_nr & observations.measurable
        best = observations.strongest(
            nr & (observations.rsrp_dbm > self._policy.nsa_b1_threshold_dbm))
        if best is None:
            return None
        pscell = observations.identity(best)
        partners = observations.ranked(nr & (observations.pci == pscell.pci)
                                       & (observations.channel != pscell.channel),
                                       limit=1)
        return pscell, [observations.identity(partner) for partner in partners]

    def scg_change(
        self,
        pscell: CellIdentity,
        observations: TickObservations,
    ) -> CellIdentity | None:
        """A3-driven PSCell change (the N2E2 trigger when it then fails)."""
        serving_obs = observations.get(pscell)
        if serving_obs is None or not serving_obs.measurable:
            return None
        best = observations.strongest(observations.is_nr & observations.measurable
                                      & ~observations.mask_of((pscell,)))
        if best is None:
            return None
        offset = self._policy.nsa_scg_a3_offset_db
        if observations.rsrp_dbm[best] > serving_obs.rsrp_dbm + offset:
            return observations.identity(best)
        return None
