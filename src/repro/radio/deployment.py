"""Synthetic cell deployments for the paper's test areas.

The measurement study covered 11 areas (A1..A5 for OP_T, A6..A8 for
OP_A, A9..A11 for OP_V).  We regenerate each as a jittered grid of cell
*sites*; every site hosts one cell per frequency channel it carries, and
all cells at one site share the site's physical cell ID — matching the
paper's observations (e.g. ``393@521310`` and ``393@501390`` co-sited,
and OP_A's same-ID twins ``380@5815`` / ``380@5145``).

The per-operator channel plans themselves live in
:mod:`repro.campaign.operators`; this module only knows how to turn a
plan into deployed cells.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.cells.cell import CellIdentity, DeployedCell, Rat
from repro.radio.environment import RadioEnvironment
from repro.radio.geometry import Area, Point
from repro.radio.propagation import PropagationModel, _seeded


@dataclass(frozen=True)
class ChannelPlan:
    """How one frequency channel is deployed across an area.

    Attributes:
        channel: NR-ARFCN or EARFCN.
        rat: which RAT the channel carries.
        width_mhz: carrier bandwidth.
        tx_power_dbm: per-cell reference-signal power.  The paper's
            "problem" channel 387410 carries narrow 10 MHz cells with
            visibly worse RSRP (Figure 17); we reproduce that with a
            lower transmit power.
        site_fraction: fraction of sites hosting a cell on this channel
            (1.0 = every site).  Sparse channels have patchier coverage.
        site_phase: offsets which sites are selected, so two sparse
            channels do not always co-locate.
        sectorized: the channel's cells use one directional sector per
            site (deterministic azimuth) instead of an omni antenna;
            locations off boresight see heavily attenuated RSRP — the
            "too bad to be measured" pockets behind S1E1.
        tags: free-form labels consumed by the policy engine
            (e.g. ``"scell-mod-fragile"``, ``"5g-disabled"``).
    """

    channel: int
    rat: Rat
    width_mhz: float
    tx_power_dbm: float = 43.0
    site_fraction: float = 1.0
    site_phase: int = 0
    interference_margin_db: float = 0.0
    sectorized: bool = False
    tags: frozenset[str] = field(default_factory=frozenset)


@dataclass
class AreaDeployment:
    """A fully built deployment: the area, its sites and the environment."""

    area: Area
    sites: list[Point]
    site_pcis: list[int]
    plans: list[ChannelPlan]
    environment: RadioEnvironment

    def cells_with_tag(self, tag: str) -> list[DeployedCell]:
        return [cell for cell in self.environment.cells if tag in cell.tags]


def _site_grid(area: Area, spacing_m: float, seed: int) -> list[Point]:
    """A jittered grid of site locations covering the area."""
    rng = _seeded(seed)
    sites: list[Point] = []
    # Offset rows to approximate a hexagonal layout.
    row = 0
    y = spacing_m / 2.0
    while y < area.height_m:
        x0 = spacing_m / 2.0 + (spacing_m / 2.0 if row % 2 else 0.0)
        x = x0
        while x < area.width_m:
            jitter_x = float(rng.uniform(-0.15, 0.15)) * spacing_m
            jitter_y = float(rng.uniform(-0.15, 0.15)) * spacing_m
            sites.append(area.clamp(Point(x + jitter_x, y + jitter_y)))
            x += spacing_m
        y += spacing_m
        row += 1
    if not sites:
        sites.append(area.centre)
    return sites


def _assign_site_pcis(n_sites: int, seed: int) -> list[int]:
    """Deterministic, collision-free PCIs for each site (shared across channels)."""
    pcis = _seeded(seed + 1).permutation(np.arange(1, 1008))[:n_sites]
    return [int(pci) for pci in pcis]


def build_area_deployment(
    area: Area,
    plans: list[ChannelPlan],
    propagation: PropagationModel,
    site_spacing_m: float = 450.0,
    seed: int = 0,
) -> AreaDeployment:
    """Deploy every channel plan over a jittered site grid.

    A plan with ``site_fraction`` f is placed on every round(1/f)-th
    site (shifted by ``site_phase``), so sparse channels form a regular
    sub-grid with coverage gaps between their cells — the geometry that
    produces near-equal RSRP boundaries between same-channel neighbours
    (the F16 precondition for S1E3 loops).
    """
    if not plans:
        raise ValueError("at least one channel plan is required")
    sites = _site_grid(area, site_spacing_m, seed)
    pcis = _assign_site_pcis(len(sites), seed)

    cells: list[DeployedCell] = []
    for plan in plans:
        if not 0.0 < plan.site_fraction <= 1.0:
            raise ValueError(f"site_fraction {plan.site_fraction} outside (0, 1]")
        stride = max(1, round(1.0 / plan.site_fraction))
        for index, (site, pci) in enumerate(zip(sites, pcis)):
            if (index + plan.site_phase) % stride != 0:
                continue
            identity = CellIdentity(pci=pci, channel=plan.channel, rat=plan.rat)
            azimuth = None
            if plan.sectorized:
                azimuth = float((index * 137 + plan.channel) % 360)
            cells.append(DeployedCell(
                identity=identity,
                site_xy_m=site.as_tuple(),
                tx_power_dbm=plan.tx_power_dbm,
                channel_width_mhz=plan.width_mhz,
                azimuth_deg=azimuth,
                beamwidth_deg=100.0,
                interference_margin_db=plan.interference_margin_db,
                tags=plan.tags,
            ))

    environment = RadioEnvironment(cells, propagation)
    return AreaDeployment(area=area, sites=sites, site_pcis=pcis,
                          plans=list(plans), environment=environment)
