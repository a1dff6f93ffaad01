"""Driving tests (section 4.1): inventorying every deployed cell.

The paper complements the stationary runs with drives "along all main
roads until no new 5G/4G cells are observed", which is how the Table 3
cell counts and the PCell configuration corpus were collected.  This
module reproduces that: a lawnmower route over the area, a scanner that
accumulates every measurable cell along it, and a saturation rule that
stops once further driving discovers nothing new.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cells.cell import CellIdentity, Rat
from repro.radio.deployment import AreaDeployment
from repro.radio.geometry import Area, Point


def lawnmower_route(area: Area, lane_spacing_m: float = 150.0,
                    step_m: float = 50.0, margin_m: float = 40.0) -> list[Point]:
    """A boustrophedon ("main roads") sweep covering the area."""
    if lane_spacing_m <= 0 or step_m <= 0:
        raise ValueError("spacings must be positive")
    route: list[Point] = []
    y = margin_m
    leftward = False
    while y <= area.height_m - margin_m:
        xs: list[float] = []
        x = margin_m
        while x <= area.width_m - margin_m:
            xs.append(x)
            x += step_m
        if leftward:
            xs.reverse()
        route.extend(Point(x, y) for x in xs)
        leftward = not leftward
        y += lane_spacing_m
    return route


@dataclass
class DrivingInventory:
    """The outcome of a cell-inventory drive."""

    observed: set[CellIdentity] = field(default_factory=set)
    points_driven: int = 0
    saturated: bool = False

    def cells_of_rat(self, rat: Rat) -> set[CellIdentity]:
        return {identity for identity in self.observed if identity.rat is rat}

    @property
    def n_nr_cells(self) -> int:
        return len(self.cells_of_rat(Rat.NR))

    @property
    def n_lte_cells(self) -> int:
        return len(self.cells_of_rat(Rat.LTE))


def drive_inventory(deployment: AreaDeployment,
                    detection_floor_dbm: float | None = None,
                    lane_spacing_m: float = 150.0,
                    saturation_points: int = 120,
                    run_seed: int = 1) -> DrivingInventory:
    """Drive the area and inventory every cell a scanner would detect.

    Stops early once ``saturation_points`` consecutive route points add
    no new cell (the paper's "until no new 5G/4G cells are observed").
    """
    environment = deployment.environment
    propagation = environment.propagation
    floor = (detection_floor_dbm if detection_floor_dbm is not None
             else propagation.noise_floor_dbm)
    inventory = DrivingInventory()
    since_new = 0
    route = lawnmower_route(deployment.area, lane_spacing_m=lane_spacing_m)
    fading = [propagation.fading_series(cell, run_seed, len(route)).tolist()
              for cell in environment.cells]
    for tick, point in enumerate(route):
        inventory.points_driven += 1
        new_here = 0
        for cell, series in zip(environment.cells, fading):
            if cell.identity in inventory.observed:
                continue
            rsrp = propagation.mean_rsrp_dbm(cell, point) + series[tick]
            if rsrp > floor:
                inventory.observed.add(cell.identity)
                new_here += 1
        if new_here:
            since_new = 0
        else:
            since_new += 1
            if since_new >= saturation_points:
                inventory.saturated = True
                break
    else:
        inventory.saturated = since_new >= saturation_points or \
            len(inventory.observed) == len(environment.cells)
    return inventory


def campaign_cell_counts(profiles, build) -> dict[str, tuple[int, int]]:
    """Per-operator (5G, 4G) cell counts over all areas (Table 3's columns).

    ``build`` is a callable ``(profile, area_name) -> AreaDeployment``,
    normally :func:`repro.campaign.operators.build_deployment`.
    """
    counts: dict[str, tuple[int, int]] = {}
    for profile in profiles:
        nr_cells: set[CellIdentity] = set()
        lte_cells: set[CellIdentity] = set()
        for spec in profile.areas:
            inventory = drive_inventory(build(profile, spec.name))
            nr_cells |= inventory.cells_of_rat(Rat.NR)
            lte_cells |= inventory.cells_of_rat(Rat.LTE)
        counts[profile.name] = (len(nr_cells), len(lte_cells))
    return counts
