"""The radio environment: deployed cells + propagation -> observations.

A :class:`RadioEnvironment` is the single source of radio truth for a
simulation: given a location, a time tick and a run seed it produces the
set of :class:`CellObservation` values (RSRP/RSRQ per deployed cell)
that the UE's measurement machinery then filters and reports.

A simulated run reads its radio through :class:`TickObservations`: one
tick's RSRP/RSRQ/measurability of every relevant cell as parallel
arrays over the run's :class:`CellColumns`, which the RRC logic filters
with boolean masks instead of looping over per-cell objects.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from repro.cells.cell import CellIdentity, DeployedCell, Rat
from repro.radio.geometry import Point
from repro.radio.propagation import PropagationModel


@dataclass(frozen=True)
class CellObservation:
    """One cell as seen from one location at one instant."""

    cell: DeployedCell
    rsrp_dbm: float
    rsrq_db: float
    measurable: bool

    @property
    def identity(self) -> CellIdentity:
        return self.cell.identity

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.identity.notation}: {self.rsrp_dbm:.1f} dBm / {self.rsrq_db:.1f} dB"


class CellColumns:
    """A run's cells as columns: the static half of :class:`TickObservations`.

    ``cells[i]`` is column ``i``; ``is_nr``, ``is_lte``, ``channel`` and
    ``pci`` are per-column arrays for building masks.
    """

    __slots__ = ("cells", "index", "is_nr", "is_lte", "channel", "pci")

    def __init__(self, cells: Sequence[DeployedCell]) -> None:
        self.cells = tuple(cells)
        self.index = {cell.identity: column for column, cell in enumerate(self.cells)}
        self.is_nr = np.array([cell.rat is Rat.NR for cell in self.cells], dtype=bool)
        self.is_lte = np.array([cell.rat is Rat.LTE for cell in self.cells], dtype=bool)
        self.channel = np.array([cell.channel for cell in self.cells], dtype=np.int64)
        self.pci = np.array([cell.pci for cell in self.cells], dtype=np.int64)


class TickObservations:
    """Every radio-relevant cell of a run at one tick, as parallel arrays.

    ``rsrp_dbm``, ``rsrq_db`` and ``measurable`` are indexed by the
    columns of ``columns``; :meth:`get`, ``in`` and ``len`` read it like
    the ``{identity: CellObservation}`` mapping it replaces.  Selections
    take a boolean mask over the columns, return column numbers and keep
    the column order for ties, so they pick what a loop over the cells
    in deployment order would.
    """

    __slots__ = ("columns", "rsrp_dbm", "rsrq_db", "measurable")

    def __init__(self, columns: CellColumns, rsrp_dbm: np.ndarray,
                 rsrq_db: np.ndarray, measurable: np.ndarray) -> None:
        self.columns = columns
        self.rsrp_dbm = rsrp_dbm
        self.rsrq_db = rsrq_db
        self.measurable = measurable

    @classmethod
    def from_observations(cls, observations: Iterable[CellObservation]) -> TickObservations:
        """A view over given observations, one column each, in the given order."""
        observations = list(observations)
        return cls(CellColumns([obs.cell for obs in observations]),
                   np.array([obs.rsrp_dbm for obs in observations], dtype=float),
                   np.array([obs.rsrq_db for obs in observations], dtype=float),
                   np.array([obs.measurable for obs in observations], dtype=bool))

    @property
    def is_nr(self) -> np.ndarray:
        return self.columns.is_nr

    @property
    def is_lte(self) -> np.ndarray:
        return self.columns.is_lte

    @property
    def channel(self) -> np.ndarray:
        return self.columns.channel

    @property
    def pci(self) -> np.ndarray:
        return self.columns.pci

    def __len__(self) -> int:
        return len(self.columns.cells)

    def __contains__(self, identity: object) -> bool:
        return identity in self.columns.index

    def identity(self, column: int) -> CellIdentity:
        return self.columns.cells[column].identity

    def observation(self, column: int) -> CellObservation:
        """Column ``column`` as a :class:`CellObservation`."""
        return CellObservation(cell=self.columns.cells[column],
                               rsrp_dbm=float(self.rsrp_dbm[column]),
                               rsrq_db=float(self.rsrq_db[column]),
                               measurable=bool(self.measurable[column]))

    def column_of(self, identity: CellIdentity) -> int | None:
        return self.columns.index.get(identity)

    def get(self, identity: CellIdentity) -> CellObservation | None:
        column = self.column_of(identity)
        return None if column is None else self.observation(column)

    def mask_of(self, identities: Iterable[CellIdentity]) -> np.ndarray:
        """The columns of the given identities (absent ones are ignored)."""
        mask = np.zeros(len(self), dtype=bool)
        for identity in identities:
            column = self.column_of(identity)
            if column is not None:
                mask[column] = True
        return mask

    def identities(self, mask: np.ndarray) -> list[CellIdentity]:
        """The masked cells' identities, in column order."""
        return [self.identity(column) for column in mask.nonzero()[0].tolist()]

    def ranked(self, mask: np.ndarray, floor: float = -np.inf,
               limit: int | None = None) -> list[int]:
        """Masked columns above ``floor`` dBm, strongest first, at most ``limit``.

        A stable sort by descending RSRP: equal RSRPs keep column order,
        as ``list.sort(key=rsrp, reverse=True)`` does.
        """
        columns = (mask & (self.rsrp_dbm > floor)).nonzero()[0]
        order = columns[np.argsort(-self.rsrp_dbm[columns], kind="stable")]
        return order[:limit].tolist()

    def strongest(self, mask: np.ndarray) -> int | None:
        """The masked column with the highest RSRP; the first one on a tie."""
        columns = mask.nonzero()[0]
        if not len(columns):
            return None
        return int(columns[np.argmax(self.rsrp_dbm[columns])])


class RadioEnvironment:
    """All deployed cells of one operator in one area, plus propagation.

    The environment is immutable after construction; per-run variation
    comes from the ``run_seed`` passed to :meth:`observe`.
    """

    def __init__(self, cells: list[DeployedCell], propagation: PropagationModel) -> None:
        identities = [cell.identity for cell in cells]
        if len(set(identities)) != len(identities):
            raise ValueError("duplicate cell identities in deployment")
        self._cells = list(cells)
        self._by_identity = {cell.identity: cell for cell in cells}
        self.propagation = propagation

    @property
    def cells(self) -> list[DeployedCell]:
        return list(self._cells)

    def cells_of_rat(self, rat: Rat) -> list[DeployedCell]:
        return [cell for cell in self._cells if cell.rat is rat]

    def cells_on_channel(self, channel: int, rat: Rat) -> list[DeployedCell]:
        return [cell for cell in self._cells
                if cell.channel == channel and cell.rat is rat]

    def channels_of_rat(self, rat: Rat) -> list[int]:
        return sorted({cell.channel for cell in self._cells if cell.rat is rat})

    def cell(self, identity: CellIdentity) -> DeployedCell:
        try:
            return self._by_identity[identity]
        except KeyError:
            raise KeyError(f"cell {identity.notation} not deployed") from None

    def has_cell(self, identity: CellIdentity) -> bool:
        return identity in self._by_identity

    def observe_cell(self, cell: DeployedCell, point: Point, tick: int,
                     run_seed: int) -> CellObservation:
        """Observe a single cell from a location at one tick of a run."""
        rsrp = self.propagation.rsrp_dbm(cell, point, tick, run_seed)
        rsrq = self.propagation.rsrq_db(rsrp, cell.interference_margin_db)
        return CellObservation(cell=cell, rsrp_dbm=rsrp, rsrq_db=rsrq,
                               measurable=self.propagation.is_measurable(rsrp))

    def observe(self, point: Point, tick: int, run_seed: int,
                rat: Rat | None = None) -> list[CellObservation]:
        """Observe every deployed cell (optionally of one RAT), strongest first."""
        cells = self._cells if rat is None else self.cells_of_rat(rat)
        observations = [self.observe_cell(cell, point, tick, run_seed) for cell in cells]
        observations.sort(key=lambda obs: obs.rsrp_dbm, reverse=True)
        return observations

    def strongest(self, point: Point, tick: int, run_seed: int,
                  rat: Rat, measurable_only: bool = True) -> CellObservation | None:
        """The strongest (by RSRP) observation of one RAT, or None."""
        for observation in self.observe(point, tick, run_seed, rat):
            if observation.measurable or not measurable_only:
                return observation
        return None

    def mean_rsrp_map(self, cell_identity: CellIdentity,
                      points: list[Point]) -> list[float]:
        """Location-mean RSRP of one cell over many points (no fading).

        Used by the section 6 spatial analysis to build RSRP fields
        (Figure 20c/20d) without simulating runs.
        """
        cell = self.cell(cell_identity)
        return [self.propagation.mean_rsrp_dbm(cell, point) for point in points]
