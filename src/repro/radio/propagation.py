"""Propagation model: path loss, shadowing, fast fading.

RSRP at a location is computed as::

    RSRP = tx_power - path_loss(distance, frequency) - shadowing(x, y) + fading(t)

* Path loss follows the log-distance model with a frequency-dependent
  intercept (free-space at 1 m) and an exponent around 3.0-3.7 for the
  urban/suburban morphology of the two test cities.
* Shadowing is a spatially correlated lognormal field, realised as a
  deterministic pseudo-random lattice with bilinear interpolation.  The
  correlation distance (lattice spacing, default 75 m) is what makes the
  paper's section 6 spatial analysis meaningful: nearby locations see
  similar RSRP, distant locations are independent.
* Fast fading is a small zero-mean temporal AR(1) process regenerated per
  (cell, run) so repeated runs at one location differ slightly, which is
  what makes semi-persistent loops possible (F1).  A run draws each
  cell's whole series at once (:meth:`PropagationModel.fading_series`).

Everything is deterministic given the environment seed, the cell
identity and the sample time, so the full measurement campaign is
reproducible bit-for-bit.  Every draw comes from :func:`_seeded`: one
generator per thread, re-seeded per use, whose draws equal those of a
``RandomState`` freshly built from the same seed, without paying for
constructing one per draw.
"""

from __future__ import annotations

import math
import threading
import zlib
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from repro.cells.cell import DeployedCell
from repro.radio.geometry import Point, angular_difference_deg, bearing_deg


def free_space_path_loss_db(distance_m: float, frequency_mhz: float) -> float:
    """Free-space path loss (Friis) in dB.

    >>> round(free_space_path_loss_db(1000.0, 1937.0), 1)
    98.2
    """
    distance = max(distance_m, 1.0)
    return 20.0 * math.log10(distance / 1000.0) + 20.0 * math.log10(frequency_mhz) + 32.45


def log_distance_path_loss_db(
    distance_m: float,
    frequency_mhz: float,
    exponent: float = 3.2,
    reference_distance_m: float = 10.0,
) -> float:
    """Log-distance path loss with free-space reference at ``reference_distance_m``."""
    distance = max(distance_m, reference_distance_m)
    reference_loss = free_space_path_loss_db(reference_distance_m, frequency_mhz)
    return reference_loss + 10.0 * exponent * math.log10(distance / reference_distance_m)


#: Tick-to-tick correlation of the AR(1) fast fading.
FADING_RHO = 0.85

_THREAD = threading.local()


def _stable_seed(*parts: object) -> int:
    """Deterministic 32-bit seed from arbitrary parts (stable across processes)."""
    text = "|".join(str(part) for part in parts)
    return zlib.crc32(text.encode("utf-8"))


def _seeded(seed: int) -> np.random.RandomState:
    """This thread's generator, re-seeded with ``seed``.

    Its draws equal those of a ``RandomState`` freshly built from
    ``seed`` (seeding also drops a cached gauss value), but re-seeding
    costs ~3 µs where construction costs ~200 µs.  Take the draws
    before the next call on the same thread.
    """
    rng = getattr(_THREAD, "rng", None)
    if rng is None:
        rng = _THREAD.rng = np.random.RandomState()
    rng.seed(seed)
    return rng


def _cell_key(cell: DeployedCell) -> str:
    return f"{cell.identity.rat.value}:{cell.identity.notation}"


class ShadowingField:
    """Spatially correlated lognormal shadowing for one cell.

    A lattice of i.i.d. normal values with bilinear interpolation gives a
    field whose correlation distance equals the lattice spacing; values at
    lattice nodes are generated lazily and deterministically from the
    (seed, cell, node) triple.
    """

    def __init__(self, seed: int, cell_key: str, sigma_db: float = 6.0,
                 correlation_distance_m: float = 75.0) -> None:
        if sigma_db < 0:
            raise ValueError("shadowing sigma must be non-negative")
        if correlation_distance_m <= 0:
            raise ValueError("correlation distance must be positive")
        self._seed = seed
        self._cell_key = cell_key
        self.sigma_db = sigma_db
        self.correlation_distance_m = correlation_distance_m
        self._node_cache: dict[tuple[int, int], float] = {}

    def _node_value(self, ix: int, iy: int) -> float:
        cached = self._node_cache.get((ix, iy))
        if cached is not None:
            return cached
        node_seed = _stable_seed(self._seed, self._cell_key, ix, iy)
        value = float(_seeded(node_seed).normal(0.0, self.sigma_db))
        self._node_cache[(ix, iy)] = value
        return value

    def value_db(self, point: Point) -> float:
        """Shadowing in dB at a location (bilinear interpolation of the lattice)."""
        gx = point.x_m / self.correlation_distance_m
        gy = point.y_m / self.correlation_distance_m
        ix, iy = math.floor(gx), math.floor(gy)
        fx, fy = gx - ix, gy - iy
        v00 = self._node_value(ix, iy)
        v10 = self._node_value(ix + 1, iy)
        v01 = self._node_value(ix, iy + 1)
        v11 = self._node_value(ix + 1, iy + 1)
        top = v00 * (1 - fx) + v10 * fx
        bottom = v01 * (1 - fx) + v11 * fx
        return top * (1 - fy) + bottom * fy


@dataclass
class PropagationModel:
    """Bundles path loss + shadowing + fading into one RSRP/RSRQ evaluator.

    Attributes:
        seed: environment seed (shared by every cell's shadowing field).
        path_loss_exponent: morphology exponent (3.0 suburban .. 3.7 urban).
        shadowing_sigma_db: lognormal shadowing standard deviation.
        fading_sigma_db: fast-fading standard deviation per sample.
        noise_floor_dbm: measurement floor; cells below it are invisible
            to the UE (the S1E1 mechanism: "too bad to be measured").
    """

    seed: int = 0
    path_loss_exponent: float = 3.2
    shadowing_sigma_db: float = 6.0
    fading_sigma_db: float = 2.0
    shadowing_correlation_m: float = 75.0
    noise_floor_dbm: float = -125.0

    def __post_init__(self) -> None:
        self._shadowing: dict[str, ShadowingField] = {}

    def _shadowing_for(self, cell: DeployedCell) -> ShadowingField:
        key = _cell_key(cell)
        field = self._shadowing.get(key)
        if field is None:
            field = ShadowingField(self.seed, key, self.shadowing_sigma_db,
                                   self.shadowing_correlation_m)
            self._shadowing[key] = field
        return field

    def _antenna_gain_db(self, cell: DeployedCell, point: Point) -> float:
        """Sector antenna gain: 0 dB at boresight, floored at -18 dB off-axis."""
        if cell.azimuth_deg is None:
            return 0.0
        site = Point(*cell.site_xy_m)
        direction = bearing_deg(site, point)
        off_axis = angular_difference_deg(direction, cell.azimuth_deg)
        half_beam = cell.beamwidth_deg / 2.0
        attenuation = 12.0 * (off_axis / max(half_beam, 1.0)) ** 2
        return -min(attenuation, 18.0)

    def mean_rsrp_dbm(self, cell: DeployedCell, point: Point) -> float:
        """Location-mean RSRP (path loss + shadowing + antenna, no fading)."""
        site = Point(*cell.site_xy_m)
        loss = log_distance_path_loss_db(site.distance_to(point), cell.frequency_mhz,
                                         self.path_loss_exponent)
        shadowing = self._shadowing_for(cell).value_db(point)
        gain = self._antenna_gain_db(cell, point)
        return cell.tx_power_dbm - loss - shadowing + gain

    def fading_series(self, cell: DeployedCell, run_seed: int,
                      ticks: int) -> np.ndarray:
        """The AR(1) fast-fading term of one cell at ticks ``0..ticks-1`` of one run.

        ``v[0] ~ N(0, sigma)`` and ``v[t] = rho * v[t-1] + e[t]`` with
        ``e[t] ~ N(0, sigma * sqrt(1 - rho**2))``.  The innovations are
        drawn as one array and the recurrence runs over them in scalar
        float arithmetic, so every value equals a tick-by-tick draw, and
        a shorter series is a prefix of a longer one.
        """
        rng = _seeded(_stable_seed(self.seed, _cell_key(cell), run_seed, "fading"))
        if ticks <= 0:
            return np.empty(0)
        first = float(rng.normal(0.0, self.fading_sigma_db))
        innovations = rng.normal(
            0.0, self.fading_sigma_db * math.sqrt(1 - FADING_RHO ** 2), size=ticks - 1)
        return np.fromiter(
            accumulate(innovations.tolist(),
                       lambda value, innovation: FADING_RHO * value + innovation,
                       initial=first),
            dtype=float, count=ticks)

    def fading_db(self, cell: DeployedCell, run_seed: int, tick: int) -> float:
        """The fading term at one tick (a one-tick read of :meth:`fading_series`)."""
        if tick < 0:
            raise ValueError("tick must be non-negative")
        return float(self.fading_series(cell, run_seed, tick + 1)[tick])

    def fresh_fading_db(self, cell: DeployedCell, run_seed: int, tick: int,
                        label: str = "exec") -> float:
        """An independent fading draw, for execution-time re-sampling.

        Command execution (SCell modification, handover random access)
        happens a few hundred milliseconds after the measurement that
        triggered it; this returns a fresh draw uncorrelated with the
        tick's reported value, deterministically from the label.
        """
        seed = _stable_seed(self.seed, _cell_key(cell), run_seed, tick, label)
        return float(_seeded(seed).normal(0.0, self.fading_sigma_db))

    def rsrp_dbm(self, cell: DeployedCell, point: Point, tick: int, run_seed: int) -> float:
        """Instantaneous RSRP at an integer tick (1 Hz) of one run."""
        return self.mean_rsrp_dbm(cell, point) + self.fading_db(cell, run_seed, tick)

    def rsrq_db(self, rsrp_dbm, interference_margin_db=0.0):
        """Map RSRP to an RSRQ value.

        RSRQ in a loaded network degrades roughly linearly as RSRP
        approaches the noise floor; we use a piecewise-linear map
        calibrated to the paper's reported pairs (RSRP -82 / RSRQ -10.5;
        RSRP -108.5 / RSRQ -25.5 in Figure 28), clamped to [-30, -5] dB.

        Scalars give a float; arrays (broadcast against the margin)
        give an array of the same values element by element.
        """
        anchor_good = (-82.0, -10.5)
        anchor_poor = (-108.5, -25.5)
        slope = (anchor_poor[1] - anchor_good[1]) / (anchor_poor[0] - anchor_good[0])
        rsrq = anchor_good[1] + slope * (rsrp_dbm - anchor_good[0]) - interference_margin_db
        clamped = np.minimum(np.maximum(rsrq, -30.0), -5.0)
        return float(clamped) if np.ndim(clamped) == 0 else clamped

    def is_measurable(self, rsrp_dbm):
        """Whether the UE can measure a cell at all (above the noise floor).

        Element-wise for arrays, like :meth:`rsrq_db`.
        """
        return rsrp_dbm > self.noise_floor_dbm
