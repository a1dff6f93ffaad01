"""Tests for the radio environment (observations over deployed cells)."""

import numpy as np
import pytest

from repro.cells.cell import CellIdentity, Rat
from repro.radio.environment import CellObservation, RadioEnvironment, TickObservations
from repro.radio.geometry import Point
from repro.radio.propagation import PropagationModel
from tests.conftest import lte_cell, nr_cell


class TestEnvironmentConstruction:
    def test_duplicate_identities_rejected(self, propagation):
        cells = [nr_cell(1), nr_cell(1)]
        with pytest.raises(ValueError):
            RadioEnvironment(cells, propagation)

    def test_cells_copy_is_returned(self, small_environment):
        cells = small_environment.cells
        cells.clear()
        assert small_environment.cells  # internal list unaffected


class TestLookups:
    def test_cells_of_rat(self, small_environment):
        assert len(small_environment.cells_of_rat(Rat.NR)) == 4
        assert len(small_environment.cells_of_rat(Rat.LTE)) == 1

    def test_cells_on_channel(self, small_environment):
        on_387410 = small_environment.cells_on_channel(387410, Rat.NR)
        assert sorted(cell.pci for cell in on_387410) == [273, 371]

    def test_channels_of_rat_sorted(self, small_environment):
        assert small_environment.channels_of_rat(Rat.NR) == \
            [387410, 501390, 521310]

    def test_cell_lookup(self, small_environment):
        identity = CellIdentity(273, 387410, Rat.NR)
        assert small_environment.cell(identity).identity == identity
        assert small_environment.has_cell(identity)

    def test_missing_cell_raises(self, small_environment):
        with pytest.raises(KeyError):
            small_environment.cell(CellIdentity(999, 387410, Rat.NR))
        assert not small_environment.has_cell(CellIdentity(999, 387410, Rat.NR))


class TestObservation:
    def test_observe_sorted_strongest_first(self, small_environment, centre_point):
        observations = small_environment.observe(centre_point, tick=0, run_seed=1)
        rsrps = [obs.rsrp_dbm for obs in observations]
        assert rsrps == sorted(rsrps, reverse=True)

    def test_observe_filters_by_rat(self, small_environment, centre_point):
        nr_only = small_environment.observe(centre_point, 0, 1, rat=Rat.NR)
        assert all(obs.identity.rat is Rat.NR for obs in nr_only)
        assert len(nr_only) == 4

    def test_observation_is_deterministic(self, small_environment, centre_point):
        first = small_environment.observe(centre_point, 3, 7)
        second = small_environment.observe(centre_point, 3, 7)
        assert [o.rsrp_dbm for o in first] == [o.rsrp_dbm for o in second]

    def test_strongest_of_rat(self, small_environment, centre_point):
        strongest = small_environment.strongest(centre_point, 0, 1, Rat.NR)
        assert strongest is not None
        nr_observations = small_environment.observe(centre_point, 0, 1, rat=Rat.NR)
        assert strongest.rsrp_dbm == nr_observations[0].rsrp_dbm

    def test_strongest_returns_none_when_nothing_measurable(self, propagation):
        # A single extremely weak cell (tiny power, huge distance).
        weak = nr_cell(1, x=0.0, y=0.0, power=-60.0)
        environment = RadioEnvironment([weak], propagation)
        assert environment.strongest(Point(5000.0, 5000.0), 0, 1, Rat.NR) is None
        unmeasured = environment.strongest(Point(5000.0, 5000.0), 0, 1, Rat.NR,
                                           measurable_only=False)
        assert unmeasured is not None

    def test_rsrq_reflects_interference_margin(self, propagation):
        clean = nr_cell(1, x=0.0, y=0.0)
        loaded = nr_cell(2, channel=501390, x=0.0, y=0.0, margin=4.0)
        environment = RadioEnvironment([clean, loaded], propagation)
        point = Point(150.0, 0.0)
        observations = {obs.identity.pci: obs
                        for obs in environment.observe(point, 0, 1)}
        # Equal sites and power: the loaded channel reports worse RSRQ
        # at comparable RSRP (up to shadowing differences).
        assert observations[2].rsrq_db == pytest.approx(
            environment.propagation.rsrq_db(observations[2].rsrp_dbm, 4.0))

    def test_mean_rsrp_map(self, small_environment):
        identity = CellIdentity(273, 387410, Rat.NR)
        points = [Point(100.0, 100.0), Point(900.0, 900.0)]
        values = small_environment.mean_rsrp_map(identity, points)
        assert len(values) == 2
        assert values[0] > values[1]

    def test_observation_str(self, small_environment, centre_point):
        observation = small_environment.observe(centre_point, 0, 1)[0]
        assert "@" in str(observation)


def _tied_view(rsrps):
    """A view over NR cells 0..n-1 with the given RSRPs (ties included)."""
    observations = [CellObservation(cell=nr_cell(pci), rsrp_dbm=rsrp,
                                    rsrq_db=-10.0, measurable=True)
                    for pci, rsrp in enumerate(rsrps)]
    return TickObservations.from_observations(observations), observations


def _first_strongest(observations):
    """The scan the RRC logic used: first observation with the highest RSRP."""
    best = None
    for observation in observations:
        if best is None or observation.rsrp_dbm > best.rsrp_dbm:
            best = observation
    return best


TIED = [-90.0, -85.0, -90.0, -85.0, -100.0, -85.0, -90.0]


class TestTickObservations:
    def test_mapping_reads(self, small_environment):
        cells = small_environment.cells
        view = TickObservations.from_observations(
            CellObservation(cell=cell, rsrp_dbm=-80.0 - index, rsrq_db=-11.0,
                            measurable=index != 1)
            for index, cell in enumerate(cells))
        assert len(view) == len(cells)
        assert cells[2].identity in view
        assert CellIdentity(999, 387410, Rat.NR) not in view
        assert view.get(CellIdentity(999, 387410, Rat.NR)) is None
        observation = view.get(cells[1].identity)
        assert observation == CellObservation(cell=cells[1], rsrp_dbm=-81.0,
                                              rsrq_db=-11.0, measurable=False)
        assert type(observation.rsrp_dbm) is float
        assert view.is_lte.tolist() == [cell.rat is Rat.LTE for cell in cells]
        assert view.channel.tolist() == [cell.channel for cell in cells]

    @pytest.mark.parametrize("limit", [None, 1, 2, 4, 10])
    def test_ranked_breaks_ties_like_a_stable_reverse_sort(self, limit):
        view, observations = _tied_view(TIED)
        expected = sorted(observations, key=lambda obs: obs.rsrp_dbm, reverse=True)
        ranked = view.ranked(np.ones(len(view), dtype=bool), limit=limit)
        assert [view.observation(column) for column in ranked] == expected[:limit]

    def test_ranked_applies_mask_and_floor(self):
        view, observations = _tied_view(TIED)
        mask = np.array([True, False, True, True, True, True, False])
        expected = [obs for obs, keep in zip(observations, mask)
                    if keep and obs.rsrp_dbm > -95.0]
        expected.sort(key=lambda obs: obs.rsrp_dbm, reverse=True)
        assert [view.observation(column)
                for column in view.ranked(mask, -95.0)] == expected

    @pytest.mark.parametrize("mask", [
        [True] * 7,
        [False, False, True, True, True, True, True],
        [False, False, False, False, False, True, True],
        [True, False, True, False, True, False, True],
    ])
    def test_strongest_keeps_the_first_maximum(self, mask):
        view, observations = _tied_view(TIED)
        expected = _first_strongest(
            [obs for obs, keep in zip(observations, mask) if keep])
        assert view.observation(view.strongest(np.array(mask))) == expected

    def test_strongest_of_nothing(self):
        view, _ = _tied_view(TIED)
        assert view.strongest(np.zeros(len(view), dtype=bool)) is None

    def test_selections_by_identity(self):
        view, observations = _tied_view(TIED)
        wanted = [observations[3].identity, CellIdentity(999, 387410, Rat.NR)]
        assert view.mask_of(wanted).nonzero()[0].tolist() == [3]
        assert view.identities(view.channel == 521310) == \
            [obs.identity for obs in observations]
