"""Tests for cell identities, notation parsing and deployed cells."""

import copyreg
import dataclasses
import io
import os
import pickle
import subprocess
import sys
import zlib
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import repro

from repro.cells.bands import (
    BandCatalogue,
    LTE_BANDS,
    NR_BANDS,
    band_for_earfcn,
    band_for_nr_arfcn,
)
from repro.cells.cell import CellIdentity, DeployedCell, Rat, parse_cell_notation
from repro.core.cellset import CellSet
from repro.resilience import memo as memo_mod


class TestCellIdentity:
    def test_notation_matches_paper_style(self):
        identity = CellIdentity(273, 387410, Rat.NR)
        assert identity.notation == "273@387410"
        assert str(identity) == "273@387410"

    def test_same_pci_different_channel_are_distinct(self):
        a = CellIdentity(273, 387410, Rat.NR)
        b = CellIdentity(273, 398410, Rat.NR)
        assert a != b
        assert len({a, b}) == 2

    def test_frequency_for_nr(self):
        assert CellIdentity(273, 387410, Rat.NR).frequency_mhz == pytest.approx(1937.05)

    def test_frequency_for_lte(self):
        assert CellIdentity(380, 5815, Rat.LTE).frequency_mhz == pytest.approx(742.5)

    def test_band_lookup_nr(self):
        assert CellIdentity(273, 387410, Rat.NR).band.name == "n25"

    def test_band_lookup_lte(self):
        assert CellIdentity(380, 5815, Rat.LTE).band.name == "B17"

    def test_pci_out_of_range_raises(self):
        with pytest.raises(ValueError):
            CellIdentity(1008, 387410, Rat.NR)
        with pytest.raises(ValueError):
            CellIdentity(-1, 387410, Rat.NR)

    def test_negative_channel_raises(self):
        with pytest.raises(ValueError):
            CellIdentity(1, -5, Rat.NR)

    def test_ordering_is_total(self):
        identities = [CellIdentity(5, 387410), CellIdentity(3, 387410),
                      CellIdentity(3, 398410)]
        assert sorted(identities)[0].pci == 3

    def test_ordering_across_rats_puts_nr_first(self):
        nr = CellIdentity(1, 100, Rat.NR)
        lte = CellIdentity(1, 100, Rat.LTE)
        assert sorted([lte, nr]) == [nr, lte]
        assert sorted([nr, lte]) == [nr, lte]
        assert nr < lte and lte > nr and nr <= lte and lte >= nr
        assert Rat.NR < Rat.LTE

    def test_cellset_renders_same_cell_on_both_rats(self):
        scells = frozenset({CellIdentity(1, 100, Rat.NR),
                            CellIdentity(1, 100, Rat.LTE)})
        cellset = CellSet(pcell=CellIdentity(5, 100, Rat.LTE),
                          mcg_scells=scells)
        assert str(cellset) == "{P:5@100, S:1@100, S:1@100}"


class _LegacyPickler(pickle.Pickler):
    """Pickles identities as they were before they cached their hash:
    ``__newobj__`` plus a three-field ``__dict__`` state."""

    def reducer_override(self, obj):
        if type(obj) is CellIdentity:
            return (copyreg.__newobj__, (CellIdentity,),
                    {"pci": obj.pci, "channel": obj.channel, "rat": obj.rat})
        return NotImplemented


def _legacy_pickle(obj) -> bytes:
    buffer = io.BytesIO()
    _LegacyPickler(buffer, protocol=pickle.HIGHEST_PROTOCOL).dump(obj)
    return buffer.getvalue()


class TestCellIdentityHash:
    def test_equal_identities_hash_equal(self):
        a = CellIdentity(273, 387410, Rat.NR)
        b = CellIdentity(273, 387410, Rat.NR)
        assert a == b and hash(a) == hash(b)
        assert hash(a) != hash(CellIdentity(273, 387410, Rat.LTE))

    def test_replace_gives_consistent_hash(self):
        a = CellIdentity(273, 387410, Rat.NR)
        hash(a)
        moved = dataclasses.replace(a, channel=398410)
        assert hash(moved) == hash(CellIdentity(273, 398410, Rat.NR))
        assert hash(dataclasses.replace(moved, channel=387410)) == hash(a)

    def test_hash_is_independent_of_hash_seed(self):
        source = Path(repro.__file__).parents[1]
        code = ("from repro.cells.cell import CellIdentity, Rat; "
                "print(hash(CellIdentity(273, 387410, Rat.NR)))")
        hashes = set()
        for seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=seed,
                       PYTHONPATH=str(source))
            hashes.add(subprocess.run(
                [sys.executable, "-c", code], env=env, check=True,
                capture_output=True, text=True).stdout.strip())
        assert len(hashes) == 1

    def test_legacy_pickle_state_hashes_and_compares(self):
        restored = object.__new__(CellIdentity)
        restored.__dict__.update(pci=273, channel=387410, rat=Rat.NR)
        fresh = CellIdentity(273, 387410, Rat.NR)
        assert restored == fresh and hash(restored) == hash(fresh)
        assert restored in {fresh}

        loaded = pickle.loads(_legacy_pickle(frozenset({fresh})))
        assert loaded == frozenset({fresh})

    def test_memo_entry_with_legacy_state_is_a_hit(self, tmp_path):
        cells = frozenset({CellIdentity(273, 387410, Rat.NR),
                           CellIdentity(380, 5815, Rat.LTE)})
        analysis = CellSet(pcell=CellIdentity(1, 5815, Rat.LTE),
                           mcg_scells=cells)
        memo = memo_mod.AnalysisMemo(tmp_path)
        payload = _legacy_pickle(analysis)
        crc = zlib.crc32(payload) & 0xFFFFFFFF
        memo._path("d" * 64).write_bytes(
            memo_mod._MAGIC + f"{crc:08x}\n".encode("ascii") + payload)
        loaded = memo.get("d" * 64)
        assert loaded is not None
        assert loaded == analysis and loaded.mcg_scells == cells


class TestParseNotation:
    def test_parse_basic(self):
        identity = parse_cell_notation("273@387410")
        assert identity.pci == 273
        assert identity.channel == 387410
        assert identity.rat is Rat.NR

    def test_parse_lte(self):
        identity = parse_cell_notation("380@5815", rat=Rat.LTE)
        assert identity.rat is Rat.LTE

    def test_parse_strips_whitespace(self):
        assert parse_cell_notation("  393@521310 ").pci == 393

    @pytest.mark.parametrize("bad", ["", "abc", "1@", "@123", "1@2@3", "1-2"])
    def test_parse_rejects_malformed(self, bad):
        with pytest.raises(ValueError):
            parse_cell_notation(bad)

    @given(st.integers(min_value=0, max_value=1007),
           st.integers(min_value=0, max_value=2_000_000))
    def test_round_trip(self, pci, channel):
        identity = CellIdentity(pci, channel, Rat.NR)
        assert parse_cell_notation(identity.notation) == identity


class TestBands:
    def test_nr_catalogue_has_paper_bands(self):
        for name in ("n25", "n41", "n71", "n5", "n77"):
            assert name in NR_BANDS

    def test_lte_catalogue_has_paper_bands(self):
        for name in ("B2", "B5", "B12", "B13", "B17", "B30", "B66"):
            assert name in LTE_BANDS

    def test_band_for_nr_arfcn_n41(self):
        assert band_for_nr_arfcn(521310).name == "n41"

    def test_band_for_nr_arfcn_unknown_raises(self):
        with pytest.raises(KeyError):
            band_for_nr_arfcn(500)  # 2.5 MHz: no catalogued band

    def test_band_for_earfcn(self):
        assert band_for_earfcn(5230).name == "B13"

    def test_catalogue_resolves_both_rats(self):
        catalogue = BandCatalogue()
        assert catalogue.band_of(387410, rat_is_nr=True).name == "n25"
        assert catalogue.band_of(5815, rat_is_nr=False).name == "B17"

    def test_catalogue_lists_all(self):
        assert len(BandCatalogue().all_bands()) == len(NR_BANDS) + len(LTE_BANDS)

    def test_band_contains_frequency(self):
        band = NR_BANDS["n25"]
        assert band.contains_frequency(1937.0)
        assert not band.contains_frequency(2600.0)

    def test_band_centre(self):
        band = NR_BANDS["n41"]
        assert band.dl_low_mhz < band.centre_mhz < band.dl_high_mhz


class TestDeployedCell:
    def test_properties_delegate_to_identity(self):
        cell = DeployedCell(identity=CellIdentity(273, 387410, Rat.NR),
                            site_xy_m=(10.0, 20.0), channel_width_mhz=10.0)
        assert cell.pci == 273
        assert cell.channel == 387410
        assert cell.rat is Rat.NR
        assert cell.frequency_mhz == pytest.approx(1937.05)

    def test_default_is_omni(self):
        cell = DeployedCell(identity=CellIdentity(1, 521310, Rat.NR),
                            site_xy_m=(0.0, 0.0))
        assert cell.azimuth_deg is None
