"""Cell identities and deployed cells.

The paper denotes every cell as ``ID@FreqChannelNo`` where ``ID`` is the
physical cell identity (PCI) and ``FreqChannelNo`` is the NR-ARFCN (5G)
or EARFCN (4G).  :class:`CellIdentity` is the hashable identity used
throughout the analysis half of the library; :class:`DeployedCell` adds
the physical attributes (site location, transmit power, channel width)
needed by the radio simulation substrate.
"""

from __future__ import annotations

import enum
import functools
import re
from dataclasses import dataclass, field

from repro.cells.arfcn import earfcn_to_frequency_mhz, nr_arfcn_to_frequency_mhz
from repro.cells.bands import Band, band_for_earfcn, band_for_nr_arfcn


@functools.total_ordering
class Rat(enum.Enum):
    """Radio access technology of a cell.

    RATs sort in declaration order, ``NR < LTE``, so identities that
    share a PCI and channel across RATs still have a total order.
    """

    NR = "5G"
    LTE = "4G"

    def __lt__(self, other: object) -> bool:
        if other.__class__ is not Rat:
            return NotImplemented
        return self is Rat.NR and other is Rat.LTE

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


_NOTATION_RE = re.compile(r"^(?P<pci>\d+)@(?P<channel>\d+)$")


@dataclass(frozen=True, order=True)
class CellIdentity:
    """The ``ID@FreqChannelNo`` identity of one cell.

    Two physical cells may legitimately share a PCI on different
    channels (e.g. ``273@387410`` vs ``273@398410`` in Table 2), so the
    identity is the (pci, channel, rat) triple.

    The hash covers ints only, ``(pci, channel, rat is Rat.NR)``, so it
    is the same in every process whatever ``PYTHONHASHSEED`` is.  It is
    computed on first use and cached on the instance rather than in
    ``__post_init__``: instances restored by pickle or ``copy`` skip
    ``__init__`` and carry only the three fields.
    """

    pci: int
    channel: int
    rat: Rat = Rat.NR

    def __post_init__(self) -> None:
        if self.pci < 0 or self.pci > 1007:
            raise ValueError(f"PCI {self.pci} outside 0..1007")
        if self.channel < 0:
            raise ValueError(f"channel {self.channel} must be non-negative")

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:
            value = hash((self.pci, self.channel, self.rat is Rat.NR))
            object.__setattr__(self, "_hash", value)
            return value

    @property
    def notation(self) -> str:
        """The paper's ``ID@FreqChannelNo`` notation."""
        return f"{self.pci}@{self.channel}"

    @property
    def frequency_mhz(self) -> float:
        """Carrier frequency of the cell's channel."""
        if self.rat is Rat.NR:
            return nr_arfcn_to_frequency_mhz(self.channel)
        return earfcn_to_frequency_mhz(self.channel)

    @property
    def band(self) -> Band:
        if self.rat is Rat.NR:
            return band_for_nr_arfcn(self.channel)
        return band_for_earfcn(self.channel)

    def __str__(self) -> str:
        return self.notation


def parse_cell_notation(text: str, rat: Rat = Rat.NR) -> CellIdentity:
    """Parse ``"273@387410"`` into a :class:`CellIdentity`.

    >>> parse_cell_notation("273@387410").pci
    273
    """
    match = _NOTATION_RE.match(text.strip())
    if match is None:
        raise ValueError(f"not a valid ID@channel cell notation: {text!r}")
    return CellIdentity(pci=int(match.group("pci")),
                        channel=int(match.group("channel")),
                        rat=rat)


@dataclass(frozen=True)
class DeployedCell:
    """A physical cell placed in the radio environment.

    Attributes:
        identity: the PCI/channel identity.
        site_xy_m: location of the tower hosting this cell, metres.
        tx_power_dbm: reference-signal transmit power.
        channel_width_mhz: carrier bandwidth (5..100 MHz, Table 2).
        azimuth_deg: boresight of the sector antenna (None = omni).
        beamwidth_deg: 3 dB beamwidth of the sector.
        interference_margin_db: extra RSRQ degradation from co-channel
            load (busy channels report worse RSRQ at equal RSRP).
    """

    identity: CellIdentity
    site_xy_m: tuple[float, float]
    tx_power_dbm: float = 43.0
    channel_width_mhz: float = 20.0
    azimuth_deg: float | None = None
    beamwidth_deg: float = 120.0
    interference_margin_db: float = 0.0
    tags: frozenset[str] = field(default_factory=frozenset)

    @property
    def rat(self) -> Rat:
        return self.identity.rat

    @property
    def channel(self) -> int:
        return self.identity.channel

    @property
    def pci(self) -> int:
        return self.identity.pci

    @property
    def frequency_mhz(self) -> float:
        return self.identity.frequency_mhz

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.rat.value} {self.identity.notation}"
