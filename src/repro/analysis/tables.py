"""Table renderers (Tables 2, 3, 4, 5).

Each function returns plain-text rows (lists of strings) so that the
benchmarks can print them and tests can assert on their content without
parsing terminal formatting.
"""

from __future__ import annotations

import numpy as np

from repro.campaign.dataset import CampaignResult, DatasetStatistics
from repro.campaign.devices import DEVICES
from repro.cells.cell import CellIdentity
from repro.core.channels import channel_usage_breakdown, scell_mod_failure_ratios
from repro.radio.environment import RadioEnvironment
from repro.radio.geometry import Point


def format_table(headers: list[str], rows: list[list[str]]) -> str:
    """Render rows as an aligned plain-text table."""
    widths = [len(header) for header in headers]
    for row in rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines = ["  ".join(header.ljust(widths[i]) for i, header in enumerate(headers))]
    lines.append("  ".join("-" * width for width in widths))
    for row in rows:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)


def table2_cells(environment: RadioEnvironment, point: Point,
                 cells: list[CellIdentity], samples: int = 500,
                 run_seed: int = 0) -> list[list[str]]:
    """Table 2: band / frequency / width / RSRP median±sigma of given cells."""
    rows: list[list[str]] = []
    for identity in cells:
        cell = environment.cell(identity)
        values = (environment.propagation.mean_rsrp_dbm(cell, point)
                  + environment.propagation.fading_series(cell, run_seed, samples))
        median = float(np.median(values))
        sigma = float(np.std(values))
        rows.append([
            identity.notation,
            identity.band.name,
            f"{identity.frequency_mhz:.0f} MHz",
            f"{cell.channel_width_mhz:.0f} MHz",
            f"{median:.0f} ± {sigma:.1f} dBm",
        ])
    return rows


def table3_statistics(result: CampaignResult,
                      area_sizes_km2: dict[str, float] | None = None,
                      modes: dict[str, str] | None = None,
                      ) -> list[DatasetStatistics]:
    """Table 3: one statistics row per operator."""
    modes = modes or {"OP_T": "5G SA", "OP_A": "5G NSA", "OP_V": "5G NSA"}
    return [DatasetStatistics.from_campaign(result, operator,
                                            area_sizes_km2=area_sizes_km2,
                                            mode=modes.get(operator, ""))
            for operator in result.operators]


def table4_devices() -> list[list[str]]:
    """Table 4: the test phone catalogue."""
    rows = []
    for profile in DEVICES.values():
        rows.append([
            profile.name,
            profile.rrc_release or "-",
            f"{profile.mimo_layers}x{profile.mimo_layers} MIMO",
            "CA" if profile.sa_carrier_aggregation else "no SA CA",
            "NSG" if profile.nsg_supported else "no NSG",
        ])
    return rows


def table5_channel_usage(result: CampaignResult,
                         operator: str = "OP_T") -> list[list[str]]:
    """Table 5: per-channel usage breakdown and SCell-mod failure ratio."""
    analyses = result.for_operator(operator).analyses
    usage = channel_usage_breakdown(analyses, use_nr=True)
    failures = scell_mod_failure_ratios(analyses)
    channels = sorted({channel
                       for shares in usage.values() for channel in shares}
                      | set(failures))
    rows: list[list[str]] = []
    for channel in channels:
        stats = failures.get(channel)
        rows.append([
            str(channel),
            f"{usage.get('no-loop', {}).get(channel, 0.0):.1%}",
            f"{usage.get('loop', {}).get(channel, 0.0):.1%}",
            f"{usage.get('S1E1', {}).get(channel, 0.0):.1%}",
            f"{usage.get('S1E2', {}).get(channel, 0.0):.1%}",
            f"{usage.get('S1E3', {}).get(channel, 0.0):.1%}",
            f"{stats.failure_ratio:.1%}" if stats else "-",
        ])
    return rows
