"""Performance metrics of loops (sections 4.2-4.3, Figures 10, 11, 19).

From a run's cell set timeline and throughput capture we derive:

* the ON-OFF **cycles**: (ON duration, OFF duration) pairs, giving cycle
  time, OFF time and OFF ratio (Figure 10); when a loop was detected the
  extraction is restricted to the loop's own time window so pre-loop and
  post-loop transitions cannot pollute the distributions;
* the **download speed** during ON and OFF periods and the per-cycle
  speed loss (Figures 1b and 11);
* the **5G measurement recovery delay** after an SCG failure — how long
  until the next measurement report contains any 5G cell (Figure 19c,
  the OP_V 30-second-multiple behaviour).

This module holds the result types; they are computed by the columnar
functions of :mod:`repro.core.columnar`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class CycleMetrics:
    """One ON-OFF cycle of a loop."""

    on_s: float
    off_s: float

    @property
    def cycle_s(self) -> float:
        return self.on_s + self.off_s

    @property
    def off_ratio(self) -> float:
        if self.cycle_s <= 0:
            return 0.0
        return self.off_s / self.cycle_s


@dataclass
class RunPerformance:
    """Speed statistics of one run split by 5G state."""

    on_speed_samples: list[float] = field(default_factory=list)
    off_speed_samples: list[float] = field(default_factory=list)
    cycle_speed_losses: list[float] = field(default_factory=list)

    @property
    def median_on_mbps(self) -> float:
        if not self.on_speed_samples:
            return 0.0
        return float(np.median(self.on_speed_samples))

    @property
    def median_off_mbps(self) -> float:
        if not self.off_speed_samples:
            return 0.0
        return float(np.median(self.off_speed_samples))

    @property
    def median_speed_loss_mbps(self) -> float:
        if not self.cycle_speed_losses:
            return max(self.median_on_mbps - self.median_off_mbps, 0.0)
        return float(np.median(self.cycle_speed_losses))
