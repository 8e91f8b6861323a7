"""Per-core cycle accounting for the event tier.

The efficiency results (Figures 6, 8, 9) are statements about where a core's
cycles go: packet processing vs. polling vs. free, timer work vs. available,
etc.  A :class:`CycleAccount` accumulates busy cycles by category; whatever
is not accounted is *free* — cycles available for other work or power
savings (§6.2.2).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from repro.common.errors import ConfigError


@dataclass
class CycleAccount:
    """Busy-cycle accumulator for one core."""

    name: str = ""
    busy: Dict[str, float] = field(default_factory=dict)
    _window_start: float = 0.0

    def charge(self, category: str, cycles: float) -> None:
        if cycles < 0:
            raise ConfigError(f"cannot charge negative cycles ({cycles}) to {category!r}")
        self.busy[category] = self.busy.get(category, 0.0) + cycles

    def charge_repeated(self, category: str, cycles: float, times: int) -> None:
        """``times`` successive :meth:`charge` calls.

        The additions happen one by one, so the float total is exactly what
        the single charges would give (``times * cycles`` may round
        differently).
        """
        if cycles < 0:
            raise ConfigError(f"cannot charge negative cycles ({cycles}) to {category!r}")
        if times <= 0:
            return
        total = self.busy.get(category, 0.0)
        for _ in range(times):
            total += cycles
        self.busy[category] = total

    def total_busy(self) -> float:
        return sum(self.busy.values())

    def busy_fraction(self, elapsed: float) -> float:
        if elapsed <= 0:
            raise ConfigError("elapsed window must be positive")
        return min(1.0, self.total_busy() / elapsed)

    def free_fraction(self, elapsed: float) -> float:
        return 1.0 - self.busy_fraction(elapsed)

    def category_fraction(self, category: str, elapsed: float) -> float:
        if elapsed <= 0:
            raise ConfigError("elapsed window must be positive")
        return self.busy.get(category, 0.0) / elapsed

    def reset(self) -> None:
        self.busy.clear()
