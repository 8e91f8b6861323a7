"""Open-loop load generation (§5.3: Caladan's load generator).

Open-loop means arrivals follow the configured process regardless of whether
the server keeps up — the property that exposes head-of-line blocking in
Figure 7.  Inter-arrival times are exponential (Poisson arrivals); the
packet generator variant used by Figure 8 also lives here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Optional

from repro.common.errors import ConfigError
from repro.common.rng import RngStreams
from repro.apps.rocksdb import BimodalServiceModel, RequestSpec


@dataclass(frozen=True)
class Arrival:
    """One generated arrival."""

    time: float
    spec: RequestSpec


class PoissonLoadGenerator:
    """Open-loop Poisson arrivals of requests drawn from a service model."""

    def __init__(
        self,
        rate_per_second: float,
        service_model: Optional[BimodalServiceModel] = None,
        rng: Optional[RngStreams] = None,
        clock_hz: float = 2e9,
    ) -> None:
        if rate_per_second <= 0:
            raise ConfigError(f"rate must be positive, got {rate_per_second}")
        self.rng = rng or RngStreams(seed=0)
        self.service_model = service_model or BimodalServiceModel(rng=self.rng)
        self.rate = rate_per_second
        #: Mean inter-arrival gap in cycles.
        self.mean_gap = clock_hz / rate_per_second

    def arrivals(self, duration_cycles: float, start: float = 0.0) -> Iterator[Arrival]:
        """Yield arrivals in ``[start, start + duration_cycles)``."""
        if duration_cycles <= 0:
            raise ConfigError("duration must be positive")
        now = start
        while True:
            now += self.rng.exponential("arrivals", self.mean_gap)
            if now >= start + duration_cycles:
                return
            yield Arrival(time=now, spec=self.service_model.sample())

    def schedule_into(
        self,
        sim,
        duration_cycles: float,
        on_arrival: Callable[[Arrival], None],
    ) -> int:
        """Pre-schedule all arrivals into ``sim``; returns the count."""
        count = 0
        for arrival in self.arrivals(duration_cycles, start=sim.now):
            sim.schedule_at(
                arrival.time, lambda a=arrival: on_arrival(a), name="arrival"
            )
            count += 1
        return count
