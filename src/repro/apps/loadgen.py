"""Open-loop load generation (§5.3: Caladan's load generator).

Open-loop means arrivals follow the configured process regardless of whether
the server keeps up — the property that exposes head-of-line blocking in
Figure 7.  Inter-arrival times are exponential (Poisson arrivals); the
packet generator variant used by Figure 8 also lives here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, List, Optional

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

    def arrival_times(self, duration_cycles: float, start: float = 0.0) -> List[float]:
        """Arrival times in ``[start, start + duration_cycles)``, in order."""
        if duration_cycles <= 0:
            raise ConfigError("duration must be positive")
        return self.rng.exponential_times(
            "arrivals", self.mean_gap, start, start + duration_cycles
        )

    def arrivals(self, duration_cycles: float, start: float = 0.0) -> Iterator[Arrival]:
        """Yield arrivals in ``[start, start + duration_cycles)``."""
        for time in self.arrival_times(duration_cycles, start):
            yield Arrival(time=time, spec=self.service_model.sample())

    def schedule_into(
        self,
        sim,
        duration_cycles: float,
        on_arrival: Callable[[Arrival], None],
    ) -> int:
        """Feed all arrivals to ``sim`` as one sorted stream; returns the count.

        The service mix is sampled here, in arrival order: it interleaves
        two kinds of draws on one stream, so it cannot be batched exactly,
        and a later group sharing the stream must see it where this one
        left it.
        """
        times = self.arrival_times(duration_cycles, start=sim.now)
        sample = self.service_model.sample
        specs = [sample() for _ in times]

        def fire(index: int) -> None:
            on_arrival(Arrival(times[index], specs[index]))

        sim.feed(times, fire, name="arrival")
        return len(times)
