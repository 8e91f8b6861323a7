"""User-level threads: the unit of work the runtime schedules."""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Optional

from repro.common.errors import ConfigError

_uthread_ids = itertools.count(1)

#: Residual work below this is rounding noise from event-time arithmetic —
#: treat the thread as finished rather than scheduling sub-cycle slices.
WORK_EPSILON = 1e-6


@dataclass(slots=True)
class UThread:
    """A user-level thread with a known service demand (in cycles).

    The event tier models a thread's computation as a cycle budget rather
    than instructions; ``remaining`` counts down as worker cores run it.
    """

    service_cycles: float
    name: str = ""
    kind: str = "request"
    arrival_time: float = 0.0
    uid: int = field(default_factory=lambda: next(_uthread_ids))
    remaining: float = field(init=False)
    start_time: Optional[float] = None
    completion_time: Optional[float] = None
    preemptions: int = 0
    steals: int = 0

    def __post_init__(self) -> None:
        if self.service_cycles <= 0:
            raise ConfigError(f"service_cycles must be positive, got {self.service_cycles}")
        self.remaining = float(self.service_cycles)
        if not self.name:
            self.name = f"uthread-{self.uid}"

    @property
    def finished(self) -> bool:
        return self.remaining <= WORK_EPSILON

    @property
    def response_time(self) -> float:
        """Sojourn time: arrival to completion."""
        if self.completion_time is None:
            raise ConfigError(f"{self.name} has not completed")
        return self.completion_time - self.arrival_time

    def run_for(self, cycles: float) -> float:
        """Consume up to ``cycles`` of service demand; return cycles used."""
        used = min(cycles, self.remaining)
        self.remaining -= used
        return used
