"""OS timer interfaces: ``setitimer`` and ``nanosleep`` loops (§2, Figure 6).

Both give a thread a periodic tick, and both go through the kernel:

- :class:`OSIntervalTimer` (``setitimer``): the kernel's timer interrupt
  fires, and the tick reaches the thread as a *signal* — each tick costs
  the full signal path.
- :class:`NanosleepTimer`: the thread sleeps and is woken each period —
  two kernel transitions per tick (block + wake), cheaper than a signal but
  still microseconds of kernel time.

The xUI KB timer (§4.3) replaces both with a 105-cycle user-level delivery
and needs no timer thread at all.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.common.errors import ConfigError
from repro.notify.costs import CostModel
from repro.sim.account import CycleAccount
from repro.sim.event import Event
from repro.sim.simulator import Simulator


class _PeriodicTimer:
    """Shared machinery: fire ``callback`` every ``period``, charging
    ``per_event_cost`` to the owner's account first."""

    category = "os_timer"

    def __init__(
        self,
        sim: Simulator,
        account: CycleAccount,
        period: float,
        callback: Callable[[], None],
        per_event_cost: float,
        min_period: float,
    ) -> None:
        if period <= 0:
            raise ConfigError(f"timer period must be positive, got {period}")
        self.sim = sim
        self.account = account
        #: The OS cannot deliver ticks faster than its timer resolution.
        self.period = max(period, min_period)
        self.requested_period = period
        self.callback = callback
        self.per_event_cost = per_event_cost
        self.fires = 0
        self._armed = False
        self._next_event: Optional[Event] = None

    def start(self) -> None:
        if self._armed:
            return
        self._armed = True
        self._schedule_next()

    def stop(self) -> None:
        self._armed = False
        if self._next_event is not None:
            self._next_event.cancel()
            self._next_event = None

    def _schedule_next(self) -> None:
        self._next_event = self.sim.schedule(self.period, self._fire, name="os_timer")

    def _fire(self) -> None:
        if not self._armed:
            return
        self.fires += 1
        self.account.charge(self.category, self.per_event_cost)
        self._schedule_next()
        self.callback()


class OSIntervalTimer(_PeriodicTimer):
    """``setitimer()``: a signal per tick (§2 "Timers: expensive and complex")."""

    category = "setitimer"

    def __init__(
        self,
        sim: Simulator,
        account: CycleAccount,
        period: float,
        callback: Callable[[], None],
        costs: Optional[CostModel] = None,
    ) -> None:
        costs = costs or CostModel.paper_defaults()
        super().__init__(
            sim,
            account,
            period,
            callback,
            per_event_cost=costs.setitimer_event,
            min_period=costs.os_timer_min_period,
        )


class NanosleepTimer(_PeriodicTimer):
    """``nanosleep()`` in a loop: sleep/wake kernel transitions per tick."""

    category = "nanosleep"

    def __init__(
        self,
        sim: Simulator,
        account: CycleAccount,
        period: float,
        callback: Callable[[], None],
        costs: Optional[CostModel] = None,
    ) -> None:
        costs = costs or CostModel.paper_defaults()
        super().__init__(
            sim,
            account,
            period,
            callback,
            per_event_cost=costs.nanosleep_event,
            min_period=costs.os_timer_min_period,
        )
