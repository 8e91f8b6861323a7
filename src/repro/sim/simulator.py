"""The simulation clock and main loop."""

from __future__ import annotations

import heapq
from typing import Any, Callable, Optional

from repro import obs as _obs
from repro.common.counters import GLOBAL_COUNTERS
from repro.common.errors import SimulationError
from repro.sim.event import Event, EventQueue


class Simulator:
    """A discrete-event simulator with a monotonically advancing clock.

    Time is a float; for the event tier we use cycles of the 2 GHz paper
    clock.  The loop pops the earliest event, advances the clock to it, and
    runs its callback.  Callbacks may schedule further events (never in the
    past).

    No engine flag reaches this loop: ``REPRO_FAST`` and ``REPRO_MACRO``
    select *cycle-tier* engines in :class:`repro.cpu.multicore.MultiCoreSystem`
    / :mod:`repro.cpu.macroop`, and have no effect on the event tier: there
    is no per-cycle interpreter here to shortcut.
    """

    __slots__ = ("_now", "_queue", "_running", "_horizon", "events_processed")

    def __init__(self, start_time: float = 0.0) -> None:
        self._now = float(start_time)
        self._queue = EventQueue()
        self._running = False
        self._horizon: Optional[float] = None
        self.events_processed = 0

    @property
    def now(self) -> float:
        return self._now

    @property
    def horizon(self) -> Optional[float]:
        """The ``until`` bound of the :meth:`run` in progress, else None.

        Set only while ``run(until=...)`` runs without ``max_events``: every
        event at or before it is guaranteed to fire in this call, so
        periodic machinery may batch its quiet periods up to it (see
        :class:`repro.runtime.aspen.AspenRuntime`).  None under
        :meth:`step`, ``max_events`` and unbounded runs.
        """
        return self._horizon

    def schedule_at(self, time: float, callback: Callable[[], Any], name: str = "") -> Event:
        """Schedule ``callback`` at absolute ``time``."""
        if time != time:  # NaN: silently passes any ordered comparison
            raise SimulationError(f"cannot schedule event {name!r} at NaN time")
        if time < self._now:
            raise SimulationError(
                f"cannot schedule event {name!r} at {time} before now={self._now}"
            )
        return self._queue.push(time, callback, name)

    def schedule(self, delay: float, callback: Callable[[], Any], name: str = "") -> Event:
        """Schedule ``callback`` after ``delay`` time units."""
        if delay != delay:  # NaN: silently passes the < 0 check below
            raise SimulationError(f"cannot schedule event {name!r} with NaN delay")
        if delay < 0:
            raise SimulationError(f"cannot schedule event {name!r} with negative delay {delay}")
        return self._queue.push(self._now + delay, callback, name)

    def pending(self) -> int:
        """Number of live events waiting in the calendar."""
        return len(self._queue)

    def peek_next_time(self) -> Optional[float]:
        return self._queue.peek_time()

    def step(self) -> bool:
        """Run the next live event; return False if the calendar was empty.

        Cancelled events are discarded without touching the clock or
        ``events_processed`` — only callbacks that actually fire count.
        """
        queue = self._queue
        heap = queue.heap
        while heap and heap[0][2].cancelled:
            heapq.heappop(heap)
            if queue._cancelled > 0:
                queue._cancelled -= 1
        if not heap:
            return False
        time, _, event = heapq.heappop(heap)
        g = GLOBAL_COUNTERS
        if time > self._now:
            g.events_fast_forwarded += 1
        g.events_fired += 1
        self._now = time
        self.events_processed += 1
        event.callback()
        return True

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> float:
        """Run until the calendar drains, ``until`` is reached, or ``max_events`` fire.

        Returns the simulation time when the loop stopped.  With ``until``
        set, the clock is advanced to ``until`` even if the calendar drained
        earlier, so back-to-back ``run`` calls observe contiguous time.

        The loop works on the heap directly: one cancelled-head scan per
        iteration instead of the peek/pop double scan, and cancelled events
        are dropped without counting toward ``events_processed`` or
        ``max_events``.

        Fast-forward structure: the clock jumps straight to the next live
        event's timestamp (counted in ``GLOBAL_COUNTERS`` when it actually
        moves time forward), and a batch of same-timestamp events is drained
        in one inner loop without re-checking the ``until`` bound per event.

        With ``until`` set and no ``max_events``, :attr:`horizon` reads
        ``until`` for the duration of the call.
        """
        if self._running:
            raise SimulationError("simulator loop is not reentrant")
        self._running = True
        if max_events is None:
            self._horizon = until
        fired = 0
        jumps = 0
        queue = self._queue
        heap = queue.heap
        heappop = heapq.heappop
        # Hoisted so the disabled case costs one check per `run`, not per event.
        record = _obs.TRACER.instant if _obs.enabled else None
        try:
            while True:
                if max_events is not None and fired >= max_events:
                    break
                while heap and heap[0][2].cancelled:
                    heappop(heap)
                    if queue._cancelled > 0:
                        queue._cancelled -= 1
                if not heap:
                    if until is not None and until > self._now:
                        self._now = until
                    break
                now = heap[0][0]
                if until is not None and now > until:
                    self._now = until
                    break
                if now > self._now:
                    jumps += 1
                event = heappop(heap)[2]
                self._now = now
                self.events_processed += 1
                fired += 1
                if record is not None:
                    record(now, event.name or "event", "sim.events", "sim")
                event.callback()
                # Batch-drain everything scheduled for this same instant
                # (callbacks may add more; heap order keeps FIFO ties).
                while heap and (max_events is None or fired < max_events):
                    entry = heap[0]
                    event = entry[2]
                    if event.cancelled:
                        heappop(heap)
                        if queue._cancelled > 0:
                            queue._cancelled -= 1
                        continue
                    if entry[0] != now:
                        break
                    heappop(heap)
                    self.events_processed += 1
                    fired += 1
                    if record is not None:
                        record(now, event.name or "event", "sim.events", "sim")
                    event.callback()
        finally:
            self._running = False
            self._horizon = None
            g = GLOBAL_COUNTERS
            g.events_fired += fired
            g.events_fast_forwarded += jumps
        return self._now

    def run_until(self, time: float) -> float:
        """Run to the absolute time bound ``time``; the clock lands exactly
        on it.  A bound in the past is an error (the clock never rewinds)."""
        if time < self._now:
            raise SimulationError(
                f"run_until({time}) is in the past (now={self._now})"
            )
        return self.run(until=time)
