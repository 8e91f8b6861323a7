"""The simulation clock and main loop."""

from __future__ import annotations

import heapq
from typing import Any, Callable, List, Optional, Sequence, Tuple

from repro import obs as _obs
from repro.common.counters import GLOBAL_COUNTERS
from repro.common.errors import SimulationError
from repro.sim.event import Event, EventQueue

#: One feed entry: ``(time, sequence, fire, index, name)``; the loop calls
#: ``fire(index)``.  Sequences are unique across heap and feed, so tuple
#: comparison with a heap entry never looks past the sequence.
FeedEntry = Tuple[float, int, Callable[[int], Any], int, str]


class Simulator:
    """A discrete-event simulator with a monotonically advancing clock.

    Time is a float; for the event tier we use cycles of the 2 GHz paper
    clock.  The loop pops the earliest event, advances the clock to it, and
    runs its callback.  Callbacks may schedule further events (never in the
    past).

    Events come from two sources merged by ``(time, sequence)``: the
    :class:`EventQueue` heap, for events scheduled one at a time, and the
    *feed*, a sorted list of entries handed over in bulk by :meth:`feed`
    (pre-generated arrivals).  Feed entries never enter the heap, so they
    cost no ``Event``, no closure and no heap push, and the heap holds only
    the few events in flight.

    No engine flag reaches this loop: ``REPRO_FAST`` and ``REPRO_MACRO``
    select *cycle-tier* engines in :class:`repro.cpu.multicore.MultiCoreSystem`
    / :mod:`repro.cpu.macroop`, and have no effect on the event tier: there
    is no per-cycle interpreter here to shortcut.
    """

    __slots__ = (
        "_now", "_queue", "_running", "_horizon", "_feed", "_feed_pos",
        "events_processed",
    )

    def __init__(self, start_time: float = 0.0) -> None:
        self._now = float(start_time)
        self._queue = EventQueue()
        self._running = False
        self._horizon: Optional[float] = None
        #: Feed entries in ``(time, sequence)`` order; ``_feed_pos`` is the
        #: next one to fire.  The loop advances it before each fire, so
        #: :meth:`peek_next_time` sees the live position during a run.
        self._feed: List[FeedEntry] = []
        self._feed_pos = 0
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

    def feed(
        self, times: Sequence[float], fire: Callable[[int], Any], name: str = ""
    ) -> None:
        """Fire ``fire(i)`` at ``times[i]`` for every ``i``, without heap events.

        Each entry takes one sequence number from the event queue, in the
        order given, exactly as ``schedule_at(times[i], ...)`` calls in that
        order would: ties with heap events, and among the entries, resolve
        as they would have.  ``times`` need not be sorted.  A fired entry
        counts like an event (``events_processed``, ``max_events``, the
        global counters) and is traced under ``name``.
        """
        now = self._now
        for time in times:
            if time != time:  # NaN: silently passes any ordered comparison
                raise SimulationError(f"cannot feed {name!r} a NaN time")
            if time < now:
                raise SimulationError(
                    f"cannot feed {name!r} time {time} before now={now}"
                )
        if len(times) == 0:
            return
        first = self._queue.reserve(len(times))
        entries = [
            (time, first + index, fire, index, name) for index, time in enumerate(times)
        ]
        # Timsort merges the pending run and the new (usually sorted) run
        # in linear time.  In place: a running loop holds the list.
        feed = self._feed
        feed[:] = sorted(feed[self._feed_pos:] + entries)
        self._feed_pos = 0

    def clear(self) -> None:
        """Drop every pending event and feed entry; the clock keeps its time.

        Pending events and feed entries hold callbacks bound to their
        owners, and the owners hold this simulator: clearing them when a
        run is finished lets reference counting free the whole model.
        """
        self._queue.clear()
        self._feed.clear()
        self._feed_pos = 0

    def pending(self) -> int:
        """Number of live events waiting in the calendar and the feed."""
        return len(self._queue) + len(self._feed) - self._feed_pos

    def peek_next_time(self) -> Optional[float]:
        head = self._queue.peek_time()
        pos = self._feed_pos
        if pos < len(self._feed):
            time = self._feed[pos][0]
            if head is None or time < head:
                return time
        return head

    def step(self) -> bool:
        """Run the next live event; return False if the calendar was empty.

        Cancelled events are discarded without touching the clock or
        ``events_processed`` — only callbacks that actually fire count.
        """
        fired = self.events_processed
        self.run(max_events=1)
        return self.events_processed > fired

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> float:
        """Run until the calendar drains, ``until`` is reached, or ``max_events`` fire.

        Returns the simulation time when the loop stopped.  With ``until``
        set, the clock is advanced to ``until`` even if the calendar drained
        earlier, so back-to-back ``run`` calls observe contiguous time.

        Each iteration drops cancelled heap heads (they count toward
        neither ``events_processed`` nor ``max_events``), then fires the
        earlier of the heap head and the next feed entry by
        ``(time, sequence)``: one tuple comparison, since sequence numbers
        are unique across both.  The feed position is stored before each
        feed entry fires, so callbacks that call :meth:`peek_next_time`
        see the live position.

        Fast-forward structure: the clock jumps straight to the next live
        event's timestamp, counted in ``GLOBAL_COUNTERS`` when it actually
        moves time forward.

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
        feed = self._feed
        heappop = heapq.heappop
        # Hoisted so the disabled case costs one check per `run`, not per event.
        record = _obs.TRACER.instant if _obs.enabled else None
        try:
            while max_events is None or fired < max_events:
                while heap and heap[0][2].cancelled:
                    heappop(heap)
                    if queue._cancelled > 0:
                        queue._cancelled -= 1
                pos = self._feed_pos
                if pos < len(feed) and (not heap or feed[pos] < heap[0]):
                    time, _, fire, index, name = feed[pos]
                    if until is not None and time > until:
                        self._now = until
                        break
                    self._feed_pos = pos + 1
                    callback = None
                elif heap:
                    time = heap[0][0]
                    if until is not None and time > until:
                        self._now = until
                        break
                    event = heappop(heap)[2]
                    callback = event.callback
                    name = event.name
                else:
                    if until is not None and until > self._now:
                        self._now = until
                    break
                if time > self._now:
                    jumps += 1
                self._now = time
                self.events_processed += 1
                fired += 1
                if record is not None:
                    record(time, name or "event", "sim.events", "sim")
                if callback is None:
                    fire(index)
                else:
                    callback()
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
