"""The event calendar: timestamped callbacks with stable FIFO tie-breaking."""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from typing import Any, Callable, Optional

from repro.common.errors import SimulationError


@dataclass(slots=True)
class Event:
    """A scheduled callback.

    The queue orders events by ``(time, sequence)`` so that two events
    scheduled for the same instant fire in scheduling order — a property
    several protocols rely on (e.g. "the UPID write is visible before the
    IPI arrives").
    """

    time: float
    sequence: int
    callback: Callable[[], Any]
    name: str = ""
    cancelled: bool = False
    #: Invoked once when the event transitions to cancelled; the owning
    #: queue uses it to track how much dead weight the heap is carrying.
    on_cancel: Optional[Callable[[], Any]] = None

    def cancel(self) -> None:
        """Mark the event dead; it will be skipped when popped."""
        if not self.cancelled:
            self.cancelled = True
            if self.on_cancel is not None:
                self.on_cancel()


class EventQueue:
    """A priority queue of :class:`Event` with lazy cancellation.

    Heap entries are ``(time, sequence, event)`` tuples, so ``heapq``
    compares them in C; the unique sequence means the event itself is never
    compared.  Cancelled events stay in the heap until they surface, so
    cancellation is O(1); ``len()`` counts only live (non-cancelled) events.
    When cancelled entries come to dominate (heavy timer re-arming), the
    queue compacts itself in place — an amortized sweep that keeps pop costs
    proportional to live events instead of total scheduled events.
    """

    #: Compact only past this many dead entries (small heaps never bother).
    COMPACT_MIN_CANCELLED = 64

    __slots__ = ("_heap", "_counter", "_cancelled")

    def __init__(self) -> None:
        #: The raw heap; the simulator main loop iterates it directly to
        #: avoid the peek/pop double scan on the hot path.
        self._heap: list[tuple[float, int, Event]] = []
        self._counter = itertools.count()
        #: Dead entries still buried in the heap (approximate upper bound:
        #: direct heap consumers may drop cancelled entries without
        #: decrementing; compaction resets it to the truth).
        self._cancelled = 0

    @property
    def heap(self) -> list[tuple[float, int, Event]]:
        """The underlying ``(time, sequence, event)`` heap (may hold
        cancelled events)."""
        return self._heap

    def __len__(self) -> int:
        return sum(1 for entry in self._heap if not entry[2].cancelled)

    def __bool__(self) -> bool:
        self._drop_cancelled_head()
        return bool(self._heap)

    def push(self, time: float, callback: Callable[[], Any], name: str = "") -> Event:
        if time != time:  # NaN check
            raise SimulationError("event time is NaN")
        sequence = next(self._counter)
        event = Event(time, sequence, callback, name, False, self._note_cancelled)
        heapq.heappush(self._heap, (time, sequence, event))
        return event

    def reserve(self, count: int) -> int:
        """Take the next ``count`` sequence numbers; return the first.

        They are the numbers ``count`` back-to-back :meth:`push` calls
        would have taken, so entries kept outside the heap (the
        simulator's feed) tie-break against heap events exactly as if
        they had been pushed.
        """
        first = next(self._counter)
        self._counter = itertools.count(first + count)
        return first

    def clear(self) -> None:
        """Drop every entry, live or cancelled, without cancelling it."""
        self._heap.clear()
        self._cancelled = 0

    def _note_cancelled(self) -> None:
        self._cancelled += 1
        if (
            self._cancelled > self.COMPACT_MIN_CANCELLED
            and self._cancelled * 2 >= len(self._heap)
        ):
            self.compact()

    def compact(self) -> None:
        """Drop all cancelled entries and restore the heap invariant.

        Rebuilds *in place*: the simulator main loop holds a direct
        reference to the heap list, so the list object must survive.
        """
        self._heap[:] = [entry for entry in self._heap if not entry[2].cancelled]
        heapq.heapify(self._heap)
        self._cancelled = 0

    def peek_time(self) -> Optional[float]:
        """Time of the next live event, or None if the queue is empty."""
        self._drop_cancelled_head()
        return self._heap[0][0] if self._heap else None

    def pop(self) -> Event:
        self._drop_cancelled_head()
        if not self._heap:
            raise SimulationError("pop from an empty event queue")
        return heapq.heappop(self._heap)[2]

    def _drop_cancelled_head(self) -> None:
        while self._heap and self._heap[0][2].cancelled:
            heapq.heappop(self._heap)
            if self._cancelled > 0:
                self._cancelled -= 1
