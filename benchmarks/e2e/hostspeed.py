"""Host speed, sampled while a workload runs.

The host is shared.  Other tenants slow every process on it by 10-30% for
minutes at a time, and process CPU time slows with wall time: it is
contention, not descheduling.  To compare runs made at different moments,
a ``SIGALRM`` handler runs a fixed pure-Python reference loop every
``PERIOD_S`` of wall time.  The simulator and the reference slow down
together, so a pass's time with the samples taken out, rescaled by the
reference's speed at that moment, stays put while the raw time drifts.
"""

from __future__ import annotations

import heapq
import signal
import time

perf_counter = time.perf_counter

#: Wall time between samples, and reference iterations per sample (~3 ms).
PERIOD_S = 0.05
SAMPLE_ITERATIONS = 4_000
#: Seconds per reference iteration on an unloaded host of the kind the
#: README baseline was measured on; normalized times are at this speed.
NOMINAL_S_PER_ITERATION = 6.3e-7


class _Item:
    __slots__ = ("when", "kind", "left")

    def __init__(self, when: int, kind: int, left: int) -> None:
        self.when = when
        self.kind = kind
        self.left = left


def reference(iterations: int) -> None:
    """Work shaped like an event loop: a heap of slotted objects, a dict
    of counters and integer arithmetic.  Fixed: it never imports the
    simulator, so no change to the simulator can change its speed."""
    heap = []
    table: dict = {}
    x = 12345
    for seq in range(64):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        heapq.heappush(heap, (x % 1000, seq, _Item(x % 1000, x % 61, x % 7)))
    for seq in range(64, 64 + iterations):
        when, _, item = heapq.heappop(heap)
        table[item.kind] = table.get(item.kind, 0) + item.left
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        item.when = when + 1 + x % 50
        item.left = (item.left + 1) % 7
        heapq.heappush(heap, (item.when, seq, item))


class HostSpeed:
    """Context manager that samples the reference loop on a wall-clock timer."""

    def __init__(self) -> None:
        #: Seconds spent in samples, and reference iterations they ran.
        self.seconds = 0.0
        self.iterations = 0

    def _sample(self, signum, frame) -> None:
        start = perf_counter()
        reference(SAMPLE_ITERATIONS)
        self.seconds += perf_counter() - start
        self.iterations += SAMPLE_ITERATIONS

    def __enter__(self) -> "HostSpeed":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)


def normalized(seconds: float, sample_seconds: float, sample_iterations: int) -> float:
    """``seconds`` (samples already taken out) at the nominal host speed."""
    if not sample_iterations:
        return seconds
    return seconds * NOMINAL_S_PER_ITERATION * sample_iterations / sample_seconds
