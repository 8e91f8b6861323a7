"""The OS timer interfaces of the event tier (§2, Figure 6).

Figure 6 compares a dedicated timer core against per-thread OS timers:
``setitimer`` (a signal per tick) and a ``nanosleep`` loop (block and wake
per tick).  This package models those two timers, with costs from
:class:`repro.notify.CostModel`.
"""

from repro.kernel.timers import OSIntervalTimer, NanosleepTimer

__all__ = [
    "OSIntervalTimer",
    "NanosleepTimer",
]
