"""Discrete-event simulation kernel (the event tier's substrate).

The end-to-end experiments (Figures 6-9) run on this kernel: a calendar of
timestamped events whose callbacks model threads, NICs, accelerators and
timers.  Timestamps are in *cycles* of the paper's 2 GHz clock unless a
component says otherwise.
"""

from repro.sim.event import Event, EventQueue
from repro.sim.simulator import Simulator
from repro.sim.trace import TraceRecorder, TraceEvent

__all__ = [
    "Event",
    "EventQueue",
    "Simulator",
    "TraceRecorder",
    "TraceEvent",
]
