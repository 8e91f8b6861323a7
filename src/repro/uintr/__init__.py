"""Intel UIPI architectural model (§3): UPID, UITT, local APIC.

The cycle tier reads and writes UPIDs through its cache hierarchy (so the
coherence costs of §3.3 appear), and each simulated core owns a
:class:`LocalApic` that classifies, forwards and queues its interrupts.
"""

from repro.uintr.upid import UPID, UPID_BYTES
from repro.uintr.uitt import UITTEntry, UITT, UITT_ENTRY_BYTES
from repro.uintr.apic import LocalApic, PendingInterrupt, InterruptKind

__all__ = [
    "UPID",
    "UPID_BYTES",
    "UITTEntry",
    "UITT",
    "UITT_ENTRY_BYTES",
    "LocalApic",
    "PendingInterrupt",
    "InterruptKind",
]
