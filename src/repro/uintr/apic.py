"""Local APIC (§3.3 steps 2-3) with the xUI forwarding extension (§4.5).

The :class:`LocalApic` accepts interrupt messages (conventional vectors) and
queues them as :class:`PendingInterrupt` records for the core.  The xUI
interrupt-forwarding extension (§4.5) adds the 256-bit ``forwarding_enabled``
and ``forwarded_active`` registers: a device interrupt arriving on a vector
whose ``forwarding_enabled`` bit is set becomes a *user* interrupt — on the
fast path (bit also set in ``forwarded_active``) it is delivered directly to
the running thread; otherwise the APIC reports a slow-path interrupt for the
kernel to post into the DUPID.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Deque, Dict, Optional

from repro import obs as _obs
from repro.common import bitfield
from repro.common.errors import ConfigError, SimulationError


class InterruptKind(Enum):
    """How an interrupt reached the core — determines the microcode path.

    UIPI notifications need notification processing (UPID access) before
    delivery; KB-timer and forwarded-device interrupts go straight to
    delivery (§4.3, §4.5).  KERNEL interrupts take the conventional path.
    """

    UIPI = "uipi"
    TIMER = "timer"
    DEVICE = "device"
    KERNEL = "kernel"


@dataclass(frozen=True, slots=True)
class PendingInterrupt:
    """An interrupt accepted by the local APIC, waiting for the core."""

    vector: int
    kind: InterruptKind
    arrival_time: float
    user_vector: Optional[int] = None


class LocalApic:
    """One core's local APIC with the xUI forwarding extension."""

    __slots__ = (
        "apic_id",
        "uipi_notification_vector",
        "_pending",
        "forwarding_enabled",
        "forwarded_active",
        "forward_user_vector",
        "slow_path_queue",
        "kernel_queue",
        "accepted",
        "forwarded_fast",
        "forwarded_slow",
        "fault_interceptor",
        "faults_dropped",
        "user_queued",
    )

    def __init__(self, apic_id: int, uipi_notification_vector: int = 0xEC) -> None:
        self.apic_id = apic_id
        #: UINV — the conventional vector that marks UIPI notifications.
        self.uipi_notification_vector = uipi_notification_vector
        self._pending: Deque[PendingInterrupt] = deque()
        # xUI interrupt forwarding (§4.5): 256-bit registers, one bit/vector.
        self.forwarding_enabled = 0
        self.forwarded_active = 0
        #: vector -> user vector assigned at forwarding registration.
        self.forward_user_vector: Dict[int, int] = {}
        #: Slow-path forwarded interrupts the kernel must post to a DUPID.
        self.slow_path_queue: Deque[PendingInterrupt] = deque()
        #: Conventional (non-user) interrupts, handled by the kernel.
        self.kernel_queue: Deque[PendingInterrupt] = deque()
        self.accepted = 0
        self.forwarded_fast = 0
        self.forwarded_slow = 0
        #: Optional fault-injection hook (see ``repro.faults.injector``):
        #: called as ``interceptor(vector, time, kind)`` before a message is
        #: classified; returns None (pass), "drop", "duplicate", or "defer"
        #: (the interceptor took ownership and will redeliver via
        #: :meth:`accept_now`).
        self.fault_interceptor: Optional[Callable[[int, float, Optional[InterruptKind]], Optional[str]]] = None
        #: Messages the interceptor explicitly dropped (never queued).
        self.faults_dropped = 0
        #: User interrupts ever queued for the core (``_pending`` appends) —
        #: the basis of the exactly-once delivery accounting invariant.
        self.user_queued = 0

    # -- kernel-facing configuration ---------------------------------------
    def enable_forwarding(self, vector: int, user_vector: int) -> None:
        """Map conventional ``vector`` to ``user_vector`` for forwarding."""
        if not 0 <= vector < 256:
            raise ConfigError(f"vector must be 8 bits, got {vector}")
        self.forwarding_enabled = bitfield.set_bit(self.forwarding_enabled, vector)
        self.forward_user_vector[vector] = user_vector

    def set_active_vectors(self, active_mask: int) -> None:
        """Write ``forwarded_active`` — done by the kernel on context switch
        with the resuming thread's 256-bit vector mask (§4.5)."""
        self.forwarded_active = active_mask

    # -- message acceptance --------------------------------------------------
    def _queue_user(self, pending: PendingInterrupt) -> None:
        """Queue a user interrupt for the core (accounted for invariants)."""
        self.user_queued += 1
        self._pending.append(pending)

    def accept(self, vector: int, time: float, kind: Optional[InterruptKind] = None) -> None:
        """Accept an interrupt message arriving on ``vector`` at ``time``.

        ``kind`` is the physical source; when omitted, the APIC classifies
        by vector: the UINV vector means a UIPI notification, anything else
        is a device/kernel interrupt subject to forwarding.

        A registered ``fault_interceptor`` sees the message first and may
        drop it, duplicate it, or defer it (redelivering via
        :meth:`accept_now`, which bypasses interception).
        """
        interceptor = self.fault_interceptor
        if interceptor is not None:
            action = interceptor(vector, time, kind)
            if action == "drop":
                self.faults_dropped += 1
                return
            if action == "defer":
                return
            if action == "duplicate":
                self.accept_now(vector, time, kind)
        self.accept_now(vector, time, kind)

    def accept_now(self, vector: int, time: float, kind: Optional[InterruptKind] = None) -> None:
        """:meth:`accept` without fault interception (redelivery path)."""
        self.accepted += 1
        if _obs.enabled:
            _obs.TRACER.instant(
                time, "apic.accept", f"apic{self.apic_id}", _obs.CAT_IRQ,
                vector=vector, kind=kind.value if kind is not None else None,
            )
        if kind is None:
            kind = (
                InterruptKind.UIPI
                if vector == self.uipi_notification_vector
                else InterruptKind.DEVICE
            )
        if kind is InterruptKind.UIPI:
            self._queue_user(PendingInterrupt(vector, kind, time))
            return
        if kind in (InterruptKind.DEVICE, InterruptKind.TIMER) and bitfield.test_bit(
            self.forwarding_enabled, vector
        ):
            user_vector = self.forward_user_vector.get(vector, vector & 0x3F)
            if bitfield.test_bit(self.forwarded_active, vector):
                # Fast path: straight to the running user thread.
                self.forwarded_fast += 1
                self._queue_user(
                    PendingInterrupt(vector, InterruptKind.DEVICE, time, user_vector=user_vector)
                )
            else:
                # Slow path: the destination thread is not running; hand the
                # interrupt to the kernel to post into the DUPID.
                self.forwarded_slow += 1
                self.slow_path_queue.append(
                    PendingInterrupt(vector, InterruptKind.DEVICE, time, user_vector=user_vector)
                )
            return
        # Not a user interrupt: conventional delivery to the kernel.
        self.kernel_queue.append(PendingInterrupt(vector, kind, time))

    def raise_timer(self, vector: int, time: float) -> None:
        """The KB-timer fires: queue a user timer interrupt (§4.3)."""
        self._queue_user(PendingInterrupt(vector, InterruptKind.TIMER, time, user_vector=vector))

    def counters_as_dict(self) -> Dict[str, int]:
        """The APIC's telemetry counters, for the metrics registry."""
        return {
            "accepted": self.accepted,
            "forwarded_fast": self.forwarded_fast,
            "forwarded_slow": self.forwarded_slow,
            "faults_dropped": self.faults_dropped,
            "user_queued": self.user_queued,
        }

    # -- core-facing dequeue -------------------------------------------------
    def has_pending(self) -> bool:
        return bool(self._pending)

    def peek(self) -> Optional[PendingInterrupt]:
        return self._pending[0] if self._pending else None

    def take(self) -> PendingInterrupt:
        if not self._pending:
            raise SimulationError("no pending interrupt to take")
        return self._pending.popleft()

