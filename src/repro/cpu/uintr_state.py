"""Per-core user-interrupt architectural state (registers/MSRs).

Collects the receiver-side architectural registers UIPI and xUI add to a
core: the user-interrupt flag (UIF), the user interrupt request register
(UIRR), the handler address register (UINT_Handler), the current thread's
UPID pointer, the UITT base, the safepoint-mode flag MSR (§4.4), and the
KB-timer MSRs (§4.3).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.common import bitfield
from repro.common.errors import ConfigError, ProtocolError


@dataclass(slots=True)
class KBTimerState:
    """The kernel-bypass timer's architectural state (§4.3).

    ``kb_config_MSR``: the kernel enables the timer and assigns its vector.
    ``set_timer(cycles, mode)``: user-level arm; one-shot mode interprets
    ``cycles`` as an absolute deadline, periodic mode as a period.
    ``kb_timer_state_MSR``: read by the kernel on context switch to save
    (deadline, vector, period, mode).
    """

    enabled: bool = False
    vector: int = 0
    armed: bool = False
    periodic: bool = False
    deadline: float = 0.0
    period: float = 0.0

    def arm_oneshot(self, deadline: float) -> None:
        if not self.enabled:
            raise ProtocolError("set_timer with KB timer disabled (enable_kb_timer first)")
        self.armed = True
        self.periodic = False
        self.deadline = deadline
        self.period = 0.0

    def arm_periodic(self, period: float, now: float) -> None:
        if not self.enabled:
            raise ProtocolError("set_timer with KB timer disabled (enable_kb_timer first)")
        if period <= 0:
            raise ConfigError(f"timer period must be positive, got {period}")
        self.armed = True
        self.periodic = True
        self.period = period
        self.deadline = now + period

    def disarm(self) -> None:
        self.armed = False

    def check_fire(self, now: float) -> bool:
        """True if the timer fires at ``now``; advances periodic deadlines."""
        if not (self.enabled and self.armed) or now < self.deadline:
            return False
        if self.periodic:
            # Advance past `now` so a delayed check does not burst-fire.
            while self.deadline <= now:
                self.deadline += self.period
        else:
            self.armed = False
        return True

    def next_fire_cycle(self) -> Optional[int]:
        """The earliest integer cycle at which :meth:`check_fire` returns
        True, or None when the timer cannot fire on its own.

        Used by the cycle-skipping engine: a quiescent core may jump the
        clock, but never past an armed timer's deadline.
        """
        if not (self.enabled and self.armed):
            return None
        return -int(-self.deadline // 1)  # ceil for float deadlines


@dataclass(slots=True)
class UserInterruptFile:
    """The per-core user-interrupt register file."""

    #: UIF — user interrupts deliverable when True (stui sets, clui clears).
    uif: bool = True
    #: UIRR — pending user vectors latched by notification processing.
    uirr: int = 0
    #: UINT_Handler — program index of the registered user handler.
    handler_index: Optional[int] = None
    #: Current thread's UPID address (notification processing reads it).
    upid_addr: Optional[int] = None
    #: UITT base address for senduipi lookups.
    uitt_base: Optional[int] = None
    #: Safepoint-mode flag MSR (§4.4): deliver only at safepoint instructions.
    safepoint_mode: bool = False
    #: KB-timer MSRs (§4.3).
    kb_timer: KBTimerState = field(default_factory=KBTimerState)
    #: Return state consumed by uiret (shadow of the stack pushes).
    ui_return_pc: Optional[int] = None
    #: True between delivery and uiret commit.
    in_handler: bool = False

    def latch_uirr(self, pir: int) -> None:
        self.uirr |= pir

    def take_uirr_vector(self) -> int:
        """Pop the lowest pending vector from UIRR (delivery microcode)."""
        vector = bitfield.lowest_set_bit(self.uirr)
        if vector >= 0:
            self.uirr = bitfield.clear_bit(self.uirr, vector)
        return vector
