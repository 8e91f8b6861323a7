"""xUI — the paper's four extensions, as a feature-level façade (§4).

The implementations live where the hardware would put them; this package
names where each one is:

- **Tracked interrupts** (§4.2): :class:`repro.cpu.delivery.TrackedStrategy`
  (front-end injection, ROB source bits, re-injection after squash).
- **Hardware safepoints** (§4.4): the safepoint instruction prefix
  (:func:`repro.cpu.isa.safepoint`, ``Instruction.with_safepoint``), the
  safepoint-mode flag, and :func:`enable_safepoint_mode`.
- **KB timer** (§4.3): :class:`repro.cpu.uintr_state.KBTimerState`, the
  ``set_timer``/``clear_timer`` instructions, and
  :meth:`repro.cpu.multicore.MultiCoreSystem.enable_kb_timer`.
- **Interrupt forwarding** (§4.5): the local APIC's ``forwarding_enabled``
  / ``forwarded_active`` registers (:class:`repro.uintr.apic.LocalApic`),
  registered through
  :meth:`repro.cpu.multicore.MultiCoreSystem.enable_forwarding`.
"""

from repro.cpu.delivery import TrackedStrategy
from repro.cpu.uintr_state import KBTimerState
from repro.xui.features import enable_safepoint_mode

__all__ = [
    "TrackedStrategy",
    "KBTimerState",
    "enable_safepoint_mode",
]
