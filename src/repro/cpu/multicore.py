"""Multi-core cycle simulation: cores in lockstep plus the APIC bus.

Cores share a :class:`SharedMemory` (so UPID traffic and polled flags incur
coherence costs) and an inter-APIC message timeline with the calibrated IPI
wire latency.  The system also provides the kernel-ish setup the cycle-tier
experiments need: allocating UPIDs/UITTs (``register_handler`` /
``register_sender``, §3.2), enabling KB timers (§4.3), and registering
device-interrupt forwarding (§4.5).
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable, List, Optional, Sequence, Tuple

from repro import obs as _obs
from repro.common.counters import (
    GLOBAL_COUNTERS,
    fast_engine_enabled,
    macro_engine_enabled,
)
from repro.common.errors import ConfigError, SimulationError
from repro.cpu.config import SystemConfig
from repro.cpu.core import FAR_FUTURE, NA_BACKOFF_CAP, Core
from repro.cpu.macroop import MacroController
from repro.cpu.cache import SharedMemory
from repro.cpu.delivery import DeliveryStrategy
from repro.cpu.program import Program
from repro.sim.trace import TraceRecorder
from repro.uintr.apic import InterruptKind, LocalApic
from repro.uintr.uitt import UITT
from repro.uintr.upid import UPID, UPID_BYTES

#: Memory region where the "kernel" allocates UPIDs and UITTs.
KERNEL_STRUCTS_BASE = 0x100_0000
#: Default stack base per core (stacks grow down, 64 KiB apart).
STACK_BASE = 0x800_0000
#: Conventional vector used for UIPI notifications (UINV).
UIPI_NOTIFICATION_VECTOR = 0xEC


class MultiCoreSystem:
    """A set of cores stepped in lockstep on a shared global cycle."""

    def __init__(
        self,
        programs: Sequence[Program],
        strategies: Sequence[DeliveryStrategy],
        config: Optional[SystemConfig] = None,
        trace: bool = False,
        trace_max_events: Optional[int] = None,
    ) -> None:
        if len(programs) != len(strategies):
            raise ConfigError("one strategy per program/core is required")
        if not programs:
            raise ConfigError("at least one core is required")
        self.config = config or SystemConfig.sapphire_rapids_like()
        self.cycle = 0
        self.shared = SharedMemory()
        self.trace = TraceRecorder(enabled=trace, max_events=trace_max_events)
        self._timeline: List[Tuple[int, int, Callable[[], None]]] = []
        self._timeline_seq = itertools.count()
        self._alloc_ptr = KERNEL_STRUCTS_BASE
        #: The macro tier's controller (``repro.cpu.macroop``), kept across
        #: runs while ``REPRO_MACRO`` stays on.
        self._macro: Optional[MacroController] = None

        self.apics: List[LocalApic] = []
        self.cores: List[Core] = []
        for core_id, (program, strategy) in enumerate(zip(programs, strategies)):
            apic = LocalApic(core_id, uipi_notification_vector=UIPI_NOTIFICATION_VECTOR)
            self.apics.append(apic)
            core = Core(
                core_id=core_id,
                program=program,
                config=self.config,
                shared_memory=self.shared,
                apic=apic,
                strategy=strategy,
                send_ipi=self._send_ipi,
                trace=self.trace,
            )
            core.arch_regs[15] = STACK_BASE + core_id * 0x10000  # stack pointer
            self.cores.append(core)

    # ------------------------------------------------------------------
    # Timeline (APIC bus and device events)
    # ------------------------------------------------------------------

    def schedule(self, delay: int, callback: Callable[[], None]) -> None:
        """Schedule ``callback`` on the inter-core timeline."""
        if delay != delay:  # NaN compares unequal to itself
            raise SimulationError("cannot schedule with a NaN delay")
        if delay < 0:
            raise SimulationError("cannot schedule into the past")
        heapq.heappush(
            self._timeline, (self.cycle + delay, next(self._timeline_seq), callback)
        )

    def _send_ipi(self, dest_apic_id: int, vector: int) -> None:
        if not 0 <= dest_apic_id < len(self.apics):
            raise SimulationError(f"IPI to unknown APIC {dest_apic_id}")
        apic = self.apics[dest_apic_id]

        def deliver() -> None:
            apic.accept(vector, self.cycle, kind=None)
            self.trace.record(self.cycle, "ipi_arrival", core=dest_apic_id, vector=vector)

        wire_latency = self.config.timing.ipi_wire_latency
        if _obs.enabled:
            _obs.TRACER.complete(
                self.cycle, wire_latency, "ipi.wire", f"apic{dest_apic_id}",
                _obs.CAT_IRQ, vector=vector,
            )
        self.schedule(wire_latency, deliver)

    def raise_device_interrupt(self, core_id: int, vector: int, delay: int = 0) -> None:
        """A device raises ``vector`` at ``core_id`` after ``delay`` cycles."""
        apic = self.apics[core_id]

        def deliver() -> None:
            apic.accept(vector, self.cycle, kind=InterruptKind.DEVICE)
            self.trace.record(self.cycle, "device_intr", core=core_id, vector=vector)

        self.schedule(delay, deliver)

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------

    def step(self) -> None:
        while self._timeline and self._timeline[0][0] <= self.cycle:
            heapq.heappop(self._timeline)[2]()
        for core in self.cores:
            core.step(self.cycle)
        self.cycle += 1

    def run(self, max_cycles: int, until_halted: Optional[Sequence[int]] = None) -> int:
        """Step up to ``max_cycles``; stop early when the given cores halt.

        Returns the number of cycles advanced (stepped or skipped).

        This is the cycle tier's hottest loop; :meth:`step` is inlined and
        the per-cycle lookups hoisted.  ``self.cycle`` stays current while
        timeline callbacks run (they schedule relative to it).

        With the fast engine enabled (default; ``REPRO_FAST=0`` opts out)
        the loop skips cores whose pipelines are provably quiescent
        (``Core.next_activity_cycle``): an idle core is accounted without
        stepping while active cores keep stepping, and when *every* core is
        quiescent the global clock jumps to the earliest of the cores' next
        activity and the timeline head.  Any timeline event (IPIs, device
        interrupts) invalidates every core's cached horizon, since external
        wakeups arrive through the timeline.  A core the macro tier parked
        (``REPRO_MACRO``) is a sleeper until its landing; it lands there,
        before any timeline event fires, and where the run stops.  Results
        are byte-identical to the naive stepper.
        """
        watch = (
            [self.cores[i] for i in until_halted] if until_halted is not None else None
        )
        start = self.cycle
        cores = self.cores
        timeline = self._timeline
        heappop = heapq.heappop
        stepped = 0
        skipped0 = sum(core.engine_cycles_skipped for core in cores)
        hits0 = sum(core.uop_cache.hits for core in cores)
        misses0 = sum(core.uop_cache.misses for core in cores)
        if not fast_engine_enabled():
            for _ in range(max_cycles):
                if watch is not None and all(core.halted for core in watch):
                    break
                cycle = self.cycle
                while timeline and timeline[0][0] <= cycle:
                    heappop(timeline)[2]()
                for core in cores:
                    if not core.halted:
                        core.step(cycle)
                        stepped += 1
                self.cycle = cycle + 1
        else:
            end = start + max_cycles
            mac = None
            if macro_engine_enabled():
                mac = self._macro
                if mac is None:
                    mac = self._macro = MacroController(cores, timeline)
            else:
                self._macro = None
            for i, core in enumerate(cores):
                core._next_activity = 0  # conservative: step the first cycle
                core._macro = mac.recorders[i] if mac is not None else None
            # The watched cores, and how many of them are still live (-1:
            # no watch).  A core halts only in its own step, so the loop
            # counts down there instead of scanning the watch each cycle.
            watched = frozenset(watch or ())
            live_watched = -1 if watch is None else sum(not core.halted for core in watched)
            cycle = start
            # The earliest landing of a core the macro tier parked (see
            # ``MacroController.land``), FAR_FUTURE while none is parked.
            landing = FAR_FUTURE
            if live_watched != 0:
                while cycle < end:
                    if cycle >= landing:
                        stepped += mac.land(cycle)
                        landing = mac.landing
                    if timeline and timeline[0][0] <= cycle:
                        if landing < FAR_FUTURE:
                            # An event may reach a parked core: land them
                            # all before it fires.
                            stepped += mac.land(cycle, every=True)
                            landing = FAR_FUTURE
                        while timeline and timeline[0][0] <= cycle:
                            heappop(timeline)[2]()
                        # External wakeups (IPIs, device interrupts) arrive
                        # through the timeline: re-evaluate every core.
                        for core in cores:
                            core._next_activity = 0
                    recheck = None
                    if mac is not None and mac.busy:
                        # One boundary for every core: a replay covers
                        # [cycle, cycle + jump) for every core of its window
                        # in O(1), and every other live core sleeps through
                        # it (the controller opens their idle anchors).  A
                        # window of one memory-free core may instead park
                        # it, a sleeper until its landing cycle.
                        jump = mac.on_boundary(cycle, end)
                        landing = mac.landing
                        if jump:
                            cycle += jump
                            self.cycle = cycle
                            continue
                        recheck = mac.recheck
                    min_next = FAR_FUTURE
                    for core in cores:
                        if core.halted:
                            continue
                        na = core._next_activity
                        if na > cycle:
                            # Quiescent: accounted lazily via the idle anchor
                            # (a per-cycle ``note_skipped(1)`` call here would
                            # dominate mixed dense/idle runs).
                            if core._idle_anchor < 0:
                                core._idle_anchor = cycle
                            if na < min_next:
                                min_next = na
                            continue
                        anchor = core._idle_anchor
                        if anchor >= 0:
                            core._idle_anchor = -1
                            core.note_skipped(cycle - anchor)
                        if core is recheck:
                            # The cold cores before it have stepped: a
                            # window may open here if they sleep again.
                            mac.on_recheck(cycle)
                        core.step(cycle)
                        stepped += 1
                        if core.halted:
                            if core in watched:
                                live_watched -= 1
                            continue
                        backoff = core._na_backoff
                        if backoff > 0:
                            # Busy streak: step on without re-scanning the
                            # horizon (always safe, just conservative).
                            core._na_backoff = backoff - 1
                            na = cycle + 1
                        else:
                            na = core.next_activity_cycle()
                            if na > cycle + 1:
                                core._na_streak = 0
                            else:
                                streak = core._na_streak
                                if streak < 4 * NA_BACKOFF_CAP:
                                    streak += 1
                                    core._na_streak = streak
                                core._na_backoff = streak >> 2
                        core._next_activity = na
                        if na < min_next:
                            min_next = na
                    self.cycle = cycle + 1
                    if live_watched == 0:
                        break
                    if min_next > cycle + 1:
                        # Everything is quiet: jump to the earliest activity,
                        # capped by the window end and the timeline head.
                        target = min_next if min_next < end else end
                        if timeline:
                            head_time = timeline[0][0]
                            if head_time < target:
                                target = head_time
                        if target > cycle + 1:
                            for core in cores:
                                if not core.halted and core._idle_anchor < 0:
                                    core._idle_anchor = cycle + 1
                            self.cycle = target
                            cycle = target
                            continue
                    cycle += 1
            # Land the parked cores and flush outstanding idle windows: the
            # naive stepper steps every non-halted core through the last
            # executed iteration.
            stop = self.cycle
            if landing < FAR_FUTURE:
                stepped += mac.land(stop, every=True)
            for core in cores:
                anchor = core._idle_anchor
                if anchor >= 0:
                    core._idle_anchor = -1
                    if stop > anchor:
                        core.note_skipped(stop - anchor)
        g = GLOBAL_COUNTERS
        g.cycles_stepped += stepped
        g.cycles_skipped += sum(core.engine_cycles_skipped for core in cores) - skipped0
        g.uop_cache_hits += sum(core.uop_cache.hits for core in cores) - hits0
        g.uop_cache_misses += sum(core.uop_cache.misses for core in cores) - misses0
        return self.cycle - start

    # ------------------------------------------------------------------
    # Kernel-ish setup (the §3.2 system calls)
    # ------------------------------------------------------------------

    def _allocate(self, size: int, align: int = 64) -> int:
        self._alloc_ptr = (self._alloc_ptr + align - 1) & ~(align - 1)
        addr = self._alloc_ptr
        self._alloc_ptr += size
        return addr

    def register_handler(self, core_id: int, handler_label: Optional[str] = None) -> int:
        """``register_handler(...)``: allocate a UPID for the thread on
        ``core_id`` and point UINT_Handler at its handler.  Returns the UPID
        address."""
        core = self.cores[core_id]
        program = core.program
        if handler_label is not None:
            handler_index = program.labels[handler_label]
        else:
            handler_index = program.handler_index
        if handler_index is None:
            raise ConfigError(f"core {core_id} program has no interrupt handler")
        upid_addr = self._allocate(UPID_BYTES)
        upid = UPID(self.shared, upid_addr)
        upid.clear()
        upid.set_notification_vector(UIPI_NOTIFICATION_VECTOR)
        upid.set_notification_destination(core_id)
        core.uintr.upid_addr = upid_addr
        core.uintr.handler_index = handler_index
        return upid_addr

    def register_sender(self, sender_core_id: int, receiver_upid_addr: int, user_vector: int) -> int:
        """``register_sender(...)``: add a UITT entry on the sender mapping a
        ``senduipi`` index to the receiver's UPID.  Returns the UITT index."""
        core = self.cores[sender_core_id]
        if core.uintr.uitt_base is None:
            core.uintr.uitt_base = self._allocate(64 * 16)
            core.uitt = UITT(self.shared, core.uintr.uitt_base)
        return core.uitt.append(receiver_upid_addr, user_vector)

    def connect_uipi(
        self, sender_core_id: int, receiver_core_id: int, user_vector: int = 1
    ) -> int:
        """Full UIPI route setup; returns the sender's UITT index."""
        upid_addr = self.register_handler(receiver_core_id)
        return self.register_sender(sender_core_id, upid_addr, user_vector)

    def enable_kb_timer(self, core_id: int, vector: int = 2) -> None:
        """``enable_kb_timer()``: the kernel writes kb_config_MSR (§4.3)."""
        core = self.cores[core_id]
        if core.uintr.handler_index is None:
            if core.program.handler_index is None:
                raise ConfigError(f"core {core_id} program has no interrupt handler")
            core.uintr.handler_index = core.program.handler_index
        core.uintr.kb_timer.enabled = True
        core.uintr.kb_timer.vector = vector

    def enable_forwarding(self, core_id: int, vector: int, user_vector: int = 3) -> None:
        """Register device-interrupt forwarding on ``core_id`` (§4.5) with
        the current thread active (fast path)."""
        core = self.cores[core_id]
        if core.uintr.handler_index is None:
            if core.program.handler_index is None:
                raise ConfigError(f"core {core_id} program has no interrupt handler")
            core.uintr.handler_index = core.program.handler_index
        apic = self.apics[core_id]
        apic.enable_forwarding(vector, user_vector)
        apic.set_active_vectors(apic.forwarding_enabled)
