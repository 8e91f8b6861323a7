"""Interrupt delivery strategies: flush, drain, and tracking (§3.5, §4.2).

*Flush* is what Sapphire Rapids does for UIPI: squash everything in flight,
redirect to the interrupt microcode — minimum time-to-handler, maximum lost
work, plus a refill penalty.

*Drain* is gem5's legacy model (§5.2): stop fetching, let the pipeline empty,
then inject — no lost work, but latency scales with what is in flight (and
gem5 historically added a fixed 13-cycle pad, reproduced here as
``extra_pad``).

*Tracking* is the xUI contribution: inject the interrupt microcode at the
front-end without squashing, mark injected micro-ops with the ROB source bit,
and re-inject after a misspeculation squash until the first interrupt
micro-op commits.  With safepoint mode enabled (§4.4) injection additionally
waits for a safepoint-prefixed instruction.
"""

from __future__ import annotations

from typing import Optional, TYPE_CHECKING

from repro.common.errors import SimulationError
from repro.cpu.backend import UOp, squash_penalty_cycles
from repro.uintr.apic import PendingInterrupt

if TYPE_CHECKING:  # pragma: no cover
    from repro.cpu.core import Core


class DeliveryStrategy:
    """Base class: hooks the core calls each cycle and on pipeline events."""

    name = "base"
    #: When False, the core calls :meth:`on_cycle` only while its APIC has a
    #: pending interrupt.  A strategy may set this to False iff its
    #: ``on_cycle`` is a pure no-op without pending interrupts; the default
    #: (True) keeps ad-hoc subclasses polled every cycle.
    always_poll = True

    def __init__(self) -> None:
        self.core: Optional["Core"] = None

    def attach(self, core: "Core") -> None:
        self.core = core

    def cache_fingerprint(self) -> tuple:
        """Stable identity for result-cache keys (see ``repro.perf.cache``).

        Subclasses with behaviour-affecting parameters must extend this
        tuple, or distinct configurations would collide on one cache entry.
        """
        return (type(self).__qualname__, self.name)

    # -- hooks -----------------------------------------------------------
    def on_cycle(self) -> None:
        """Called at the top of every core cycle."""

    def try_inject_at_boundary(self) -> bool:
        """Called by fetch at each instruction boundary; True if microcode
        injection started (fetch should re-enter its loop)."""
        return False

    def on_squash(self, new_fetch_pc: int, squashed_interrupt_path: bool) -> None:
        """Called after any branch-misprediction squash."""

    def on_commit(self, uop: UOp) -> None:
        """Called for every committed µop."""

    def on_drain_wait(self) -> None:
        """Called each cycle while fetch is stopped in the drain state."""

    def next_activity_cycle(self) -> Optional[int]:
        """Earliest cycle this strategy may act on its own, for the
        cycle-skipping engine (see ``Core.next_activity_cycle``).

        ``None`` means "never, except when an interrupt is pending" (the
        core checks pending deliverability separately).  The base class
        conservatively returns ``cycle + 1`` — unknown subclasses may do
        arbitrary per-cycle work, so skipping is disabled until a strategy
        explicitly opts in by overriding this.
        """
        return self.core.cycle + 1

    def pending_inventory(self) -> tuple:
        """Interrupts this strategy holds privately (taken from the APIC but
        not yet injected).  The invariant checker's exactly-once delivery
        accounting sums these; strategies that stage interrupts must report
        them or held interrupts would look lost."""
        return ()

    # -- common helpers ----------------------------------------------------
    def _deliverable(self) -> bool:
        core = self.core
        return (
            core is not None
            and core.delivery_state is None
            and core.uintr.uif
            and core.apic.has_pending()
            and not core.halted
        )


class FlushStrategy(DeliveryStrategy):
    """Squash all in-flight work, then inject the interrupt microcode."""

    name = "flush"
    always_poll = False  # on_cycle is a no-op without a pending interrupt

    def next_activity_cycle(self) -> Optional[int]:
        return None  # acts only on pending interrupts (checked by the core)

    def on_cycle(self) -> None:
        core = self.core
        if not self._deliverable():
            return
        # Interrupts are accepted only at macro-instruction boundaries: wait
        # until the ROB head is the first µop of its macro.
        if core.rob and not core.rob[0].macro_first:
            return
        pending = core.apic.take()
        resume_pc, num_squashed = core.flush_all()
        core.stats.interrupt_flushes += 1
        core.trace.record(
            core.cycle, "flush_start", core=core.core_id, squashed=num_squashed
        )
        refill = (
            squash_penalty_cycles(num_squashed, core.params.squash_width)
            + core.timing.flush_refill_latency
        )
        core.inject_interrupt(pending, next_pc=resume_pc, refill_stall=refill)


class DrainStrategy(DeliveryStrategy):
    """Stop fetch, retire everything in flight, then inject.

    ``extra_pad`` reproduces gem5's fixed post-drain pad (§5.2: "a fixed 13
    cycles was artificially added after each drain").
    """

    name = "drain"
    #: Explicit (PRO101): on_cycle does real work while idle (it *starts*
    #: the drain), so the core must poll it every cycle.
    always_poll = True

    def __init__(self, extra_pad: int = 0) -> None:
        super().__init__()
        self.extra_pad = extra_pad
        self._pending: Optional[PendingInterrupt] = None

    def cache_fingerprint(self) -> tuple:
        return super().cache_fingerprint() + (self.extra_pad,)

    def pending_inventory(self) -> tuple:
        return (self._pending,) if self._pending is not None else ()

    def next_activity_cycle(self) -> Optional[int]:
        # While draining, injection triggers the cycle after the ROB empties;
        # commits only happen in stepped cycles, so re-evaluation after each
        # step keeps this exact.  With an empty ROB the injection is imminent.
        if self._pending is not None and not self.core.rob:
            return self.core.cycle + 1
        return None

    def on_cycle(self) -> None:
        core = self.core
        if self._pending is not None:
            if not core.rob:
                pending, self._pending = self._pending, None
                core.trace.record(core.cycle, "drain_complete", core=core.core_id)
                core.inject_interrupt(pending, next_pc=core.fetch_pc, refill_stall=self.extra_pad)
            return
        if not self._deliverable():
            return
        self._pending = core.apic.take()
        core.wait_reason = "drain"
        core.trace.record(core.cycle, "drain_start", core=core.core_id, inflight=len(core.rob))

    def on_squash(self, new_fetch_pc: int, squashed_interrupt_path: bool) -> None:
        # A mispredict resolved while draining: keep fetch stopped (the
        # squash handler cleared wait_reason) until the pipeline is empty.
        if self._pending is not None:
            self.core.wait_reason = "drain"


class TrackedStrategy(DeliveryStrategy):
    """xUI tracked interrupts (§4.2): inject without squashing, re-inject
    after misspeculation recovery until the first interrupt µop commits."""

    name = "tracked"
    always_poll = False  # on_cycle only stages pending interrupts

    def __init__(self) -> None:
        super().__init__()
        self._staged: Optional[PendingInterrupt] = None
        self._awaiting_safepoint = False
        self._first_committed = False

    def pending_inventory(self) -> tuple:
        return (self._staged,) if self._staged is not None else ()

    def next_activity_cycle(self) -> Optional[int]:
        # A staged interrupt injects at a fetched instruction boundary
        # (safepoint-gated), which fetch reaches only while it is not
        # stopped (uiret, halt, drain), with no delivery in flight and UIF
        # set, and not before its stall ends.  Whatever lifts one of those
        # is a commit, a completion or a squash, which wakes the core
        # anyway.
        core = self.core
        if (
            self._staged is not None
            and core.wait_reason is None
            and core.delivery_state is None
            and core.uintr.uif
        ):
            horizon = core.cycle + 1
            stall = core.fetch_stall_until
            return stall if stall > horizon else horizon
        return None

    def on_cycle(self) -> None:
        core = self.core
        if self._staged is not None or not self._deliverable():
            return
        self._staged = core.apic.take()
        self._awaiting_safepoint = core.uintr.safepoint_mode
        core.trace.record(
            core.cycle, "tracked_accept", core=core.core_id, intr_kind=self._staged.kind.value
        )

    def try_inject_at_boundary(self) -> bool:
        core = self.core
        if self._staged is None:
            return False
        if core.delivery_state is not None or not core.uintr.uif:
            return False
        next_pc = core.fetch_pc
        if self._awaiting_safepoint:
            # Checks the micro-op cache's safepoint bit when the decoded
            # form is served from an optimized front-end path (§4.4).
            if not core.safepoint_at(next_pc):
                return False
        pending, self._staged = self._staged, None
        self._first_committed = False
        core.inject_interrupt(pending, next_pc=next_pc)
        return True

    def on_squash(self, new_fetch_pc: int, squashed_interrupt_path: bool) -> None:
        core = self.core
        if core.delivery_state != "inflight":
            return
        if self._first_committed or not squashed_interrupt_path:
            return
        # The injected stream was lost to misspeculation recovery before any
        # of it committed: re-stage it.  With safepoint mode on, the
        # safepoint we injected at was on the wrong path — resume normal
        # execution until the next safepoint (§4.4).
        pending = core.current_interrupt
        if pending is None:
            raise SimulationError("tracked re-injection with no in-flight interrupt")
        core.delivery_state = None
        core.current_interrupt = None
        core.trace.record(core.cycle, "tracked_reinject", core=core.core_id)
        self._staged = pending
        self._awaiting_safepoint = core.uintr.safepoint_mode

    def on_commit(self, uop: UOp) -> None:
        if uop.from_interrupt and self.core.delivery_state == "inflight":
            self._first_committed = True
