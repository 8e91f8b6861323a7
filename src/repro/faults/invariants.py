"""Model invariants checked during fault-injected runs.

The checker hooks :attr:`repro.cpu.core.Core.invariant_probe` — a read-only
callback the core fires after interrupt injection, after misspeculation
squashes, after full flushes, and at uiret commit — plus a
:meth:`InvariantChecker.finish` pass over the whole system at end of run.
Probes never mutate model state, so a checked run stays byte-identical to
an unchecked one (and between the naive and cycle-skipping engines).

Checked invariants:

1. **Exactly-once-or-explicitly-dropped delivery** (at finish): every user
   interrupt ever queued by an APIC is either committed by a uiret
   (``interrupts_delivered``), still waiting in the APIC, staged privately
   by a delivery strategy (:meth:`DeliveryStrategy.pending_inventory`), or
   in flight on a core.  Faults may *drop* messages, but only through the
   interceptor, which never queues them — so nothing queued ever vanishes.
2. **No delivery outside safepoints in safepoint mode** (at inject): a
   tracked delivery with ``safepoint_mode`` set must have its return PC at
   a safepoint-prefixed instruction (§4.4).
3. **ROB/tracked-µop consistency after squash and flush**: no squashed µop
   remains in the ROB, sequence numbers stay strictly increasing, and the
   issue-queue census matches the ROB's waiting/ready population — the
   state tracked delivery re-injects from (§4.2) is sane.
4. **Delivery state machine coherence** (at uiret): a uiret can only
   commit with a delivery in flight and the handler flag set.
5. **Per-core monotonic clocks**: a core's cycle never decreases between
   probes (the cycle-skipping engine must only move time forward).

A violation raises :class:`~repro.common.errors.InvariantViolation`
carrying the fault plan's byte-stable dump, so the exact failing schedule
replays from the exception message alone.
"""

from __future__ import annotations

from typing import Dict, Optional, TYPE_CHECKING

from repro.common.counters import active_engine_flags
from repro.common.errors import InvariantViolation
from repro.cpu.backend import ST_READY, ST_WAITING
from repro.faults.plan import FaultPlan

if TYPE_CHECKING:  # pragma: no cover
    from repro.cpu.core import Core
    from repro.cpu.multicore import MultiCoreSystem


class InvariantChecker:
    """Install on a :class:`MultiCoreSystem`; call :meth:`finish` after the
    run for the cross-core conservation check."""

    def __init__(self, plan: Optional[FaultPlan] = None) -> None:
        self.plan = plan
        self.checks_run = 0
        self.probes_fired = 0
        self._last_cycle: Dict[int, int] = {}
        self._installed = False

    # ------------------------------------------------------------------

    def install(self, system: "MultiCoreSystem") -> "InvariantChecker":
        if self._installed:
            raise self._violation("InvariantChecker.install called twice")
        self._installed = True
        for core in system.cores:
            if core.invariant_probe is not None:
                raise self._violation(
                    f"core {core.core_id} already has an invariant probe"
                )
            core.invariant_probe = self.probe
        return self

    # ------------------------------------------------------------------

    def _violation(self, message: str) -> InvariantViolation:
        dump = self.plan.dumps() if self.plan is not None else None
        # Snapshot the engine tiers at raise time: the violation fired
        # under whatever flags the failing run was using, and a replay is
        # only a replay under those same tiers.
        return InvariantViolation(
            message, plan_dump=dump, engine_flags=active_engine_flags()
        )

    # Each check below counts itself in ``checks_run`` and tests its
    # condition inline; its message is formatted only when it raises (a
    # squash probe runs two checks per ROB entry).

    def probe(self, event: str, core: "Core") -> None:
        """The per-core hook (read-only; see class docstring)."""
        self.probes_fired += 1
        cid = core.core_id
        cycle = core.cycle
        last = self._last_cycle.get(cid)
        self.checks_run += 1
        if last is not None and cycle < last:
            raise self._violation(
                f"core {cid} clock moved backwards: {last} -> {cycle} at {event!r}"
            )
        self._last_cycle[cid] = cycle
        if event == "squash" or event == "flush":
            self._check_rob(core, event)
        elif event == "inject":
            self._check_inject(core)
        elif event == "uiret":
            self._check_uiret(core)

    def _check_rob(self, core: "Core", event: str) -> None:
        rob = core.rob
        iq = 0
        prev_seq = -1
        for uop in rob:
            seq = uop.seq
            if uop.squashed or seq <= prev_seq:
                self._rob_order_violation(core, event)
            prev_seq = seq
            if uop.state in (ST_WAITING, ST_READY):
                iq += 1
        self.checks_run += 2 * len(rob) + 1
        if core.iq_count != iq:
            raise self._violation(
                f"core {core.core_id}: issue-queue census {core.iq_count} != ROB "
                f"waiting/ready population {iq} after {event}"
            )
        if event == "flush":
            self.checks_run += 1
            if rob:
                raise self._violation(f"core {core.core_id}: ROB not empty after a full flush")

    def _rob_order_violation(self, core: "Core", event: str) -> None:
        """Raise for the first ROB entry that fails its checks, counting the
        checks run up to it: two per earlier entry, then its own."""
        cid = core.core_id
        prev_seq = -1
        for at, uop in enumerate(core.rob):
            if uop.squashed:
                self.checks_run += 2 * at + 1
                raise self._violation(f"core {cid}: squashed µop seq={uop.seq} survived {event}")
            if uop.seq <= prev_seq:
                self.checks_run += 2 * at + 2
                raise self._violation(
                    f"core {cid}: ROB sequence not increasing after {event} "
                    f"({prev_seq} then {uop.seq})"
                )
            prev_seq = uop.seq

    def _check_inject(self, core: "Core") -> None:
        self.checks_run += 1
        if core.delivery_state != "inflight" or core.current_interrupt is None:
            raise self._violation(
                f"core {core.core_id}: inject probe without an in-flight delivery"
            )
        if core.uintr.safepoint_mode and core.strategy.name == "tracked":
            pc = core.uintr.ui_return_pc
            self.checks_run += 1
            if pc is None or not core.safepoint_at(pc):
                raise self._violation(
                    f"core {core.core_id}: safepoint-mode tracked delivery injected at "
                    f"non-safepoint pc={pc}"
                )

    def _check_uiret(self, core: "Core") -> None:
        self.checks_run += 1
        if core.delivery_state != "inflight":
            raise self._violation(
                f"core {core.core_id}: uiret committed with no delivery in flight"
            )
        self.checks_run += 1
        if not core.uintr.in_handler:
            raise self._violation(f"core {core.core_id}: uiret committed outside a handler")

    # ------------------------------------------------------------------

    def finish(self, system: "MultiCoreSystem") -> Dict[str, int]:
        """End-of-run conservation audit; returns the accounting terms."""
        queued = delivered = waiting = staged = inflight = dropped = 0
        for core in system.cores:
            queued += core.apic.user_queued
            dropped += core.apic.faults_dropped
            delivered += core.stats.interrupts_delivered
            waiting += len(core.apic._pending)
            staged += len(core.strategy.pending_inventory())
            if core.delivery_state == "inflight":
                inflight += 1
        self.checks_run += 1
        if queued != delivered + waiting + staged + inflight:
            raise self._violation(
                "delivery conservation violated: "
                f"queued={queued} != delivered={delivered} + waiting={waiting} "
                f"+ staged={staged} + inflight={inflight} "
                f"(explicitly dropped before queueing: {dropped})"
            )
        return {
            "queued": queued,
            "delivered": delivered,
            "waiting": waiting,
            "staged": staged,
            "inflight": inflight,
            "dropped": dropped,
            "checks_run": self.checks_run,
            "probes_fired": self.probes_fired,
        }
