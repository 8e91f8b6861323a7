"""Fault injector: apply a :class:`~repro.faults.plan.FaultPlan` to the
cycle tier (:class:`~repro.cpu.multicore.MultiCoreSystem`).

Message faults hook the per-core APIC's ``fault_interceptor``; scheduled
faults go through the system timeline, **never** by mutating core state
directly — both the naive and cycle-skipping engines process timeline
events identically (the fast engine invalidates every core's quiescence
horizon after any timeline event), which is what keeps fault runs
byte-identical across engines.  The macro-op trace tier
(``repro.cpu.macroop``) takes the same stance one level up: an installed
``fault_interceptor`` blocks macro formation outright, and the timeline
(where scheduled faults live) is a hard replay horizon — replay can never
jump over an injection cycle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, TYPE_CHECKING

from repro import obs as _obs
from repro.common.errors import ConfigError, SimulationError
from repro.faults.plan import Fault, FaultPlan, MESSAGE_KINDS
from repro.uintr.apic import InterruptKind

if TYPE_CHECKING:  # pragma: no cover
    from repro.cpu.multicore import MultiCoreSystem


@dataclass
class InjectionCounters:
    """What the injector actually did (faults may never trigger if the run
    ends first — the counters make silent no-ops visible)."""

    dropped: int = 0
    duplicated: int = 0
    delayed: int = 0
    redelivered: int = 0
    spurious: int = 0
    upid_stalls: int = 0
    timer_drifts: int = 0
    timer_drift_misses: int = 0
    misspec_storms: int = 0

    def as_dict(self) -> Dict[str, int]:
        return dict(self.__dict__)

    def total(self) -> int:
        return sum(self.__dict__.values())


def _mark_fault(time: float, kind: str, **args) -> None:
    """Drop a structured marker on the ``faults`` track when observing."""
    if _obs.enabled:
        _obs.TRACER.instant(time, f"fault.{kind}", "faults", _obs.CAT_FAULT, **args)


class _MessageFaultTable:
    """Per-APIC interceptor state: accept-index -> action.

    Indices are 1-based over *intercepted* accepts (redeliveries via
    ``accept_now`` bypass the interceptor and therefore don't count, so a
    delayed message can't re-trigger its own fault).
    """

    def __init__(self, faults: List[Fault]) -> None:
        self.actions: Dict[int, Fault] = {}
        for f in faults:
            if f.index in self.actions:
                raise ConfigError(
                    f"two message faults target accept #{f.index} on core {f.core}"
                )
            self.actions[f.index] = f
        self.seen = 0


class FaultInjector:
    """Applies a plan to a cycle-tier :class:`MultiCoreSystem`."""

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self.counters = InjectionCounters()
        self._installed = False

    def install(self, system: "MultiCoreSystem") -> "FaultInjector":
        """Wire interceptors and schedule timeline faults.  Call once,
        before ``system.run`` — scheduling is relative to the current
        cycle, so faults with ``at`` already past fire immediately."""
        if self._installed:
            raise SimulationError("FaultInjector.install called twice")
        self._installed = True
        ncores = len(system.cores)
        by_core_msgs: Dict[int, List[Fault]] = {}
        for fault in self.plan.faults:
            if fault.core >= ncores:
                raise ConfigError(
                    f"fault targets core {fault.core} but the system has {ncores}"
                )
            if fault.kind in MESSAGE_KINDS:
                by_core_msgs.setdefault(fault.core, []).append(fault)
            else:
                self._schedule(system, fault)
        for core_id, faults in by_core_msgs.items():
            self._install_interceptor(system, core_id, faults)
        return self

    # -- message faults ----------------------------------------------------

    def _install_interceptor(
        self, system: "MultiCoreSystem", core_id: int, faults: List[Fault]
    ) -> None:
        apic = system.cores[core_id].apic
        if apic.fault_interceptor is not None:
            raise ConfigError(f"core {core_id} APIC already has a fault interceptor")
        table = _MessageFaultTable(faults)
        counters = self.counters

        def interceptor(
            vector: int, time: float, kind: Optional[InterruptKind]
        ) -> Optional[str]:
            table.seen += 1
            fault = table.actions.get(table.seen)
            if fault is None:
                return None
            if fault.kind == "drop_send":
                counters.dropped += 1
                _mark_fault(time, "drop_send", core=core_id, vector=vector)
                return "drop"
            if fault.kind == "dup_send":
                counters.duplicated += 1
                _mark_fault(time, "dup_send", core=core_id, vector=vector)
                return "duplicate"
            counters.delayed += 1
            _mark_fault(time, "delay_send", core=core_id, vector=vector, delay=fault.delay)

            def redeliver() -> None:
                counters.redelivered += 1
                _mark_fault(system.cycle, "redeliver", core=core_id, vector=vector)
                apic.accept_now(vector, system.cycle, kind)

            system.schedule(fault.delay, redeliver)
            return "defer"

        apic.fault_interceptor = interceptor

    # -- scheduled faults --------------------------------------------------

    def _schedule(self, system: "MultiCoreSystem", fault: Fault) -> None:
        delay = max(0, fault.at - system.cycle)
        core = system.cores[fault.core]
        counters = self.counters
        if fault.kind == "upid_stall":

            def stall() -> None:
                counters.upid_stalls += 1
                _mark_fault(system.cycle, "upid_stall", core=fault.core)
                core.hierarchy.dcache.flush()
                core.hierarchy.l2cache.flush()

            system.schedule(delay, stall)
        elif fault.kind == "spurious_uintr":

            def spurious() -> None:
                counters.spurious += 1
                _mark_fault(system.cycle, "spurious_uintr", core=fault.core)
                # A notification with nothing posted: the recognition
                # microcode runs against an empty PIR.
                core.apic.accept_now(
                    core.apic.uipi_notification_vector,
                    system.cycle,
                    InterruptKind.UIPI,
                )

            system.schedule(delay, spurious)
        elif fault.kind == "timer_drift":

            def drift() -> None:
                timer = core.uintr.kb_timer
                if timer.enabled and timer.armed:
                    counters.timer_drifts += 1
                    _mark_fault(system.cycle, "timer_drift", core=fault.core, delay=fault.delay)
                    timer.deadline += fault.delay
                else:
                    counters.timer_drift_misses += 1

            system.schedule(delay, drift)
        elif fault.kind == "misspec_storm":

            def storm() -> None:
                counters.misspec_storms += 1
                _mark_fault(system.cycle, "misspec_storm", core=fault.core)
                core.predictor.gshare.invert()
                core.predictor.btb.invalidate()

            system.schedule(delay, storm)
        else:  # pragma: no cover - Fault rejects unknown kinds
            raise ConfigError(f"unschedulable fault kind {fault.kind!r}")

