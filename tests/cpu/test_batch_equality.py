"""Fault cells on a four-core system: fast loop vs naive stepper.

The fault matrix in ``tests/faults/`` runs two-core cells.  Here the same
fault kinds land on a receiver that shares the machine with its UIPI sender
and two idle-prone pointer-chase workers on staggered KB timers, so the
fast loop advances quiescent cores in batched skips, and jumps the whole
system clock, while injections are pending.  Every cell must give
byte-identical simulated results under both engines, and its invariant
checker must pass.
"""

from __future__ import annotations

import pytest

from repro.apps import microbench as mb
from repro.common.counters import ENV_FAST
from repro.cpu.delivery import FlushStrategy, TrackedStrategy
from repro.cpu.multicore import MultiCoreSystem
from repro.faults.injector import FaultInjector
from repro.faults.invariants import InvariantChecker
from repro.faults.plan import plan_for_kind

INTERVAL = 900
MAX_CYCLES = 2_000_000
WORKERS = 2

#: One message-, one interrupt-, and one timing-fault kind.
FAULT_KINDS = ("drop_send", "spurious_uintr", "timer_drift")


def _observe_fault_cell(kind: str, seed: int):
    """Build and run one traced four-core cell with ``kind`` injected on
    the receiver, then snapshot it."""
    plan = plan_for_kind(kind, seed=seed, core=0, count=2, horizon=3_000)
    workload = mb.make_count_loop(3_000)
    sender = mb.make_uipi_timer_core(INTERVAL, 16)
    programs = [workload.program, sender.program]
    strategies = [FlushStrategy(), FlushStrategy()]
    workers = []
    for _ in range(WORKERS):
        worker = mb.make_pointer_chase(48, stride=64, iterations=100)
        workers.append(worker)
        programs.append(worker.program)
        strategies.append(TrackedStrategy())
    system = MultiCoreSystem(programs, strategies, trace=True)
    workload.install(system.shared)
    for worker in workers:
        worker.install(system.shared)
    system.connect_uipi(sender_core_id=1, receiver_core_id=0, user_vector=1)
    system.enable_kb_timer(0)
    system.cores[0].uintr.kb_timer.arm_periodic(INTERVAL + 137, now=0)
    for k in range(WORKERS):
        system.enable_kb_timer(2 + k)
        system.cores[2 + k].uintr.kb_timer.arm_periodic(1_500 + 97 * k, now=0)
    checker = InvariantChecker(plan).install(system)
    injector = FaultInjector(plan).install(system)
    system.run(MAX_CYCLES, until_halted=[0])
    assert system.cores[0].halted, "workload wedged"
    return {
        "cycles": system.cycle,
        "stats": [dict(c.stats.snapshot().__dict__) for c in system.cores],
        "trace": [
            (event.time, event.kind, tuple(sorted(event.detail.items())))
            for event in system.trace.events
        ],
        "faults": injector.counters.as_dict(),
        "accounting": checker.finish(system),
    }


@pytest.mark.parametrize("seed", (0, 1))
@pytest.mark.parametrize("kind", FAULT_KINDS)
def test_fault_cells_identical_with_batch_stepper(monkeypatch, kind, seed):
    monkeypatch.setenv(ENV_FAST, "0")
    naive = _observe_fault_cell(kind, seed)
    monkeypatch.setenv(ENV_FAST, "1")
    fast = _observe_fault_cell(kind, seed)
    assert fast["cycles"] == naive["cycles"]
    assert fast["stats"] == naive["stats"]
    assert fast["trace"] == naive["trace"]
    assert fast["faults"] == naive["faults"]
    assert sum(naive["faults"].values()) > 0, "no fault was injected"
