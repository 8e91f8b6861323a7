"""Equality gate for the cycle-skipping engine (REPRO_FAST).

The fast engine changes *how* the clock advances — quiescent cycles are
skipped in bulk, decode is served from memoized templates, the event tier
fast-forwards — but must never change *what* is simulated.  This suite runs
the same cell twice, once under the naive stepper (``REPRO_FAST=0``) and
once under the skipping engine, and requires byte-identical results:
final cycle counts, the full :class:`CoreStats` snapshot of every core,
every interrupt-delivery trace timestamp, and the architectural state
(every core's registers and a digest of the shared memory words).

Cells cover each microbenchmark under all three delivery strategies
(flush / drain / tracked), with the interrupt source being either a
dedicated UIPI timer core (two-core, §2) or the receiver's own KB timer
(§4.3), and with safepoint mode (§4.4) both off and on.

The multi-core cells add idle-prone pointer-chase workers with staggered KB
timers next to the receiver and its UIPI sender, so the fast loop's
per-core skips, whole-system clock jumps, and cross-core IPI wakeups all
happen while other cores sit quiescent.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.apps import microbench as mb
from repro.common.counters import GLOBAL_COUNTERS
from repro.cpu.delivery import DrainStrategy, FlushStrategy, TrackedStrategy
from repro.cpu.multicore import MultiCoreSystem

#: Short interval so several interrupts land inside the tiny workloads.
INTERVAL = 900
MAX_CYCLES = 2_000_000
SENDER_COUNT = 64

WORKLOADS = {
    "count_loop": lambda: mb.make_count_loop(1_500),
    "pointer_chase": lambda: mb.make_pointer_chase(48, stride=64, iterations=150),
    "memops": lambda: mb.make_memops(iterations=150, footprint_kb=16),
    "fib": lambda: mb.make_fib(9),
}

STRATEGIES = {
    "flush": FlushStrategy,
    "drain": DrainStrategy,
    "tracked": TrackedStrategy,
}


def _view(system: MultiCoreSystem):
    """Everything an equality check could care about: cycles, stats, the
    trace, every core's registers and a digest of the shared memory."""
    words = repr(system.shared.snapshot_words()).encode()
    return {
        "cycles": system.cycle,
        "stats": [dict(c.stats.snapshot().__dict__) for c in system.cores],
        "trace": [
            (event.time, event.kind, tuple(sorted(event.detail.items())))
            for event in system.trace.events
        ],
        "regs": [list(c.arch_regs) for c in system.cores],
        "memory": hashlib.sha256(words).hexdigest(),
    }


def _observe(workload_name: str, strategy_name: str, kb_timer: bool, safepoint: bool):
    """Run one cell live (trace on, no result cache) and snapshot it."""
    workload = WORKLOADS[workload_name]()
    strategy = STRATEGIES[strategy_name]()
    if kb_timer:
        system = MultiCoreSystem([workload.program], [strategy], trace=True)
        workload.install(system.shared)
        system.enable_kb_timer(0)
        core = system.cores[0]
        core.uintr.safepoint_mode = safepoint
        core.uintr.kb_timer.arm_periodic(INTERVAL, now=0)
    else:
        sender = mb.make_uipi_timer_core(INTERVAL, SENDER_COUNT)
        system = MultiCoreSystem(
            [workload.program, sender.program],
            [strategy, FlushStrategy()],
            trace=True,
        )
        workload.install(system.shared)
        system.connect_uipi(sender_core_id=1, receiver_core_id=0, user_vector=1)
        core = system.cores[0]
        core.uintr.safepoint_mode = safepoint
    system.run(MAX_CYCLES, until_halted=[0])
    assert core.halted, "workload wedged"
    return _view(system)


CELLS = [
    pytest.param(workload, strategy, kb_timer, safepoint, id=(
        f"{workload}-{strategy}-{'kb' if kb_timer else 'uipi'}"
        f"{'-safepoint' if safepoint else ''}"
    ))
    for workload in WORKLOADS
    for strategy in STRATEGIES
    for kb_timer in (False, True)
    for safepoint in (False, True)
]


@pytest.mark.parametrize("workload,strategy,kb_timer,safepoint", CELLS)
def test_fast_engine_matches_naive(monkeypatch, workload, strategy, kb_timer, safepoint):
    monkeypatch.setenv("REPRO_FAST", "0")
    naive = _observe(workload, strategy, kb_timer, safepoint)
    monkeypatch.setenv("REPRO_FAST", "1")
    fast = _observe(workload, strategy, kb_timer, safepoint)
    assert fast["cycles"] == naive["cycles"]
    assert fast["stats"] == naive["stats"]
    assert fast["trace"] == naive["trace"]
    assert fast["regs"] == naive["regs"]
    assert fast["memory"] == naive["memory"]


def test_interrupts_actually_delivered(monkeypatch):
    """Sanity: the grid is not vacuous — interrupts land in a normal cell."""
    monkeypatch.setenv("REPRO_FAST", "1")
    cell = _observe("count_loop", "flush", kb_timer=True, safepoint=False)
    assert cell["stats"][0]["interrupts_delivered"] >= 2


MULTICORE_INTERVALS = (900, 2_500)
MULTICORE_CORE_COUNTS = (2, 4)


def _observe_multicore(strategy_name: str, interval: int, cores_n: int):
    """One traced cell: receiver + dedicated UIPI timer core + idle-prone
    pointer-chase workers with staggered KB timers."""
    workload = mb.make_count_loop(3_000)
    sender = mb.make_uipi_timer_core(interval, 16)
    programs = [workload.program, sender.program]
    strategies = [STRATEGIES[strategy_name](), FlushStrategy()]
    extras = []
    for k in range(cores_n - 2):
        extra = mb.make_pointer_chase(48, stride=64, iterations=100)
        extras.append(extra)
        programs.append(extra.program)
        strategies.append(TrackedStrategy())
    system = MultiCoreSystem(programs, strategies, trace=True)
    workload.install(system.shared)
    for extra in extras:
        extra.install(system.shared)
    system.connect_uipi(sender_core_id=1, receiver_core_id=0, user_vector=1)
    system.enable_kb_timer(0)
    system.cores[0].uintr.kb_timer.arm_periodic(interval + 137, now=0)
    for k in range(cores_n - 2):
        system.enable_kb_timer(2 + k)
        system.cores[2 + k].uintr.kb_timer.arm_periodic(1_500 + 97 * k, now=0)
    system.run(MAX_CYCLES, until_halted=[0])
    assert system.cores[0].halted, "workload wedged"
    return _view(system)


MULTICORE_CELLS = [
    pytest.param(strategy, interval, cores_n, id=f"{strategy}-i{interval}-c{cores_n}")
    for strategy in STRATEGIES
    for interval in MULTICORE_INTERVALS
    for cores_n in MULTICORE_CORE_COUNTS
]


@pytest.mark.parametrize("strategy,interval,cores_n", MULTICORE_CELLS)
def test_multicore_fast_matches_naive(monkeypatch, strategy, interval, cores_n):
    monkeypatch.setenv("REPRO_FAST", "0")
    naive = _observe_multicore(strategy, interval, cores_n)
    monkeypatch.setenv("REPRO_FAST", "1")
    fast = _observe_multicore(strategy, interval, cores_n)
    assert fast["cycles"] == naive["cycles"]
    assert fast["stats"] == naive["stats"]
    assert fast["trace"] == naive["trace"]
    assert fast["regs"] == naive["regs"]
    assert fast["memory"] == naive["memory"]


def test_multicore_cell_is_not_vacuous(monkeypatch):
    """The grid exercises what it claims: quiescent cores were skipped and
    cross-core IPIs landed while they sat idle."""
    monkeypatch.setenv("REPRO_FAST", "1")
    GLOBAL_COUNTERS.reset()
    cell = _observe_multicore("flush", 900, 4)
    assert GLOBAL_COUNTERS.cycles_skipped > 0
    assert any(kind == "ipi_arrival" for _, kind, _ in cell["trace"])
