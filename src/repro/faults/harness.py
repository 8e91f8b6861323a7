"""Fault-matrix harness: run fault-injected cells under both engines.

A *cell* is one (fault plan × delivery strategy × engine) combination: a
two-core system — core 0 runs a microbenchmark with a registered handler
and an armed KB timer, core 1 is a dedicated UIPI timer core (§2's
dedicated-core pattern) — with a :class:`FaultInjector` and an
:class:`InvariantChecker` installed.  :func:`run_fault_matrix` sweeps the
grid and, for every (plan, strategy) point, demands byte-identical
simulated results between the naive stepper and the cycle-skipping engine
(``REPRO_FAST``) — faults must not open an engine-equivalence gap.
"""

from __future__ import annotations

import os
from typing import Dict, List, Sequence

from repro.apps import microbench as mb
from repro.common.counters import ENV_FAST
from repro.common.errors import ConfigError
from repro.cpu.delivery import DrainStrategy, FlushStrategy, TrackedStrategy
from repro.cpu.multicore import MultiCoreSystem
from repro.faults.injector import FaultInjector
from repro.faults.invariants import InvariantChecker
from repro.faults.plan import FAULT_KINDS, FaultPlan, plan_for_kind

#: Matches the equality suite: short interval, small workloads.
INTERVAL = 900
MAX_CYCLES = 2_000_000
SENDER_COUNT = 64

STRATEGIES = {
    "flush": FlushStrategy,
    "drain": DrainStrategy,
    "tracked": TrackedStrategy,
}

#: The default strategy axis of the matrix (the kind axis is FAULT_KINDS).
DEFAULT_STRATEGIES: Sequence[str] = tuple(STRATEGIES)


def build_cell(
    plan: FaultPlan,
    strategy_name: str,
    *,
    workload_name: str = "count_loop",
    safepoint: bool = False,
    check_invariants: bool = True,
):
    """Build (system, injector, checker) for one fault cell, un-run."""
    if strategy_name not in STRATEGIES:
        raise ConfigError(
            f"unknown strategy {strategy_name!r}; expected one of {tuple(STRATEGIES)}"
        )
    if workload_name == "count_loop":
        workload = mb.make_count_loop(3_000)
    elif workload_name == "pointer_chase":
        workload = mb.make_pointer_chase(48, stride=64, iterations=150)
    elif workload_name == "memops":
        workload = mb.make_memops(iterations=150, footprint_kb=16)
    elif workload_name == "fib":
        workload = mb.make_fib(9)
    else:
        raise ConfigError(f"unknown workload {workload_name!r}")
    strategy = STRATEGIES[strategy_name]()
    sender = mb.make_uipi_timer_core(INTERVAL, SENDER_COUNT)
    system = MultiCoreSystem(
        [workload.program, sender.program],
        [strategy, FlushStrategy()],
        trace=True,
    )
    workload.install(system.shared)
    system.connect_uipi(sender_core_id=1, receiver_core_id=0, user_vector=1)
    system.enable_kb_timer(0)
    core = system.cores[0]
    core.uintr.safepoint_mode = safepoint
    core.uintr.kb_timer.arm_periodic(INTERVAL + 137, now=0)
    checker = InvariantChecker(plan).install(system) if check_invariants else None
    injector = FaultInjector(plan).install(system)
    return system, injector, checker


def run_fault_cell(
    plan: FaultPlan,
    strategy_name: str,
    *,
    engine: str = "fast",
    workload_name: str = "count_loop",
    safepoint: bool = False,
    check_invariants: bool = True,
    max_cycles: int = MAX_CYCLES,
) -> Dict[str, object]:
    """Run one cell under the chosen engine and snapshot everything.

    ``engine`` is ``"fast"`` or ``"naive"`` — the ``REPRO_FAST`` switch is
    set for the duration of the run and restored afterwards.  The returned
    ``stats``/``trace``/``cycles`` are the simulated results (compared
    across engines); ``faults``/``accounting`` are injector/checker
    telemetry.
    """
    if engine not in ("fast", "naive"):
        raise ConfigError(f"engine must be 'fast' or 'naive', got {engine!r}")
    system, injector, checker = build_cell(
        plan,
        strategy_name,
        workload_name=workload_name,
        safepoint=safepoint,
        check_invariants=check_invariants,
    )
    # Intentional environment access (suppressed, not baselined): toggling
    # the engine under test IS this harness's job, and REPRO_FAST is read by
    # repro.common.counters at run time — there is no parameter to thread.
    # The save/restore pair keeps the toggle invisible to the caller.
    saved = os.environ.get(ENV_FAST)  # detlint: ignore[DET004]
    os.environ[ENV_FAST] = "1" if engine == "fast" else "0"  # detlint: ignore[DET004]
    try:
        system.run(max_cycles, until_halted=[0])
    finally:
        if saved is None:
            os.environ.pop(ENV_FAST, None)  # detlint: ignore[DET004]
        else:
            os.environ[ENV_FAST] = saved  # detlint: ignore[DET004]
    accounting = checker.finish(system) if checker is not None else None
    return {
        "halted": system.cores[0].halted,
        "cycles": system.cycle,
        "stats": [dict(c.stats.snapshot().__dict__) for c in system.cores],
        "trace": [
            (event.time, event.kind, tuple(sorted(event.detail.items())))
            for event in system.trace.events
        ],
        "faults": injector.counters.as_dict(),
        "accounting": accounting,
    }


def simulated_view(result: Dict[str, object]) -> Dict[str, object]:
    """The engine-comparable slice of a cell result (drops telemetry)."""
    return {k: result[k] for k in ("halted", "cycles", "stats", "trace")}


def run_fault_matrix(
    *,
    kinds: Sequence[str] = FAULT_KINDS,
    strategies: Sequence[str] = DEFAULT_STRATEGIES,
    seed: int = 0,
    quick: bool = False,
    workload_name: str = "count_loop",
) -> List[Dict[str, object]]:
    """Sweep (kind × strategy), running each plan under both engines.

    Returns one record per point with ``match`` (naive vs fast simulated
    results identical), the fault counters, and the conservation
    accounting.  Invariant violations propagate — a violating plan is a
    finding, not a matrix result.  ``quick`` trims the per-kind plan to
    two faults for smoke-test latency.
    """
    count = 2 if quick else 4
    # Scheduled-fault times must land inside even the fastest cell: the
    # tracked strategy finishes the default workload in a few thousand
    # cycles (no flush/drain overhead), so the horizon stays small.
    horizon = 3_000
    records: List[Dict[str, object]] = []
    for kind in kinds:
        plan = plan_for_kind(kind, seed=seed, core=0, count=count, horizon=horizon)
        for strategy_name in strategies:
            naive = run_fault_cell(
                plan, strategy_name, engine="naive", workload_name=workload_name,
            )
            fast = run_fault_cell(
                plan, strategy_name, engine="fast", workload_name=workload_name,
            )
            records.append(
                {
                    "kind": kind,
                    "strategy": strategy_name,
                    "plan": plan.dumps(),
                    "match": simulated_view(naive) == simulated_view(fast),
                    "cycles": fast["cycles"],
                    "delivered": fast["stats"][0]["interrupts_delivered"],
                    "faults": fast["faults"],
                    "accounting": fast["accounting"],
                }
            )
    return records
