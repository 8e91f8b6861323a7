"""Cold-path engine benchmark: cycle-skipping engine vs. naive stepper.

Times uncached (``REPRO_CACHE=0``) cycle-tier runs twice — once under the
cycle-skipping fast engine and once under the naive per-cycle stepper
(``REPRO_FAST=0``) — and emits ``BENCH_cycletier.json`` at the repo root
with wall-clock, simulated cycles/sec, skip fraction, and the fast-vs-naive
speedup per bench.

Equality is the contract: every bench compares its full result (cycle
counts, stats snapshots, experiment tables) between the two engines and
fails if they differ in any byte.  The memory-stall-heavy benches
(DRAM-resident pointer chase, and the Figure 4 interval sweep in the
paper's headline ``xui_kb_timer_tracking`` configuration) carry a >= 3x
speedup gate.  The dense compute benches (``count_loop_kb_timer``,
``memops_baseline``) carry the same gate since the macro-op trace tier
(``REPRO_MACRO``, see ``repro.cpu.macroop``) landed: a pipeline that is
busy every cycle has nothing to *skip*, but a steady-state loop body can
be *replayed* in O(1) per iteration.  ``sec61_tracked_chain50`` gates the
same tier on a spin loop that reads the clock beside a sleeping
neighbour, and ``fig4_count_loop_uipi_timer`` on two cores that loop every
cycle and replay in one joint window.

Run directly (``PYTHONPATH=src python benchmarks/bench_report.py``) or via
pytest (``python -m pytest benchmarks/bench_report.py``).
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
import time
from contextlib import contextmanager
from functools import partial
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, Optional, Tuple

from repro.apps import microbench as mb
from repro.common.counters import ENV_FAST, ENV_MACRO, GLOBAL_COUNTERS
from repro.cpu.delivery import FlushStrategy, TrackedStrategy
from repro.cpu.multicore import MultiCoreSystem
from repro.experiments import cycletier
from repro.experiments.fig4_overheads import run_interval_sweep
from repro.perf.cache import ENV_CACHE_ENABLED

REPORT_PATH = Path(__file__).resolve().parent.parent / "BENCH_cycletier.json"

#: Payload schema: 2 added the ``meta`` block (git/host/engine provenance);
#: 3 added macro-tier telemetry per bench and gated the dense benches;
#: 4 added the many-core benches, then timed against a since-removed numpy
#: batch stepper; 5 drops that leg and its telemetry, so every bench is
#: fast vs naive again.
REPORT_SCHEMA = 5

#: Acceptance floor for the gated benches (stall-heavy via cycle skipping,
#: dense loops via macro-op replay).
GATED_SPEEDUP = 3.0

#: DRAM-resident pointer chase: 4096 nodes x 64 B = 256 KiB, past the L2,
#: so every hop is a long memory stall the fast engine can skip across.
PTR_NODES = 4096

#: Hops per loop iteration in the many-core chases: one serial dependence
#: chain, so the loop-control busy burst is amortized over ``CHASE_UNROLL``
#: full-latency stalls and the worker pipelines are quiescent >98% of the
#: time — the regime where the fast loop skips most core-cycles.
CHASE_UNROLL = 16


def _pointer_chase() -> mb.Workload:
    return mb.make_pointer_chase(PTR_NODES, stride=64)


def _bench_pointer_chase_baseline() -> Any:
    result = cycletier.run_baseline(_pointer_chase())
    return {"cycles": result.cycles, "stats": dict(result.stats.__dict__)}


def _bench_pointer_chase_kb_timer() -> Any:
    result = cycletier.run_with_kb_timer(_pointer_chase(), interval=10_000)
    return {
        "cycles": result.cycles,
        "interrupts": result.interrupts_delivered,
        "stats": dict(result.stats.__dict__),
    }


def _bench_fig4_interval_sweep() -> Any:
    return run_interval_sweep(
        partial(mb.make_pointer_chase, PTR_NODES),
        intervals=[5_000, 10_000],
        configurations=["xui_kb_timer_tracking"],
        jobs=1,
    )


def _bench_count_loop_kb_timer() -> Any:
    result = cycletier.run_with_kb_timer(mb.make_count_loop(60_000), interval=5_000)
    return {
        "cycles": result.cycles,
        "interrupts": result.interrupts_delivered,
        "stats": dict(result.stats.__dict__),
    }


def _bench_memops_baseline() -> Any:
    # 6k iterations so the cache-warmup prefix (~3k cycles, during which
    # the pipeline picture is not yet periodic and the macro tier cannot
    # replay) is amortized and steady-state streaming dominates what the
    # dense gate measures.
    result = cycletier.run_baseline(mb.make_memops(iterations=6_000))
    return {"cycles": result.cycles, "stats": dict(result.stats.__dict__)}


def _many_core_payload(system: MultiCoreSystem) -> Any:
    return {
        "cycles": system.cycle,
        "stats": [dict(c.stats.snapshot().__dict__) for c in system.cores],
        "apics": [apic.counters_as_dict() for apic in system.apics],
    }


def _bench_fig7_rocksdb_16core() -> Any:
    """Figure 7's shape at the cycle tier: a preempted RocksDB-ish worker.

    Core 0 runs a DRAM-resident pointer chase and takes preemption UIPIs
    from core 1, the paper's dedicated timer core (§5.3, short quantum so
    the sender's dense rdtsc spin stays a sliver of the run — the bench
    measures the stepper over the stalled workers, not the spin loop);
    cores 2-15 are worker tenants on the same chase with staggered per-core
    KB timers.  The naive stepper walks all 16 pipelines every cycle; the
    fast loop skips each stalled worker up to its next activity and jumps
    the clock when every core is quiescent.  Delivery is flush everywhere:
    a tracked delivery into a dependent-load chain busy-waits the whole
    in-flight window (§6.1), which measures the delivery strategy rather
    than the stepper — the tracked cells live in the equality suite, not
    the perf gate.
    """
    worker_cores = 14
    workloads = [
        mb.make_pointer_chase(PTR_NODES, stride=64, iterations=60, unroll=CHASE_UNROLL)
    ]
    sender = mb.make_uipi_timer_core(1_500, 2)
    programs = [workloads[0].program, sender.program]
    strategies = [FlushStrategy(), FlushStrategy()]
    for k in range(worker_cores):
        chase = mb.make_pointer_chase(
            PTR_NODES, stride=64, iterations=60 + k, unroll=CHASE_UNROLL
        )
        workloads.append(chase)
        programs.append(chase.program)
        strategies.append(FlushStrategy())
    system = MultiCoreSystem(programs, strategies)
    for workload in workloads:
        workload.install(system.shared)
    system.connect_uipi(sender_core_id=1, receiver_core_id=0, user_vector=1)
    system.enable_kb_timer(0)
    system.cores[0].uintr.kb_timer.arm_periodic(7_500, now=0)
    for k in range(worker_cores):
        core_id = 2 + k
        system.enable_kb_timer(core_id)
        system.cores[core_id].uintr.kb_timer.arm_periodic(25_000 + 311 * k, now=0)
    halt_ids = [0] + list(range(2, 2 + worker_cores))
    system.run(400_000, until_halted=halt_ids)
    return _many_core_payload(system)


def _bench_l3fwd_8core_sweep() -> Any:
    """Figure 8's shape at the cycle tier: forwarded device interrupts.

    Eight cores run the pointer chase with device-interrupt forwarding
    enabled (§4.5) while two NIC rate classes — a fast queue on cores 0-3,
    a slow queue on cores 4-7 — raise pre-scheduled device interrupts.
    Each arrival ends a whole-system clock jump and makes the fast loop
    re-check every core's horizon.
    """
    n = 8
    workloads = []
    programs = []
    strategies = []
    for k in range(n):
        chase = mb.make_pointer_chase(
            PTR_NODES, stride=64, iterations=80 + 2 * k, unroll=CHASE_UNROLL
        )
        workloads.append(chase)
        programs.append(chase.program)
        strategies.append(FlushStrategy())
    system = MultiCoreSystem(programs, strategies)
    for workload in workloads:
        workload.install(system.shared)
    for k in range(n):
        system.enable_forwarding(k, vector=0x30 + k, user_vector=3)
        interval = 4_000 if k < 4 else 9_000
        for shot in range(18 if k < 4 else 8):
            system.raise_device_interrupt(
                k, 0x30 + k, delay=1_000 + 173 * k + shot * interval
            )
    system.run(400_000, until_halted=list(range(n)))
    return _many_core_payload(system)


def _bench_sec61_tracked_chain50() -> Any:
    """One §6.1 point (``repro experiment sec61``): tracked delivery into a
    50-load dependence chain feeding the stack pointer, with a dedicated
    rdtsc-spin UIPI timer core beside it.

    The receiver sleeps on DRAM misses while the sender spins, so the fast
    loop has little to skip: the gain comes from the macro tier replaying
    the sender's ``rdtsc; blt`` loop up to each of the receiver's wake-ups.
    The trace is compared too, since it carries the delivery latency.
    """
    chain, iterations = 50, 40
    result = cycletier.run_with_uipi_timer(
        mb.make_sp_dependence_chain(chain_length=chain, iterations=iterations, stride=4096),
        TrackedStrategy(),
        interval=8_000,
        trace=True,
        expected_cycles=iterations * chain * 220 + 40_000,
    )
    system = result.system
    payload = _many_core_payload(system)
    payload["trace"] = [
        (event.time, event.kind, tuple(sorted(event.detail.items())))
        for event in system.trace.events
    ]
    return payload


def _bench_fig4_count_loop_uipi_timer() -> Any:
    """Figure 4's ``uipi_sw_timer`` cell at quick scale: a 14,000-iteration
    count loop under flush delivery beside the rdtsc-spinning UIPI timer
    core.  Both cores loop every cycle, so the fast engine has nothing to
    skip; the gain comes from the macro tier replaying the two loops in one
    joint window up to each send.  The trace is compared too."""
    iterations = 14_000
    result = cycletier.run_with_uipi_timer(
        mb.make_count_loop(iterations),
        FlushStrategy(),
        trace=True,
        expected_cycles=iterations,
    )
    system = result.system
    payload = _many_core_payload(system)
    payload["trace"] = [
        (event.time, event.kind, tuple(sorted(event.detail.items())))
        for event in system.trace.events
    ]
    return payload


#: (name, runner, gated): gated benches must clear :data:`GATED_SPEEDUP`.
BENCHES: Tuple[Tuple[str, Callable[[], Any], bool], ...] = (
    ("pointer_chase_baseline", _bench_pointer_chase_baseline, True),
    ("fig4_interval_sweep", _bench_fig4_interval_sweep, True),
    ("pointer_chase_kb_timer", _bench_pointer_chase_kb_timer, False),
    ("count_loop_kb_timer", _bench_count_loop_kb_timer, True),
    ("memops_baseline", _bench_memops_baseline, True),
    ("fig7_rocksdb_16core", _bench_fig7_rocksdb_16core, True),
    ("l3fwd_8core_sweep", _bench_l3fwd_8core_sweep, True),
    ("sec61_tracked_chain50", _bench_sec61_tracked_chain50, True),
    ("fig4_count_loop_uipi_timer", _bench_fig4_count_loop_uipi_timer, True),
)


@contextmanager
def _env(**overrides: str) -> Iterator[None]:
    saved = {key: os.environ.get(key) for key in overrides}
    os.environ.update(overrides)
    try:
        yield
    finally:
        for key, value in saved.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value


def _timed(fn: Callable[[], Any], repeats: int = 2) -> Tuple[Any, float, Dict[str, float]]:
    """Run ``fn`` cold ``repeats`` times; keep the best wall clock.

    Best-of-N because the container these run in is shared: a single timing
    can be off by 2x from scheduler noise, and the engines are compared by
    ratio."""
    g = GLOBAL_COUNTERS
    result = None
    elapsed = float("inf")
    telemetry: Dict[str, float] = {}
    for _ in range(repeats):
        g.reset()
        start = time.perf_counter()
        result = fn()
        this_time = time.perf_counter() - start
        if this_time < elapsed:
            elapsed = this_time
            telemetry = {
                "simulated_cycles": g.cycles_stepped
                + g.cycles_skipped
                + g.macro_replayed_cycles,
                "skip_fraction": g.skip_fraction,
                "macro_replayed_fraction": g.macro_replayed_fraction,
                "macro_formations": g.macro_formations,
                "macro_replays": g.macro_replays,
            }
    return result, elapsed, telemetry


def _git(*argv: str) -> Optional[str]:
    try:
        out = subprocess.run(
            ("git", *argv),
            cwd=REPORT_PATH.parent,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def run_metadata() -> Dict[str, Any]:
    """Machine-readable provenance: which code, host, and engine ran this.

    A baseline number without its git sha and engine flags cannot be
    compared honestly; the gate (``repro bench-gate``) reads this block to
    annotate its verdicts.
    """
    status = _git("status", "--porcelain")
    return {
        "git_sha": _git("rev-parse", "HEAD"),
        "git_dirty": bool(status) if status is not None else None,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "engine_flags": {
            ENV_FAST: os.environ.get(ENV_FAST),
            ENV_MACRO: os.environ.get(ENV_MACRO),
            ENV_CACHE_ENABLED: os.environ.get(ENV_CACHE_ENABLED),
        },
        "created_unix": int(time.time()),
    }


def run_report(
    report: Callable[[str], None] = print,
    out_path: Optional[Path] = REPORT_PATH,
    only: Optional[set] = None,
) -> Dict[str, Any]:
    """Run every bench fast + naive; write and return the report payload.

    ``out_path=None`` skips the write — the perf gate runs a fresh report
    for comparison without clobbering the committed baseline.  ``only``
    restricts the run to a subset of bench names (the CI dense-bench smoke
    job runs just the two macro-tier benches); a subset report should be
    written somewhere other than the committed baseline path.
    """
    if only is not None:
        known = {name for name, _, _ in BENCHES}
        unknown = sorted(only - known)
        if unknown:
            raise SystemExit(f"unknown bench name(s): {', '.join(unknown)}")
    benches: Dict[str, Any] = {}
    ok = True
    for name, runner, gated in BENCHES:
        if only is not None and name not in only:
            continue
        report(f"{name}: fast engine (cycle skip + macro replay)...")
        with _env(**{ENV_CACHE_ENABLED: "0", ENV_FAST: "1", ENV_MACRO: "1"}):
            fast, t_fast, fast_counters = _timed(runner)
        report(
            f"  {t_fast:.2f}s ({fast_counters['skip_fraction']:.0%} cycles skipped, "
            f"{fast_counters['macro_replayed_fraction']:.0%} macro-replayed)"
        )
        report(f"{name}: naive stepper (REPRO_FAST=0)...")
        with _env(**{ENV_CACHE_ENABLED: "0", ENV_FAST: "0", ENV_MACRO: "0"}):
            naive, t_naive, naive_counters = _timed(runner)
        report(f"  {t_naive:.2f}s")

        equal = fast == naive
        speedup = t_naive / t_fast if t_fast > 0 else float("inf")
        cycles = naive_counters["simulated_cycles"]
        benches[name] = {
            "gated": gated,
            "results_identical": equal,
            "wall_fast_s": round(t_fast, 4),
            "wall_naive_s": round(t_naive, 4),
            "speedup": round(speedup, 2),
            "simulated_cycles": cycles,
            "cycles_per_sec_fast": round(cycles / t_fast) if t_fast > 0 else None,
            "cycles_per_sec_naive": round(cycles / t_naive) if t_naive > 0 else None,
            "skip_fraction": round(fast_counters["skip_fraction"], 4),
            "macro_replayed_fraction": round(
                fast_counters["macro_replayed_fraction"], 4
            ),
            "macro_formations": fast_counters["macro_formations"],
            "macro_replays": fast_counters["macro_replays"],
        }
        if not equal:
            ok = False
            report(f"  FAIL  {name}: fast and naive results differ")
        elif gated and speedup < GATED_SPEEDUP:
            ok = False
            report(f"  FAIL  {name}: {speedup:.2f}x < {GATED_SPEEDUP}x gate")
        else:
            gate = f" (gate >= {GATED_SPEEDUP}x)" if gated else ""
            report(f"  PASS  {name}: {speedup:.2f}x, results identical{gate}")

    payload = {
        "report": "cold cycle-tier runs, cycle-skipping engine vs naive stepper",
        "schema": REPORT_SCHEMA,
        "meta": run_metadata(),
        "gate_speedup": GATED_SPEEDUP,
        "ok": ok,
        "benches": benches,
    }
    if out_path is not None:
        out_path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        report(f"wrote {out_path}")
    return payload


def test_cold_engine_report():
    """Pytest entry: the full report, asserting equality plus gated speedups."""
    payload = run_report()
    assert payload["ok"], json.dumps(payload["benches"], indent=2)


def _main(argv: list) -> int:
    """``bench_report.py [BENCH ...] [--out PATH]`` — subset runs for CI."""
    out_path: Optional[Path] = REPORT_PATH
    names = []
    it = iter(argv)
    for arg in it:
        if arg == "--out":
            out_path = Path(next(it, "") or REPORT_PATH)
        else:
            names.append(arg)
    only = set(names) if names else None
    if only is not None and out_path == REPORT_PATH:
        out_path = None  # never clobber the committed baseline with a subset
    return 0 if run_report(out_path=out_path, only=only)["ok"] else 1


if __name__ == "__main__":
    sys.exit(_main(sys.argv[1:]))
