"""Golden equality oracle for the Aspen runtime's preemption clock.

The fixture next to this file holds digests recorded with the tick-by-tick
runtime (one heap event per worker per quantum, plus one for the timer
core).  Every engine change to the quantum clock — one shared clock event,
idle-quantum coalescing, tuple heap entries — must reproduce them byte for
byte: shard results, every worker's account, the timer core's account and
the completed threads' timings.

The grid is scenario × strategy × {1, 2, 4} workers × seeds {0, 1}, run
under the paper's costs and under non-integral costs (so that bulk charges
for skipped quanta must round exactly like one charge per quantum), plus
Figure 7 points.

Regenerate (only for a deliberate behaviour change, never to absorb an
engine refactor)::

    PYTHONPATH=src python tests/runtime/test_quantum_clock_equality.py --write
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import sys
from pathlib import Path
from typing import Dict, List

import pytest

import repro.cluster.shard as shard_module
from repro.cluster.shard import ShardJob, run_shard_job
from repro.cluster.topology import TenantSpec
from repro.experiments import fig7_rocksdb
from repro.notify.costs import CostModel
from repro.runtime.aspen import AspenRuntime

FIXTURE = Path(__file__).parent / "fixtures" / "quantum_clock_golden.json"

#: name -> (template, tenants, per-tenant rps).  The 50 rps RocksDB shard is
#: idle most quanta; 3,400 rps keeps workers busy enough to preempt and steal.
SCENARIOS = {
    "rocksdb50": ("rocksdb", 512, 50.0),
    "rocksdb3400": ("rocksdb", 32, 3400.0),
    "timers": ("timers", 16, 2000.0),
    "fanout": ("fanout", 64, 1000.0),
}
STRATEGIES = ("flush", "tracked", "timer")
WORKERS = (1, 2, 4)
SEEDS = (0, 1)
DURATION_MS = 3.0

COSTS = {
    "paper": CostModel(),
    "nonintegral": CostModel(
        uipi_receive_flush=645.3,
        uipi_receive_tracked=230.9,
        timer_receive_tracked=105.1,
        senduipi=383.9,
        timer_core_loop_overhead=70.3,
        uthread_switch=250.1,
    ),
}

FIG7_CONFIGURATIONS = ("no_preempt", "uipi", "xui")
FIG7_WORKERS = (1, 3)


def _digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, allow_nan=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _runtime_state(runtime: AspenRuntime) -> dict:
    return {
        "now": runtime.sim.now,
        "workers": [
            {
                "preemption_events": worker.preemption_events,
                "busy": worker.account.busy,
                "idle_cycles": worker.idle_cycles,
                "idle_since": worker.idle_since,
            }
            for worker in runtime.workers
        ],
        "timer_core": None if runtime.timer_core is None else runtime.timer_core.busy,
        "threads": [
            [
                thread.kind,
                thread.arrival_time,
                thread.start_time,
                thread.completion_time,
                thread.preemptions,
                thread.steals,
            ]
            for thread in runtime.completed
        ],
    }


def _shard_cell(scenario: str, strategy: str, workers: int, seed: int, costs: CostModel):
    template, count, rps = SCENARIOS[scenario]
    job = ShardJob(
        shard_index=0,
        host=0,
        strategy=strategy,
        workers=workers,
        groups=(TenantSpec(template=template, count=count, rps=rps),),
        duration_ms=DURATION_MS,
        seed=seed,
        sub_bits=8,
        costs=costs,
    )
    built: List[AspenRuntime] = []

    def capture(*args, **kwargs) -> AspenRuntime:
        runtime = AspenRuntime(*args, **kwargs)
        built.append(runtime)
        return runtime

    original = shard_module.AspenRuntime
    shard_module.AspenRuntime = capture
    try:
        result = run_shard_job(job)
    finally:
        shard_module.AspenRuntime = original
    (runtime,) = built
    return {"result": result.to_json(), "runtime": _runtime_state(runtime)}


def _fig7_cell(configuration: str, workers: int):
    point = fig7_rocksdb.run_point(
        configuration, 100_000.0, duration_seconds=0.005, seed=1, num_workers=workers
    )
    return dataclasses.asdict(point)


def shard_digests(cost_name: str, scenario: str) -> Dict[str, str]:
    out = {}
    for strategy in STRATEGIES:
        for workers in WORKERS:
            for seed in SEEDS:
                key = f"{cost_name}/{scenario}/{strategy}/w{workers}/s{seed}"
                out[key] = _digest(
                    _shard_cell(scenario, strategy, workers, seed, COSTS[cost_name])
                )
    return out


def fig7_digests() -> Dict[str, str]:
    return {
        f"fig7/{configuration}/w{workers}": _digest(_fig7_cell(configuration, workers))
        for configuration in FIG7_CONFIGURATIONS
        for workers in FIG7_WORKERS
    }


def all_digests() -> Dict[str, str]:
    out: Dict[str, str] = {}
    for cost_name in COSTS:
        for scenario in SCENARIOS:
            out.update(shard_digests(cost_name, scenario))
    out.update(fig7_digests())
    return out


def _golden() -> Dict[str, str]:
    return json.loads(FIXTURE.read_text())


def _assert_matches(actual: Dict[str, str]) -> None:
    golden = _golden()
    missing = sorted(key for key in actual if key not in golden)
    assert not missing, f"cells absent from the fixture: {missing}"
    diverged = sorted(key for key, value in actual.items() if golden[key] != value)
    assert not diverged, f"cells diverged from the tick-by-tick runtime: {diverged}"


def test_fixture_covers_the_grid():
    expected = len(COSTS) * len(SCENARIOS) * len(STRATEGIES) * len(WORKERS) * len(SEEDS)
    expected += len(FIG7_CONFIGURATIONS) * len(FIG7_WORKERS)
    assert len(_golden()) == expected


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
@pytest.mark.parametrize("cost_name", sorted(COSTS))
def test_shard_cells_match_golden(cost_name, scenario):
    _assert_matches(shard_digests(cost_name, scenario))


def test_fig7_points_match_golden():
    _assert_matches(fig7_digests())


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_quantum_clock_equality.py --write")
    FIXTURE.parent.mkdir(parents=True, exist_ok=True)
    FIXTURE.write_text(json.dumps(all_digests(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {FIXTURE}")
