"""One shard of the cluster: a pure, picklable event-tier simulation job.

A :class:`ShardJob` is everything one (shard, strategy) cell needs —
placement, tenant groups, seed, duration, and the calibrated
:class:`~repro.notify.costs.CostModel` — as a frozen dataclass so
:func:`~repro.perf.cache.canonical` gives it a stable identity for
checkpoint keys and :mod:`pickle` moves it to a pool worker.
:func:`run_shard_job` is the module-level point function handed to
:class:`~repro.perf.engine.SweepRunner`: it builds a fresh simulator,
Aspen runtime, and RNG from the job alone, so serial and parallel
execution produce bit-identical :class:`ShardResult`\\ s.

The strategy enters in exactly two places: the runtime's preemption
mechanism (each quantum tick charges ``costs.preemption_cost(mechanism)``)
and the per-event delivery cost for notification-shaped templates.  The
arrival process itself is strategy-independent (common random numbers).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Tuple

from repro.common.codec import JsonCodec, decode
from repro.common.errors import ConfigError
from repro.common.rng import RngStreams
from repro.notify.costs import CostModel
from repro.obs.hist import LatencyHistogram
from repro.runtime.aspen import AspenRuntime, RuntimeConfig
from repro.runtime.uthread import UThread
from repro.sim.simulator import Simulator
from repro.cluster.tenant import schedule_scenario
from repro.cluster.topology import STRATEGY_MECHANISMS, TenantSpec

#: The paper's preemption quantum: 5 us at 2 GHz.
QUANTUM_CYCLES = 10_000.0

#: Simulated clock rate, cycles per second.
CLOCK_HZ = 2e9

#: Request kinds whose response times feed the shard's latency histogram,
#: per scenario.  RocksDB measures GETs (Figure 7's y-axis); SCANs are
#: counted separately so they can block GETs without polluting the tail.
MEASURED_KINDS = {
    "rocksdb": ("get",),
    "timers": ("timer",),
    "fanout": ("event",),
}


@dataclass(frozen=True, slots=True)
class ShardJob(JsonCodec):
    """One (shard, strategy) sweep point — pure input, stable identity."""

    shard_index: int
    host: int
    strategy: str
    workers: int
    groups: Tuple[TenantSpec, ...]
    duration_ms: float
    seed: int
    sub_bits: int
    costs: CostModel

    def __post_init__(self) -> None:
        if self.strategy not in STRATEGY_MECHANISMS:
            raise ConfigError(f"unknown strategy {self.strategy!r}")
        if not isinstance(self.groups, tuple) or not self.groups:
            raise ConfigError("shard job needs a non-empty tuple of tenant groups")
        if self.shard_index < 0 or self.host < 0:
            raise ConfigError("shard index/host must be >= 0")
        if self.workers < 1:
            raise ConfigError(f"workers must be >= 1, got {self.workers}")
        if not self.duration_ms > 0:
            raise ConfigError(f"duration_ms must be > 0, got {self.duration_ms}")
        if not 1 <= self.sub_bits <= 12:
            raise ConfigError(f"sub_bits must be in [1, 12], got {self.sub_bits}")

    @property
    def tenants(self) -> int:
        return sum(group.count for group in self.groups)


@dataclass(frozen=True, slots=True)
class ShardResult(JsonCodec):
    """One shard's measured outcome (exact histogram state rides along)."""

    shard_index: int
    host: int
    strategy: str
    tenants: int
    offered: int
    completed: int
    in_window: int
    scans: int
    preemptions_total: int
    hist_state: Dict[str, Any]

    @classmethod
    def from_json(cls, obj: Any) -> "ShardResult":
        result = decode(cls, obj)
        LatencyHistogram.from_state(result.hist_state)  # validate eagerly
        return result

    def histogram(self) -> LatencyHistogram:
        return LatencyHistogram.from_state(self.hist_state)


def run_shard_job(job: ShardJob) -> ShardResult:
    """Simulate one shard under one strategy (pure: job -> result).

    This is the ``SweepRunner`` point function — module-level and
    deterministic, so pool workers, the serial fallback, and a checkpoint
    resume all compute identical bits.
    """
    mechanism = STRATEGY_MECHANISMS[job.strategy]
    sim = Simulator()
    rng = RngStreams(seed=job.seed)
    runtime = AspenRuntime(
        sim,
        RuntimeConfig(
            num_workers=job.workers, quantum=QUANTUM_CYCLES, mechanism=mechanism
        ),
        costs=job.costs,
        rng=rng,
    )
    duration_cycles = job.duration_ms * 1e-3 * CLOCK_HZ
    delivery_cycles = job.costs.preemption_cost(mechanism)

    offered = 0
    measured_kinds: Tuple[str, ...] = ()
    for group in job.groups:
        measured_kinds = measured_kinds + MEASURED_KINDS[group.template]
        offered += schedule_scenario(
            sim,
            runtime,
            group.template,
            group.count,
            group.rps,
            rng,
            duration_cycles,
            delivery_cycles,
        )
    # Run past the arrival window so queued work drains (bounded).
    sim.run(until=duration_cycles * 1.5)

    hist = LatencyHistogram(job.sub_bits)
    scans = 0
    in_window = 0
    for thread in runtime.completed:
        if thread.completion_time <= duration_cycles:
            in_window += 1
        if thread.kind == "scan":
            scans += 1
        if thread.kind in measured_kinds:
            hist.record(_response_cycles(thread))
    runtime.close()
    return ShardResult(
        shard_index=job.shard_index,
        host=job.host,
        strategy=job.strategy,
        tenants=job.tenants,
        offered=offered,
        completed=len(runtime.completed),
        in_window=in_window,
        scans=scans,
        preemptions_total=sum(w.preemption_events for w in runtime.workers),
        hist_state=hist.to_state(),
    )


def _response_cycles(thread: UThread) -> float:
    response = thread.completion_time - thread.arrival_time
    return response if response > 0 else 0.0
