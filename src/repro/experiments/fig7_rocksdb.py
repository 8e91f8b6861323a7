"""Figure 7: RocksDB tail latency/throughput under preemptive scheduling.

An Aspen runtime serves the bimodal RocksDB mix (99.5% GET at 1.2 us,
0.5% SCAN at 580 us) from an open-loop Poisson load generator.  Three
configurations (§6.2.1):

- ``no_preempt``: run-to-completion — a SCAN blocks GETs for 580 us, so
  GET tail latency is hundreds of microseconds even at trivial load.
- ``uipi``: 5 us quantum via UIPI from a dedicated timer core (flush-based
  receive, ~645 cycles/preemption + thread switch).
- ``xui``: 5 us quantum via the KB timer + tracking (~105 cycles/event);
  the paper reports ~10% more GET throughput than UIPI and one core saved.

Reported per offered load: achieved throughput and p99.9 GET/SCAN latency.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.common.errors import ConfigError
from repro.common.rng import RngStreams
from repro.common.stats import percentile
from repro.common.units import cycles_to_us
from repro.apps.loadgen import PoissonLoadGenerator
from repro.apps.rocksdb import BimodalServiceModel
from repro.notify.costs import CostModel
from repro.notify.mechanisms import Mechanism
from repro.runtime.aspen import AspenRuntime, RuntimeConfig
from repro.runtime.uthread import UThread
from repro.sim.simulator import Simulator

CONFIGURATIONS = ("no_preempt", "uipi", "xui")
#: The paper's preemption quantum: 5 us at 2 GHz.
QUANTUM_CYCLES = 10_000.0


@dataclass
class Fig7Point:
    """One (configuration, offered load) measurement."""

    configuration: str
    offered_rps: float
    achieved_rps: float
    completed: int
    get_p999_us: float
    scan_p999_us: float
    get_mean_us: float
    preemptions: int
    timer_core_busy_fraction: float

    def as_dict(self) -> Dict[str, float]:
        return {
            "offered_rps": self.offered_rps,
            "achieved_rps": self.achieved_rps,
            "get_p999_us": self.get_p999_us,
            "scan_p999_us": self.scan_p999_us,
            "get_mean_us": self.get_mean_us,
            "preemptions": float(self.preemptions),
            "timer_core_busy_fraction": self.timer_core_busy_fraction,
        }


def _runtime_config(configuration: str, num_workers: int = 1) -> RuntimeConfig:
    if configuration == "no_preempt":
        return RuntimeConfig(num_workers=num_workers, quantum=None, mechanism=None)
    if configuration == "uipi":
        return RuntimeConfig(
            num_workers=num_workers, quantum=QUANTUM_CYCLES, mechanism=Mechanism.UIPI
        )
    if configuration == "xui":
        return RuntimeConfig(
            num_workers=num_workers, quantum=QUANTUM_CYCLES, mechanism=Mechanism.XUI_KB_TIMER
        )
    raise ConfigError(f"unknown configuration {configuration!r}")


def run_point(
    configuration: str,
    offered_rps: float,
    duration_seconds: float = 0.25,
    seed: int = 1,
    costs: Optional[CostModel] = None,
    num_workers: int = 1,
) -> Fig7Point:
    """Simulate one configuration at one offered load.

    The paper pins one worker core (§5.3); ``num_workers`` scales the
    runtime out with work stealing for the multi-core variant.
    """
    sim = Simulator()
    rng = RngStreams(seed=seed)
    costs = costs or CostModel.paper_defaults()
    runtime = AspenRuntime(
        sim, _runtime_config(configuration, num_workers), costs=costs, rng=rng
    )
    service_model = BimodalServiceModel(rng=rng)
    generator = PoissonLoadGenerator(offered_rps, service_model=service_model, rng=rng)
    duration_cycles = duration_seconds * 2e9

    def on_arrival(arrival) -> None:
        runtime.spawn(
            UThread(
                service_cycles=arrival.spec.service_cycles,
                kind=arrival.spec.kind,
                arrival_time=sim.now,
            )
        )

    generator.schedule_into(sim, duration_cycles, on_arrival)
    # Run past the arrival window to let queued work drain (bounded).
    sim.run(until=duration_cycles * 1.5)

    gets = runtime.response_times(kind="get")
    scans = runtime.response_times(kind="scan")
    completed = len(runtime.completed)
    # Throughput = completions inside the arrival window; the drain tail
    # afterwards finishes queued work but is not sustained capacity.
    in_window = sum(
        1 for t in runtime.completed if t.completion_time <= duration_cycles
    )
    achieved = in_window / duration_seconds
    timer_busy = 0.0
    if runtime.timer_core is not None:
        timer_busy = runtime.timer_core.busy_fraction(sim.now)
    runtime.close()
    return Fig7Point(
        configuration=configuration,
        offered_rps=offered_rps,
        achieved_rps=achieved,
        completed=completed,
        get_p999_us=cycles_to_us(percentile(gets, 99.9)) if gets else float("nan"),
        scan_p999_us=cycles_to_us(percentile(scans, 99.9)) if scans else float("nan"),
        get_mean_us=cycles_to_us(sum(gets) / len(gets)) if gets else float("nan"),
        preemptions=sum(w.preemption_events for w in runtime.workers),
        timer_core_busy_fraction=timer_busy,
    )


def run_fig7(
    loads_rps: Optional[List[float]] = None,
    configurations: Optional[List[str]] = None,
    duration_seconds: float = 0.25,
    seed: int = 1,
) -> Dict[str, List[Fig7Point]]:
    """configuration -> list of load points (the Figure 7 curves)."""
    loads_rps = loads_rps or [
        20_000,
        60_000,
        100_000,
        140_000,
        180_000,
        200_000,
        215_000,
        230_000,
    ]
    configurations = configurations or list(CONFIGURATIONS)
    results: Dict[str, List[Fig7Point]] = {}
    for configuration in configurations:
        results[configuration] = [
            run_point(configuration, load, duration_seconds=duration_seconds, seed=seed)
            for load in loads_rps
        ]
    return results


def max_throughput_under_slo(
    points: List[Fig7Point], slo_us: float = 1000.0
) -> float:
    """Highest achieved GET throughput whose p99.9 GET latency meets the SLO
    (the paper's 1 ms tail-latency target)."""
    eligible = [p.achieved_rps for p in points if p.get_p999_us <= slo_us]
    return max(eligible) if eligible else 0.0
