"""The benchmark's workloads: seeded inputs, units of work, output oracles.

A workload builds its inputs from ``(seed, scale)`` at construction (the
set-up the benchmark times separately) and then runs *passes*: one pass
is the whole user-facing job once, for example one ``ClusterDriver.run``
or the four quick cycle-tier experiments.  Every pass runs the same
inputs, so every pass must also produce the same output digests.

Units are the pieces of a pass that are timed and checked one by one: a
shard job, an experiment call, a many-core system run, a fuzz scenario.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import json
import math
import pickle
import random
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable, Dict, List, Optional, Tuple

perf_counter = time.perf_counter

SCALES = ("full", "smoke")


def digest(obj: Any) -> str:
    """sha256 of the canonical JSON form of a unit's output."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"e2e/{workload}/{seed}")


@dataclass
class UnitRecord:
    """One timed (or check-only, ``seconds is None``) unit of one pass;
    any note marks it failed."""

    id: str
    kind: str
    pass_index: int
    seconds: Optional[float] = None
    digest: Optional[str] = None
    notes: List[str] = field(default_factory=list)


class Recorder:
    """Times units, keeps their records, and counts simulated core-cycles."""

    def __init__(self, tracer=None) -> None:
        self.tracer = tracer
        self.units: List[UnitRecord] = []
        self.pass_index = 0
        #: Simulated core-cycles: cycles advanced x cores, summed over runs.
        self.sim_cycles = 0.0
        #: Simulated event-tier time, summed over ``Simulator.run`` calls.
        self.sim_span = 0.0

    def check(self, unit_id: str, kind: str) -> UnitRecord:
        record = UnitRecord(unit_id, kind, self.pass_index)
        self.units.append(record)
        return record

    def unit(self, unit_id: str, kind: str, fn: Callable, *args: Any,
             reraise: bool = False) -> Tuple[UnitRecord, Any]:
        """Run ``fn(*args)`` as one unit; an exception fails the unit."""
        record = self.check(unit_id, kind)
        tracer = self.tracer
        start = perf_counter()
        try:
            if tracer is None:
                result = fn(*args)
            else:
                tracer.unit_id = unit_id
                result = tracer.call(f"unit.{kind}", fn, args, span=True)
        except Exception as exc:  # the crash oracle: record and carry on
            record.notes.append(f"{type(exc).__name__}: {exc}")
            if reraise:
                raise
            result = None
        finally:
            record.seconds = perf_counter() - start
        return record, result

    def install_cycle_counters(self) -> None:
        """Count simulated work from what the engines return.

        ``MultiCoreSystem.run`` returns the cycles it advanced; the event
        loop returns its clock.  Both are model outputs, identical under
        every engine flag.
        """
        from repro.cpu.multicore import MultiCoreSystem
        from repro.sim.simulator import Simulator

        recorder = self
        system_run = MultiCoreSystem.run
        sim_run = Simulator.run

        @functools.wraps(system_run)
        def counted_system_run(self, max_cycles, until_halted=None):
            advanced = system_run(self, max_cycles, until_halted)
            recorder.sim_cycles += advanced * len(self.cores)
            return advanced

        @functools.wraps(sim_run)
        def counted_sim_run(self, until=None, max_events=None):
            start = self.now
            end = sim_run(self, until, max_events)
            recorder.sim_span += end - start
            return end

        MultiCoreSystem.run = counted_system_run
        Simulator.run = counted_sim_run


def _finite(obj: Any) -> bool:
    if isinstance(obj, dict):
        return all(_finite(v) for v in obj.values())
    if isinstance(obj, float):
        return math.isfinite(obj)
    return True


# ---------------------------------------------------------------------------
# Cluster (event tier)
# ---------------------------------------------------------------------------

#: name -> scale -> (shards, tenants per shard, workers per shard, rps, ms)
CLUSTER_SHAPES = {
    # Mostly idle workers: ~512 arrivals against 6,000 quantum ticks per job.
    "cluster_idle": {"full": (16, 512, 1, 50.0, 20.0), "smoke": (2, 512, 1, 50.0, 20.0)},
    # Busy workers with live work stealing: ~2,600 arrivals per job.
    "cluster_busy": {"full": (12, 256, 4, 3400.0, 3.0), "smoke": (2, 256, 4, 3400.0, 3.0)},
}


def _pickle_roundtrip(tracer, *objects: Any) -> None:
    """What a process pool would pay to move a job and its result."""
    for obj in objects:
        data = pickle.dumps(obj)
        pickle.loads(data)
        tracer.add("perf.ipc_bytes", len(data))


class ClusterWorkload:
    """``ClusterDriver(topology, jobs=1).run()`` plus the report dump."""

    unit_kind = "job"

    def __init__(self, name: str, seed: int, scale: str) -> None:
        from repro.cluster.driver import ClusterDriver
        from repro.cluster.topology import ClusterTopology

        shards, per_shard, workers, rps, duration_ms = CLUSTER_SHAPES[name][scale]
        self.topology = ClusterTopology(
            name=name, tenants=shards * per_shard, shards=shards, hosts=1,
            cores_per_shard=workers, scenario="rocksdb", tenant_rps=rps,
            duration_ms=duration_ms, seed=seed,
        )
        # Expanding the job grid validates every job once, as set-up.
        ClusterDriver(self.topology, jobs=1).shard_jobs()
        #: The Figure-7 ordering is an oracle only on the idle cluster; on
        #: the busy one it depends on the seed and is printed as information.
        self.verdict_is_oracle = name == "cluster_idle"

    def inputs(self) -> Dict[str, Any]:
        return self.topology.to_json()

    def run_pass(self, rec: Recorder, workdir: str) -> Dict[str, Any]:
        driver_module = importlib.import_module("repro.cluster.driver")
        run_shard_job = driver_module.run_shard_job
        results = []

        @functools.wraps(run_shard_job)
        def timed_job(job):
            span = rec.sim_span
            record, result = rec.unit(
                f"{job.strategy}/{job.shard_index}", "job", run_shard_job, job, reraise=True
            )
            rec.sim_cycles += (rec.sim_span - span) * job.workers
            record.digest = digest(result.to_json())
            if result.completed > result.offered:
                record.notes.append(
                    f"completed {result.completed} > offered {result.offered}"
                )
            if rec.tracer is not None:
                rec.tracer.call("perf.pickle", _pickle_roundtrip, (rec.tracer, job, result))
            results.append(result)
            return result

        # The serial SweepRunner looks the point function up in the driver
        # module at call time, so this times each job in-process.
        driver_module.run_shard_job = timed_job
        checkpoint_dir = tempfile.mkdtemp(prefix="checkpoint-", dir=workdir)
        try:
            driver = driver_module.ClusterDriver(
                self.topology, jobs=1, checkpoint_dir=checkpoint_dir
            )
            report = driver.run()
            dumped = report.dumps()
        finally:
            driver_module.run_shard_job = run_shard_job
            shutil.rmtree(checkpoint_dir, ignore_errors=True)

        check = rec.check("report", "report")
        check.digest = digest(dumped)
        offered: Dict[int, set] = {}
        for result in results:
            offered.setdefault(result.shard_index, set()).add(result.offered)
        unequal = sorted(i for i, values in offered.items() if len(values) > 1)
        if unequal:
            check.notes.append(f"offered differs across strategies on shards {unequal}")
        verdict = report.verdict
        if self.verdict_is_oracle and not (verdict.applicable and verdict.ok):
            check.notes.append(f"Figure-7 p999 ordering failed: {verdict.p999}")
        return {
            "requests_offered": sum(r.offered for r in results),
            "requests_completed": sum(r.completed for r in results),
            "p999_ordering_ok": verdict.ok,
            **{f"p999_{name}": value for name, value in sorted(verdict.p999.items())},
        }


# ---------------------------------------------------------------------------
# Cycle tier, single core: the quick paper experiments
# ---------------------------------------------------------------------------

#: Table-2 / §2 rows whose paper value is not a calibration input.
PAPER_ERR_ROWS = ("uipi_receive", "xui_tracked_ipi", "xui_timer_or_device",
                  "senduipi", "clui", "stui")


def paper_err_pct(mechcosts: Dict[str, Dict[str, float]]) -> float:
    errors = [abs(mechcosts[row]["measured"] - mechcosts[row]["paper"]) / mechcosts[row]["paper"]
              for row in PAPER_ERR_ROWS]
    return 100.0 * sum(errors) / len(errors)


class CycleSingleWorkload:
    """The single-core experiments ``repro experiment`` runs at quick scale."""

    unit_kind = None  # four different experiments: no common unit time

    def __init__(self, seed: int, scale: str) -> None:
        from repro.apps import microbench as mb
        from repro.experiments.characterize import run_max_latency
        from repro.experiments.fig4_overheads import run_fig4
        from repro.experiments.fig5_safepoints import run_fig5
        from repro.experiments.sec2_costs import run_mechanism_costs

        rng = _rng("cycle_single", seed)
        if scale == "full":
            count_loop, base64, chains = 14_000, 2_500, [10, 50]
        else:
            count_loop, base64, chains = 14_000, 400, [10]
        self.sizes = {
            "count_loop": count_loop + rng.randrange(200),
            "base64": base64 + rng.randrange(40),
            "chains": [chain + rng.randrange(2) for chain in chains],
        }
        self.units: Tuple[Tuple[str, Callable[[], Any]], ...] = (
            ("mechcosts", partial(run_mechanism_costs, quick=True)),
            ("fig4", partial(
                run_fig4,
                benchmarks={"count_loop": partial(mb.make_count_loop, self.sizes["count_loop"])},
                jobs=1,
            )),
            ("fig5", partial(
                run_fig5, quanta=[10_000],
                programs={"base64": partial(mb.make_base64, iterations=self.sizes["base64"])},
                jobs=1,
            )),
            ("sec61", partial(run_max_latency, chain_lengths=self.sizes["chains"], jobs=1)),
        )

    def inputs(self) -> Dict[str, Any]:
        return dict(self.sizes)

    def run_pass(self, rec: Recorder, workdir: str) -> Dict[str, Any]:
        info: Dict[str, Any] = {}
        for unit_id, fn in self.units:
            record, result = rec.unit(unit_id, unit_id, fn)
            if result is None:
                continue
            record.digest = digest(result)
            if not _finite(result):
                record.notes.append("non-finite value in result")
            elif unit_id == "mechcosts":
                info["paper_err_pct"] = paper_err_pct(result)
            elif unit_id == "fig4":
                per_event = [result["count_loop"][c]["per_event_cycles"]
                             for c in ("uipi_sw_timer", "xui_sw_timer_tracking",
                                       "xui_kb_timer_tracking")]
                if not per_event[0] > per_event[1] > per_event[2]:
                    record.notes.append(f"Figure-4 per-event ordering failed: {per_event}")
            elif unit_id == "sec61":
                longest = max(result["tracked"])
                if not result["tracked"][longest] > result["flush"][longest]:
                    record.notes.append("§6.1: tracked delivery not slower than flush")
        return info


# ---------------------------------------------------------------------------
# Cycle tier, many cores
# ---------------------------------------------------------------------------

#: DRAM-resident chase (4096 x 64 B = 256 KiB, past the L2) unrolled 16
#: hops per iteration, so worker pipelines are quiescent almost always.
PTR_NODES = 4096
CHASE_UNROLL = 16


def _system_payload(system) -> Dict[str, Any]:
    return {
        "cycles": system.cycle,
        "stats": [dict(core.stats.snapshot().__dict__) for core in system.cores],
        "apics": [apic.counters_as_dict() for apic in system.apics],
    }


@dataclass(frozen=True)
class RocksdbShape:
    """Figure 7 at the cycle tier: a UIPI timer core preempting a chase
    worker, plus 14 worker tenants on per-core KB timers."""

    chase_iterations: int
    worker_periods: Tuple[int, ...]
    core0_period: int

    def build(self):
        from repro.apps import microbench as mb

        chases = [
            mb.make_pointer_chase(PTR_NODES, stride=64, iterations=self.chase_iterations + k,
                                  unroll=CHASE_UNROLL)
            for k in range(1 + len(self.worker_periods))
        ]
        return chases, mb.make_uipi_timer_core(1_500, 2)

    def run(self, built) -> Dict[str, Any]:
        from repro.cpu.delivery import FlushStrategy
        from repro.cpu.multicore import MultiCoreSystem

        chases, sender = built
        programs = [chases[0].program, sender.program] + [c.program for c in chases[1:]]
        system = MultiCoreSystem(programs, [FlushStrategy() for _ in programs])
        for chase in chases:
            chase.install(system.shared)
        system.connect_uipi(sender_core_id=1, receiver_core_id=0, user_vector=1)
        system.enable_kb_timer(0)
        system.cores[0].uintr.kb_timer.arm_periodic(self.core0_period, now=0)
        for k, period in enumerate(self.worker_periods):
            system.enable_kb_timer(2 + k)
            system.cores[2 + k].uintr.kb_timer.arm_periodic(period, now=0)
        watch = [0] + list(range(2, 2 + len(self.worker_periods)))
        system.run(400_000, until_halted=watch)
        return {"halted": [system.cores[i].halted for i in watch],
                "payload": _system_payload(system)}


@dataclass(frozen=True)
class L3fwdShape:
    """Figure 8 at the cycle tier: eight chase cores taking forwarded
    device interrupts from a fast and a slow NIC queue."""

    chase_iterations: int
    intervals: Tuple[int, int]
    shots: Tuple[int, int]

    def build(self):
        from repro.apps import microbench as mb

        return [
            mb.make_pointer_chase(PTR_NODES, stride=64, iterations=self.chase_iterations + 2 * k,
                                  unroll=CHASE_UNROLL)
            for k in range(8)
        ]

    def run(self, built) -> Dict[str, Any]:
        from repro.cpu.delivery import FlushStrategy
        from repro.cpu.multicore import MultiCoreSystem

        system = MultiCoreSystem([c.program for c in built], [FlushStrategy() for _ in built])
        for chase in built:
            chase.install(system.shared)
        for k in range(len(built)):
            system.enable_forwarding(k, vector=0x30 + k, user_vector=3)
            fast = k < len(built) // 2
            interval = self.intervals[0] if fast else self.intervals[1]
            for shot in range(self.shots[0] if fast else self.shots[1]):
                system.raise_device_interrupt(k, 0x30 + k, delay=1_000 + 173 * k + shot * interval)
        watch = list(range(len(built)))
        system.run(400_000, until_halted=watch)
        return {"halted": [system.cores[i].halted for i in watch],
                "payload": _system_payload(system)}


class ManyCoreWorkload:
    """Two many-core shapes, alternating, each twice with its own offsets."""

    unit_kind = None  # two shapes: a median would fall between them

    def __init__(self, seed: int, scale: str) -> None:
        rng = _rng("cycle_manycore", seed)
        rocksdb_iters, l3fwd_iters = (60, 80) if scale == "full" else (6, 8)
        self.shapes: List[Tuple[str, Any]] = []
        for copy in ("a", "b"):
            self.shapes.append((f"rocksdb16-{copy}", RocksdbShape(
                chase_iterations=rocksdb_iters + rng.randrange(4),
                worker_periods=tuple(25_000 + 311 * k + rng.randrange(500) for k in range(14)),
                core0_period=7_500 + rng.randrange(200),
            )))
            self.shapes.append((f"l3fwd8-{copy}", L3fwdShape(
                chase_iterations=l3fwd_iters + rng.randrange(4),
                intervals=(4_000 + rng.randrange(100), 9_000 + rng.randrange(100)),
                shots=(18, 8),
            )))
        # Programs and memory images are built once; every run gets a fresh
        # system.
        self.built = [shape.build() for _, shape in self.shapes]

    def inputs(self) -> Dict[str, Any]:
        return {unit_id: repr(shape) for unit_id, shape in self.shapes}

    def run_pass(self, rec: Recorder, workdir: str) -> Dict[str, Any]:
        for (unit_id, shape), built in zip(self.shapes, self.built):
            record, out = rec.unit(unit_id, unit_id.split("-")[0], shape.run, built)
            if out is None:
                continue
            record.digest = digest(out["payload"])
            if not all(out["halted"]):
                record.notes.append(f"watched cores not all halted: {out['halted']}")
        return {}


# ---------------------------------------------------------------------------
# Differential fuzzer
# ---------------------------------------------------------------------------

#: A pass is the shortest prefix of the seeded scenario stream whose naive
#: legs fetch this many micro-ops (plus ``FUZZ_SCENARIO_UOPS`` each).
#: Scenario costs vary ~10x, so a fixed scenario count would make pass
#: time depend on the seed; a fixed amount of simulated work does not.
FUZZ_TARGET_UOPS = {"full": 250_000, "smoke": 6_000}
#: A scenario's fixed host cost (four system builds, invariant checks) in
#: fetched-µop equivalents: the intercept of host time against fetched
#: µops over 225 generated scenarios.
FUZZ_SCENARIO_UOPS = 280


class FuzzWorkload:
    """``repro fuzz``: generate a scenario, run its whole engine matrix."""

    unit_kind = "scenario"

    def __init__(self, seed: int, scale: str) -> None:
        from repro.scenario.generate import ScenarioGenerator

        self.generator = ScenarioGenerator(seed)
        self.target_uops = FUZZ_TARGET_UOPS[scale]
        #: Scenario count per pass, fixed by the first pass.
        self.count: Optional[int] = None

    def inputs(self) -> Dict[str, Any]:
        return {"root_seed": self.generator.root_seed,
                "first": self.generator.generate(0).to_json()}

    def run_pass(self, rec: Recorder, workdir: str) -> Dict[str, Any]:
        # The package re-exports a ``fuzz`` function under the module's name.
        fuzz = importlib.import_module("repro.scenario.fuzz")
        run_scenario = fuzz.run_scenario
        views: List[Dict[str, Any]] = []

        def generate_and_run(index: int):
            return fuzz.run_one(self.generator.generate(index))

        @functools.wraps(run_scenario)
        def keep_first_view(scenario, leg):
            view = run_scenario(scenario, leg)
            if leg == scenario.engines[0]:
                views.append(view)
            return view

        fuzz.run_scenario = keep_first_view
        try:
            uops = 0
            index = 0
            while (index < self.count) if self.count is not None else (uops < self.target_uops):
                views.clear()
                record, findings = rec.unit(f"scenario-{index}", "scenario", generate_and_run, index)
                index += 1
                for finding in findings or ():
                    record.notes.append(f"{finding.kind} on {finding.leg}: {finding.detail}")
                if not views:
                    record.notes.append("the first engine leg produced no view")
                    continue
                # The first leg is the naive one: its view survives the
                # removal of any later leg.
                record.digest = digest(views[0])
                uops += FUZZ_SCENARIO_UOPS + sum(s["fetched_uops"] for s in views[0]["stats"])
        finally:
            fuzz.run_scenario = run_scenario
        self.count = index
        return {}


WORKLOADS: Dict[str, Callable[[int, str], Any]] = {
    "cluster_idle": partial(ClusterWorkload, "cluster_idle"),
    "cluster_busy": partial(ClusterWorkload, "cluster_busy"),
    "cycle_single": CycleSingleWorkload,
    "cycle_manycore": ManyCoreWorkload,
    "fuzz_diff": FuzzWorkload,
}
