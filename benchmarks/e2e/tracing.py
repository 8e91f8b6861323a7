"""Wall-clock tracing for the traced benchmark run.

The traced run wraps public entry points of each layer from here, so the
simulator's own sources stay untouched.  Two kinds of record are kept in
memory and written out when the run ends:

- coarse spans (pass, unit, leg, ``Simulator.run``): one record each with
  id, parent, unit id, name, start and end, exported as a Chrome trace on
  one wall-clock track;
- per-call aggregates for the hot boundaries (``Core.step``, the runtime
  tick callbacks, ``EventQueue.push`` ...): count, total time and time
  spent in wrapped children, keyed by (parent, name).  Storing these as
  spans would mean millions of records per pass.

A boundary's self time is its total minus the time its wrapped children
cover.  A hook whose target no longer exists is reported as missing and
its metrics read 0.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

perf_counter = time.perf_counter


class Tracer:
    """Span and aggregate store; see the module docstring."""

    def __init__(self) -> None:
        self.origin = perf_counter()
        self.missing: List[str] = []
        self.reset()

    def reset(self) -> None:
        # A frame is [name, child seconds, id of the nearest enclosing span].
        self._stack: List[list] = [["<root>", 0.0, 0]]
        self.agg: Dict[Tuple[str, str], List[float]] = {}
        self.spans: List[Tuple[int, int, Optional[str], str, float, float]] = []
        self.counts: Dict[str, float] = {}
        self.unit_id: Optional[str] = None
        self._next_id = 1

    def add(self, key: str, amount: float = 1.0) -> None:
        self.counts[key] = self.counts.get(key, 0.0) + amount

    def call(self, name: str, fn: Callable, args: tuple = (), kwargs: Optional[dict] = None,
             span: bool = False) -> Any:
        stack = self._stack
        parent = stack[-1]
        if span:
            span_id = self._next_id
            self._next_id += 1
        else:
            span_id = parent[2]
        frame = [name, 0.0, span_id]
        stack.append(frame)
        start = perf_counter()
        try:
            return fn(*args, **(kwargs or {}))
        finally:
            elapsed = perf_counter() - start
            stack.pop()
            parent[1] += elapsed
            rec = self.agg.get((parent[0], name))
            if rec is None:
                rec = self.agg[(parent[0], name)] = [0, 0.0, 0.0]
            rec[0] += 1
            rec[1] += elapsed
            rec[2] += frame[1]
            if span:
                self.spans.append(
                    (span_id, parent[2], self.unit_id, name, start, start + elapsed)
                )

    # -- read-out --------------------------------------------------------

    def by_name(self) -> Dict[str, Dict[str, float]]:
        """Count, total and self seconds per boundary, summed over parents."""
        out: Dict[str, Dict[str, float]] = {}
        for (_, name), (count, total, child) in self.agg.items():
            row = out.setdefault(name, {"count": 0, "total_s": 0.0, "self_s": 0.0})
            row["count"] += count
            row["total_s"] += total
            row["self_s"] += total - child
        return out

    def table(self) -> List[Dict[str, Any]]:
        return [
            {"parent": parent, "name": name, "count": count, "total_s": total,
             "child_s": child, "self_s": total - child}
            for (parent, name), (count, total, child) in sorted(self.agg.items())
        ]

    def write_chrome_trace(self, path, meta: Dict[str, Any]) -> None:
        events: List[Dict[str, Any]] = [
            {"name": "thread_name", "ph": "M", "pid": 1, "tid": 1,
             "args": {"name": "wall clock"}},
        ]
        for span_id, parent_id, unit_id, name, start, end in self.spans:
            events.append({
                "name": name, "cat": "e2e", "ph": "X", "pid": 1, "tid": 1,
                "ts": (start - self.origin) * 1e6, "dur": (end - start) * 1e6,
                "args": {"id": span_id, "parent": parent_id, "unit": unit_id},
            })
        doc = {"traceEvents": events, "displayTimeUnit": "ms",
               "otherData": dict(meta, layers=self.table(), missing_hooks=self.missing)}
        with open(path, "w") as handle:
            json.dump(doc, handle)


# ---------------------------------------------------------------------------
# Hooks: which entry points are wrapped, under which boundary name
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Hook:
    module: str
    attr: str  # "func" or "Class.method", looked up where callers find it
    name: str
    span: bool = False


HOOKS: Tuple[Hook, ...] = (
    # sim
    Hook("repro.sim.simulator", "Simulator.run", "sim.run", span=True),
    Hook("repro.sim.event", "EventQueue.push", "sim.push"),
    # runtime
    Hook("repro.runtime.aspen", "WorkerCore._tick", "runtime.tick"),
    Hook("repro.runtime.aspen", "WorkerCore._dispatch", "runtime.dispatch"),
    Hook("repro.runtime.aspen", "WorkerCore._complete", "runtime.complete"),
    Hook("repro.runtime.aspen", "AspenRuntime.steal_for", "runtime.steal"),
    # notify
    Hook("repro.notify.costs", "CostModel.preemption_cost", "notify.preemption_cost"),
    # apps: shard.py calls the arrival generator through its own import
    Hook("repro.cluster.shard", "schedule_scenario", "apps.arrivals"),
    # obs
    Hook("repro.obs.hist", "LatencyHistogram.record", "obs.hist_record"),
    Hook("repro.cluster.driver", "aggregate_strategy", "obs.hist_merge"),
    # cluster
    Hook("repro.cluster.driver", "ordering_verdict", "cluster.verdict"),
    Hook("repro.cluster.report", "ClusterReport.dumps", "cluster.dumps"),
    # perf
    Hook("repro.perf.engine", "_Checkpoint.record", "perf.checkpoint"),
    Hook("repro.perf.engine", "_Checkpoint.load", "perf.checkpoint"),
    Hook("repro.perf.engine", "_Checkpoint.complete", "perf.checkpoint"),
    # cpu
    Hook("repro.cpu.core", "Core.step", "cpu.step"),
    Hook("repro.cpu.core", "Core.next_activity_cycle", "cpu.horizon"),
    Hook("repro.cpu.core", "Core.note_skipped", "cpu.skip"),
    Hook("repro.cpu.core", "Core.run", "cpu.run"),
    Hook("repro.cpu.multicore", "MultiCoreSystem.run", "cpu.run"),
    Hook("repro.cpu.macroop", "MacroController.on_boundary", "cpu.macro"),
    Hook("repro.cpu.batchstep", "run_batched", "cpu.batch"),
    # uintr: the cycle tier sends IPIs through the system's own bus
    Hook("repro.uintr.apic", "LocalApic.accept", "uintr.apic_accept"),
    Hook("repro.cpu.multicore", "MultiCoreSystem._send_ipi", "uintr.send_ipi"),
    # scenario / faults
    Hook("repro.scenario.generate", "ScenarioGenerator.generate", "scenario.generate"),
    Hook("repro.scenario.fuzz", "build_system", "scenario.build"),
    Hook("repro.scenario.fuzz", "run_scenario", "scenario.leg", span=True),
    Hook("repro.faults.invariants", "InvariantChecker.finish", "faults.check"),
)


def _resolve(hook: Hook) -> Tuple[Any, str, Any]:
    owner: Any = importlib.import_module(hook.module)
    *path, leaf = hook.attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, leaf, getattr(owner, leaf)


def _wrapper(tracer: Tracer, hook: Hook, fn: Callable) -> Callable:
    # Special cases keep the wrapped function's parameter names, so keyword
    # calls still bind.
    boundary, span, call, add = hook.name, hook.span, tracer.call, tracer.add
    if boundary == "sim.push":
        # Time each fired callback too, so the loop's self time excludes them.
        def push(self, time, callback, name=""):
            def fired():
                return call("sim.callback", callback)
            return call(boundary, fn, (self, time, fired, name))
        return functools.wraps(fn)(push)
    if boundary == "runtime.tick":
        def tick(self):
            if self.current is None:
                add("runtime.idle_ticks")
            return call(boundary, fn, (self,))
        return functools.wraps(fn)(tick)
    if boundary == "runtime.steal":
        def steal(self, thief):
            stolen = call(boundary, fn, (self, thief))
            if stolen is not None:
                add("runtime.steal_hits")
            return stolen
        return functools.wraps(fn)(steal)
    if boundary == "cpu.skip":
        def skip(self, cycles):
            add("cpu.skipped_cycles", cycles)
            return call(boundary, fn, (self, cycles))
        return functools.wraps(fn)(skip)
    if boundary == "cpu.macro":
        def on_boundary(self, cycle, end):
            jump = call(boundary, fn, (self, cycle, end))
            if jump:
                add("cpu.macro_replays")
            return jump
        return functools.wraps(fn)(on_boundary)
    if boundary == "scenario.leg":
        def leg(scenario, leg):
            return call(f"scenario.leg.{leg}", fn, (scenario, leg), span=True)
        return functools.wraps(fn)(leg)

    def wrapper(*args, **kwargs):
        return call(boundary, fn, args, kwargs, span=span)
    return functools.wraps(fn)(wrapper)


def install(tracer: Tracer) -> None:
    """Wrap every hook target that exists; note the ones that do not."""
    for hook in HOOKS:
        try:
            owner, leaf, fn = _resolve(hook)
        except (ImportError, AttributeError):
            tracer.missing.append(f"{hook.module}:{hook.attr}")
            continue
        setattr(owner, leaf, _wrapper(tracer, hook, fn))


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------

#: (metric, unit, how): ``how`` is (boundary, field) for a per-pass sum of
#: a boundary's count / self seconds / total seconds, or a callable over
#: (rows, counts) for ratios.  Every ``*_s`` of a per-call boundary is self
#: time; the phase boundaries (experiments, legs, report, checkpoint,
#: pickling) report their whole duration.
def _frac(num: float, den: float) -> float:
    return num / den if den else 0.0


PER_LAYER: Tuple[Tuple[str, str, Any], ...] = (
    ("sim.loop_self_s", "s", ("sim.run", "self_s")),
    ("sim.push_n", "count", ("sim.push", "count")),
    ("sim.push_s", "s", ("sim.push", "self_s")),
    ("sim.events_n", "count", ("sim.callback", "count")),
    ("runtime.tick_n", "count", ("runtime.tick", "count")),
    ("runtime.tick_s", "s", ("runtime.tick", "self_s")),
    ("runtime.idle_tick_frac", "fraction",
     lambda rows, counts: _frac(counts.get("runtime.idle_ticks", 0.0),
                                rows.get("runtime.tick", {}).get("count", 0))),
    ("runtime.dispatch_s", "s", ("runtime.dispatch", "self_s")),
    ("runtime.complete_s", "s", ("runtime.complete", "self_s")),
    ("runtime.steal_n", "count", ("runtime.steal", "count")),
    ("runtime.steal_s", "s", ("runtime.steal", "self_s")),
    ("runtime.steal_hit_frac", "fraction",
     lambda rows, counts: _frac(counts.get("runtime.steal_hits", 0.0),
                                rows.get("runtime.steal", {}).get("count", 0))),
    ("notify.preemption_cost_n", "count", ("notify.preemption_cost", "count")),
    ("notify.preemption_cost_s", "s", ("notify.preemption_cost", "self_s")),
    ("apps.arrivals_s", "s", ("apps.arrivals", "self_s")),
    ("obs.hist_record_s", "s", ("obs.hist_record", "self_s")),
    ("obs.hist_merge_s", "s", ("obs.hist_merge", "total_s")),
    ("cluster.report_s", "s",
     lambda rows, counts: sum(rows.get(n, {}).get("total_s", 0.0)
                              for n in ("cluster.verdict", "cluster.dumps"))),
    ("perf.checkpoint_s", "s", ("perf.checkpoint", "total_s")),
    ("perf.ipc_bytes", "bytes", lambda rows, counts: counts.get("perf.ipc_bytes", 0.0)),
    ("perf.pickle_s", "s", ("perf.pickle", "total_s")),
    ("cpu.step_n", "count", ("cpu.step", "count")),
    ("cpu.step_s", "s", ("cpu.step", "self_s")),
    ("cpu.horizon_n", "count", ("cpu.horizon", "count")),
    ("cpu.horizon_s", "s", ("cpu.horizon", "self_s")),
    ("cpu.skip_n", "count", ("cpu.skip", "count")),
    ("cpu.skipped_cycles", "cycles",
     lambda rows, counts: counts.get("cpu.skipped_cycles", 0.0)),
    ("cpu.macro_n", "count", lambda rows, counts: counts.get("cpu.macro_replays", 0.0)),
    ("cpu.macro_s", "s", ("cpu.macro", "self_s")),
    ("cpu.batch_s", "s", ("cpu.batch", "self_s")),
    ("cpu.run_self_s", "s", ("cpu.run", "self_s")),
    ("uintr.apic_accept_n", "count", ("uintr.apic_accept", "count")),
    ("uintr.send_ipi_n", "count", ("uintr.send_ipi", "count")),
    ("experiments.mechcosts_s", "s", ("unit.mechcosts", "total_s")),
    ("experiments.fig4_s", "s", ("unit.fig4", "total_s")),
    ("experiments.fig5_s", "s", ("unit.fig5", "total_s")),
    ("experiments.sec61_s", "s", ("unit.sec61", "total_s")),
    ("scenario.generate_s", "s", ("scenario.generate", "total_s")),
    ("scenario.build_s", "s", ("scenario.build", "total_s")),
    ("scenario.leg_naive_s", "s", ("scenario.leg.naive", "total_s")),
    ("scenario.leg_fast_s", "s", ("scenario.leg.fast", "total_s")),
    ("scenario.leg_macro_s", "s", ("scenario.leg.fast+macro", "total_s")),
    ("scenario.leg_batch_s", "s", ("scenario.leg.fast+batch", "total_s")),
    ("faults.check_s", "s", ("faults.check", "total_s")),
)

#: Read from the engine's own counters at the end of the run (ratios).
COUNTER_METRICS: Tuple[Tuple[str, str], ...] = (
    ("cpu.cycles_stepped_frac", "fraction"),
    ("cpu.cycles_skipped_frac", "fraction"),
    ("cpu.cycles_replayed_frac", "fraction"),
    ("cpu.uop_hit_rate", "fraction"),
)


def engine_counter_metrics(counters) -> Dict[str, float]:
    total = counters.cycles_stepped + counters.cycles_skipped + counters.macro_replayed_cycles
    return {
        "cpu.cycles_stepped_frac": _frac(counters.cycles_stepped, total),
        "cpu.cycles_skipped_frac": _frac(counters.cycles_skipped, total),
        "cpu.cycles_replayed_frac": _frac(counters.macro_replayed_cycles, total),
        "cpu.uop_hit_rate": counters.uop_hit_rate,
    }


def per_layer_metrics(tracer: Tracer, passes: int) -> Dict[str, float]:
    """Every per-layer metric except the counter ratios and the overhead.

    Counts and seconds are per pass, so runs of different lengths compare.
    """
    rows = tracer.by_name()
    out: Dict[str, float] = {}
    for metric, _, how in PER_LAYER:
        if callable(how):
            value = how(rows, tracer.counts)
        else:
            boundary, field = how
            value = rows.get(boundary, {}).get(field, 0.0)
        if not metric.endswith("_frac"):
            value /= passes
        out[metric] = value
    return out
