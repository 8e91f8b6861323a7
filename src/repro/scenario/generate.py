"""Seeded constrained-random scenario generation.

``ScenarioGenerator`` turns ``(root_seed, index)`` into a valid
:class:`~repro.scenario.dsl.Scenario`, byte-stable per seed: the draw order
is fixed, every choice comes from one :class:`random.Random` seeded through
:func:`repro.common.rng.derive_seed`, and the result is a frozen dataclass
tree, so ``generate(i).dumps()`` is identical across processes, sessions,
and platforms.  This module is on detlint's DET002 seeded-RNG surface —
the *only* RNG construction allowed here is the derived-seed one below.

The generation ranges are deliberately tighter than the DSL's validation
ranges: the DSL bounds what a scenario may *be*, the budget bounds what the
fuzzer will *draw*, because every scenario runs under up to three engine
legs including the ~26k-cycles/second naive stepper.  A drawn scenario
targets a few thousand simulated cycles so a 200-seed fuzz run finishes in
minutes, not hours.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple

from repro.common.errors import ConfigError
from repro.common.rng import derive_seed
from repro.faults.plan import FAULT_KINDS, MESSAGE_KINDS, FaultPlan
from repro.scenario.dsl import (
    ENGINE_LEG_NAMES,
    MEMORY_WORKLOAD_KINDS,
    CoreSpec,
    FaultSpec,
    Scenario,
    TimerSpec,
    UipiLink,
    WorkloadSpec,
)

#: Per-kind knob *generation* ranges — a cheap sub-box of the DSL ranges.
#: name -> (lo, hi, power_of_two).  Chosen so a single workload finishes in
#: roughly 1k-12k simulated cycles.
GEN_KNOBS: Dict[str, Dict[str, Tuple[int, int, bool]]] = {
    "count_loop": {"iterations": (100, 800, False)},
    "fib": {"n": (4, 9, False)},
    "base64": {"iterations": (30, 250, False)},
    "fnv_hash": {"iterations": (20, 150, False), "buffer_words": (64, 256, True)},
    "memops": {"iterations": (20, 120, False), "footprint_kb": (1, 16, True)},
    "pointer_chase": {
        "num_nodes": (8, 48, False),
        "stride": (64, 256, True),
        "iterations": (20, 120, False),
        "unroll": (1, 2, False),
    },
    "matmul": {"size": (3, 8, False)},
    "quicksort": {"n": (8, 64, False), "seed": (0, 97, False)},
}

#: Default relative workload weights (count_loop over-weighted: it is the
#: cheapest and the best macro-replay candidate, so it probes the macro
#: tier's bail paths hardest).
DEFAULT_WEIGHTS: Dict[str, int] = {
    "count_loop": 3,
    "fib": 2,
    "base64": 2,
    "fnv_hash": 2,
    "memops": 2,
    "pointer_chase": 2,
    "matmul": 1,
    "quicksort": 2,
}

STRATEGY_CHOICES: Tuple[str, ...] = ("flush", "drain", "tracked")


@dataclass(frozen=True, slots=True)
class GeneratorBudget:
    """Size caps for drawn scenarios (distinct from DSL validation caps)."""

    max_workload_cores: int = 2
    max_sender_cores: int = 2
    max_idle_cores: int = 2
    max_faults: int = 4
    #: Sender load profile: interval x count bounds.
    sender_interval: Tuple[int, int] = (400, 1_200)
    sender_count: Tuple[int, int] = (3, 8)
    #: KB timer period bounds (kept well above the handler cost so
    #: interrupt storms cannot starve the workload into a fake timeout).
    timer_period: Tuple[int, int] = (512, 4_096)
    #: Cycle budget per leg: generous vs the ~1k-12k cycle workloads, so
    #: hitting it is a genuine liveness finding, not noise.
    max_cycles: int = 120_000

    def __post_init__(self) -> None:
        if self.max_workload_cores < 1:
            raise ConfigError("budget needs at least one workload core")
        if min(self.max_sender_cores, self.max_idle_cores, self.max_faults) < 0:
            raise ConfigError("budget caps must be non-negative")
        for lo, hi in (self.sender_interval, self.sender_count, self.timer_period):
            if lo > hi or lo < 1:
                raise ConfigError(f"bad budget range ({lo}, {hi})")


def _draw_knob(rng: random.Random, lo: int, hi: int, pow2: bool) -> int:
    if pow2:
        exps = [e for e in range(lo.bit_length() - 1, hi.bit_length()) if lo <= 2**e <= hi]
        return 2 ** rng.choice(exps)
    return rng.randint(lo, hi)


class ScenarioGenerator:
    """Draw valid scenarios from a seeded, weight-tunable distribution."""

    def __init__(
        self,
        root_seed: int = 0,
        *,
        budget: Optional[GeneratorBudget] = None,
        weights: Optional[Dict[str, int]] = None,
    ) -> None:
        self.root_seed = int(root_seed)
        self.budget = budget or GeneratorBudget()
        merged = dict(DEFAULT_WEIGHTS)
        if weights:
            unknown = sorted(set(weights) - set(DEFAULT_WEIGHTS))
            if unknown:
                raise ConfigError(
                    f"unknown workload kinds in weights: {unknown}; expected a "
                    f"subset of {sorted(DEFAULT_WEIGHTS)}"
                )
            merged.update(weights)
        if any(w < 0 for w in merged.values()) or not any(merged.values()):
            raise ConfigError("weights must be non-negative with at least one > 0")
        self.weights = merged
        # Stable draw order: kinds in schema order, each with its weight.
        self._kinds = [k for k in GEN_KNOBS if merged.get(k, 0) > 0]
        self._kind_weights = [merged[k] for k in self._kinds]

    def _draw_workload(
        self, rng: random.Random, *, register_only: bool
    ) -> WorkloadSpec:
        """Draw a kind (weighted), restricted to register-only kinds for
        every workload core after the first — the DSL allows at most one
        memory-image workload per scenario (data addresses would alias)."""
        if register_only:
            kinds = [k for k in self._kinds if k not in MEMORY_WORKLOAD_KINDS]
            weights = [self.weights[k] for k in kinds]
            if not kinds:  # all weight on memory kinds: fall back evenly
                kinds = [k for k in GEN_KNOBS if k not in MEMORY_WORKLOAD_KINDS]
                weights = [1] * len(kinds)
        else:
            kinds, weights = self._kinds, self._kind_weights
        kind = rng.choices(kinds, weights=weights, k=1)[0]
        knobs = tuple(
            (name, _draw_knob(rng, lo, hi, pow2))
            for name, (lo, hi, pow2) in sorted(GEN_KNOBS[kind].items())
        )
        return WorkloadSpec(kind=kind, knobs=knobs)

    def _draw_workload_core(
        self, rng: random.Random, *, register_only: bool
    ) -> CoreSpec:
        b = self.budget
        kb_timer = None
        if rng.random() < 0.5:
            kb_timer = TimerSpec(period=rng.randint(*b.timer_period))
        return CoreSpec(
            role="workload",
            workload=self._draw_workload(rng, register_only=register_only),
            strategy=rng.choice(STRATEGY_CHOICES),
            safepoint=rng.random() < 0.25,
            kb_timer=kb_timer,
        )

    def _draw_faults(
        self,
        rng: random.Random,
        scenario_seed: int,
        *,
        cores: int,
        receivers: Tuple[int, ...],
    ) -> FaultSpec:
        """An explicit fault schedule respecting model preconditions.

        The draw goes through :meth:`FaultPlan.random` (byte-stable per
        seed), then ``spurious_uintr`` entries are retargeted onto UIPI
        receivers — the recognition microcode reads the target's UPID, and
        only link receivers have one — or dropped when there are none.
        Explicit (rather than count-form) faults also give the shrinker
        entries it can drop one at a time without redrawing the schedule.
        """
        count = rng.randint(0, self.budget.max_faults)
        fault_seed = derive_seed(scenario_seed, "faults")
        if count == 0:
            return FaultSpec(seed=fault_seed)
        plan = FaultPlan.random(
            fault_seed,
            cores=cores,
            # Faults must land inside the live window of these small
            # scenarios or they are dead weight in every draw.
            horizon=12_000,
            count=count,
            kinds=FAULT_KINDS,
            max_index=8,
            max_delay=500,
        )
        kept = []
        message_slots = set()
        for fault in plan.faults:
            if fault.kind == "spurious_uintr" and fault.core not in receivers:
                if not receivers:
                    continue
                fault = replace(fault, core=receivers[fault.core % len(receivers)])
            if fault.kind in MESSAGE_KINDS:
                # One action per (core, accept-index) slot: the injector
                # (and the DSL) reject colliding message faults.
                slot = (fault.core, fault.index)
                if slot in message_slots:
                    continue
                message_slots.add(slot)
            kept.append(fault)
        return FaultSpec(seed=fault_seed, faults=tuple(kept))

    def generate(self, index: int) -> Scenario:
        """Scenario number ``index`` of this generator's stream."""
        b = self.budget
        seed = derive_seed(self.root_seed, "scenario", int(index))
        rng = random.Random(seed)

        n_workload = rng.randint(1, b.max_workload_cores)
        n_senders = rng.randint(0, min(b.max_sender_cores, n_workload))
        n_idle = rng.randint(0, b.max_idle_cores)

        cores: List[CoreSpec] = [
            self._draw_workload_core(rng, register_only=i > 0)
            for i in range(n_workload)
        ]
        links: List[UipiLink] = []
        # Senders pair off with distinct workload cores (one link per
        # receiver is a DSL invariant: connect_uipi registers the handler).
        receivers = rng.sample(range(n_workload), n_senders)
        for receiver in receivers:
            sender_id = len(cores)
            cores.append(
                CoreSpec(
                    role="uipi_sender",
                    interval=rng.randint(*b.sender_interval),
                    count=rng.randint(*b.sender_count),
                )
            )
            links.append(
                UipiLink(sender=sender_id, receiver=receiver, vector=rng.randint(1, 63))
            )
        cores.extend(CoreSpec(role="idle") for _ in range(n_idle))

        faults = self._draw_faults(
            rng, seed, cores=len(cores), receivers=tuple(sorted(receivers))
        )

        return Scenario(
            name=f"gen-{self.root_seed}-{index}",
            cores=tuple(cores),
            links=tuple(links),
            faults=faults,
            engines=ENGINE_LEG_NAMES,
            max_cycles=b.max_cycles,
            seed=seed,
        )
