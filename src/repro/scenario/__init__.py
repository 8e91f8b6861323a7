"""Declarative scenario DSL + constrained-random differential fuzzing.

A :class:`~repro.scenario.dsl.Scenario` is a typed dataclass tree —
topology, per-core workloads and delivery strategies, KB-timer programs,
UIPI load profile, fault-plan spec, engine-flag matrix — that validates at
construction time, round-trips through canonical JSON byte-stably, and
compiles deterministically to a runnable :class:`MultiCoreSystem` plus a
:class:`~repro.faults.plan.FaultPlan`.

On top of the DSL sit:

- :class:`~repro.scenario.generate.ScenarioGenerator` — a seeded
  constrained-random generator (byte-stable per seed);
- :func:`~repro.scenario.fuzz.run_scenario` /
  :func:`~repro.scenario.fuzz.fuzz` — the differential fuzz driver that
  runs each scenario under the engine matrix (naive vs ``REPRO_FAST`` vs
  ``+MACRO``) with the :class:`InvariantChecker` armed;
- :func:`~repro.scenario.shrink.shrink` — a greedy minimizer that shrinks
  a failing scenario while preserving its failure fingerprint;
- :mod:`~repro.scenario.corpus` — the ``.repro-fuzz/`` crash-corpus layout
  (scenario JSON + fingerprint + engine metadata, deduped by fingerprint).

``python -m repro fuzz`` drives all of it from the command line.
"""

from repro.scenario.dsl import (
    CoreSpec,
    ENGINE_LEG_NAMES,
    FaultSpec,
    Scenario,
    TimerSpec,
    UipiLink,
    WorkloadSpec,
)
from repro.scenario.compile import build_system, compile_plan, compile_workload
from repro.scenario.corpus import DEFAULT_CORPUS_DIR, CrashCorpus
from repro.scenario.generate import GeneratorBudget, ScenarioGenerator
from repro.scenario.fuzz import FuzzFinding, FuzzReport, fuzz, run_one, run_scenario
from repro.scenario.shrink import ShrinkResult, shrink

__all__ = [
    "CoreSpec",
    "CrashCorpus",
    "DEFAULT_CORPUS_DIR",
    "ENGINE_LEG_NAMES",
    "FaultSpec",
    "FuzzFinding",
    "FuzzReport",
    "GeneratorBudget",
    "Scenario",
    "ScenarioGenerator",
    "ShrinkResult",
    "TimerSpec",
    "UipiLink",
    "WorkloadSpec",
    "build_system",
    "compile_plan",
    "compile_workload",
    "fuzz",
    "run_one",
    "run_scenario",
    "shrink",
]
