"""The differential fuzz driver: engine matrix x oracles x fingerprints.

Each scenario runs once per engine leg (naive, ``REPRO_FAST``, FAST+MACRO)
with the :class:`InvariantChecker` armed.  Four oracles turn a
run into a finding:

``invariant``
    An :class:`InvariantViolation` fired during the run or the end-of-run
    conservation audit.
``crash``
    Any other exception escaped the simulator.
``timeout``
    A watched workload core had not halted when the scenario's cycle
    budget ran out.  This is *simulated* cycles, not wall clock, so the
    oracle is deterministic and the finding replays exactly.
``divergence``
    The leg's simulated view (halt states, final cycle, per-core stats,
    full trace) differs byte-for-byte from the first leg's.

Findings carry a *fingerprint*: a hash of (oracle, leg, detail) with runs
of digits collapsed, so the same bug class keeps the same fingerprint as
the shrinker makes the numbers smaller.  The corpus dedups on it.

``REPRO_FUZZ_TEST_DIVERGENCE=<leg>`` perturbs that leg's view by one cycle
— a test-only bug hook that proves, in CI and in the acceptance tests,
that the whole pipeline (oracle -> fingerprint -> shrink -> corpus ->
replay) actually fires.  It works in-process and across the CLI.
"""

from __future__ import annotations

import hashlib
import os
import re
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from repro.common.counters import ENV_FAST, ENV_MACRO
from repro.common.errors import ConfigError, InvariantViolation
from repro.faults.injector import FaultInjector
from repro.faults.invariants import InvariantChecker
from repro.scenario.compile import build_system
from repro.scenario.dsl import Scenario
from repro.scenario.generate import ScenarioGenerator

#: Leg name -> the engine environment that leg runs under.
ENGINE_LEGS: Dict[str, Dict[str, str]] = {
    "naive": {ENV_FAST: "0", ENV_MACRO: "0"},
    "fast": {ENV_FAST: "1", ENV_MACRO: "0"},
    "fast+macro": {ENV_FAST: "1", ENV_MACRO: "1"},
}

#: Test-only oracle hook: name a leg to perturb its view by one cycle.
ENV_TEST_DIVERGENCE = "REPRO_FUZZ_TEST_DIVERGENCE"

FINDING_KINDS: Tuple[str, ...] = ("invariant", "divergence", "crash", "timeout")

_DIGITS = re.compile(r"\d+")


@contextmanager
def _engine_env(leg: str) -> Iterator[None]:
    """Pin the engine flags for one leg, restoring the caller's environment.

    Intentional environment access (suppressed, not baselined): selecting
    the engine under test IS the fuzzer's job — the flags are read by
    repro.common.counters at run time, and the save/restore pair keeps the
    matrix invisible to the caller (same idiom as repro.faults.harness).
    """
    if leg not in ENGINE_LEGS:
        raise ConfigError(f"unknown engine leg {leg!r}; expected one of {tuple(ENGINE_LEGS)}")
    saved = {k: os.environ.get(k) for k in ENGINE_LEGS[leg]}  # detlint: ignore[DET004]
    os.environ.update(ENGINE_LEGS[leg])  # detlint: ignore[DET004]
    try:
        yield
    finally:
        for key, value in saved.items():
            if value is None:
                os.environ.pop(key, None)  # detlint: ignore[DET004]
            else:
                os.environ[key] = value  # detlint: ignore[DET004]


def fingerprint(kind: str, leg: str, detail: str) -> str:
    """The failure identity: oracle x leg x digit-normalized detail.

    Collapsing digit runs to ``#`` is what lets the shrinker halve every
    number in a scenario without changing the fingerprint — a shrink step
    is accepted only if this value is preserved.
    """
    normalized = _DIGITS.sub("#", detail)
    text = f"{kind}|{leg}|{normalized}"
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:12]


@dataclass(frozen=True, slots=True)
class FuzzFinding:
    """One oracle firing on one scenario under one leg."""

    scenario: Scenario
    kind: str
    leg: str
    detail: str
    fingerprint: str

    def to_json(self) -> dict:
        return {
            "detail": self.detail,
            "engine_env": dict(ENGINE_LEGS[self.leg]),
            "fingerprint": self.fingerprint,
            "kind": self.kind,
            "leg": self.leg,
            "scenario": self.scenario.to_json(),
            "scenario_id": self.scenario.content_id(),
        }


def _make_finding(scenario: Scenario, kind: str, leg: str, detail: str) -> FuzzFinding:
    return FuzzFinding(
        scenario=scenario,
        kind=kind,
        leg=leg,
        detail=detail,
        fingerprint=fingerprint(kind, leg, detail),
    )


def run_scenario(scenario: Scenario, leg: str) -> Dict[str, object]:
    """Run one scenario under one engine leg; return its simulated view.

    The view is the engine-comparable slice: watched halt states, final
    cycle, per-core stats snapshots, and the full trace.  Raises whatever
    the simulator raises — the caller classifies.
    """
    built = build_system(scenario)
    checker = InvariantChecker(built.plan).install(built.system)
    FaultInjector(built.plan).install(built.system)
    with _engine_env(leg):
        built.system.run(scenario.max_cycles, until_halted=list(built.watch_cores))
        checker.finish(built.system)
    system = built.system
    view: Dict[str, object] = {
        "halted": [system.cores[i].halted for i in built.watch_cores],
        "cycles": system.cycle,
        "stats": [dict(c.stats.snapshot().__dict__) for c in system.cores],
        "trace": [
            (event.time, event.kind, tuple(sorted(event.detail.items())))
            for event in system.trace.events
        ],
    }
    # Test-only bug hook: reading the environment here is deliberate — the
    # hook must also reach CLI subprocess replays, so it cannot be a
    # parameter (see module docstring).
    if os.environ.get(ENV_TEST_DIVERGENCE) == leg:  # detlint: ignore[DET004]
        view["cycles"] = int(view["cycles"]) + 1
    return view


def _diff_detail(
    base_leg: str,
    base: Dict[str, object],
    leg: str,
    view: Dict[str, object],
) -> str:
    """A short, digit-normalizable description of the first divergence."""
    for key in ("halted", "cycles"):
        if base[key] != view[key]:
            return f"{key}: {base_leg}={base[key]!r} vs {leg}={view[key]!r}"
    if base["stats"] != view["stats"]:
        for core_id, (b, v) in enumerate(zip(base["stats"], view["stats"])):
            for stat in sorted(set(b) | set(v)):
                if b.get(stat) != v.get(stat):
                    return (
                        f"stats[core {core_id}].{stat}: "
                        f"{base_leg}={b.get(stat)!r} vs {leg}={v.get(stat)!r}"
                    )
    if base["trace"] != view["trace"]:
        b_tr, v_tr = base["trace"], view["trace"]
        for i, (b, v) in enumerate(zip(b_tr, v_tr)):
            if b != v:
                return f"trace[{i}]: {base_leg}={b!r} vs {leg}={v!r}"
        return (
            f"trace length: {base_leg}={len(b_tr)} vs {leg}={len(v_tr)}"
        )
    return f"views differ between {base_leg} and {leg} (unlocated)"


def run_one(scenario: Scenario) -> List[FuzzFinding]:
    """Run a scenario's whole engine matrix and apply every oracle."""
    findings: List[FuzzFinding] = []
    views: Dict[str, Dict[str, object]] = {}
    for leg in scenario.engines:
        try:
            view = run_scenario(scenario, leg)
        except InvariantViolation as exc:
            findings.append(_make_finding(scenario, "invariant", leg, str(exc)))
            continue
        except Exception as exc:  # noqa: BLE001 - the crash oracle
            detail = f"{type(exc).__name__}: {exc}"
            findings.append(_make_finding(scenario, "crash", leg, detail))
            continue
        if not all(view["halted"]):
            stuck = [i for i, halted in enumerate(view["halted"]) if not halted]
            detail = (
                f"watched workload core(s) {stuck} not halted after "
                f"{scenario.max_cycles} cycles"
            )
            findings.append(_make_finding(scenario, "timeout", leg, detail))
            continue
        views[leg] = view
    if len(views) >= 2:
        legs = list(views)
        base_leg, base = legs[0], views[legs[0]]
        for leg in legs[1:]:
            if views[leg] != base:
                detail = _diff_detail(base_leg, base, leg, views[leg])
                findings.append(_make_finding(scenario, "divergence", leg, detail))
    return findings


@dataclass(slots=True)
class FuzzReport:
    """What a fuzz run did: coverage plus every finding."""

    scenarios_run: int
    findings: List[FuzzFinding]
    first_seed: int
    last_seed: Optional[int]
    elapsed_seconds: float
    stopped_on_budget: bool

    @property
    def clean(self) -> bool:
        return not self.findings

    def summary(self) -> Dict[str, object]:
        by_kind: Dict[str, int] = {}
        for finding in self.findings:
            by_kind[finding.kind] = by_kind.get(finding.kind, 0) + 1
        return {
            "scenarios_run": self.scenarios_run,
            "findings": len(self.findings),
            "unique_fingerprints": len({f.fingerprint for f in self.findings}),
            "by_kind": by_kind,
            "elapsed_seconds": round(self.elapsed_seconds, 3),
            "stopped_on_budget": self.stopped_on_budget,
        }


def fuzz(
    generator: ScenarioGenerator,
    *,
    seeds: int = 100,
    start: int = 0,
    time_budget: Optional[float] = None,
    progress: Optional[Callable[[int, Scenario, List[FuzzFinding]], None]] = None,
) -> FuzzReport:
    """Run generated scenarios ``start .. start+seeds-1`` through the matrix.

    ``time_budget`` (wall-clock seconds) stops *between* scenarios — a
    scenario in flight always finishes, so a budgeted run still reports
    only complete, replayable results.  The oracles themselves never read
    the clock; the budget only bounds how many seeds get examined.
    """
    if seeds < 0:
        raise ConfigError(f"seeds must be non-negative, got {seeds}")
    # Wall-clock use is intentional and suppressed (not baselined): the
    # time budget bounds the *driver loop*, never a simulated result.
    t0 = time.monotonic()  # detlint: ignore[DET001]
    deadline = None if time_budget is None else t0 + time_budget
    findings: List[FuzzFinding] = []
    scenarios_run = 0
    last_seed: Optional[int] = None
    stopped = False
    for index in range(start, start + seeds):
        if deadline is not None and time.monotonic() >= deadline:  # detlint: ignore[DET001]
            stopped = True
            break
        scenario = generator.generate(index)
        scenario_findings = run_one(scenario)
        findings.extend(scenario_findings)
        scenarios_run += 1
        last_seed = index
        if progress is not None:
            progress(index, scenario, scenario_findings)
    return FuzzReport(
        scenarios_run=scenarios_run,
        findings=findings,
        first_seed=start,
        last_seed=last_seed,
        elapsed_seconds=time.monotonic() - t0,  # detlint: ignore[DET001]
        stopped_on_budget=stopped,
    )
