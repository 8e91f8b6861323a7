"""Process-global engine telemetry and the two engine-tier switches.

The cycle-skipping core engine and the event-tier fast-forward path
(`REPRO_FAST`), and the macro-op trace tier layered on them
(`REPRO_MACRO`), change *how* the simulators advance time, never *what*
they compute.  The counters here record how much work each shortcut saved
so ``python -m repro experiment <id> --verbose`` can report it; they are kept
out of :class:`repro.cpu.core.CoreStats` on purpose — simulated results
(including stats snapshots) must be byte-identical between the naive and
skipping engines, so engine telemetry cannot live next to model counters.

``REPRO_FAST=0`` (or ``off``/``false``/``no``) forces the naive cycle
stepper and the unbatched event loop; anything else (including unset)
enables the fast engine.  ``REPRO_MACRO=0`` keeps the fast engine but
turns off macro-op replay.  The flags are read per ``run()`` call so tests
can toggle them between runs.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, fields
from typing import Dict

ENV_FAST = "REPRO_FAST"
ENV_MACRO = "REPRO_MACRO"
#: Sweep parallelism (owned by :mod:`repro.perf.engine`; named here so the
#: active-flag snapshot below covers every engine-shaping variable).
ENV_JOBS = "REPRO_JOBS"

_DISABLED_VALUES = {"0", "off", "false", "no"}


def fast_engine_enabled() -> bool:
    """Is the cycle-skipping / event fast-forward engine enabled?"""
    return os.environ.get(ENV_FAST, "1").strip().lower() not in _DISABLED_VALUES


def macro_engine_enabled() -> bool:
    """Is the macro-op trace tier enabled?  (Layered on the fast engine:
    ``REPRO_MACRO`` has no effect under ``REPRO_FAST=0``.)"""
    return os.environ.get(ENV_MACRO, "1").strip().lower() not in _DISABLED_VALUES


def active_engine_flags() -> Dict[str, str]:
    """Snapshot the engine-shaping environment, resolved to effective values.

    The tier toggles come back as ``"1"``/``"0"`` (what the engines will
    actually do, not the raw string); ``REPRO_JOBS`` comes back verbatim
    (or ``""`` when unset).  Replay tooling embeds this snapshot in failure
    artifacts — e.g. the :class:`~repro.common.errors.InvariantViolation`
    plan dump — so a failure re-runs under the same tiers that produced it.
    """
    return {
        ENV_FAST: "1" if fast_engine_enabled() else "0",
        ENV_MACRO: "1" if macro_engine_enabled() else "0",
        ENV_JOBS: os.environ.get(ENV_JOBS, ""),
    }


@dataclass
class EngineCounters:
    """How much work the fast engine avoided (process-wide accumulator)."""

    #: Core cycles actually stepped through the pipeline stages.
    cycles_stepped: int = 0
    #: Core cycles accounted in bulk because the pipeline was quiescent.
    cycles_skipped: int = 0
    #: Decoded-template hits / misses in the per-core micro-op caches.
    uop_cache_hits: int = 0
    uop_cache_misses: int = 0
    #: Event-tier callbacks fired.
    events_fired: int = 0
    #: Event-tier clock jumps (heap head strictly in the future).
    events_fast_forwarded: int = 0
    #: Result-cache entries found corrupt/unreadable and re-simulated.
    cache_corrupt_entries: int = 0
    #: Result-cache writes that failed (unwritable cache directory).
    cache_unwritable_writes: int = 0
    #: Stale ``*.tmp`` files (interrupted writes) swept on cache open.
    cache_stale_tmp_swept: int = 0
    #: Sweep points salvaged from completed futures after a pool crash.
    sweep_points_salvaged: int = 0
    #: Sweep point executions retried after a failure or timeout.
    sweep_points_retried: int = 0
    #: Sweep points restored from a JSONL checkpoint instead of re-running.
    sweep_points_resumed: int = 0
    #: Macro-op tier (``REPRO_MACRO``): steady-state loop templates formed.
    macro_formations: int = 0
    #: Formation attempts that aborted (state not sigma-periodic / unsafe).
    macro_form_aborts: int = 0
    #: Bulk replay sessions entered (one per formation that replayed >= 1
    #: period before bailing back to the interpreter).
    macro_replays: int = 0
    #: Loop periods applied in O(1) instead of being stepped.
    macro_replayed_periods: int = 0
    #: Core cycles covered by macro-op replay (neither stepped nor skipped).
    macro_replayed_cycles: int = 0
    #: Replay bails: a notification-visible event entered the window
    #: (pending interrupt, timer deadline, timeline/fault event).
    macro_bail_event: int = 0
    #: Replay bails: the loop left steady state (branch flip, memory
    #: latency mismatch, load/store aliasing).
    macro_bail_divergence: int = 0
    #: Replay bails: run horizon / watch boundary reached.
    macro_bail_horizon: int = 0
    #: Loop-body positions the replay evaluator stepped (records produced).
    macro_evaluated_positions: int = 0
    #: Cores parked beside awake cores until their landing cycle instead
    #: of replayed (each lands as one replay once a period fits).
    macro_parks: int = 0

    def reset(self) -> None:
        for f in fields(self):
            setattr(self, f.name, f.default)

    @property
    def uop_hit_rate(self) -> float:
        total = self.uop_cache_hits + self.uop_cache_misses
        return self.uop_cache_hits / total if total else 0.0

    @property
    def skip_fraction(self) -> float:
        total = self.cycles_stepped + self.cycles_skipped
        return self.cycles_skipped / total if total else 0.0

    @property
    def macro_replayed_fraction(self) -> float:
        """Fraction of all accounted core cycles covered by macro replay."""
        total = self.cycles_stepped + self.cycles_skipped + self.macro_replayed_cycles
        return self.macro_replayed_cycles / total if total else 0.0

    def as_dict(self) -> Dict[str, float]:
        out: Dict[str, float] = {f.name: getattr(self, f.name) for f in fields(self)}
        out["uop_hit_rate"] = self.uop_hit_rate
        out["skip_fraction"] = self.skip_fraction
        out["macro_replayed_fraction"] = self.macro_replayed_fraction
        return out


#: The process-global accumulator.  ``MultiCoreSystem.run`` and
#: ``Simulator.run`` add their per-run deltas here; parallel sweep workers
#: accumulate in their own processes, so with ``--jobs N`` only in-process
#: runs are visible.
GLOBAL_COUNTERS = EngineCounters()
