"""Deterministic, seedable fault plans.

A :class:`FaultPlan` is a frozen schedule of :class:`Fault` records.  The
whole subsystem is built around replayability: a plan serialises to a
byte-stable JSON string (sorted keys, compact separators), and
:meth:`FaultPlan.loads` reconstructs an identical plan, so any failure
observed under injection — including an invariant violation, which embeds
the dump in its message — reproduces exactly.

Fault kinds
-----------

``drop_send``
    The ``index``-th interrupt message accepted by ``core``'s APIC is
    silently discarded (a lost IPI on the interconnect).
``dup_send``
    The ``index``-th accepted message is delivered twice (a replayed
    message).
``delay_send``
    The ``index``-th accepted message is held for ``delay`` cycles before
    it reaches the APIC (interconnect congestion).
``upid_stall``
    At cycle ``at``, the target core's data caches are flushed, so the
    next UPID (or any memory) access pays a DRAM round trip — models a
    UPID cache line stolen by a remote writer mid-notification.
``spurious_uintr``
    At cycle ``at``, a UIPI notification arrives at ``core`` with nothing
    posted in the PIR — the notification-processing microcode runs and
    finds no work (§4.1's recognition path must tolerate this).
``timer_drift``
    At cycle ``at``, the armed KB timer's deadline on ``core`` slips
    ``delay`` cycles late (clock-domain crossing / power-state wakeup).
``misspec_storm``
    At cycle ``at``, ``core``'s branch predictor state is scrambled
    (gshare counters inverted, BTB invalidated), forcing a burst of
    mispredictions — stresses tracked-delivery re-injection (§4.2).
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass
from typing import Iterable, Sequence, Tuple

from repro.common.codec import JsonCodec, require_int
from repro.common.errors import ConfigError

#: Every fault kind the injector understands, in canonical order.
FAULT_KINDS: Tuple[str, ...] = (
    "drop_send",
    "dup_send",
    "delay_send",
    "upid_stall",
    "spurious_uintr",
    "timer_drift",
    "misspec_storm",
)

#: Kinds that target a message by accept-index rather than a cycle.
MESSAGE_KINDS: Tuple[str, ...] = ("drop_send", "dup_send", "delay_send")

#: Upper bound for cycle-valued fields (``at``/``index``/``delay``) in
#: deserialized plans.  Far past any reachable simulation horizon, but it
#: keeps a corrupted dump from smuggling in a value that arithmetic
#: downstream (deadline += delay, schedule(at - cycle)) silently wraps or
#: that stalls a replay forever.
MAX_CYCLE_VALUE = 2**62


@dataclass(frozen=True, slots=True)
class Fault(JsonCodec):
    """One scheduled fault.

    ``at`` is a cycle (scheduled kinds) and ``index`` a 1-based accept
    count (message kinds); the unused field stays 0.  ``delay`` is the
    extra latency for ``delay_send`` and ``timer_drift``.
    """

    kind: str
    core: int = 0
    at: int = 0
    index: int = 0
    delay: int = 0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ConfigError(
                f"unknown fault kind {self.kind!r}; expected one of {FAULT_KINDS}"
            )
        if self.core < 0:
            raise ConfigError(f"fault core must be non-negative, got {self.core}")
        if self.at < 0 or self.index < 0 or self.delay < 0:
            raise ConfigError(f"fault fields must be non-negative: {self}")
        if max(self.at, self.index, self.delay) > MAX_CYCLE_VALUE:
            raise ConfigError(
                f"fault cycle fields are out of range (> {MAX_CYCLE_VALUE}): {self}"
            )
        if self.kind in MESSAGE_KINDS:
            if self.index < 1:
                raise ConfigError(
                    f"{self.kind} targets a message: index must be >= 1, got {self.index}"
                )
        if self.kind in ("delay_send", "timer_drift") and self.delay < 1:
            raise ConfigError(f"{self.kind} needs a positive delay, got {self.delay}")


@dataclass(frozen=True, slots=True)
class FaultPlan(JsonCodec):
    """A seed plus the fault schedule it generated (or a hand-built one).

    ``dumps()`` is byte-stable: two equal plans serialise to identical
    strings, and ``loads(dumps())`` round-trips exactly — this is what
    makes an :class:`~repro.common.errors.InvariantViolation` replayable.
    """

    seed: int
    faults: Tuple[Fault, ...]

    def __post_init__(self) -> None:
        # derive_seed() and FaultPlan.random() take any 64-bit seed.
        if not 0 <= require_int(self.seed, "fault plan seed") < 2**64:
            raise ConfigError(f"fault plan seed must be in [0, 2**64), got {self.seed}")
        object.__setattr__(self, "faults", tuple(self.faults))

    def for_core(self, core: int) -> Tuple[Fault, ...]:
        return tuple(f for f in self.faults if f.core == core)

    def kinds(self) -> Tuple[str, ...]:
        return tuple(sorted({f.kind for f in self.faults}))

    @classmethod
    def random(
        cls,
        seed: int,
        *,
        cores: int = 1,
        horizon: int = 100_000,
        count: int = 8,
        kinds: Sequence[str] = FAULT_KINDS,
        max_index: int = 32,
        max_delay: int = 2_000,
    ) -> "FaultPlan":
        """A seed-deterministic plan: ``count`` faults drawn from ``kinds``.

        Uses :class:`random.Random` (the stdlib Mersenne Twister), whose
        sequence is stable across CPython versions, so the same seed builds
        the same plan everywhere.  Faults come out sorted by (at, index)
        for readability; ordering never affects injection, which keys on
        absolute cycles and accept counts.
        """
        if cores < 1:
            raise ConfigError(f"need at least one core, got {cores}")
        if horizon < 1 or count < 0:
            raise ConfigError(f"bad horizon={horizon} / count={count}")
        unknown = [k for k in kinds if k not in FAULT_KINDS]
        if unknown:
            raise ConfigError(f"unknown fault kinds {unknown}; expected {FAULT_KINDS}")
        if not kinds:
            raise ConfigError("kinds must not be empty")
        rng = random.Random(seed)
        faults = []
        for _ in range(count):
            kind = rng.choice(list(kinds))
            core = rng.randrange(cores)
            if kind in MESSAGE_KINDS:
                fault = Fault(
                    kind=kind,
                    core=core,
                    index=rng.randint(1, max_index),
                    delay=rng.randint(1, max_delay) if kind == "delay_send" else 0,
                )
            else:
                fault = Fault(
                    kind=kind,
                    core=core,
                    at=rng.randrange(1, horizon),
                    delay=rng.randint(1, max_delay) if kind == "timer_drift" else 0,
                )
            faults.append(fault)
        faults.sort(key=lambda f: (f.at, f.index, f.kind, f.core))
        return cls(seed=seed, faults=tuple(faults))


def plan_for_kind(
    kind: str, *, seed: int = 0, core: int = 0, count: int = 4, horizon: int = 100_000
) -> FaultPlan:
    """A small deterministic plan exercising exactly one fault kind.

    The fault-matrix suite uses this to build one cell per (kind, strategy,
    engine) without hand-writing schedules.  Message faults target early
    accept indices (2, 5, 8, ...) so they trigger even in short runs;
    scheduled faults are spread over ``horizon`` so early- and late-phase
    behaviour are both hit.
    """
    if kind not in FAULT_KINDS:
        raise ConfigError(f"unknown fault kind {kind!r}")
    # zlib.crc32, not hash(): str hashing is salted per process, and the
    # plan must be identical in every worker for replay to work.
    rng = random.Random((seed << 8) ^ zlib.crc32(kind.encode("ascii")))
    faults = []
    for i in range(count):
        if kind in MESSAGE_KINDS:
            faults.append(
                Fault(
                    kind=kind,
                    core=core,
                    # Stride 3 with jitter <= 1 keeps indices unique.
                    index=2 + i * 3 + rng.randint(0, 1),
                    delay=150 + 100 * i if kind == "delay_send" else 0,
                )
            )
        else:
            at = (i + 1) * horizon // (count + 1) + rng.randint(0, 99)
            faults.append(
                Fault(
                    kind=kind,
                    core=core,
                    at=at,
                    delay=500 + 250 * i if kind == "timer_drift" else 0,
                )
            )
    return FaultPlan(seed=seed, faults=tuple(faults))


def merge_plans(seed: int, plans: Iterable[FaultPlan]) -> FaultPlan:
    """Combine several plans into one schedule under a new seed label."""
    faults: list = []
    for plan in plans:
        faults.extend(plan.faults)
    faults.sort(key=lambda f: (f.at, f.index, f.kind, f.core))
    return FaultPlan(seed=seed, faults=tuple(faults))
