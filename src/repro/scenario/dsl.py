"""The typed scenario DSL: dataclasses that validate at construction time.

Every scenario is a frozen dataclass tree.  Construction *is* validation —
an out-of-range knob, a dangling link endpoint, or a fault targeting a
nonexistent core raises :class:`~repro.common.errors.ConfigError`
immediately, so no invalid scenario can ever be serialized, generated, or
shrunk into existence.  The JSON form comes from the shared strict codec
(:class:`~repro.common.codec.JsonCodec`): ``from_json`` rejects unknown
keys and wrong types instead of silently dropping them, and ``dumps()`` is
byte-stable (sorted keys, compact separators), so a scenario is a
reproducible artifact: the dump alone rebuilds the identical object
anywhere.  Only :class:`WorkloadSpec` (knobs as a JSON object),
:class:`CoreSpec` (unset fields omitted) and :class:`FaultSpec` (random-form
keys omitted when unused) shape their JSON by hand.

Schema overview::

    Scenario
    ├── cores:   (CoreSpec, ...)      # topology + per-core assignment
    │   ├── role: workload | uipi_sender | idle
    │   ├── workload: WorkloadSpec    # kind + validated knobs
    │   ├── strategy: flush | drain | tracked
    │   ├── kb_timer: TimerSpec       # periodic KB timer program
    │   └── interval/count            # sender load profile
    ├── links:   (UipiLink, ...)      # sender core -> receiver core
    ├── faults:  FaultSpec            # explicit faults or a seeded spec
    ├── engines: ("naive", "fast", ...)  # the engine-flag matrix
    └── max_cycles / seed / name
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Optional, Tuple

from repro.common.codec import JsonCodec, decode, require_int
from repro.common.errors import ConfigError
from repro.faults.plan import FAULT_KINDS, MESSAGE_KINDS, Fault

#: Delivery strategies a workload core may be assigned.
STRATEGY_NAMES: Tuple[str, ...] = ("flush", "drain", "tracked")

#: Core roles.  ``workload`` runs a microbenchmark with a registered
#: handler; ``uipi_sender`` is a dedicated rdtsc-spin timer core (§2);
#: ``idle`` halts immediately (exercises the fast loop's halted-core path).
CORE_ROLES: Tuple[str, ...] = ("workload", "uipi_sender", "idle")

#: The engine-flag matrix legs (see :data:`repro.scenario.fuzz.ENGINE_LEGS`).
ENGINE_LEG_NAMES: Tuple[str, ...] = ("naive", "fast", "fast+macro")

#: Workload kinds and their knob schema: name -> (min, max, power_of_two).
#: Ranges are deliberately small — fuzz scenarios must stay cheap enough
#: that hundreds of seeds run in minutes even on the naive stepper.
WORKLOAD_KNOBS: Dict[str, Dict[str, Tuple[int, int, bool]]] = {
    "count_loop": {"iterations": (1, 100_000, False)},
    "fib": {"n": (1, 14, False)},
    "base64": {"iterations": (1, 20_000, False)},
    "fnv_hash": {
        "iterations": (1, 20_000, False),
        "buffer_words": (64, 4096, True),
    },
    "memops": {
        "iterations": (1, 20_000, False),
        "footprint_kb": (1, 256, True),
    },
    "pointer_chase": {
        "num_nodes": (2, 512, False),
        "stride": (64, 4096, True),
        "iterations": (1, 20_000, False),
        "unroll": (1, 8, False),
    },
    "matmul": {"size": (2, 24, False)},
    "quicksort": {"n": (2, 512, False), "seed": (0, 2**31, False)},
}

#: Workload kinds whose programs bake absolute shared-memory data
#: addresses into their instructions (tables, arrays, chase lists).  Two
#: such workloads in one scenario would alias the same data and race —
#: the cycle tier shares one flat memory and models no coherence-ordering
#: guarantee between racing cores, so engine equivalence only holds for
#: race-free scenarios.  Register-only kinds (count_loop, fib — fib's
#: stack is per-core by construction) may replicate freely.
MEMORY_WORKLOAD_KINDS: Tuple[str, ...] = (
    "base64",
    "fnv_hash",
    "memops",
    "pointer_chase",
    "matmul",
    "quicksort",
)

MIN_MAX_CYCLES = 1_000
MAX_MAX_CYCLES = 5_000_000
MIN_TIMER_PERIOD = 64
MAX_TIMER_PERIOD = 1_000_000
MIN_SENDER_INTERVAL = 64
MAX_SENDER_INTERVAL = 100_000
MAX_SENDER_COUNT = 256
MAX_CORES = 8


@dataclass(frozen=True, slots=True)
class WorkloadSpec(JsonCodec):
    """One microbenchmark kind plus its validated knobs.

    Knobs are stored as a sorted ``(name, value)`` tuple so the dataclass
    stays hashable and its JSON form canonical.
    """

    kind: str
    knobs: Tuple[Tuple[str, int], ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in WORKLOAD_KNOBS:
            raise ConfigError(
                f"unknown workload kind {self.kind!r}; expected one of "
                f"{tuple(WORKLOAD_KNOBS)}"
            )
        schema = WORKLOAD_KNOBS[self.kind]
        knobs = tuple(sorted(dict(self.knobs).items()))
        object.__setattr__(self, "knobs", knobs)
        for name, value in knobs:
            if name not in schema:
                raise ConfigError(
                    f"workload {self.kind!r} has no knob {name!r}; expected a "
                    f"subset of {sorted(schema)}"
                )
            lo, hi, pow2 = schema[name]
            value = require_int(value, f"{self.kind}.{name}")
            if not lo <= value <= hi:
                raise ConfigError(
                    f"{self.kind}.{name} must be in [{lo}, {hi}], got {value}"
                )
            if pow2 and value & (value - 1):
                raise ConfigError(
                    f"{self.kind}.{name} must be a power of two, got {value}"
                )

    def knob(self, name: str, default: int) -> int:
        return dict(self.knobs).get(name, default)

    def to_json(self) -> dict:
        return {"kind": self.kind, "knobs": dict(self.knobs)}

    @classmethod
    def from_json(cls, obj: Any) -> "WorkloadSpec":
        """Knobs travel as a JSON object, not as the stored pair tuple."""
        if isinstance(obj, Mapping) and "knobs" in obj:
            knobs = obj["knobs"]
            if not isinstance(knobs, Mapping):
                raise ConfigError("workload knobs must be a JSON object")
            obj = {**obj, "knobs": sorted(knobs.items())}
        return decode(cls, obj)


@dataclass(frozen=True, slots=True)
class TimerSpec(JsonCodec):
    """A periodic KB timer program: the hardware timer of §4.3."""

    period: int

    def __post_init__(self) -> None:
        require_int(self.period, "timer period")
        if not MIN_TIMER_PERIOD <= self.period <= MAX_TIMER_PERIOD:
            raise ConfigError(
                f"timer period must be in [{MIN_TIMER_PERIOD}, {MAX_TIMER_PERIOD}], "
                f"got {self.period}"
            )


@dataclass(frozen=True, slots=True)
class CoreSpec(JsonCodec):
    """One core: role, workload/strategy assignment, timer, load profile.

    - ``workload`` cores run ``workload`` under ``strategy`` (optionally in
      safepoint mode, optionally with a periodic KB timer).
    - ``uipi_sender`` cores spin on rdtsc and ``senduipi`` every
      ``interval`` cycles, ``count`` times — the load profile of the
      Figure 4/7 dedicated-timer-core pattern.
    - ``idle`` cores halt immediately.
    """

    role: str = "workload"
    workload: Optional[WorkloadSpec] = None
    strategy: str = "flush"
    safepoint: bool = False
    kb_timer: Optional[TimerSpec] = None
    interval: Optional[int] = None
    count: Optional[int] = None

    def __post_init__(self) -> None:
        if self.role not in CORE_ROLES:
            raise ConfigError(
                f"unknown core role {self.role!r}; expected one of {CORE_ROLES}"
            )
        if self.strategy not in STRATEGY_NAMES:
            raise ConfigError(
                f"unknown strategy {self.strategy!r}; expected one of {STRATEGY_NAMES}"
            )
        if not isinstance(self.safepoint, bool):
            raise ConfigError(f"safepoint must be a bool, got {self.safepoint!r}")
        if self.role == "workload":
            if self.workload is None:
                raise ConfigError("workload cores require a workload spec")
            if self.interval is not None or self.count is not None:
                raise ConfigError("interval/count are sender-only fields")
        elif self.role == "uipi_sender":
            if self.workload is not None or self.kb_timer is not None:
                raise ConfigError("sender cores take no workload or kb_timer")
            if self.interval is None or self.count is None:
                raise ConfigError("sender cores require interval and count")
            require_int(self.interval, "sender interval")
            require_int(self.count, "sender count")
            if not MIN_SENDER_INTERVAL <= self.interval <= MAX_SENDER_INTERVAL:
                raise ConfigError(
                    f"sender interval must be in [{MIN_SENDER_INTERVAL}, "
                    f"{MAX_SENDER_INTERVAL}], got {self.interval}"
                )
            if not 1 <= self.count <= MAX_SENDER_COUNT:
                raise ConfigError(
                    f"sender count must be in [1, {MAX_SENDER_COUNT}], got {self.count}"
                )
        else:  # idle
            if (
                self.workload is not None
                or self.kb_timer is not None
                or self.interval is not None
                or self.count is not None
            ):
                raise ConfigError("idle cores take no workload, timer, or load fields")

    def to_json(self) -> dict:
        """Unset fields (``None``, and ``safepoint=False``) are omitted."""
        return {
            key: value
            for key, value in JsonCodec.to_json(self).items()
            if value is not None and value is not False
        }


@dataclass(frozen=True, slots=True)
class UipiLink(JsonCodec):
    """A UIPI route: ``sender`` core's UITT slot 0 -> ``receiver``'s UPID."""

    sender: int
    receiver: int
    vector: int = 1

    def __post_init__(self) -> None:
        require_int(self.sender, "link sender")
        require_int(self.receiver, "link receiver")
        require_int(self.vector, "link vector")
        if self.sender < 0 or self.receiver < 0:
            raise ConfigError(f"link endpoints must be non-negative: {self}")
        if self.sender == self.receiver:
            raise ConfigError(f"link endpoints must differ, got core {self.sender}")
        if not 1 <= self.vector <= 63:
            raise ConfigError(f"user vector must be in [1, 63], got {self.vector}")


@dataclass(frozen=True, slots=True)
class FaultSpec(JsonCodec):
    """The fault plan: explicit :class:`Fault` records, a seeded random
    spec, or both (explicit faults win when present).

    The random form compiles through :meth:`FaultPlan.random`, so the same
    (seed, count, kinds, horizon) draws the same schedule everywhere; the
    explicit form is what the shrinker materializes a spec into so it can
    drop entries one at a time.
    """

    seed: int = 0
    count: int = 0
    kinds: Tuple[str, ...] = FAULT_KINDS
    horizon: int = 50_000
    max_index: int = 16
    max_delay: int = 1_000
    faults: Tuple[Fault, ...] = ()

    def __post_init__(self) -> None:
        require_int(self.seed, "fault seed")
        require_int(self.count, "fault count")
        require_int(self.horizon, "fault horizon")
        require_int(self.max_index, "fault max_index")
        require_int(self.max_delay, "fault max_delay")
        if self.count < 0 or self.count > 64:
            raise ConfigError(f"fault count must be in [0, 64], got {self.count}")
        if self.horizon < 1:
            raise ConfigError(f"fault horizon must be positive, got {self.horizon}")
        if self.max_index < 1 or self.max_delay < 1:
            raise ConfigError("fault max_index and max_delay must be positive")
        kinds = tuple(self.kinds)
        object.__setattr__(self, "kinds", kinds)
        unknown = [k for k in kinds if k not in FAULT_KINDS]
        if unknown:
            raise ConfigError(f"unknown fault kinds {unknown}; expected {FAULT_KINDS}")
        if self.count and not kinds:
            raise ConfigError("a random fault spec with count > 0 needs kinds")
        object.__setattr__(self, "faults", tuple(self.faults))
        for fault in self.faults:
            if not isinstance(fault, Fault):
                raise ConfigError(f"faults entries must be Fault records, got {fault!r}")

    @property
    def is_explicit(self) -> bool:
        return bool(self.faults)

    def total_faults(self) -> int:
        return len(self.faults) if self.is_explicit else self.count

    def to_json(self) -> dict:
        """The random-form keys appear only when ``count > 0``, and
        ``faults`` only when the explicit list is non-empty."""
        out = JsonCodec.to_json(self)
        if not self.count:
            for key in ("horizon", "kinds", "max_delay", "max_index"):
                del out[key]
        if not self.faults:
            del out["faults"]
        return out


@dataclass(frozen=True, slots=True)
class Scenario(JsonCodec):
    """A complete, validated, reproducible scenario."""

    name: str = "scenario"
    cores: Tuple[CoreSpec, ...] = field(default_factory=tuple)
    links: Tuple[UipiLink, ...] = ()
    faults: FaultSpec = field(default_factory=FaultSpec)
    engines: Tuple[str, ...] = ENGINE_LEG_NAMES
    max_cycles: int = 200_000
    seed: int = 0

    def __post_init__(self) -> None:
        if not isinstance(self.name, str) or not self.name:
            raise ConfigError(f"scenario name must be a non-empty string, got {self.name!r}")
        cores = tuple(self.cores)
        links = tuple(self.links)
        engines = tuple(self.engines)
        object.__setattr__(self, "cores", cores)
        object.__setattr__(self, "links", links)
        object.__setattr__(self, "engines", engines)
        require_int(self.max_cycles, "max_cycles")
        require_int(self.seed, "scenario seed")
        if not MIN_MAX_CYCLES <= self.max_cycles <= MAX_MAX_CYCLES:
            raise ConfigError(
                f"max_cycles must be in [{MIN_MAX_CYCLES}, {MAX_MAX_CYCLES}], "
                f"got {self.max_cycles}"
            )
        if not cores:
            raise ConfigError("a scenario needs at least one core")
        if len(cores) > MAX_CORES:
            raise ConfigError(f"at most {MAX_CORES} cores, got {len(cores)}")
        for core in cores:
            if not isinstance(core, CoreSpec):
                raise ConfigError(f"cores entries must be CoreSpec, got {core!r}")
        if not any(c.role == "workload" for c in cores):
            raise ConfigError("a scenario needs at least one workload core")
        memory_cores = [
            i
            for i, c in enumerate(cores)
            if c.workload is not None and c.workload.kind in MEMORY_WORKLOAD_KINDS
        ]
        if len(memory_cores) > 1:
            raise ConfigError(
                f"cores {memory_cores} all run memory-image workloads; their "
                f"data addresses would alias in shared memory (at most one of "
                f"{MEMORY_WORKLOAD_KINDS} per scenario; replicate count_loop/"
                f"fib instead)"
            )
        unknown_engines = [e for e in engines if e not in ENGINE_LEG_NAMES]
        if unknown_engines:
            raise ConfigError(
                f"unknown engine legs {unknown_engines}; expected a subset of "
                f"{ENGINE_LEG_NAMES}"
            )
        if len(engines) < 1:
            raise ConfigError("the engine matrix needs at least one leg")
        if len(set(engines)) != len(engines):
            raise ConfigError(f"duplicate engine legs in {engines}")
        seen_senders = set()
        seen_receivers = set()
        for link in links:
            if not isinstance(link, UipiLink):
                raise ConfigError(f"links entries must be UipiLink, got {link!r}")
            for endpoint in (link.sender, link.receiver):
                if endpoint >= len(cores):
                    raise ConfigError(
                        f"link references core {endpoint}, but the scenario has "
                        f"{len(cores)} cores"
                    )
            if cores[link.sender].role != "uipi_sender":
                raise ConfigError(
                    f"link sender core {link.sender} has role "
                    f"{cores[link.sender].role!r}, expected 'uipi_sender'"
                )
            if cores[link.receiver].role != "workload":
                raise ConfigError(
                    f"link receiver core {link.receiver} has role "
                    f"{cores[link.receiver].role!r}, expected 'workload'"
                )
            if link.sender in seen_senders:
                raise ConfigError(f"core {link.sender} appears in more than one link")
            if link.receiver in seen_receivers:
                raise ConfigError(f"core {link.receiver} receives more than one link")
            seen_senders.add(link.sender)
            seen_receivers.add(link.receiver)
        for i, core in enumerate(cores):
            if core.role == "uipi_sender" and i not in seen_senders:
                raise ConfigError(f"sender core {i} has no link")
        seen_message_slots = set()
        for fault in self.faults.faults:
            # The injector keys message faults on (core, accept index) —
            # two actions for one slot is unresolvable, so reject it here
            # rather than as an install-time crash.
            if fault.kind in MESSAGE_KINDS:
                slot = (fault.core, fault.index)
                if slot in seen_message_slots:
                    raise ConfigError(
                        f"two message faults target accept #{fault.index} on "
                        f"core {fault.core}"
                    )
                seen_message_slots.add(slot)
            if fault.core >= len(cores):
                raise ConfigError(
                    f"fault targets core {fault.core}, but the scenario has "
                    f"{len(cores)} cores"
                )
            # A spurious notification runs the recognition microcode, which
            # reads the target's UPID — only link receivers have one.
            if fault.kind == "spurious_uintr" and fault.core not in seen_receivers:
                raise ConfigError(
                    f"spurious_uintr targets core {fault.core}, which receives "
                    f"no UIPI link (no UPID to recognize against)"
                )

    # -- size ----------------------------------------------------------

    def size_key(self) -> Tuple[int, int, int, int, int]:
        """A lexicographic size metric the shrinker drives strictly down:
        (cores, faults, timers, knob mass, max_cycles)."""
        knob_mass = 0
        timers = 0
        for core in self.cores:
            if core.kb_timer is not None:
                timers += 1
            if core.workload is not None:
                knob_mass += sum(v for _, v in core.workload.knobs)
            if core.role == "uipi_sender":
                knob_mass += (core.interval or 0) + (core.count or 0)
        return (
            len(self.cores),
            self.faults.total_faults(),
            timers,
            knob_mass,
            self.max_cycles,
        )
