"""The typed scenario DSL: dataclasses that validate at construction time.

Every scenario is a frozen dataclass tree.  Construction *is* validation —
an out-of-range knob, a dangling link endpoint, or a fault targeting a
nonexistent core raises :class:`~repro.common.errors.ConfigError`
immediately, so no invalid scenario can ever be serialized, generated, or
shrunk into existence.  The JSON codec is strict the same way:
``from_json`` rejects unknown keys and wrong types instead of silently
dropping them, and ``dumps()`` is byte-stable (sorted keys, compact
separators), so a scenario is a reproducible artifact: the dump alone
rebuilds the identical object anywhere.

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

import hashlib
import json
from dataclasses import dataclass, field, fields
from typing import Any, Dict, Mapping, Optional, Tuple

from repro.common.errors import ConfigError
from repro.faults.plan import CYCLE_TIER_KINDS, FAULT_KINDS, MESSAGE_KINDS, Fault

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


def _require_int(value: Any, what: str) -> int:
    """An actual int — bools and floats are type errors, not coercions."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{what} must be an integer, got {value!r}")
    return value


def _reject_unknown(obj: Mapping[str, Any], allowed: Tuple[str, ...], what: str) -> None:
    if not isinstance(obj, Mapping):
        raise ConfigError(f"{what} must be a JSON object, got {type(obj).__name__}")
    unknown = sorted(set(obj) - set(allowed))
    if unknown:
        raise ConfigError(
            f"{what} has unknown key(s) {unknown}; expected a subset of {sorted(allowed)}"
        )


@dataclass(frozen=True, slots=True)
class WorkloadSpec:
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
            value = _require_int(value, f"{self.kind}.{name}")
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
        return {"kind": self.kind, "knobs": {k: v for k, v in self.knobs}}

    @classmethod
    def from_json(cls, obj: Mapping[str, Any]) -> "WorkloadSpec":
        _reject_unknown(obj, ("kind", "knobs"), "workload spec")
        if "kind" not in obj:
            raise ConfigError("workload spec is missing required key 'kind'")
        knobs = obj.get("knobs", {})
        if not isinstance(knobs, Mapping):
            raise ConfigError("workload knobs must be a JSON object")
        return cls(
            kind=obj["kind"],
            knobs=tuple(
                (str(k), _require_int(v, f"knob {k}")) for k, v in sorted(knobs.items())
            ),
        )


@dataclass(frozen=True, slots=True)
class TimerSpec:
    """A periodic KB timer program: the hardware timer of §4.3."""

    period: int

    def __post_init__(self) -> None:
        _require_int(self.period, "timer period")
        if not MIN_TIMER_PERIOD <= self.period <= MAX_TIMER_PERIOD:
            raise ConfigError(
                f"timer period must be in [{MIN_TIMER_PERIOD}, {MAX_TIMER_PERIOD}], "
                f"got {self.period}"
            )

    def to_json(self) -> dict:
        return {"period": self.period}

    @classmethod
    def from_json(cls, obj: Mapping[str, Any]) -> "TimerSpec":
        _reject_unknown(obj, ("period",), "timer spec")
        if "period" not in obj:
            raise ConfigError("timer spec is missing required key 'period'")
        return cls(period=_require_int(obj["period"], "timer period"))


@dataclass(frozen=True, slots=True)
class CoreSpec:
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
            _require_int(self.interval, "sender interval")
            _require_int(self.count, "sender count")
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
        out: Dict[str, Any] = {"role": self.role, "strategy": self.strategy}
        if self.workload is not None:
            out["workload"] = self.workload.to_json()
        if self.safepoint:
            out["safepoint"] = True
        if self.kb_timer is not None:
            out["kb_timer"] = self.kb_timer.to_json()
        if self.interval is not None:
            out["interval"] = self.interval
        if self.count is not None:
            out["count"] = self.count
        return out

    @classmethod
    def from_json(cls, obj: Mapping[str, Any]) -> "CoreSpec":
        _reject_unknown(
            obj,
            ("role", "workload", "strategy", "safepoint", "kb_timer", "interval", "count"),
            "core spec",
        )
        workload = obj.get("workload")
        kb_timer = obj.get("kb_timer")
        safepoint = obj.get("safepoint", False)
        if not isinstance(safepoint, bool):
            raise ConfigError(f"safepoint must be a bool, got {safepoint!r}")
        return cls(
            role=obj.get("role", "workload"),
            workload=WorkloadSpec.from_json(workload) if workload is not None else None,
            strategy=obj.get("strategy", "flush"),
            safepoint=safepoint,
            kb_timer=TimerSpec.from_json(kb_timer) if kb_timer is not None else None,
            interval=(
                _require_int(obj["interval"], "sender interval")
                if "interval" in obj
                else None
            ),
            count=_require_int(obj["count"], "sender count") if "count" in obj else None,
        )


@dataclass(frozen=True, slots=True)
class UipiLink:
    """A UIPI route: ``sender`` core's UITT slot 0 -> ``receiver``'s UPID."""

    sender: int
    receiver: int
    vector: int = 1

    def __post_init__(self) -> None:
        _require_int(self.sender, "link sender")
        _require_int(self.receiver, "link receiver")
        _require_int(self.vector, "link vector")
        if self.sender < 0 or self.receiver < 0:
            raise ConfigError(f"link endpoints must be non-negative: {self}")
        if self.sender == self.receiver:
            raise ConfigError(f"link endpoints must differ, got core {self.sender}")
        if not 1 <= self.vector <= 63:
            raise ConfigError(f"user vector must be in [1, 63], got {self.vector}")

    def to_json(self) -> dict:
        return {"receiver": self.receiver, "sender": self.sender, "vector": self.vector}

    @classmethod
    def from_json(cls, obj: Mapping[str, Any]) -> "UipiLink":
        _reject_unknown(obj, ("sender", "receiver", "vector"), "uipi link")
        for key in ("sender", "receiver"):
            if key not in obj:
                raise ConfigError(f"uipi link is missing required key {key!r}")
        return cls(
            sender=_require_int(obj["sender"], "link sender"),
            receiver=_require_int(obj["receiver"], "link receiver"),
            vector=_require_int(obj.get("vector", 1), "link vector"),
        )


@dataclass(frozen=True, slots=True)
class FaultSpec:
    """The fault plan: explicit :class:`Fault` records, a seeded random
    spec, or both (explicit faults win when present).

    The random form compiles through :meth:`FaultPlan.random`, so the same
    (seed, count, kinds, horizon) draws the same schedule everywhere; the
    explicit form is what the shrinker materializes a spec into so it can
    drop entries one at a time.
    """

    seed: int = 0
    count: int = 0
    kinds: Tuple[str, ...] = CYCLE_TIER_KINDS
    horizon: int = 50_000
    max_index: int = 16
    max_delay: int = 1_000
    faults: Tuple[Fault, ...] = ()

    def __post_init__(self) -> None:
        _require_int(self.seed, "fault seed")
        _require_int(self.count, "fault count")
        _require_int(self.horizon, "fault horizon")
        _require_int(self.max_index, "fault max_index")
        _require_int(self.max_delay, "fault max_delay")
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
        out: Dict[str, Any] = {"count": self.count, "seed": self.seed}
        if self.count:
            out["horizon"] = self.horizon
            out["kinds"] = list(self.kinds)
            out["max_delay"] = self.max_delay
            out["max_index"] = self.max_index
        if self.faults:
            out["faults"] = [f.to_json() for f in self.faults]
        return out

    @classmethod
    def from_json(cls, obj: Mapping[str, Any]) -> "FaultSpec":
        _reject_unknown(
            obj,
            ("seed", "count", "kinds", "horizon", "max_index", "max_delay", "faults"),
            "fault spec",
        )
        faults = obj.get("faults", [])
        if not isinstance(faults, (list, tuple)):
            raise ConfigError("fault spec 'faults' must be a list")
        kinds = obj.get("kinds", list(CYCLE_TIER_KINDS))
        if not isinstance(kinds, (list, tuple)):
            raise ConfigError("fault spec 'kinds' must be a list")
        return cls(
            seed=_require_int(obj.get("seed", 0), "fault seed"),
            count=_require_int(obj.get("count", 0), "fault count"),
            kinds=tuple(kinds),
            horizon=_require_int(obj.get("horizon", 50_000), "fault horizon"),
            max_index=_require_int(obj.get("max_index", 16), "fault max_index"),
            max_delay=_require_int(obj.get("max_delay", 1_000), "fault max_delay"),
            faults=tuple(Fault.from_json(f) for f in faults),
        )


@dataclass(frozen=True, slots=True)
class Scenario:
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
        _require_int(self.max_cycles, "max_cycles")
        _require_int(self.seed, "scenario seed")
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

    # -- canonical JSON ------------------------------------------------

    def to_json(self) -> dict:
        return {
            "cores": [c.to_json() for c in self.cores],
            "engines": list(self.engines),
            "faults": self.faults.to_json(),
            "links": [l.to_json() for l in self.links],
            "max_cycles": self.max_cycles,
            "name": self.name,
            "seed": self.seed,
        }

    def dumps(self) -> str:
        """Byte-stable canonical form: equal scenarios dump identically."""
        return json.dumps(self.to_json(), sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_json(cls, obj: Mapping[str, Any]) -> "Scenario":
        _reject_unknown(
            obj,
            ("name", "cores", "links", "faults", "engines", "max_cycles", "seed"),
            "scenario",
        )
        cores = obj.get("cores", [])
        links = obj.get("links", [])
        engines = obj.get("engines", list(ENGINE_LEG_NAMES))
        if not isinstance(cores, (list, tuple)):
            raise ConfigError("scenario 'cores' must be a list")
        if not isinstance(links, (list, tuple)):
            raise ConfigError("scenario 'links' must be a list")
        if not isinstance(engines, (list, tuple)):
            raise ConfigError("scenario 'engines' must be a list")
        return cls(
            name=obj.get("name", "scenario"),
            cores=tuple(CoreSpec.from_json(c) for c in cores),
            links=tuple(UipiLink.from_json(l) for l in links),
            faults=FaultSpec.from_json(obj.get("faults", {})),
            engines=tuple(engines),
            max_cycles=_require_int(obj.get("max_cycles", 200_000), "max_cycles"),
            seed=_require_int(obj.get("seed", 0), "scenario seed"),
        )

    @classmethod
    def loads(cls, text: str) -> "Scenario":
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"scenario JSON does not parse: {exc}") from exc
        return cls.from_json(obj)

    # -- identity and size ---------------------------------------------

    def scenario_id(self) -> str:
        """Content hash of the canonical dump (scenario identity)."""
        return hashlib.sha256(self.dumps().encode("utf-8")).hexdigest()[:12]

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
