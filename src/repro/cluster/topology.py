"""Cluster topology: tenants -> shards -> hosts, validated and canonical.

A :class:`ClusterTopology` is the whole experiment's identity: how many
tenants, how they partition into shards, which hosts the shards land on,
what workload template each tenant runs and which notification strategies
are swept.  It follows the scenario-DSL idiom — frozen slotted dataclasses,
``__post_init__`` validation raising :class:`ConfigError`, and the shared
strict codec (:class:`~repro.common.codec.JsonCodec`): ``from_json``
rejects unknown keys and wrong types, and the hash of the byte-stable
``dumps`` (:meth:`~repro.common.codec.JsonCodec.content_id`) keys
checkpoints and reports.

Shard independence is what makes the fan-out exact: tenants never share
queues or cores across shards, every shard derives its own RNG seed via
:func:`~repro.common.rng.derive_seed`, and — deliberately — the *same*
shard seed is used for every strategy (common random numbers), so the
flush/tracked/timer comparison sees identical arrival processes and the
ordering verdict is never an artifact of sampling noise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from repro.common.codec import JsonCodec, require_int, require_number
from repro.common.errors import ConfigError
from repro.common.rng import derive_seed
from repro.notify.mechanisms import Mechanism
from repro.scenario.tenants import TENANT_TEMPLATES

#: Strategy names swept by the cluster layer, in Figure-7 p999 order
#: (worst first): UIPI with full state flush, xUI tracked-state IPI, and
#: the xUI kernel-bypass timer.
CLUSTER_STRATEGIES: Tuple[str, ...] = ("flush", "tracked", "timer")

#: Strategy -> event-tier preemption mechanism (drives both the runtime's
#: per-quantum preemption cost and the per-event delivery cost).
STRATEGY_MECHANISMS = {
    "flush": Mechanism.UIPI,
    "tracked": Mechanism.XUI_TRACKED_IPI,
    "timer": Mechanism.XUI_KB_TIMER,
}

#: Histogram resolution for cluster latency: 256 sub-buckets per octave
#: (~0.4% quantization error).  The flush-vs-tracked p999 gap is a few
#: hundred cycles on ~10k-cycle tails (~4%), so the default ~6% resolution
#: could collapse the ordering into one bucket; 8 bits cannot.
CLUSTER_SUB_BITS = 8

#: Timer-core capacity bound: UIPI-style mechanisms multiplex one sender
#: core across workers (see ``CostModel.timer_core_capacity``); 22 workers
#: is the 5-us-quantum capacity, so larger shards would be rejected by the
#: runtime anyway.
MAX_CORES_PER_SHARD = 22

MAX_TENANTS = 1_000_000_000
MAX_SHARDS = 65_536


@dataclass(frozen=True, slots=True)
class TenantSpec(JsonCodec):
    """A homogeneous group of tenants: template, head-count, per-tenant rate."""

    template: str
    count: int
    rps: float

    def __post_init__(self) -> None:
        if self.template not in TENANT_TEMPLATES:
            known = ", ".join(sorted(TENANT_TEMPLATES))
            raise ConfigError(
                f"tenant template must be one of [{known}], got {self.template!r}"
            )
        require_int(self.count, "tenant count")
        if not 1 <= self.count <= MAX_TENANTS:
            raise ConfigError(f"tenant count must be in [1, {MAX_TENANTS}], got {self.count}")
        rps = require_number(self.rps, "tenant rps")
        if not 0 < rps <= 1_000_000:
            raise ConfigError(f"tenant rps must be in (0, 1e6], got {self.rps!r}")


@dataclass(frozen=True, slots=True)
class ShardSpec(JsonCodec):
    """One shard's placement and sizing (derived from the topology)."""

    index: int
    host: int
    tenants: int
    workers: int
    scenario: str
    seed: int

    def __post_init__(self) -> None:
        require_int(self.index, "shard index")
        require_int(self.host, "shard host")
        require_int(self.tenants, "shard tenants")
        require_int(self.workers, "shard workers")
        require_int(self.seed, "shard seed")
        if self.index < 0 or self.host < 0:
            raise ConfigError(f"shard index/host must be >= 0, got {self.index}/{self.host}")
        if self.tenants < 0:
            raise ConfigError(f"shard tenants must be >= 0, got {self.tenants}")
        if not 1 <= self.workers <= MAX_CORES_PER_SHARD:
            raise ConfigError(
                f"shard workers must be in [1, {MAX_CORES_PER_SHARD}], got {self.workers}"
            )
        if self.scenario not in TENANT_TEMPLATES:
            raise ConfigError(f"unknown shard scenario {self.scenario!r}")


@dataclass(frozen=True, slots=True)
class ClusterTopology(JsonCodec):
    """The validated, canonical identity of one cluster experiment."""

    name: str = "cluster"
    tenants: int = 4096
    shards: int = 16
    hosts: int = 4
    cores_per_shard: int = 1
    scenario: str = "rocksdb"
    strategies: Tuple[str, ...] = CLUSTER_STRATEGIES
    tenant_rps: float = 50.0
    duration_ms: float = 20.0
    seed: int = 0
    sub_bits: int = CLUSTER_SUB_BITS

    def __post_init__(self) -> None:
        if not self.name or not isinstance(self.name, str):
            raise ConfigError(f"topology name must be a non-empty string, got {self.name!r}")
        require_int(self.tenants, "tenants")
        require_int(self.shards, "shards")
        require_int(self.hosts, "hosts")
        require_int(self.cores_per_shard, "cores_per_shard")
        require_int(self.seed, "seed")
        require_int(self.sub_bits, "sub_bits")
        if not 1 <= self.tenants <= MAX_TENANTS:
            raise ConfigError(f"tenants must be in [1, {MAX_TENANTS}], got {self.tenants}")
        if not 1 <= self.shards <= MAX_SHARDS:
            raise ConfigError(f"shards must be in [1, {MAX_SHARDS}], got {self.shards}")
        if self.tenants < self.shards:
            raise ConfigError(
                f"need at least one tenant per shard: {self.tenants} tenants < "
                f"{self.shards} shards"
            )
        if not 1 <= self.hosts <= self.shards:
            raise ConfigError(f"hosts must be in [1, shards], got {self.hosts}")
        if not 1 <= self.cores_per_shard <= MAX_CORES_PER_SHARD:
            raise ConfigError(
                f"cores_per_shard must be in [1, {MAX_CORES_PER_SHARD}], "
                f"got {self.cores_per_shard}"
            )
        if self.scenario not in TENANT_TEMPLATES:
            known = ", ".join(sorted(TENANT_TEMPLATES))
            raise ConfigError(f"scenario must be one of [{known}], got {self.scenario!r}")
        if not isinstance(self.strategies, tuple) or not self.strategies:
            raise ConfigError("strategies must be a non-empty tuple")
        seen = []
        for strategy in self.strategies:
            if strategy not in STRATEGY_MECHANISMS:
                raise ConfigError(
                    f"strategy must be one of {CLUSTER_STRATEGIES}, got {strategy!r}"
                )
            if strategy in seen:
                raise ConfigError(f"duplicate strategy {strategy!r}")
            seen.append(strategy)
        rps = require_number(self.tenant_rps, "tenant_rps")
        if not 0 < rps <= 1_000_000:
            raise ConfigError(f"tenant_rps must be in (0, 1e6], got {self.tenant_rps!r}")
        duration = require_number(self.duration_ms, "duration_ms")
        if not 1.0 <= duration <= 10_000.0:
            raise ConfigError(f"duration_ms must be in [1, 10000], got {self.duration_ms!r}")
        if not 1 <= self.sub_bits <= 12:
            raise ConfigError(f"sub_bits must be in [1, 12], got {self.sub_bits}")

    # -- derived placement ---------------------------------------------------

    def tenants_for_shard(self, index: int) -> int:
        """Balanced partition: the first ``tenants % shards`` shards get one extra."""
        if not 0 <= index < self.shards:
            raise ConfigError(f"shard index must be in [0, {self.shards}), got {index}")
        base, extra = divmod(self.tenants, self.shards)
        return base + (1 if index < extra else 0)

    def host_for_shard(self, index: int) -> int:
        """Round-robin shard placement across hosts."""
        return index % self.hosts

    def seed_for_shard(self, index: int) -> int:
        """Stable per-shard child seed.  Strategy is deliberately *not* part
        of the derivation: every strategy replays the same arrivals on a
        shard (common random numbers), so the ordering verdict compares
        mechanisms, not noise."""
        return derive_seed(self.seed, "cluster-shard", index)

    def shard_specs(self) -> Tuple[ShardSpec, ...]:
        return tuple(
            ShardSpec(
                index=index,
                host=self.host_for_shard(index),
                tenants=self.tenants_for_shard(index),
                workers=self.cores_per_shard,
                scenario=self.scenario,
                seed=self.seed_for_shard(index),
            )
            for index in range(self.shards)
        )

    def tenant_spec_for_shard(self, index: int) -> TenantSpec:
        return TenantSpec(
            template=self.scenario, count=self.tenants_for_shard(index), rps=self.tenant_rps
        )
