"""Topology validation, placement math, and canonical round trips."""

import json

import pytest

from repro.common.errors import ConfigError
from repro.cluster.topology import (
    CLUSTER_STRATEGIES,
    ClusterTopology,
    ShardSpec,
    TenantSpec,
)


class TestValidation:
    def test_defaults_valid(self):
        topo = ClusterTopology()
        assert topo.strategies == CLUSTER_STRATEGIES

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"tenants": 0},
            {"shards": 0},
            {"tenants": 3, "shards": 4},
            {"hosts": 0},
            {"hosts": 17},  # > shards
            {"cores_per_shard": 0},
            {"cores_per_shard": 23},  # timer-core capacity bound
            {"scenario": "nope"},
            {"strategies": ()},
            {"strategies": ("flush", "flush")},
            {"strategies": ("flush", "warp")},
            {"tenant_rps": 0.0},
            {"duration_ms": 0.5},
            {"seed": 1.5},
            {"sub_bits": 13},
            {"name": ""},
        ],
    )
    def test_bad_values_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            ClusterTopology(**kwargs)

    def test_bool_is_not_an_int(self):
        with pytest.raises(ConfigError):
            ClusterTopology(shards=True)

    def test_tenant_spec_validation(self):
        with pytest.raises(ConfigError):
            TenantSpec(template="nope", count=1, rps=1.0)
        with pytest.raises(ConfigError):
            TenantSpec(template="rocksdb", count=0, rps=1.0)
        with pytest.raises(ConfigError):
            TenantSpec(template="rocksdb", count=1, rps=0.0)

    def test_shard_spec_validation(self):
        with pytest.raises(ConfigError):
            ShardSpec(index=-1, host=0, tenants=1, workers=1, scenario="rocksdb", seed=0)
        with pytest.raises(ConfigError):
            ShardSpec(index=0, host=0, tenants=1, workers=23, scenario="rocksdb", seed=0)


class TestPlacement:
    def test_tenant_partition_is_balanced_and_total(self):
        topo = ClusterTopology(tenants=103, shards=10)
        counts = [topo.tenants_for_shard(i) for i in range(10)]
        assert sum(counts) == 103
        assert max(counts) - min(counts) <= 1
        assert counts == sorted(counts, reverse=True)  # extras go first

    def test_hosts_round_robin(self):
        topo = ClusterTopology(tenants=64, shards=8, hosts=3)
        hosts = [spec.host for spec in topo.shard_specs()]
        assert hosts == [0, 1, 2, 0, 1, 2, 0, 1]

    def test_shard_seeds_distinct_and_stable(self):
        topo = ClusterTopology(tenants=64, shards=8, seed=42)
        seeds = [topo.seed_for_shard(i) for i in range(8)]
        assert len(set(seeds)) == 8
        assert seeds == [topo.seed_for_shard(i) for i in range(8)]
        # A different root seed moves every shard seed.
        other = ClusterTopology(tenants=64, shards=8, seed=43)
        assert all(a != b for a, b in zip(seeds, (other.seed_for_shard(i) for i in range(8))))


class TestRoundTrip:
    def test_topology_round_trip_and_id(self):
        topo = ClusterTopology(
            name="t", tenants=100, shards=5, hosts=2, scenario="timers",
            strategies=("tracked", "timer"), tenant_rps=7.5, duration_ms=12.0, seed=9,
        )
        clone = ClusterTopology.from_json(json.loads(json.dumps(topo.to_json())))
        assert clone == topo
        assert clone.content_id() == topo.content_id()
        assert clone.dumps() == topo.dumps()

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError):
            ClusterTopology.from_json({"tenants": 4, "shards": 2, "zap": 1})
        with pytest.raises(ConfigError):
            TenantSpec.from_json({"template": "rocksdb", "count": 1, "rps": 1, "x": 0})
        with pytest.raises(ConfigError):
            ShardSpec.from_json({"index": 0, "bogus": 1})

    def test_tenant_and_shard_spec_round_trip(self):
        spec = TenantSpec(template="fanout", count=12, rps=3.0)
        assert TenantSpec.from_json(spec.to_json()) == spec
        shard = ShardSpec(index=3, host=1, tenants=9, workers=2, scenario="rocksdb", seed=77)
        assert ShardSpec.from_json(shard.to_json()) == shard

    def test_registered_state_classes_round_trip(self):
        """Every cluster dataclass in STATE_CLASSES round-trips its codec."""
        from repro.analysis.statemodel import STATE_CLASSES
        from repro.cluster.shard import ShardResult

        registered = {
            (spec.module, spec.name)
            for spec in STATE_CLASSES
            if spec.module.startswith("repro.cluster")
        }
        assert registered == {
            ("repro.cluster.topology", "ClusterTopology"),
            ("repro.cluster.topology", "ShardSpec"),
            ("repro.cluster.topology", "TenantSpec"),
            ("repro.cluster.shard", "ShardJob"),
            ("repro.cluster.shard", "ShardResult"),
        }
        result = ShardResult(
            shard_index=1, host=0, strategy="timer", tenants=4, offered=10,
            completed=10, in_window=9, scans=0, preemptions_total=40,
            hist_state={"sub_bits": 8, "count": 1, "sum": 5.0, "min": 5.0,
                        "max": 5.0, "counts": {"5": 1}},
        )
        assert ShardResult.from_json(json.loads(json.dumps(result.to_json()))) == result
