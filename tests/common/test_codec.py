"""The strict dataclass JSON codec: generic decode rules, and the artifact
decoders that used to coerce or invent values."""

import json
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

import pytest

from repro.cluster import ClusterDriver, ClusterTopology
from repro.cluster.aggregate import OrderingVerdict, StrategyAggregate
from repro.cluster.shard import ShardJob
from repro.cluster.topology import TenantSpec
from repro.common.codec import JsonCodec, decode
from repro.common.errors import ConfigError


@dataclass(frozen=True, slots=True)
class Inner(JsonCodec):
    n: int
    label: str = "x"


@dataclass(frozen=True)
class Plain:
    """Not a codec class: decoded structurally, like ``CostModel``."""

    rate: float = 1.0


@dataclass(frozen=True, slots=True)
class Outer(JsonCodec):
    inner: Inner
    pair: Tuple[int, str] = (0, "")
    items: Tuple[Inner, ...] = ()
    maybe: Optional[int] = None
    flag: bool = False
    table: Dict[str, float] = field(default_factory=dict)
    plain: Plain = field(default_factory=Plain)

    def __post_init__(self) -> None:
        if self.inner.n < 0:
            raise ConfigError("inner.n must be non-negative")


class TestDecodeRules:
    def test_round_trip(self):
        outer = Outer(
            inner=Inner(n=1, label="a"),
            pair=(2, "b"),
            items=(Inner(n=3), Inner(n=4, label="c")),
            maybe=5,
            flag=True,
            table={"k": 0.5},
            plain=Plain(rate=2.0),
        )
        assert Outer.loads(outer.dumps()) == outer
        assert Outer.loads(outer.dumps()).dumps() == outer.dumps()

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown"):
            Outer.from_json({"inner": {"n": 1}, "extra": 1})
        with pytest.raises(ConfigError, match="unknown"):
            Outer.from_json({"inner": {"n": 1, "extra": 1}})

    def test_missing_required_key_rejected(self):
        with pytest.raises(ConfigError, match="missing required key 'inner'"):
            Outer.from_json({})
        with pytest.raises(ConfigError, match="missing required key 'n'"):
            Outer.from_json({"inner": {}})

    def test_absent_keys_take_dataclass_defaults(self):
        assert Outer.from_json({"inner": {"n": 1}}) == Outer(inner=Inner(n=1))

    def test_tuples_are_built_from_lists(self):
        outer = Outer.from_json({"inner": {"n": 1}, "pair": [7, "z"], "items": [{"n": 2}]})
        assert outer.pair == (7, "z")
        assert outer.items == (Inner(n=2),)
        with pytest.raises(ConfigError, match="2 entries"):
            Outer.from_json({"inner": {"n": 1}, "pair": [7]})
        with pytest.raises(ConfigError, match="must be a list"):
            Outer.from_json({"inner": {"n": 1}, "items": {"n": 2}})

    def test_optional_accepts_none_and_types_the_rest(self):
        assert Outer.from_json({"inner": {"n": 1}, "maybe": None}).maybe is None
        assert Outer.from_json({"inner": {"n": 1}, "maybe": 3}).maybe == 3
        with pytest.raises(ConfigError):
            Outer.from_json({"inner": {"n": 1}, "maybe": "3"})

    def test_bool_is_not_an_int_and_int_is_not_a_bool(self):
        with pytest.raises(ConfigError, match="integer"):
            Outer.from_json({"inner": {"n": True}})
        with pytest.raises(ConfigError, match="integer"):
            Outer.from_json({"inner": {"n": 1.0}})
        with pytest.raises(ConfigError, match="bool"):
            Outer.from_json({"inner": {"n": 1}, "flag": 1})

    def test_float_accepts_int_and_converts(self):
        outer = Outer.from_json({"inner": {"n": 1}, "table": {"k": 2}, "plain": {"rate": 3}})
        assert outer.table == {"k": 2.0} and isinstance(outer.table["k"], float)
        assert outer.plain == Plain(rate=3.0) and isinstance(outer.plain.rate, float)
        with pytest.raises(ConfigError, match="number"):
            Outer.from_json({"inner": {"n": 1}, "table": {"k": "2"}})

    def test_str_is_strict(self):
        with pytest.raises(ConfigError, match="str"):
            Outer.from_json({"inner": {"n": 1, "label": 5}})

    def test_nested_plain_dataclass_is_strict(self):
        with pytest.raises(ConfigError, match="unknown"):
            Outer.from_json({"inner": {"n": 1}, "plain": {"rate": 1.0, "burst": 2}})

    def test_post_init_judges_decoded_values(self):
        with pytest.raises(ConfigError, match="non-negative"):
            Outer.from_json({"inner": {"n": -1}})

    def test_non_object_rejected(self):
        with pytest.raises(ConfigError, match="JSON object"):
            decode(Inner, [1])
        with pytest.raises(ConfigError, match="does not parse"):
            Inner.loads("{not json")

    def test_content_id_hashes_the_canonical_dump(self):
        topology = ClusterTopology(
            name="unit", tenants=32, shards=2, hosts=2, tenant_rps=2000.0,
            duration_ms=10.0, seed=5,
        )
        assert topology.content_id() == "87e85ccd842b"


class TestStrictArtifactDecoders:
    """Each case was silently coerced or invented by a hand-written decoder."""

    def _verdict(self):
        return {
            "applicable": True,
            "ok": True,
            "expected": ["flush", "tracked", "timer"],
            "p999": {"flush": 3.0, "tracked": 2.0, "timer": 1.0},
        }

    def test_verdict_ok_must_be_a_bool(self):
        obj = dict(self._verdict(), ok="no")
        with pytest.raises(ConfigError, match="bool"):
            OrderingVerdict.from_json(obj)
        assert OrderingVerdict.from_json(self._verdict()).ok is True

    @pytest.fixture(scope="class")
    def job_json(self):
        topology = ClusterTopology(name="unit", tenants=8, shards=2, hosts=1)
        return json.loads(json.dumps(ClusterDriver(topology).shard_jobs()[0].to_json()))

    def test_shard_job_duration_is_not_coerced_from_a_string(self, job_json):
        with pytest.raises(ConfigError, match="number"):
            ShardJob.from_json(dict(job_json, duration_ms="20"))

    def test_unknown_cost_key_is_a_config_error(self, job_json):
        costs = dict(job_json["costs"], warp_drive=1.0)
        with pytest.raises(ConfigError, match="unknown"):
            ShardJob.from_json(dict(job_json, costs=costs))

    def test_shard_job_round_trips(self, job_json):
        job = ShardJob.from_json(job_json)
        assert job.to_json() == job_json

    def test_aggregate_percentiles_must_be_numbers(self):
        obj = {
            "strategy": "flush", "shards": 1, "tenants": 1, "offered": 1,
            "completed": 1, "in_window": 1, "scans": 0, "preemptions_total": 0,
            "count": 1, "mean": 5.0, "p50": 5.0, "p99": 5.0, "p999": 5.0,
            "hist_state": {"sub_bits": 8, "count": 1, "sum": 5.0, "min": 5.0,
                           "max": 5.0, "counts": {"5": 1}},
        }
        assert StrategyAggregate.from_json(obj).mean == 5.0
        with pytest.raises(ConfigError, match="number"):
            StrategyAggregate.from_json(dict(obj, mean="oops"))

    def test_tenant_spec_invents_no_defaults(self):
        with pytest.raises(ConfigError, match="missing required key"):
            TenantSpec.from_json({})
