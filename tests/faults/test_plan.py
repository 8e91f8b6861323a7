"""FaultPlan determinism and byte-stable serialisation."""

import json

import pytest

from repro.common.errors import ConfigError
from repro.faults.plan import (
    FAULT_KINDS,
    MAX_CYCLE_VALUE,
    Fault,
    FaultPlan,
    merge_plans,
    plan_for_kind,
)
from repro.scenario.compile import compile_plan
from repro.scenario.generate import ScenarioGenerator


class TestFaultValidation:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError):
            Fault(kind="cosmic_ray")

    def test_negative_fields_rejected(self):
        with pytest.raises(ConfigError):
            Fault(kind="upid_stall", at=-1)
        with pytest.raises(ConfigError):
            Fault(kind="upid_stall", core=-1)

    def test_message_fault_needs_index(self):
        with pytest.raises(ConfigError):
            Fault(kind="drop_send", index=0)

    def test_delay_kinds_need_positive_delay(self):
        with pytest.raises(ConfigError):
            Fault(kind="delay_send", index=1, delay=0)
        with pytest.raises(ConfigError):
            Fault(kind="timer_drift", at=10, delay=0)

    def test_valid_faults_construct(self):
        Fault(kind="drop_send", index=1)
        Fault(kind="timer_drift", at=100, delay=50)
        Fault(kind="misspec_storm", at=100)


class TestSeededDeterminism:
    def test_same_seed_same_plan(self):
        a = FaultPlan.random(7, cores=2, horizon=50_000, count=16)
        b = FaultPlan.random(7, cores=2, horizon=50_000, count=16)
        assert a == b
        assert a.dumps() == b.dumps()

    def test_different_seeds_differ(self):
        a = FaultPlan.random(1, count=16)
        b = FaultPlan.random(2, count=16)
        assert a != b

    def test_random_respects_kind_filter(self):
        plan = FaultPlan.random(3, count=32, kinds=("drop_send", "upid_stall"))
        assert set(plan.kinds()) <= {"drop_send", "upid_stall"}

    def test_random_rejects_unknown_kind(self):
        with pytest.raises(ConfigError):
            FaultPlan.random(0, kinds=("bit_rot",))

    def test_plan_for_kind_deterministic(self):
        for kind in FAULT_KINDS:
            assert plan_for_kind(kind, seed=5) == plan_for_kind(kind, seed=5)
            assert all(f.kind == kind for f in plan_for_kind(kind, seed=5).faults)

    def test_plan_for_kind_unique_message_indices(self):
        plan = plan_for_kind("drop_send", seed=11, count=6)
        indices = [f.index for f in plan.faults]
        assert len(indices) == len(set(indices))


class TestSerialisation:
    def test_round_trip_identity(self):
        plan = FaultPlan.random(42, cores=4, count=20, kinds=FAULT_KINDS)
        assert FaultPlan.loads(plan.dumps()) == plan

    def test_dumps_byte_stable(self):
        plan = FaultPlan.random(9, count=12)
        dump = plan.dumps()
        assert dump == FaultPlan.loads(dump).dumps()
        # Canonical JSON: sorted keys, compact separators.
        assert " " not in dump
        assert json.loads(dump)["seed"] == 9

    def test_hand_built_plan_round_trips(self):
        plan = FaultPlan(
            seed=0,
            faults=(
                Fault(kind="drop_send", core=1, index=3),
                Fault(kind="timer_drift", at=500, delay=99),
            ),
        )
        assert FaultPlan.loads(plan.dumps()) == plan


class TestStrictRoundTrip:
    """Construction-time validation parity with the scenario DSL: a plan
    JSON that drifted (extra keys, absurd cycle values, wrong shapes) fails
    loudly at load, never deep inside a replay."""

    def _dump(self, **overrides):
        plan = FaultPlan(seed=3, faults=(Fault(kind="upid_stall", at=10),))
        obj = json.loads(plan.dumps())
        obj.update(overrides)
        return json.dumps(obj)

    def test_unknown_plan_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown"):
            FaultPlan.loads(self._dump(flavor="extra"))

    def test_unknown_fault_key_rejected(self):
        obj = json.loads(self._dump())
        obj["faults"][0]["oops"] = 1
        with pytest.raises(ConfigError, match="unknown"):
            FaultPlan.loads(json.dumps(obj))

    def test_missing_required_keys_rejected(self):
        with pytest.raises(ConfigError):
            FaultPlan.loads(json.dumps({"seed": 1}))
        with pytest.raises(ConfigError):
            FaultPlan.loads(json.dumps({"faults": []}))

    def test_faults_must_be_a_list(self):
        with pytest.raises(ConfigError):
            FaultPlan.loads(json.dumps({"seed": 1, "faults": {"0": {}}}))

    def test_malformed_json_raises_config_error(self):
        with pytest.raises(ConfigError):
            FaultPlan.loads("{not json")

    def test_out_of_range_cycle_values_rejected(self):
        obj = json.loads(self._dump())
        obj["faults"][0]["at"] = MAX_CYCLE_VALUE + 1
        with pytest.raises(ConfigError):
            FaultPlan.loads(json.dumps(obj))
        with pytest.raises(ConfigError):
            Fault(kind="upid_stall", at=MAX_CYCLE_VALUE + 1)
        # The boundary itself is legal.
        Fault(kind="upid_stall", at=MAX_CYCLE_VALUE)

    def test_bool_and_non_int_fields_rejected(self):
        obj = json.loads(self._dump())
        obj["faults"][0]["at"] = True
        with pytest.raises(ConfigError):
            FaultPlan.loads(json.dumps(obj))
        obj["faults"][0]["at"] = "10"
        with pytest.raises(ConfigError):
            FaultPlan.loads(json.dumps(obj))

    def test_compiled_fuzz_plans_round_trip(self):
        # Generated scenarios carry 64-bit derived seeds; every compiled
        # plan must survive its own dump (the InvariantViolation replay).
        generator = ScenarioGenerator(0)
        for index in range(150):
            spec = generator.generate(index)
            plan = compile_plan(spec.faults, cores=len(spec.cores))
            assert FaultPlan.loads(plan.dumps()) == plan, index

    def test_seed_must_fit_in_64_bits(self):
        FaultPlan(seed=2**64 - 1, faults=())
        for seed in (-1, 2**64):
            with pytest.raises(ConfigError, match="seed"):
                FaultPlan(seed=seed, faults=())
        with pytest.raises(ConfigError, match="seed"):
            FaultPlan.loads(json.dumps({"seed": 2**64, "faults": []}))

    def test_fault_kind_must_be_string(self):
        obj = json.loads(self._dump())
        obj["faults"][0]["kind"] = 7
        with pytest.raises(ConfigError):
            FaultPlan.loads(json.dumps(obj))


class TestHelpers:
    def test_for_core_filters(self):
        plan = FaultPlan(
            seed=0,
            faults=(
                Fault(kind="upid_stall", core=0, at=10),
                Fault(kind="upid_stall", core=1, at=20),
            ),
        )
        assert all(f.core == 1 for f in plan.for_core(1))
        assert len(plan.for_core(0)) == 1

    def test_merge_plans_sorted(self):
        merged = merge_plans(
            99,
            [
                FaultPlan(seed=1, faults=(Fault(kind="upid_stall", at=500),)),
                FaultPlan(seed=2, faults=(Fault(kind="upid_stall", at=100),)),
            ],
        )
        assert merged.seed == 99
        assert [f.at for f in merged.faults] == [100, 500]

    def test_cycle_tier_kinds_exclude_ctx_switch(self):
        """Every kind in FAULT_KINDS is one the cycle-tier injector applies;
        a kernel-tier kind such as ``ctx_switch`` is rejected at
        construction, before a plan could reach an injector."""
        assert "ctx_switch" not in FAULT_KINDS
        with pytest.raises(ConfigError, match="unknown fault kind"):
            Fault(kind="ctx_switch", at=100, delay=10)
