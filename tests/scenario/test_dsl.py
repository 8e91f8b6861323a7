"""Scenario DSL: construction-time validation and canonical JSON."""

import json

import pytest

from repro.common.errors import ConfigError
from repro.faults.plan import Fault
from repro.scenario.dsl import (
    ENGINE_LEG_NAMES,
    MAX_CORES,
    MEMORY_WORKLOAD_KINDS,
    WORKLOAD_KNOBS,
    CoreSpec,
    FaultSpec,
    Scenario,
    TimerSpec,
    UipiLink,
    WorkloadSpec,
)


def wl(kind="count_loop", **knobs):
    if not knobs:
        knobs = {"iterations": 100}
    return WorkloadSpec(kind=kind, knobs=tuple(sorted(knobs.items())))


def workload_core(**kwargs):
    return CoreSpec(role="workload", workload=wl(), **kwargs)


def scenario(**overrides):
    base = dict(
        name="t",
        cores=(workload_core(),),
        links=(),
        faults=FaultSpec(seed=1),
        engines=ENGINE_LEG_NAMES,
        max_cycles=10_000,
        seed=7,
    )
    base.update(overrides)
    return Scenario(**base)


class TestWorkloadSpec:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError):
            WorkloadSpec(kind="bogosort", knobs=())

    def test_unknown_knob_rejected(self):
        with pytest.raises(ConfigError):
            wl(kind="fib", bananas=3)

    def test_out_of_range_knob_rejected(self):
        lo, hi, _ = WORKLOAD_KNOBS["fib"]["n"]
        with pytest.raises(ConfigError):
            wl(kind="fib", n=hi + 1)
        with pytest.raises(ConfigError):
            wl(kind="fib", n=lo - 1)

    def test_pow2_knob_enforced(self):
        with pytest.raises(ConfigError):
            wl(kind="fnv_hash", iterations=10, buffer_words=100)
        wl(kind="fnv_hash", iterations=10, buffer_words=128)

    def test_bool_is_not_an_int(self):
        with pytest.raises(ConfigError):
            wl(kind="fib", n=True)


class TestCoreSpec:
    def test_workload_core_requires_workload(self):
        with pytest.raises(ConfigError):
            CoreSpec(role="workload")

    def test_sender_fields_are_sender_only(self):
        with pytest.raises(ConfigError):
            CoreSpec(role="workload", workload=wl(), interval=100)
        with pytest.raises(ConfigError):
            CoreSpec(role="uipi_sender", interval=100, count=3, workload=wl())

    def test_idle_core_takes_nothing(self):
        with pytest.raises(ConfigError):
            CoreSpec(role="idle", kb_timer=TimerSpec(period=512))
        CoreSpec(role="idle")

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ConfigError):
            workload_core(strategy="yolo")


class TestScenarioValidation:
    def test_needs_a_workload_core(self):
        with pytest.raises(ConfigError):
            scenario(cores=(CoreSpec(role="idle"),))

    def test_core_cap(self):
        with pytest.raises(ConfigError):
            scenario(cores=tuple(workload_core() for _ in range(MAX_CORES + 1)))

    def test_sender_needs_link(self):
        sender = CoreSpec(role="uipi_sender", interval=500, count=3)
        with pytest.raises(ConfigError, match="no link"):
            scenario(cores=(workload_core(), sender))

    def test_link_endpoints_validated(self):
        sender = CoreSpec(role="uipi_sender", interval=500, count=3)
        with pytest.raises(ConfigError):
            scenario(
                cores=(workload_core(), sender),
                links=(UipiLink(sender=1, receiver=5, vector=9),),
            )

    def test_receiver_gets_at_most_one_link(self):
        senders = (
            CoreSpec(role="uipi_sender", interval=500, count=3),
            CoreSpec(role="uipi_sender", interval=700, count=3),
        )
        with pytest.raises(ConfigError, match="more than one link"):
            scenario(
                cores=(workload_core(), *senders),
                links=(
                    UipiLink(sender=1, receiver=0, vector=9),
                    UipiLink(sender=2, receiver=0, vector=10),
                ),
            )

    def test_at_most_one_memory_image_workload(self):
        assert "quicksort" in MEMORY_WORKLOAD_KINDS
        cores = (
            CoreSpec(role="workload", workload=wl("quicksort", n=8, seed=1)),
            CoreSpec(role="workload", workload=wl("matmul", size=3)),
        )
        with pytest.raises(ConfigError, match="memory-image"):
            scenario(cores=cores)
        # Register-only kinds replicate freely alongside one memory kind.
        scenario(
            cores=(
                CoreSpec(role="workload", workload=wl("quicksort", n=8, seed=1)),
                workload_core(),
                CoreSpec(role="workload", workload=wl("fib", n=5)),
            )
        )

    def test_spurious_uintr_must_target_a_receiver(self):
        faults = FaultSpec(
            seed=1, faults=(Fault(kind="spurious_uintr", core=0, at=100),)
        )
        with pytest.raises(ConfigError, match="spurious_uintr"):
            scenario(faults=faults)
        sender = CoreSpec(role="uipi_sender", interval=500, count=3)
        scenario(
            cores=(workload_core(), sender),
            links=(UipiLink(sender=1, receiver=0, vector=9),),
            faults=faults,
        )

    def test_colliding_message_faults_rejected(self):
        faults = FaultSpec(
            seed=1,
            faults=(
                Fault(kind="drop_send", core=0, index=2),
                Fault(kind="dup_send", core=0, index=2),
            ),
        )
        with pytest.raises(ConfigError, match="accept #2"):
            scenario(faults=faults)

    def test_fault_core_in_range(self):
        faults = FaultSpec(seed=1, faults=(Fault(kind="upid_stall", core=4, at=10),))
        with pytest.raises(ConfigError):
            scenario(faults=faults)

    def test_random_fault_kinds_must_be_injectable(self):
        """A random spec may only draw kinds the cycle-tier injector
        applies, so every spec that validates can also run."""
        with pytest.raises(ConfigError, match="unknown fault kinds"):
            FaultSpec(seed=1, count=2, kinds=("ctx_switch",))
        with pytest.raises(ConfigError, match="unknown fault kinds"):
            FaultSpec.loads(
                '{"count":2,"horizon":50000,"kinds":["ctx_switch"],'
                '"max_delay":1000,"max_index":16,"seed":1}'
            )

    def test_unknown_engine_leg_rejected(self):
        with pytest.raises(ConfigError):
            scenario(engines=("naive", "warp"))
        with pytest.raises(ConfigError, match="duplicate"):
            scenario(engines=("naive", "naive"))

    def test_max_cycles_bounds(self):
        with pytest.raises(ConfigError):
            scenario(max_cycles=10)


class TestCanonicalJson:
    def _rich(self):
        sender = CoreSpec(role="uipi_sender", interval=500, count=3)
        receiver = CoreSpec(
            role="workload",
            workload=wl("quicksort", n=16, seed=5),
            strategy="tracked",
            safepoint=True,
            kb_timer=TimerSpec(period=1024),
        )
        return scenario(
            cores=(receiver, sender, CoreSpec(role="idle")),
            links=(UipiLink(sender=1, receiver=0, vector=33),),
            faults=FaultSpec(
                seed=9,
                faults=(
                    Fault(kind="upid_stall", core=0, at=700),
                    Fault(kind="drop_send", core=0, index=1),
                ),
            ),
        )

    def test_round_trip_identity(self):
        s = self._rich()
        assert Scenario.loads(s.dumps()) == s
        assert Scenario.loads(s.dumps()).dumps() == s.dumps()

    def test_dumps_is_canonical(self):
        dump = self._rich().dumps()
        obj = json.loads(dump)
        assert dump == json.dumps(obj, sort_keys=True, separators=(",", ":"))

    def test_unknown_key_rejected(self):
        obj = json.loads(self._rich().dumps())
        obj["color"] = "red"
        with pytest.raises(ConfigError, match="unknown"):
            Scenario.from_json(obj)

    def test_nested_unknown_key_rejected(self):
        obj = json.loads(self._rich().dumps())
        obj["cores"][0]["turbo"] = True
        with pytest.raises(ConfigError, match="unknown"):
            Scenario.from_json(obj)

    def test_scenario_id_tracks_content(self):
        s = self._rich()
        assert s.content_id() == Scenario.loads(s.dumps()).content_id()
        assert s.content_id() != scenario().content_id()

    def test_malformed_json_raises_config_error(self):
        with pytest.raises(ConfigError):
            Scenario.loads("{oops")


class TestSizeKey:
    def test_orders_structure_before_magnitude(self):
        small = scenario()
        bigger_cores = scenario(cores=(workload_core(), workload_core()))
        assert small.size_key() < bigger_cores.size_key()
        bigger_budget = scenario(max_cycles=20_000)
        assert small.size_key() < bigger_budget.size_key()

    def test_counts_faults_and_timers(self):
        with_fault = scenario(
            faults=FaultSpec(seed=1, faults=(Fault(kind="upid_stall", core=0, at=10),))
        )
        assert scenario().size_key() < with_fault.size_key()
        with_timer = scenario(
            cores=(workload_core(kb_timer=TimerSpec(period=512)),)
        )
        assert scenario().size_key() < with_timer.size_key()
