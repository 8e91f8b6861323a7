"""Invariant checker: clean runs pass, induced violations replay exactly."""

import pytest

from repro.common.errors import InvariantViolation
from repro.faults import FaultPlan, plan_for_kind
from repro.faults.harness import build_cell, run_fault_cell


class TestCleanRuns:
    def test_unfaulted_run_passes_all_checks(self):
        plan = FaultPlan(seed=0, faults=())  # empty schedule: injector is a no-op
        result = run_fault_cell(plan, "flush", engine="fast")
        acct = result["accounting"]
        assert acct["checks_run"] > 0
        assert acct["probes_fired"] > 0
        assert acct["queued"] == acct["delivered"] + acct["waiting"] + acct[
            "staged"
        ] + acct["inflight"]

    def test_checker_is_invisible_to_simulation(self):
        """A checked run produces byte-identical results to an unchecked
        one — probes only read."""
        plan = plan_for_kind("dup_send", seed=4, count=2, horizon=3_000)
        checked = run_fault_cell(plan, "tracked", engine="fast")
        unchecked = run_fault_cell(
            plan, "tracked", engine="fast", check_invariants=False
        )
        for key in ("cycles", "stats", "trace"):
            assert checked[key] == unchecked[key]
        assert unchecked["accounting"] is None

    def test_double_install_rejected(self):
        plan = FaultPlan(seed=0, faults=())
        system, _injector, checker = build_cell(plan, "flush")
        with pytest.raises(InvariantViolation):
            checker.install(system)


def _violate_conservation(plan):
    """Run a cell whose pending queue is corrupted behind the APIC's back —
    a genuine conservation violation the checker must catch."""
    system, _injector, checker = build_cell(plan, "drain")

    def vandalise() -> None:
        # Discard any queued interrupt without going through take():
        # accounting says it was queued, nobody delivered or holds it.
        system.cores[0].apic._pending.clear()

    # Late enough that something is usually in flight; harmless if empty —
    # the guaranteed violation comes from a direct phantom-queue bump below.
    system.schedule(500, vandalise)
    system.cores[0].apic.user_queued += 1  # a queued interrupt that never existed
    system.run(200_000, until_halted=[0])
    checker.finish(system)


class TestInducedViolations:
    def test_conservation_violation_raises(self):
        plan = plan_for_kind("drop_send", seed=7, count=2, horizon=3_000)
        with pytest.raises(InvariantViolation) as excinfo:
            _violate_conservation(plan)
        assert "conservation" in str(excinfo.value)

    def test_violation_carries_replayable_plan(self):
        plan = plan_for_kind("drop_send", seed=7, count=2, horizon=3_000)
        with pytest.raises(InvariantViolation) as excinfo:
            _violate_conservation(plan)
        dump = excinfo.value.plan_dump
        assert dump is not None
        assert FaultPlan.loads(dump) == plan
        assert dump in str(excinfo.value)

    def test_violation_reproduces_byte_identically(self):
        """Two runs from the same seed fail with identical messages, and the
        dumped plan rebuilds the exact schedule — the replay guarantee."""
        plan = plan_for_kind("drop_send", seed=7, count=2, horizon=3_000)
        messages = []
        for _ in range(2):
            with pytest.raises(InvariantViolation) as excinfo:
                _violate_conservation(plan)
            messages.append(str(excinfo.value))
        assert messages[0] == messages[1]
        replayed = FaultPlan.loads(excinfo.value.plan_dump)
        with pytest.raises(InvariantViolation) as excinfo2:
            _violate_conservation(replayed)
        assert str(excinfo2.value) == messages[0]

    def test_uiret_state_violation_detected(self):
        """Force a uiret probe with no delivery in flight."""
        plan = FaultPlan(seed=0, faults=())
        system, _injector, checker = build_cell(plan, "flush")
        core = system.cores[0]
        with pytest.raises(InvariantViolation) as excinfo:
            checker.probe("uiret", core)
        assert "uiret" in str(excinfo.value)

    def test_clock_monotonicity_violation_detected(self):
        plan = FaultPlan(seed=0, faults=())
        system, _injector, checker = build_cell(plan, "flush")
        core = system.cores[0]
        core.cycle = 100
        checker.probe("flush", core)  # empty ROB: passes, records cycle=100
        core.cycle = 50
        with pytest.raises(InvariantViolation) as excinfo:
            checker.probe("flush", core)
        assert "backwards" in str(excinfo.value)

    def test_rob_consistency_violation_detected(self):
        plan = FaultPlan(seed=0, faults=())
        system, _injector, checker = build_cell(plan, "flush")
        core = system.cores[0]
        core.iq_count = 5  # phantom issue-queue entries with an empty ROB
        with pytest.raises(InvariantViolation) as excinfo:
            checker.probe("squash", core)
        assert "census" in str(excinfo.value)


class TestSafepointInvariant:
    def test_safepoint_mode_injection_checked(self):
        """In safepoint mode a tracked injection at a non-safepoint PC is a
        violation; the checker sees it at the inject probe."""
        plan = FaultPlan(seed=0, faults=())
        system, _injector, checker = build_cell(
            plan, "tracked", safepoint=True
        )
        core = system.cores[0]
        # Fabricate an in-flight delivery resumed at pc=0 (no safepoint
        # prefix in the count-loop workload).
        from repro.uintr.apic import InterruptKind, PendingInterrupt

        core.delivery_state = "inflight"
        core.current_interrupt = PendingInterrupt(2, InterruptKind.TIMER, 0.0)
        core.uintr.ui_return_pc = 0
        with pytest.raises(InvariantViolation) as excinfo:
            checker.probe("inject", core)
        assert "safepoint" in str(excinfo.value)
