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


def _bare_core():
    """A fresh count-loop core behind a checker with no fault plan, so each
    violation's first message line is the check's own message."""
    from repro.faults.invariants import InvariantChecker

    system, _injector, _checker = build_cell(FaultPlan(seed=0, faults=()), "flush")
    for core in system.cores:
        core.invariant_probe = None
    return system.cores[0], InvariantChecker().install(system), system


def _uop(seq, state=None, squashed=False):
    from repro.cpu.backend import ST_DONE, UOp, template
    from repro.cpu.isa import Op

    uop = UOp(seq, 0, 0, False, True, True, template(Op.ADD))
    uop.state = ST_DONE if state is None else state
    uop.squashed = squashed
    return uop


def _message(excinfo) -> str:
    return str(excinfo.value).splitlines()[0]


class TestCheckMessages:
    """Each check fires with its exact message, and ``checks_run`` counts
    every check up to and including the one that raised: messages are
    formatted only on failure, so these pin both the text and the count."""

    def test_clock_backwards(self):
        core, checker, _ = _bare_core()
        core.cycle = 100
        checker.probe("squash", core)
        core.cycle = 50
        with pytest.raises(InvariantViolation) as excinfo:
            checker.probe("squash", core)
        assert _message(excinfo) == "core 0 clock moved backwards: 100 -> 50 at 'squash'"
        assert (checker.checks_run, checker.probes_fired) == (3, 2)

    def test_squashed_survivor(self):
        core, checker, _ = _bare_core()
        core.rob.extend([_uop(4), _uop(5), _uop(9, squashed=True)])
        with pytest.raises(InvariantViolation) as excinfo:
            checker.probe("squash", core)
        assert _message(excinfo) == "core 0: squashed µop seq=9 survived squash"
        assert checker.checks_run == 1 + 2 * 2 + 1

    def test_rob_sequence_order(self):
        core, checker, _ = _bare_core()
        core.rob.extend([_uop(4), _uop(7), _uop(6)])
        with pytest.raises(InvariantViolation) as excinfo:
            checker.probe("flush", core)
        assert _message(excinfo) == "core 0: ROB sequence not increasing after flush (7 then 6)"
        assert checker.checks_run == 1 + 2 * 2 + 2

    def test_repeated_sequence_number(self):
        core, checker, _ = _bare_core()
        core.rob.extend([_uop(4), _uop(4)])
        with pytest.raises(InvariantViolation) as excinfo:
            checker.probe("squash", core)
        assert _message(excinfo) == "core 0: ROB sequence not increasing after squash (4 then 4)"

    def test_issue_queue_census(self):
        from repro.cpu.backend import ST_READY, ST_WAITING

        core, checker, _ = _bare_core()
        core.rob.extend([_uop(1, ST_WAITING), _uop(2, ST_READY), _uop(3)])
        core.iq_count = 3
        with pytest.raises(InvariantViolation) as excinfo:
            checker.probe("squash", core)
        assert _message(excinfo) == (
            "core 0: issue-queue census 3 != ROB waiting/ready population 2 after squash"
        )
        assert checker.checks_run == 1 + 2 * 3 + 1

    def test_rob_not_empty_after_flush(self):
        core, checker, _ = _bare_core()
        core.rob.append(_uop(1))
        core.iq_count = 0
        with pytest.raises(InvariantViolation) as excinfo:
            checker.probe("flush", core)
        assert _message(excinfo) == "core 0: ROB not empty after a full flush"
        assert checker.checks_run == 1 + 2 + 1 + 1

    def test_passing_rob_counts_two_checks_per_entry(self):
        core, checker, _ = _bare_core()
        core.rob.extend([_uop(1), _uop(2), _uop(5)])
        core.iq_count = 0
        checker.probe("squash", core)
        assert (checker.checks_run, checker.probes_fired) == (1 + 2 * 3 + 1, 1)

    def test_conservation(self):
        core, checker, system = _bare_core()
        core.apic.user_queued += 2
        with pytest.raises(InvariantViolation) as excinfo:
            checker.finish(system)
        assert _message(excinfo) == (
            "delivery conservation violated: queued=2 != delivered=0 + waiting=0 "
            "+ staged=0 + inflight=0 (explicitly dropped before queueing: 0)"
        )
        assert checker.checks_run == 1


class TestCheckCounts:
    """``checks_run`` and ``probes_fired`` of one seeded fuzz scenario
    (root seed 0, index 0: squashes, flushes, injections and uirets on
    every leg), pinned to the values the eager-message checker counted."""

    @pytest.mark.parametrize("leg", ["naive", "fast", "fast+macro"])
    def test_seeded_scenario_counts(self, leg):
        from repro.faults import FaultInjector
        from repro.faults.invariants import InvariantChecker
        from repro.scenario.compile import build_system
        from repro.scenario.fuzz import _engine_env
        from repro.scenario.generate import ScenarioGenerator

        scenario = ScenarioGenerator(0).generate(0)
        built = build_system(scenario)
        checker = InvariantChecker(built.plan).install(built.system)
        FaultInjector(built.plan).install(built.system)
        with _engine_env(leg):
            built.system.run(scenario.max_cycles, until_halted=list(built.watch_cores))
            accounting = checker.finish(built.system)
        assert (accounting["checks_run"], accounting["probes_fired"]) == (28_437, 341)
