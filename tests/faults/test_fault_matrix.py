"""The fault-matrix suite: fault plan x delivery strategy x engine.

The acceptance bar from the robustness issue: at least 3 fault kinds x the
three delivery strategies x both engines, with byte-identical simulated
stats between the naive stepper and the cycle-skipping engine, and the
invariant checker holding throughout.  ``drop_send`` exercises the message
interceptor, ``timer_drift`` the timeline-scheduled KB-timer faults, and
``misspec_storm`` predictor scrambling (the tracked re-injection stressor);
the remaining kinds are covered by the broader ``repro faultsweep`` CLI.
"""

import pytest

from repro.faults import plan_for_kind, run_fault_cell
from repro.faults.harness import STRATEGIES, simulated_view

MATRIX_KINDS = ("drop_send", "timer_drift", "misspec_storm")

CELLS = [
    pytest.param(kind, strategy, id=f"{kind}-{strategy}")
    for kind in MATRIX_KINDS
    for strategy in STRATEGIES
]


@pytest.mark.parametrize("kind,strategy", CELLS)
def test_engines_agree_under_faults(kind, strategy):
    plan = plan_for_kind(kind, seed=0, count=2, horizon=3_000)
    naive = run_fault_cell(plan, strategy, engine="naive")
    fast = run_fault_cell(plan, strategy, engine="fast")
    assert simulated_view(fast) == simulated_view(naive)
    # The cell is not vacuous: the plan actually did something.
    assert sum(fast["faults"].values()) > 0
    assert fast["accounting"] == naive["accounting"]


def test_dropped_sends_accounted_as_dropped():
    plan = plan_for_kind("drop_send", seed=0, count=2, horizon=3_000)
    result = run_fault_cell(plan, "flush", engine="fast")
    assert result["faults"]["dropped"] == 2
    # The drops are visible in the conservation audit (never queued), and
    # conservation holds for everything that *was* queued.
    acct = result["accounting"]
    assert acct["dropped"] == 2
    assert acct["queued"] == (
        acct["delivered"] + acct["waiting"] + acct["staged"] + acct["inflight"]
    )


def test_duplicated_sends_increase_queued():
    plan = plan_for_kind("dup_send", seed=0, count=2, horizon=3_000)
    result = run_fault_cell(plan, "flush", engine="fast")
    assert result["faults"]["duplicated"] == 2
    # Conservation held with the duplicates included.
    acct = result["accounting"]
    assert acct["queued"] == (
        acct["delivered"] + acct["waiting"] + acct["staged"] + acct["inflight"]
    )


def test_delayed_sends_are_redelivered():
    plan = plan_for_kind("delay_send", seed=0, count=2, horizon=3_000)
    result = run_fault_cell(plan, "drain", engine="fast")
    assert result["faults"]["delayed"] >= 1
    assert result["faults"]["redelivered"] == result["faults"]["delayed"]


def test_fault_cell_rejects_ctx_switch_in_cycle_tier():
    """A serialised plan naming the retired ``ctx_switch`` kind fails to
    load, so it never reaches a fault cell."""
    from repro.common.errors import ConfigError
    from repro.faults.plan import FaultPlan

    with pytest.raises(ConfigError, match="unknown fault kind"):
        plan = FaultPlan.loads(
            '{"faults":[{"at":100,"core":0,"delay":10,"index":0,'
            '"kind":"ctx_switch"}],"seed":0}'
        )
        run_fault_cell(plan, "flush", engine="fast")


def test_same_plan_same_results():
    """A fixed seed reproduces byte-identically — the replay guarantee."""
    plan = plan_for_kind("spurious_uintr", seed=123, count=2, horizon=3_000)
    a = run_fault_cell(plan, "tracked", engine="fast")
    b = run_fault_cell(plan, "tracked", engine="fast")
    assert simulated_view(a) == simulated_view(b)
    assert a["accounting"] == b["accounting"]
