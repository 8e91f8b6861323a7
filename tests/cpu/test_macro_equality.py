"""Equality gate for the macro-op trace tier (REPRO_MACRO).

The macro tier (``repro.cpu.macroop``) replays steady-state loop periods in
O(1) instead of stepping them, so it gets the same contract as the
cycle-skipping engine, three ways: the naive stepper (``REPRO_FAST=0``),
the fast engine with the macro tier disabled (``REPRO_MACRO=0``), and the
fast engine with macro replay on must all produce byte-identical simulated
results — final cycle count, every core's full :class:`CoreStats` snapshot,
and every interrupt-delivery trace timestamp.

Four groups of cells probe the bail paths specifically:

* **timer intervals** — the KB timer deadline is a replay horizon; each
  interval puts the deadline at a different offset inside the hot loop, so
  replay must bail mid-loop and let the interpreter deliver the interrupt
  at its native cycle (the ``macro_bail_event`` path).
* **fault plans** — an armed :class:`FaultInjector` (and the invariant
  checker's write observers) must *block formation entirely*: replay under
  a pending fault arm could skip the injection cycle.  The cells still run
  with ``REPRO_MACRO=1`` to prove the guard holds.
* **mid-replay interrupt arrival** — the dense cell asserts the tier
  actually replayed cycles *and* bailed for an event, so the equality is
  not vacuous.
* **live neighbours** — the §6.1 two-core shape (a dependent-load chain
  feeding the stack pointer, plus a dedicated rdtsc-spin UIPI sender) and
  the Figure 5 poll-timer shape: the spinning core replays while the
  other core sleeps on memory, so replay must stop at the neighbour's
  wake-up and RDTSC readings must shift with the clock.  A third cell
  wakes a sleeping neighbour with device interrupts that land inside
  the replaying core's recording windows, which must drop them; a fourth
  puts the sleeper *before* the replaying core and fires no-op timeline
  events on its match boundaries, so replay starts on a cycle where the
  sleeper has just stepped.
"""

from __future__ import annotations

import pytest

from repro.apps import microbench as mb
from repro.common.counters import ENV_FAST, ENV_MACRO, GLOBAL_COUNTERS
from repro.compiler.instrument import DEFAULT_POLL_FLAG_ADDR, PollingInstrumenter
from repro.cpu import isa, macroop
from repro.cpu.delivery import DrainStrategy, FlushStrategy, TrackedStrategy
from repro.cpu.macroop import MacroController
from repro.cpu.multicore import MultiCoreSystem
from repro.cpu.program import ProgramBuilder
from repro.experiments import cycletier
from repro.faults.harness import build_cell, run_fault_cell, simulated_view
from repro.faults.plan import plan_for_kind

MAX_CYCLES = 2_000_000

#: Timer intervals chosen to land deadlines at different loop offsets:
#: shorter than a formation window, mid-loop, and past the workload end.
INTERVALS = (900, 2_500, 6_000)

STRATEGIES = {
    "flush": FlushStrategy,
    "drain": DrainStrategy,
    "tracked": TrackedStrategy,
}

#: One message-, one interrupt-, and one timing-fault kind; the full
#: matrix lives in tests/faults/ — here we only need each injector shape.
FAULT_KINDS = ("drop_send", "spurious_uintr", "timer_drift")

#: §6.1 cells: the experiment's shape (8,000-cycle UIPI interval, 4 KiB
#: stride) with fewer loop iterations, so the naive leg stays short.
SEC61_ITERATIONS = 8
SEC61_CHAINS = (10, 50)


def _view(system: MultiCoreSystem, watched: int = 0):
    """The engine-comparable result: cycles, every core's stats, the trace."""
    assert system.cores[watched].halted, "workload wedged"
    return {
        "cycles": system.cycle,
        "stats": [dict(c.stats.snapshot().__dict__) for c in system.cores],
        "trace": [
            (event.time, event.kind, tuple(sorted(event.detail.items())))
            for event in system.trace.events
        ],
    }


def _observe(strategy_name: str, interval: int, *, iterations: int = 6_000):
    """One dense KB-timer cell, traced, no result cache."""
    workload = mb.make_count_loop(iterations)
    system = MultiCoreSystem([workload.program], [STRATEGIES[strategy_name]()], trace=True)
    workload.install(system.shared)
    system.enable_kb_timer(0)
    system.cores[0].uintr.kb_timer.arm_periodic(interval, now=0)
    system.run(MAX_CYCLES, until_halted=[0])
    return _view(system)


def _observe_sec61(strategy_name: str, chain: int):
    """The §6.1 two-core cell: sp-chain receiver plus rdtsc-spin sender."""
    workload = mb.make_sp_dependence_chain(
        chain_length=chain, iterations=SEC61_ITERATIONS, stride=4096
    )
    run = cycletier.run_with_uipi_timer(
        workload,
        STRATEGIES[strategy_name](),
        interval=8_000,
        trace=True,
        expected_cycles=SEC61_ITERATIONS * chain * 220 + 40_000,
    )
    return _view(run.system)


def _observe_fig5_polling():
    """Figure 5's polling cell: instrumented base64 plus a poll-timer core
    that spins on rdtsc and stores the preemption flag each quantum."""
    workload = mb.make_base64(iterations=800, instrument=PollingInstrumenter())
    timer = mb.make_poll_timer_core(3_000, 16, DEFAULT_POLL_FLAG_ADDR)
    system = MultiCoreSystem(
        [workload.program, timer.program], [FlushStrategy(), FlushStrategy()], trace=True
    )
    workload.install(system.shared)
    system.run(MAX_CYCLES, until_halted=[0])
    return _view(system)


def _observe_sleeping_neighbour():
    """A DRAM pointer chase (long replay windows) beside a core that sleeps
    with nothing to fetch until forwarded device interrupts wake it."""
    sleeper = ProgramBuilder("sleeper")
    sleeper.emit(isa.jmp("asleep"))
    sleeper.emit_default_handler(counter_addr=mb.HANDLER_COUNTER_ADDR)
    sleeper.label("asleep")  # one past the last instruction: fetch idles
    chase = mb.make_pointer_chase(4096, stride=64, iterations=300)
    system = MultiCoreSystem(
        [chase.program, sleeper.build()], [FlushStrategy(), FlushStrategy()], trace=True
    )
    chase.install(system.shared)
    system.enable_forwarding(1, vector=0x31, user_vector=3)
    for shot in range(40):
        system.raise_device_interrupt(1, 0x31, delay=500 + shot * 1_733)
    system.run(MAX_CYCLES, until_halted=[0])
    return _view(system)


#: Cycles per replay period of the pointer chase below: its sigma-match
#: distance, so an event this far after a re-arm lands on the match.
CHASE_PERIOD = 204


def _observe_sleeper_first():
    """The sleeper as core 0 and the DRAM chase as core 1, with pairs of
    no-op timeline events one chase period apart.  Each event makes the
    sleeper step (re-deriving the same horizon) before the chase's
    boundary hook runs; the chase re-arms on the first event of a pair and
    matches on the second, so it replays from a cycle the sleeper has
    already stepped."""
    sleeper = ProgramBuilder("sleeper")
    sleeper.emit(isa.jmp("asleep"))
    sleeper.emit_default_handler(counter_addr=mb.HANDLER_COUNTER_ADDR)
    sleeper.label("asleep")
    chase = mb.make_pointer_chase(4096, stride=64, iterations=300)
    system = MultiCoreSystem(
        [sleeper.build(), chase.program], [FlushStrategy(), FlushStrategy()], trace=True
    )
    chase.install(system.shared)
    for base in range(1_000, 60_000, 1_500):
        system.schedule(base, lambda: None)
        system.schedule(base + CHASE_PERIOD, lambda: None)
    system.run(MAX_CYCLES, until_halted=[1])
    return _view(system, watched=1)


def _three_legs(monkeypatch, observe):
    """``observe()`` under naive, fast with macro off, fast with macro on.

    Also returns, for each replay of the macro-on leg, whether another
    core was live (not halted) beside the replaying one; ``GLOBAL_COUNTERS``
    is reset before that leg, so it counts that leg alone."""
    monkeypatch.setenv(ENV_FAST, "0")
    naive = observe()
    monkeypatch.setenv(ENV_FAST, "1")
    monkeypatch.setenv(ENV_MACRO, "0")
    fast_off = observe()
    live_neighbour = []
    real_apply = MacroController._apply

    def apply(self, *args):
        live_neighbour.append(any(not other.halted for other in self.others))
        return real_apply(self, *args)

    monkeypatch.setattr(MacroController, "_apply", apply)
    monkeypatch.setenv(ENV_MACRO, "1")
    GLOBAL_COUNTERS.reset()
    fast_on = observe()
    monkeypatch.setattr(MacroController, "_apply", real_apply)
    return (naive, fast_off, fast_on), live_neighbour


CELLS = [
    pytest.param(strategy, interval, id=f"{strategy}-interval{interval}")
    for strategy in STRATEGIES
    for interval in INTERVALS
]


def _assert_identical(naive, fast_off, fast_on):
    assert fast_off == naive
    assert fast_on["cycles"] == naive["cycles"]
    assert fast_on["stats"] == naive["stats"]
    assert fast_on["trace"] == naive["trace"]


@pytest.mark.parametrize("strategy,interval", CELLS)
def test_macro_tier_matches_naive_and_macro_off(monkeypatch, strategy, interval):
    legs, _ = _three_legs(monkeypatch, lambda: _observe(strategy, interval))
    _assert_identical(*legs)


@pytest.mark.parametrize("chain", SEC61_CHAINS)
@pytest.mark.parametrize("strategy", ("tracked", "flush"))
def test_sec61_cells_identical_with_live_neighbour(monkeypatch, strategy, chain):
    """Also the non-vacuity witness for the neighbour path: the sender's
    rdtsc spin is replayed while the receiver is live (not halted)."""
    legs, live_neighbour = _three_legs(
        monkeypatch, lambda: _observe_sec61(strategy, chain)
    )
    _assert_identical(*legs)
    assert GLOBAL_COUNTERS.macro_replays >= 1
    assert any(live_neighbour)


def test_fig5_poll_timer_cell_identical(monkeypatch):
    legs, _ = _three_legs(monkeypatch, _observe_fig5_polling)
    _assert_identical(*legs)


def test_neighbour_woken_mid_window_identical(monkeypatch):
    legs, _ = _three_legs(monkeypatch, _observe_sleeping_neighbour)
    _assert_identical(*legs)
    assert legs[0]["stats"][1]["interrupts_delivered"] >= 2, "sleeper never woke"


def test_replay_after_neighbour_steps_on_event_identical(monkeypatch):
    legs, live_neighbour = _three_legs(monkeypatch, _observe_sleeper_first)
    _assert_identical(*legs)
    assert any(live_neighbour), "the chase never replayed beside the sleeper"


@pytest.mark.parametrize("macro", ("0", "1"))
@pytest.mark.parametrize("kind", FAULT_KINDS)
def test_fault_cells_identical_with_macro_tier(monkeypatch, kind, macro):
    """Fault plans must not open a macro-tier equivalence gap.

    An installed injector arms the APIC fault interceptor, which blocks
    macro formation outright — so these cells also regress the guard: if
    formation ever slipped through and skipped an injection cycle, the
    naive/fast results would diverge here.
    """
    monkeypatch.setenv(ENV_MACRO, macro)
    plan = plan_for_kind(kind, seed=0, core=0, count=2, horizon=3_000)
    naive = run_fault_cell(plan, "flush", engine="naive")
    fast = run_fault_cell(plan, "flush", engine="fast")
    assert simulated_view(fast) == simulated_view(naive)


def test_fault_arm_blocks_formation(monkeypatch):
    """An armed APIC fault interceptor blocks the macro tier on its core.

    ``drop_send`` installs ``apic.fault_interceptor`` on the receiver,
    which ``_eligible`` treats as a hard disqualifier: that core never
    arms a recording, so it never forms or replays.  Its neighbour, the
    rdtsc-spin UIPI sender, may still replay while the receiver sleeps;
    ``test_fault_cells_identical_with_macro_tier`` proves the plan still
    lands identically.  (Timeline kinds like ``timer_drift`` are instead
    *bounded* by the timeline head; see
    ``test_fault_timeline_bounds_replay``.)
    """
    monkeypatch.setenv(ENV_FAST, "1")
    monkeypatch.setenv(ENV_MACRO, "1")
    plan = plan_for_kind("drop_send", seed=0, core=0, count=2, horizon=3_000)
    system, _, _ = build_cell(plan, "flush")
    intercepted = {
        core.core_id for core in system.cores if core.apic.fault_interceptor is not None
    }
    assert intercepted, "drop_send must install an APIC interceptor"
    armed = []
    replayed = []
    real_snapshot = macroop._snapshot_core
    real_apply = MacroController._apply

    def snapshot(core):
        armed.append(core.core_id)
        return real_snapshot(core)

    def apply(self, *args):
        replayed.append(self.core.core_id)
        return real_apply(self, *args)

    monkeypatch.setattr(macroop, "_snapshot_core", snapshot)
    monkeypatch.setattr(MacroController, "_apply", apply)
    system.run(MAX_CYCLES, until_halted=[0])
    assert system.cores[0].halted
    assert intercepted.isdisjoint(armed)
    assert intercepted.isdisjoint(replayed)


def test_fault_timeline_bounds_replay(monkeypatch):
    """Timeline faults don't block replay — they cap it at the next event.

    ``timer_drift`` leaves the APIC interceptor uninstalled, so the macro
    tier may form and replay, but every replay session must stop at the
    injector timeline's head (counted as ``macro_bail_event``) — the
    equality cells in this file prove the fault still lands identically.
    """
    monkeypatch.setenv(ENV_MACRO, "1")
    plan = plan_for_kind("timer_drift", seed=0, core=0, count=2, horizon=3_000)
    GLOBAL_COUNTERS.reset()
    run_fault_cell(plan, "flush", engine="fast")
    if GLOBAL_COUNTERS.macro_replays:
        assert GLOBAL_COUNTERS.macro_bail_event >= 1


def test_mid_replay_interrupt_arrival_bails_and_matches(monkeypatch):
    """The non-vacuity witness: replay happened, then an interrupt landed.

    With a 2,500-cycle timer inside a 6,000-iteration loop, the timer
    deadline falls mid-replay: the controller must cap ``n`` at the
    deadline (``macro_bail_event``), hand back to the interpreter, and the
    delivery must land on the same cycle the naive engine delivers it.
    """
    monkeypatch.setenv(ENV_FAST, "1")
    monkeypatch.setenv(ENV_MACRO, "0")
    reference = _observe("flush", 2_500)
    monkeypatch.setenv(ENV_MACRO, "1")
    GLOBAL_COUNTERS.reset()
    replayed = _observe("flush", 2_500)
    assert replayed == reference
    assert GLOBAL_COUNTERS.macro_replays >= 1
    assert GLOBAL_COUNTERS.macro_replayed_cycles > 0
    assert GLOBAL_COUNTERS.macro_bail_event >= 1
    delivered = replayed["stats"][0]["interrupts_delivered"]
    assert delivered >= 2, "cell needs interrupts landing between replays"
