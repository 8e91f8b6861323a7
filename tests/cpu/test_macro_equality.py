"""Equality gate for the macro-op trace tier (REPRO_MACRO).

The macro tier (``repro.cpu.macroop``) replays steady-state loop periods in
O(1) instead of stepping them, so it gets the same contract as the
cycle-skipping engine, three ways: the naive stepper (``REPRO_FAST=0``),
the fast engine with the macro tier disabled (``REPRO_MACRO=0``), and the
fast engine with macro replay on must all produce byte-identical simulated
results — final cycle count, every core's full :class:`CoreStats` snapshot,
every interrupt-delivery trace timestamp, and the architectural state:
every core's registers and a digest of the shared memory words.

Eight groups of cells probe the bail paths and windows specifically:

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
* **sleeping neighbours** — the §6.1 two-core shape (a dependent-load
  chain feeding the stack pointer, plus a dedicated rdtsc-spin UIPI
  sender) and the Figure 5 poll-timer shape: the spinning core replays
  alone while the other core sleeps on memory, or parks while it wakes on
  every DRAM return, and RDTSC readings must shift with the clock.  A third
  cell wakes a sleeper with device interrupts that land inside the
  replaying core's recording windows, which must drop them; a fourth puts
  the sleeper *before* the replaying core and fires no-op timeline events
  on its match boundaries.
* **two looping cores** — Figure 4's count loop and base64 (which stores
  inside the window) beside the rdtsc-spinning UIPI timer core, and Table
  2's end-to-end pair (whose receiver loops on an unconditional ``jmp``):
  a loop that touches no memory parks beside the other, which the
  ``_park`` spy must see; Table 2's receiver must also arm only once its
  back-end has drained after each handler.  Loops that touch memory
  replay together, in one window matched at one common period: a stall
  cell keeps one window core asleep on DRAM across many boundaries
  beside a loading spinner, with a load blocked behind an unresolved
  store, and the ``_apply`` spy must see both advanced together.  A
  conflict cell has one loop store the word the other loads: no window
  may cover that line.
* **closed-form exits** — load-free affine loops, whose exits the
  evaluator solves instead of stepping to them: Figure 4's count loop at
  four consecutive lengths, alone and beside the UIPI timer core, a
  spinner at four consecutive deadlines (one lands exactly on a reading),
  and a down-counting ``subi; bnei`` loop.  The spy must see every replay
  take the solved path.
* **parked cores** — a memory-free solved loop parks beside awake cores
  and lands at its plan's end, before a timeline event, or where the run
  stops: a spinner whose exit lands at each cycle of its period beside a
  DRAM chase, UIPIs sent to a parked count loop by a core that chases
  memory between sends, a KB timer armed on a parked core, and a run
  that stops on a watched core while another is parked (then runs on).
  A ``_land`` spy shows where each landed.
* **tracked delivery with fetch stopped** — an interrupt staged while the
  core waits for its ``halt`` to commit cannot inject, so the fast legs
  skip those cycles.
"""

from __future__ import annotations

import hashlib
from typing import List, NamedTuple, Optional, Sequence, Tuple

import pytest

from repro.apps import microbench as mb
from repro.common.counters import ENV_FAST, ENV_MACRO, GLOBAL_COUNTERS
from repro.compiler.instrument import DEFAULT_POLL_FLAG_ADDR, PollingInstrumenter
from repro.cpu import isa, macroop
from repro.cpu.delivery import DrainStrategy, FlushStrategy, TrackedStrategy
from repro.cpu.macroop import MacroController
from repro.cpu.cache import SharedMemory
from repro.cpu.core import Core
from repro.cpu.multicore import MultiCoreSystem
from repro.cpu.program import ProgramBuilder
from repro.experiments import cycletier
from repro.experiments.characterize import run_end_to_end_pair
from repro.faults.harness import build_cell, run_fault_cell, simulated_view
from repro.faults.plan import plan_for_kind

MAX_CYCLES = 2_000_000
LINE_BYTES = SharedMemory.LINE_BYTES

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


def _view(system: MultiCoreSystem, watched: Optional[int] = 0):
    """The engine-comparable result: cycles, every core's stats, the trace,
    and the architectural state — every core's registers and a digest of
    the shared memory words.  ``watched`` names a core that must have
    halted (None for a run of fixed length)."""
    assert watched is None or system.cores[watched].halted, "workload wedged"
    words = repr(system.shared.snapshot_words()).encode()
    return {
        "cycles": system.cycle,
        "stats": [dict(c.stats.snapshot().__dict__) for c in system.cores],
        "trace": [
            (event.time, event.kind, tuple(sorted(event.detail.items())))
            for event in system.trace.events
        ],
        "regs": [list(c.arch_regs) for c in system.cores],
        "memory": hashlib.sha256(words).hexdigest(),
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


class Replay(NamedTuple):
    """One replay of the macro-on leg, as the ``_apply`` spy saw it, or one
    park, as the ``_park`` spy saw it (a park applies its periods when it
    lands, which the ``_apply`` spy sees as a replay of its own)."""

    window: Tuple[int, ...]  # ids of the cores it advanced together
    live: Tuple[int, ...]  # ids of every core not halted at that moment
    lines: Tuple[frozenset, ...]  # per window core: the lines it touched
    solved: Tuple[bool, ...]  # per window core: was its exit solved in closed form?
    parked: bool = False


def _three_legs(monkeypatch, observe):
    """``observe()`` under naive, fast with macro off, fast with macro on.

    Also returns every :class:`Replay` of the macro-on leg;
    ``GLOBAL_COUNTERS`` is reset before that leg, so it counts that leg
    alone."""
    monkeypatch.setenv(ENV_FAST, "0")
    naive = observe()
    monkeypatch.setenv(ENV_FAST, "1")
    monkeypatch.setenv(ENV_MACRO, "0")
    fast_off = observe()
    replays: List[Replay] = []
    real_apply = MacroController._apply

    def apply(self, plans, n):
        lines = []
        for plan in plans:
            horizon = (n + 1) * len(plan.ev.body) + len(plan.core.rob)
            touched, _ = macroop._lines(plan.ev.body, plan.ev.records, horizon, LINE_BYTES)
            lines.append(frozenset(touched))
        replays.append(
            Replay(
                tuple(plan.core.core_id for plan in plans),
                tuple(rec.core.core_id for rec in self.recorders if not rec.core.halted),
                tuple(lines),
                tuple(plan.ev._form is not None for plan in plans),
            )
        )
        return real_apply(self, plans, n)

    real_park = MacroController._park

    def park(self, match, ev, cycle, n, hot, proved):
        replays.append(
            Replay(
                (self._window[0].core.core_id,),
                tuple(rec.core.core_id for rec in self.recorders if not rec.core.halted),
                (frozenset(),),
                (ev._form is not None,),
                parked=True,
            )
        )
        return real_park(self, match, ev, cycle, n, hot, proved)

    monkeypatch.setattr(MacroController, "_apply", apply)
    monkeypatch.setattr(MacroController, "_park", park)
    monkeypatch.setenv(ENV_MACRO, "1")
    GLOBAL_COUNTERS.reset()
    fast_on = observe()
    monkeypatch.setattr(MacroController, "_apply", real_apply)
    monkeypatch.setattr(MacroController, "_park", real_park)
    return (naive, fast_off, fast_on), replays


def _beside_sleeper(replays: Sequence[Replay]) -> bool:
    """Did some replay advance its window while another core was live?"""
    return any(len(replay.live) > len(replay.window) for replay in replays)


def _joint(replays: Sequence[Replay]) -> bool:
    """Did some replay advance two live cores together?"""
    return any(len(replay.window) >= 2 for replay in replays)


def _parked_beside(replays: Sequence[Replay], core_id: int) -> bool:
    """Did this core park while another core was live?"""
    return any(
        replay.parked and replay.window == (core_id,) and len(replay.live) > 1
        for replay in replays
    )


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
    assert fast_on["regs"] == naive["regs"]
    assert fast_on["memory"] == naive["memory"]


@pytest.mark.parametrize("strategy,interval", CELLS)
def test_macro_tier_matches_naive_and_macro_off(monkeypatch, strategy, interval):
    legs, _ = _three_legs(monkeypatch, lambda: _observe(strategy, interval))
    _assert_identical(*legs)


@pytest.mark.parametrize("chain", SEC61_CHAINS)
@pytest.mark.parametrize("strategy", ("tracked", "flush"))
def test_sec61_cells_identical_with_live_neighbour(monkeypatch, strategy, chain):
    """Also the non-vacuity witness for the neighbour path: the sender's
    rdtsc spin parks while the receiver is live (not halted), and some
    window opens mid-cycle, after the receiver (core 0) has stepped."""
    mid_cycle = []
    real_recheck = MacroController.on_recheck

    def on_recheck(self, cycle):
        real_recheck(self, cycle)
        mid_cycle.append(self._scanning)

    monkeypatch.setattr(MacroController, "on_recheck", on_recheck)
    legs, replays = _three_legs(
        monkeypatch, lambda: _observe_sec61(strategy, chain)
    )
    _assert_identical(*legs)
    assert GLOBAL_COUNTERS.macro_replays >= 1
    assert _beside_sleeper(replays)
    assert _parked_beside(replays, 1), "the spinner never parked beside the receiver"
    assert any(mid_cycle), "no window opened after the receiver stepped"


@pytest.mark.parametrize("strategy", ("tracked", "flush"))
def test_proven_windows_match_as_the_full_sigma_match(monkeypatch, strategy):
    """A window whose snapshot is a shifted copy of a proven one replays
    on the proof (``macroop._proven``) instead of a full sigma match: at
    every such boundary the full match must give the same result, down to
    the retired producer objects, and the legs stay identical."""
    proven = []
    real_proven = macroop._proven

    def checked(core, snap, commits, proof):
        match = real_proven(core, snap, commits, proof)
        if match is not None:
            full = macroop._sigma_match(core, snap, commits)
            assert full is not None, "proof matched, full sigma match refused"
            assert full[:2] == match[:2]
            assert [(id(p), q) for p, q in full[2]] == [(id(p), q) for p, q in match[2]]
            proven.append(match)
        return match

    monkeypatch.setattr(macroop, "_proven", checked)
    legs, replays = _three_legs(monkeypatch, lambda: _observe_div_loop_beside_chase(strategy))
    _assert_identical(*legs)
    assert len(proven) >= 10, "no window replayed on a proof"
    assert len(replays) > len(proven), "every replay came from a proof"


def _observe_div_loop_beside_chase(strategy_name: str = "flush"):
    """A memory-free loop whose add waits on a divide while reading an
    older, already retired increment, beside a DRAM pointer chase whose
    wake-ups cut every replay short (a divide has no closed form, so the
    loop cannot park): the loop re-arms on a proof each time, and some
    proofs carry a retired producer."""
    loop = ProgramBuilder("div_loop")
    loop.emit(isa.movi(1, 0), isa.movi(2, 1_500), isa.movi(4, 1 << 40), isa.movi(5, 1))
    loop.label("loop")
    loop.emit(isa.addi(1, 1, 1), isa.div(4, 4, 5), isa.add(3, 1, 4), isa.blt(1, 2, "loop"))
    loop.emit(isa.halt())
    chase = mb.make_pointer_chase(4096, stride=64, iterations=300)
    strategy = STRATEGIES[strategy_name]
    system = MultiCoreSystem(
        [chase.program, loop.build()], [strategy(), strategy()], trace=True
    )
    chase.install(system.shared)
    system.run(MAX_CYCLES, until_halted=[1])
    return _view(system, watched=1)


def test_proof_with_retired_producers_identical(monkeypatch):
    proven = []
    real_proven = macroop._proven

    def checked(core, snap, commits, proof):
        match = real_proven(core, snap, commits, proof)
        if match is not None:
            full = macroop._sigma_match(core, snap, commits)
            assert full is not None and full[:2] == match[:2]
            assert [(id(p), q) for p, q in full[2]] == [(id(p), q) for p, q in match[2]]
            proven.append(match)
        return match

    monkeypatch.setattr(macroop, "_proven", checked)
    legs, _ = _three_legs(monkeypatch, _observe_div_loop_beside_chase)
    _assert_identical(*legs)
    assert any(match[2] for match in proven), "no proof carried a retired producer"


def _perturbed_snaps(snap):
    """Copies of a snapshot, each with one part a proof must compare moved."""
    yield "t0", snap._replace(t0=snap.t0 + 1)
    yield "uops", snap._replace(uops=[snap.uops[0][:1] + (-1,) + snap.uops[0][2:]] + snap.uops[1:])
    edges, rename, loads, stores = snap.refs
    yield "refs", snap._replace(refs=(edges, [*rename, (99, 0)], loads, stores))
    equal = list(snap.equal)
    equal[0] = None
    yield "equal", snap._replace(equal=tuple(equal))
    for i, _, _ in macroop._SHIFTED_AT[1:]:  # the first row, the clock, is t0
        count = list(snap.count)
        count[i] += 1_000_003
        yield f"count[{i}]", snap._replace(count=tuple(count))
    if snap.waiting:
        (slot, values), *rest = snap.waiting
        for field in range(len(values)):
            bumped = list(values)
            bumped[field] += 1_000_003
            yield f"waiting[{field}]", snap._replace(waiting=[(slot, tuple(bumped))] + rest)
    for h, heap in enumerate(snap.heaps):
        for part in range(3) if heap else ():
            entry = list(heap[0])
            entry[part] += 1_000_003
            heaps = list(snap.heaps)
            heaps[h] = [tuple(entry)] + heap[1:]
            yield f"heaps[{h}][{part}]", snap._replace(heaps=heaps)


def test_a_proof_refuses_every_moved_part(monkeypatch):
    """At a boundary where a window matches on its proof, moving any part
    of the snapshot, or of the commit stream, makes ``_proven`` refuse."""
    monkeypatch.setenv(ENV_FAST, "1")
    monkeypatch.setenv(ENV_MACRO, "1")
    real_proven = macroop._proven
    seen = []

    def probe(core, snap, commits, proof):
        match = real_proven(core, snap, commits, proof)
        if match is not None and match[2] and not seen:
            refused = []  # the moves that were still proven
            for name, moved in _perturbed_snaps(snap):
                if real_proven(core, moved, commits, proof) is not None:
                    refused.append(name)
            shuffled = list(commits)
            shuffled[0], shuffled[-1] = shuffled[-1], shuffled[0]
            for name, stream in (("short", commits[:-1]), ("order", shuffled)):
                if real_proven(core, snap, stream, proof) is not None:
                    refused.append(name)
            core.cycle += 1  # a boundary past the proven period's end
            try:
                if real_proven(core, snap, commits, proof) is not None:
                    refused.append("delta")
            finally:
                core.cycle -= 1
            seen.append(refused)
        return match

    monkeypatch.setattr(macroop, "_proven", probe)
    _observe_div_loop_beside_chase()
    assert seen, "no proof with a retired producer matched"
    assert seen[0] == [], f"moved parts still proven: {seen[0]}"


def test_fig5_poll_timer_cell_identical(monkeypatch):
    legs, _ = _three_legs(monkeypatch, _observe_fig5_polling)
    _assert_identical(*legs)


def test_neighbour_woken_mid_window_identical(monkeypatch):
    legs, _ = _three_legs(monkeypatch, _observe_sleeping_neighbour)
    _assert_identical(*legs)
    assert legs[0]["stats"][1]["interrupts_delivered"] >= 2, "sleeper never woke"


def test_replay_after_neighbour_steps_on_event_identical(monkeypatch):
    legs, replays = _three_legs(monkeypatch, _observe_sleeper_first)
    _assert_identical(*legs)
    assert _beside_sleeper(replays), "the chase never replayed beside the sleeper"


#: Cycles the ``addi; jmp`` cell runs: its loop never exits.
JMP_LOOP_CYCLES = 6_000


def _observe_jmp_loop():
    """A loop closed by an unconditional backward ``jmp``, run for a fixed
    number of cycles."""
    b = ProgramBuilder("jmp_loop")
    b.label("loop")
    b.emit(isa.addi(1, 1, 1))
    b.emit(isa.jmp("loop"))
    system = MultiCoreSystem([b.build()], [FlushStrategy()], trace=True)
    system.run(JMP_LOOP_CYCLES)
    return _view(system, watched=None)


def test_jmp_loop_for_fixed_cycles_identical(monkeypatch):
    """Backward JMPs count toward hotness, so the loop replays."""
    legs, replays = _three_legs(monkeypatch, _observe_jmp_loop)
    _assert_identical(*legs)
    assert legs[0]["cycles"] == JMP_LOOP_CYCLES
    assert replays, "the jmp loop never replayed"


# ---------------------------------------------------------------------------
# Joint windows: two live cores replayed together


def _observe_beside_timer(workload, strategy_name: str, interval: int, expected: int):
    """A workload on core 0 beside the rdtsc-spinning UIPI timer core."""
    run = cycletier.run_with_uipi_timer(
        workload,
        STRATEGIES[strategy_name](),
        interval=interval,
        trace=True,
        expected_cycles=expected,
    )
    return _view(run.system)


@pytest.mark.parametrize("strategy", ("flush", "tracked"))
def test_count_loop_beside_timer_core_replays_jointly(monkeypatch, strategy):
    """Figure 4's two-core shape, shortened: a count loop beside the UIPI
    timer core, both looping every cycle.  Neither loop touches memory,
    so each parks beside the other."""
    legs, replays = _three_legs(
        monkeypatch,
        lambda: _observe_beside_timer(mb.make_count_loop(5_000), strategy, 2_000, 5_000),
    )
    _assert_identical(*legs)
    assert _parked_beside(replays, 0) and _parked_beside(replays, 1), replays


def test_base64_beside_timer_core_replays_jointly(monkeypatch):
    """Stores inside the window: base64 writes its output array while the
    timer core spins, parked, so base64 replays beside it."""
    legs, replays = _three_legs(
        monkeypatch,
        lambda: _observe_beside_timer(mb.make_base64(iterations=300), "flush", 3_000, 6_000),
    )
    _assert_identical(*legs)
    assert _parked_beside(replays, 1), "the timer core never parked"
    assert any(not replay.parked and replay.window == (0,) for replay in replays)


def _end_to_end_pair():
    return _view(run_end_to_end_pair(samples=2, gap=4_000))


def test_table2_end_to_end_pair_replays_jointly(monkeypatch):
    """Table 2's pair: a counted gap loop beside an ``addi; jmp`` receiver
    (whose back-edge is an unconditional JMP, so its loop never exits):
    both park, and each UIPI lands the parked receiver."""
    legs, replays = _three_legs(monkeypatch, _end_to_end_pair)
    _assert_identical(*legs)
    assert _parked_beside(replays, 0) and _parked_beside(replays, 1), replays


def test_receiver_arms_once_its_pipeline_settles(monkeypatch):
    """After each handler, Table 2's receiver returns into its ``addi;
    jmp`` loop with a ROB and issue queue that drain for a few dozen
    cycles.  A window armed there could never match and would step both
    cores to its scan deadline; the receiver arms once the drain ends."""
    armed = []
    expired = []
    real_arm = MacroController._arm
    real_retry = MacroController._retry

    def arm(self, window, sleepers, cycle, solo=False):
        armed.extend(rec.core.core_id for rec in window)
        return real_arm(self, window, sleepers, cycle, solo)

    def retry(self, cycle, arm):
        if arm:
            expired.append(cycle)
        return real_retry(self, cycle, arm)

    monkeypatch.setattr(MacroController, "_arm", arm)
    monkeypatch.setattr(MacroController, "_retry", retry)
    legs, replays = _three_legs(monkeypatch, _end_to_end_pair)
    _assert_identical(*legs)
    assert 1 in armed and _parked_beside(replays, 1)
    assert expired == [], f"windows ran to their scan deadline at {expired}"


#: The stall cell's list: one node per page, each a cold DRAM miss.
STALL_BASE = 0x80_0000
STALL_STRIDE = 4096


def _observe_stall_beside_spinner():
    """Core 0 chases a list of cold pages, so it sleeps on DRAM for most of
    every period, while core 1 spins on ``load; addi; jmp`` (the load of a
    word of its own keeps it from parking) and keeps the clock stepping.  Each period stores through the chased pointer (its address
    resolves on the cycle the miss returns) and then loads a fixed word the
    first period's store hit, which trains that load to wait for older
    store addresses; the next hop adds the loaded zero, so the load's issue
    cycle shows in every later one."""
    iterations = 150
    chaser = ProgramBuilder("stall")
    chaser.emit(isa.movi(1, 0))
    chaser.emit(isa.movi(2, iterations))
    chaser.emit(isa.movi(3, STALL_BASE))
    chaser.emit(isa.movi(5, 0))
    chaser.emit(isa.movi(7, STALL_BASE + STALL_STRIDE + LINE_BYTES))
    chaser.label("loop")
    chaser.emit(isa.load(3, 3, 0))
    chaser.emit(isa.store(5, 3, LINE_BYTES))
    chaser.emit(isa.load(6, 7, 0))
    chaser.emit(isa.add(3, 3, 6))
    chaser.emit(isa.addi(1, 1, 1))
    chaser.emit(isa.blt(1, 2, "loop"))
    chaser.emit(isa.halt())
    spinner = ProgramBuilder("spin")
    spinner.emit(isa.movi(7, STALL_BASE - STALL_STRIDE))
    spinner.label("loop")
    spinner.emit(isa.load(2, 7, 0))
    spinner.emit(isa.addi(1, 1, 1))
    spinner.emit(isa.jmp("loop"))
    system = MultiCoreSystem(
        [chaser.build(), spinner.build()], [FlushStrategy(), FlushStrategy()], trace=True
    )
    for i in range(iterations + 1):
        system.shared.write(STALL_BASE + i * STALL_STRIDE, STALL_BASE + (i + 1) * STALL_STRIDE)
    system.run(MAX_CYCLES, until_halted=[0])
    return _view(system)


def test_window_core_asleep_on_dram_beside_spinner_identical(monkeypatch):
    """A window core that sleeps across boundaries keeps one idle stretch,
    so its blocked load is re-deferred to the wake-up cycle and issues
    behind the store that becomes due there, as in the naive stepper."""
    legs, replays = _three_legs(monkeypatch, _observe_stall_beside_spinner)
    _assert_identical(*legs)
    assert legs[0]["stats"][0]["memory_order_squashes"] >= 1, "the load never trained"
    assert _joint(replays), "no replay advanced both cores together"


#: The conflict cell: core 0 streams one store per line upward from
#: CONFLICT_BASE; core 1 keeps loading the word CONFLICT_LINES lines up,
#: which core 0's stream reaches long before either loop ends.
CONFLICT_BASE = 0x60_0000
CONFLICT_LINES = 200


def _observe_conflict():
    """The conflict cell's writer (core 0) and loader (core 1)."""
    iterations = 1_500
    writer = ProgramBuilder("writer")
    writer.emit(isa.movi(1, CONFLICT_BASE))
    writer.emit(isa.movi(2, 0))
    writer.emit(isa.movi(5, 7))
    writer.label("loop")
    writer.emit(isa.store(5, 1, 0))
    writer.emit(isa.addi(1, 1, LINE_BYTES))
    writer.emit(isa.addi(2, 2, 1))
    writer.emit(isa.blti(2, iterations, "loop"))
    writer.emit(isa.halt())
    loader = ProgramBuilder("loader")
    loader.emit(isa.movi(1, CONFLICT_BASE + CONFLICT_LINES * LINE_BYTES))
    loader.emit(isa.movi(2, 0))
    loader.label("loop")
    loader.emit(isa.load(3, 1, 0))
    loader.emit(isa.add(4, 4, 3))
    loader.emit(isa.addi(2, 2, 1))
    loader.emit(isa.blti(2, iterations, "loop"))
    loader.emit(isa.halt())
    system = MultiCoreSystem(
        [writer.build(), loader.build()], [FlushStrategy(), FlushStrategy()], trace=True
    )
    system.run(MAX_CYCLES, until_halted=[0, 1])
    return _view(system)


def test_cores_sharing_a_line_never_share_a_window(monkeypatch):
    """One loop stores the word the other loads: windows that would cover
    the shared line form (both loops sigma-match while the store stream is
    still far below it) but are refused, and the result stays identical."""
    shared_line = (CONFLICT_BASE + CONFLICT_LINES * LINE_BYTES) // LINE_BYTES
    stores_shared = []
    real_lines = macroop._lines

    def lines(body, records, horizon, line_bytes):
        touched, stored = real_lines(body, records, horizon, line_bytes)
        stores_shared.append(shared_line in stored)
        return touched, stored

    monkeypatch.setattr(macroop, "_lines", lines)
    legs, replays = _three_legs(monkeypatch, _observe_conflict)
    _assert_identical(*legs)
    assert any(stores_shared), "no joint window reached the shared line"
    for replay in replays:
        if len(replay.window) >= 2:
            assert not all(shared_line in lines for lines in replay.lines)


# ---------------------------------------------------------------------------
# Closed-form replays: load-free affine loops, their exits solved


#: Four consecutive count-loop lengths: each moves the exit on by one
#: iteration, so it lands at every offset of the windows' periods.
COUNT_LENGTHS = (3_000, 3_001, 3_002, 3_003)


def _all_solved(replays: Sequence[Replay]) -> bool:
    """Did every replay take the closed-form path on every window core?"""
    return bool(replays) and all(all(replay.solved) for replay in replays)


def _observe_alone(workload):
    """One workload alone on one core, until it halts."""
    system = MultiCoreSystem([workload.program], [FlushStrategy()], trace=True)
    workload.install(system.shared)
    system.run(MAX_CYCLES, until_halted=[0])
    return _view(system)


@pytest.mark.parametrize("length", COUNT_LENGTHS)
def test_count_loop_alone_solved_at_each_length(monkeypatch, length):
    legs, replays = _three_legs(monkeypatch, lambda: _observe_alone(mb.make_count_loop(length)))
    _assert_identical(*legs)
    assert _all_solved(replays), replays


@pytest.mark.parametrize("length", COUNT_LENGTHS)
def test_count_loop_beside_timer_core_solved_at_each_length(monkeypatch, length):
    legs, replays = _three_legs(
        monkeypatch,
        lambda: _observe_beside_timer(mb.make_count_loop(length), "flush", 2_000, length),
    )
    _assert_identical(*legs)
    assert _parked_beside(replays, 0), "the count loop never parked"
    assert _all_solved(replays), replays


#: The spinner cell's deadlines: one iteration of its loop takes 4 cycles,
#: so one of four consecutive deadlines equals a reading exactly.
SPIN_DEADLINES = (5_000, 5_001, 5_002, 5_003)


def _spinner(deadline: int):
    """``rdtsc`` until ``deadline`` cycles after the first reading, with a
    dependent chain that stretches each iteration to several cycles."""
    b = ProgramBuilder("spinner")
    b.emit(isa.rdtsc(1))
    b.emit(isa.addi(3, 1, deadline))
    b.label("wait")
    b.emit(isa.rdtsc(6))
    for _ in range(4):
        b.emit(isa.addi(7, 7, 1))
    b.emit(isa.blt(6, 3, "wait"))
    b.emit(isa.halt())
    return mb.Workload(name="spinner", program=b.build())


def test_spinner_deadline_on_a_period_boundary(monkeypatch):
    """Of four consecutive deadlines, some solved exit reads the deadline
    itself: the spin's last reading lands exactly on a period boundary."""
    exact = []
    real_solve = macroop._Evaluation.solve

    def solve(self, horizon):
        solved = real_solve(self, horizon)
        if solved and self.exit is not None:
            exact.append(self.regs[6] == self.regs[3])
        return solved

    monkeypatch.setattr(macroop._Evaluation, "solve", solve)
    for deadline in SPIN_DEADLINES:
        legs, replays = _three_legs(monkeypatch, lambda: _observe_alone(_spinner(deadline)))
        _assert_identical(*legs)
        assert _all_solved(replays), replays
    assert any(exact), "no deadline landed on a reading"
    assert not all(exact), "every deadline landed on a reading"


def test_down_counting_sub_bne_loop_solved(monkeypatch):
    b = ProgramBuilder("count_down")
    b.emit(isa.movi(1, 2_500))
    b.label("loop")
    b.emit(isa.subi(1, 1, 1))
    b.emit(isa.bnei(1, 0, "loop"))
    b.emit(isa.halt())
    workload = mb.Workload(name="count_down", program=b.build())
    legs, replays = _three_legs(monkeypatch, lambda: _observe_alone(workload))
    _assert_identical(*legs)
    assert _all_solved(replays), replays


# ---------------------------------------------------------------------------
# Parked cores: a memory-free solved loop sleeps beside awake cores


class Landing(NamedTuple):
    """One landing of a parked core, as the ``_land`` spy saw it."""

    core: int
    cycle: int  # the cycle it landed before
    landing: int  # the cycle its plan would have run to
    pending: bool  # did its APIC hold an interrupt right after?


def _landings(monkeypatch) -> List[Landing]:
    """Spy on ``MacroController._land`` (every leg: only the macro leg
    parks)."""
    seen: List[Landing] = []
    real_land = MacroController._land

    def land(self, park, cycle):
        stepped = real_land(self, park, cycle)
        core = park.plan.core
        seen.append(Landing(core.core_id, cycle, park.landing, bool(core.apic._pending)))
        return stepped

    monkeypatch.setattr(MacroController, "_land", land)
    return seen


def _observe_spinner_beside_chase(deadline: int):
    """The closed-form spinner on core 1 beside a DRAM pointer chase on
    core 0, whose wake-ups would cut every replay short."""
    chase = mb.make_pointer_chase(4096, stride=64, iterations=60)
    spinner = _spinner(deadline)
    system = MultiCoreSystem(
        [chase.program, spinner.program], [FlushStrategy(), FlushStrategy()], trace=True
    )
    chase.install(system.shared)
    system.run(MAX_CYCLES, until_halted=[0, 1])
    return _view(system, watched=1)


def test_parked_spinner_exit_at_each_deadline_beside_chase(monkeypatch):
    """The spinner parks beside the chase and lands on its solved exit,
    which the four deadlines move across every cycle of its period: it
    lands at its plan's end, before the chase halts, and steps the exit
    natively."""
    landings = _landings(monkeypatch)
    for deadline in SPIN_DEADLINES:
        landings.clear()
        legs, replays = _three_legs(monkeypatch, lambda: _observe_spinner_beside_chase(deadline))
        _assert_identical(*legs)
        assert _parked_beside(replays, 1), replays
        assert _all_solved(replays), replays
        assert any(l.core == 1 and l.cycle == l.landing for l in landings), landings
        assert legs[0]["stats"][0]["cycles"] > legs[0]["stats"][1]["cycles"], "chase ended first"


#: The sender of the IPI cell: hops of a cold-page chase between UIPIs.
IPI_HOPS = 6
IPI_SENDS = 5
IPI_BASE = 0xA0_0000


def _observe_ipi_to_parked_core():
    """A count loop on core 0 receives UIPIs from core 1, which chases
    cold pages (so it sleeps on DRAM, touches memory and never parks)
    between sends: each IPI reaches the count loop while it is parked."""
    receiver = mb.make_count_loop(30_000)
    sender = ProgramBuilder("chase_sender")
    sender.emit(isa.movi(1, 0))
    sender.emit(isa.movi(4, IPI_BASE))
    sender.label("outer")
    for _ in range(IPI_HOPS):
        sender.emit(isa.load(4, 4, 0))
    sender.emit(isa.senduipi(0))
    sender.emit(isa.addi(1, 1, 1))
    sender.emit(isa.blti(1, IPI_SENDS, "outer"))
    sender.emit(isa.halt())
    system = MultiCoreSystem(
        [receiver.program, sender.build()], [TrackedStrategy(), FlushStrategy()], trace=True
    )
    receiver.install(system.shared)
    hops = IPI_HOPS * IPI_SENDS
    for i in range(hops + 1):
        system.shared.write(IPI_BASE + i * STALL_STRIDE, IPI_BASE + (i + 1) * STALL_STRIDE)
    system.connect_uipi(sender_core_id=1, receiver_core_id=0, user_vector=1)
    system.run(MAX_CYCLES, until_halted=[0])
    return _view(system)


def test_ipi_to_parked_core_identical(monkeypatch):
    """An IPI sent to a parked core lands it first, at the cycle the IPI
    arrives, and is delivered as in the naive stepper."""
    landings = _landings(monkeypatch)
    legs, replays = _three_legs(monkeypatch, _observe_ipi_to_parked_core)
    _assert_identical(*legs)
    assert legs[0]["stats"][0]["interrupts_delivered"] == IPI_SENDS
    assert _parked_beside(replays, 0)
    early = [l for l in landings if l.core == 0 and l.cycle < l.landing]
    assert early and all(not l.pending for l in early), landings


def _observe_kb_timer_on_parked_core(interval: int):
    """A count loop with its KB timer armed, beside a DRAM chase: the loop
    parks, and each deadline bounds its landing."""
    loop = mb.make_count_loop(12_000)
    chase = mb.make_pointer_chase(4096, stride=64, iterations=120)
    system = MultiCoreSystem(
        [loop.program, chase.program], [TrackedStrategy(), FlushStrategy()], trace=True
    )
    loop.install(system.shared)
    chase.install(system.shared)
    system.enable_kb_timer(0)
    system.cores[0].uintr.kb_timer.arm_periodic(interval, now=0)
    system.run(MAX_CYCLES, until_halted=[0, 1])
    return _view(system, watched=1)


@pytest.mark.parametrize("interval", (2_500, 2_501))
def test_kb_timer_on_parked_core_identical(monkeypatch, interval):
    landings = _landings(monkeypatch)
    legs, replays = _three_legs(monkeypatch, lambda: _observe_kb_timer_on_parked_core(interval))
    _assert_identical(*legs)
    assert legs[0]["stats"][0]["interrupts_delivered"] >= 3
    assert _parked_beside(replays, 0)
    # Landings at the plan's end, each on or just before a deadline.
    ends = [l.cycle for l in landings if l.core == 0 and l.cycle == l.landing]
    assert sum(-cycle % interval < 16 for cycle in ends) >= 3, landings


def _observe_stop_while_parked():
    """A short DRAM chase on core 0 (watched) beside a long count loop on
    core 1: the run stops when the chase halts, with the loop parked, so
    the loop lands at the stop cycle.  A second run goes on from there."""
    chase = mb.make_pointer_chase(4096, stride=64, iterations=40)
    loop = mb.make_count_loop(40_000)
    system = MultiCoreSystem(
        [chase.program, loop.program], [FlushStrategy(), FlushStrategy()], trace=True
    )
    chase.install(system.shared)
    loop.install(system.shared)
    system.run(MAX_CYCLES, until_halted=[0])
    first = _view(system)
    system.run(3_333)
    return {"first": first, **_view(system, watched=None)}


def test_run_stopping_while_parked_lands_at_stop(monkeypatch):
    landings = _landings(monkeypatch)
    legs, replays = _three_legs(monkeypatch, _observe_stop_while_parked)
    _assert_identical(*legs)
    assert legs[0]["first"] == legs[2]["first"]
    assert _parked_beside(replays, 1)
    stop = legs[0]["first"]["cycles"]
    assert any(l.core == 1 and l.cycle == stop < l.landing for l in landings), landings


# ---------------------------------------------------------------------------
# Tracked delivery: a staged interrupt with fetch stopped


def _observe_staged_while_halting():
    """A tracked receiver fetches ``halt`` behind a chain of DRAM misses,
    so fetch stops until the chain commits; a device interrupt that
    arrives meanwhile is staged, and no instruction boundary can inject it
    before the core halts."""
    b = ProgramBuilder("halting")
    b.emit(isa.movi(4, IPI_BASE))
    for _ in range(3):
        b.emit(isa.load(4, 4, 0))
    b.emit(isa.halt())
    b.emit_default_handler(counter_addr=mb.HANDLER_COUNTER_ADDR)
    system = MultiCoreSystem([b.build()], [TrackedStrategy()], trace=True)
    for i in range(4):
        system.shared.write(IPI_BASE + i * STALL_STRIDE, IPI_BASE + (i + 1) * STALL_STRIDE)
    system.enable_forwarding(0, vector=0x31, user_vector=3)
    system.raise_device_interrupt(0, 0x31, delay=40)
    system.run(MAX_CYCLES, until_halted=[0])
    return _view(system)


def test_staged_interrupt_sleeps_while_fetch_is_stopped(monkeypatch):
    """The core's horizon, asked while an interrupt is staged and fetch is
    stopped, lies past the next cycle: the fast legs skip there."""
    horizons = []
    real_next = Core.next_activity_cycle

    def next_activity_cycle(self):
        horizon = real_next(self)
        if self.strategy.pending_inventory() and self.wait_reason == "halt":
            horizons.append(horizon - self.cycle)
        return horizon

    monkeypatch.setattr(Core, "next_activity_cycle", next_activity_cycle)
    legs, _ = _three_legs(monkeypatch, _observe_staged_while_halting)
    _assert_identical(*legs)
    assert any(event[1] == "tracked_accept" for event in legs[0]["trace"])
    assert any(ahead > 100 for ahead in horizons), horizons


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

    def snapshot(core, *like):
        armed.append(core.core_id)
        return real_snapshot(core, *like)

    def apply(self, plans, n):
        replayed.extend(plan.core.core_id for plan in plans)
        return real_apply(self, plans, n)

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
