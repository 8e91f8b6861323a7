"""Macro-op trace tier (``REPRO_MACRO``): O(1) replay of hot loop bodies.

The cycle-skipping engine (``REPRO_FAST``) wins when cores are quiescent but
is floored by the per-cycle interpreter on dense loops.  This tier closes
that gap with the classic trace-cache move, applied to the *simulator*
rather than the simulated frontend:

1. **Detect** — :class:`repro.cpu.hotness.HotnessTracker` counts committed
   taken backward branches; crossing the threshold makes the core hot.
2. **Record** — at a cycle boundary where every live core due to step is
   hot and its pipeline settled (or, mid-cycle, once the due cold cores
   that step before them have gone back to sleep), the controller opens a
   *window* on those cores: it snapshots each one, one row of
   :data:`SIGMA_FIELDS` per field (ROB slots, heaps, LSQ, rename map,
   predictor tables, caches, timers), and keeps stepping them normally
   while logging every committed uop and every load/store latency.  Every
   other live core must be asleep past the next boundary, except beside a
   *solo* window: one hot core with no load or store in flight, armed
   while another core stays awake, which may only park (step 4).
3. **Match** — at each later boundary where every window core is due, it
   looks for the *shifted repeat* of every snapshot at one common
   ``delta``: the same pipeline picture with every sequence number
   advanced by the core's ``cc`` (uops committed in the window) and every
   timestamp by ``delta`` (cycles elapsed).  That
   equivalence — ``sigma`` below — is what makes replay sound: if stepping
   ``delta`` cycles maps state S0 to ``sigma(S0)``, stepping another
   ``delta`` maps ``sigma(S0)`` to ``sigma^2(S0)``, and ``n`` periods can
   be applied as one O(1) update.  A window of one core whose loop
   touches no memory may instead match on a *proof*: an earlier window of
   that core that a full compare matched, whose snapshot equals this
   one's shifted (:func:`_proven`).
4. **Replay** — a functional evaluator re-executes each core's
   *architectural* loop body (template decode only, no pipeline) to
   produce its committed register/memory write-set per period, while a
   copy-on-write cache overlay proves every load/store latency repeats.
   ``RDTSC`` is clock-affine: sigma shifts every timestamp by ``delta``,
   so period ``k`` reads the recorded value plus ``k * delta``.  A
   load-free body whose registers are affine in ``k`` (count loops,
   ``rdtsc; blt`` spinners) is not stepped to its exit: one symbolic
   pass gives each register's stride, integer division the first period
   a branch flips, and the evaluator steps only the recorded window, the
   exit's period and the positions the apply reads after ``n`` periods,
   so a replay's cost does not grow with ``n``.  The period count ``n``
   is capped by every notification-visible horizon: run end, the event
   timeline (fault injections, watches), each window core's armed timer
   deadlines and functional exit, and every sleeping core's next
   activity.  The global clock then jumps ``n * delta``.  A window of one
   core whose body touches no memory and whose exit is solved is instead
   *parked* when a sleeper would wake first: it cannot see another core
   or be seen by one except through notifications, so it becomes a
   sleeper whose horizon is its landing (its exit, own timers, the run
   end or the timeline head), the other cores keep stepping, and
   :meth:`MacroController.land` applies the whole periods that fit before
   it wakes — at its landing, before any timeline event fires, or where
   the run stops — and steps it natively through the rest.
5. **Bail** — anything else — a pending interrupt, an armed fault
   interceptor, a latency or branch divergence, a sleeper that steps —
   either blocks formation or caps ``n``, and the interpreter resumes at
   the exact cycle it would have reached natively.  Delivery semantics,
   invariant probes, and trace timestamps stay bit-identical to the naive
   engine.

Cores share a window only if they cannot see each other inside it: no
cache line one stores within its evaluated horizon may be loaded or stored
by another window core, and ``_probe_periods`` refuses lines another core
last wrote.  Loop bodies cannot signal (``SENDUIPI`` is not supported).  A
sleeping core changes no state before its cached ``_next_activity`` (its
external wakeups arrive through the timeline, which caps ``n`` already); a
window is dropped as soon as any sleeper's horizon moves, and a replay
stops on the earliest one, where that core steps natively.  Every other
live core must be asleep unless the window is one memory-free core, which
parks instead of jumping the clock, so awake cores do not matter to it.  A
single core replaying beside sleepers is the one-core case of the same
window, and a parked core is one more sleeper to every other window.

Everything here reads only the cores it was handed — no wall clock, no
mutable module globals (detlint PRO104) — so replay is simulation-pure and
deterministic.
"""

from __future__ import annotations

from collections import deque
from itertools import islice
from operator import attrgetter, itemgetter, sub
from typing import Any, Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.common.counters import GLOBAL_COUNTERS
from repro.common.errors import SimulationError
from repro.cpu.backend import (
    OP_META,
    ST_DONE,
    ST_EXECUTING,
    ST_WAITING,
    X_ADD,
    X_AND,
    X_BEQ,
    X_BNE,
    X_BLT,
    X_DIV,
    X_JMP,
    X_LOAD,
    X_MOV,
    X_MOVI,
    X_MUL,
    X_OR,
    X_RDTSC,
    X_SHL,
    X_STORE,
    X_SUB,
    X_XOR,
    UOp,
)
from repro.cpu.core import FAR_FUTURE
from repro.cpu.delivery import DrainStrategy, FlushStrategy, TrackedStrategy
from repro.cpu.hotness import HotnessTracker
from repro.cpu.isa import Op

MASK64 = (1 << 64) - 1
_SIGN = 1 << 63
_WRAP = 1 << 64

#: Ops the functional replay evaluator understands.  Anything else in the
#: loop body (serializing ops, microcode, CALL/RET, HALT) blocks formation —
#: those touch notification or control state the evaluator does not model.
#: RDTSC is the one clock reader allowed: its reading is affine in the
#: period (see :class:`_Evaluation`).
SUPPORTED_OPS = frozenset(
    (
        Op.ADD,
        Op.FADD,
        Op.SUB,
        Op.MUL,
        Op.FMUL,
        Op.DIV,
        Op.FDIV,
        Op.AND,
        Op.OR,
        Op.XOR,
        Op.SHL,
        Op.SHR,
        Op.MOV,
        Op.MOVI,
        Op.LOAD,
        Op.STORE,
        Op.BEQ,
        Op.BNE,
        Op.BLT,
        Op.BGE,
        Op.JMP,
        Op.RDTSC,
    )
)

_BRANCH_OPS = frozenset((Op.BEQ, Op.BNE, Op.BLT, Op.BGE, Op.JMP))

#: Each supported op's execute class (``UOp.exec_class``).  Classes never
#: mix supported and unsupported ops, so the per-uop checks below test the
#: class, an int, instead of hashing the enum.
_CLASS_OF = {op: OP_META[op][4] for op in SUPPORTED_OPS}
_SUPPORTED_CLASSES = frozenset(_CLASS_OF.values())
# Members compared per body slot (an ``Op.X`` attribute load costs as much
# as a dict lookup).
_ADD, _SUB, _MOV, _MOVI, _RDTSC = Op.ADD, Op.SUB, Op.MOV, Op.MOVI, Op.RDTSC
_LOAD, _STORE, _JMP, _BEQ, _BNE = Op.LOAD, Op.STORE, Op.JMP, Op.BEQ, Op.BNE

#: Boundaries a recording may scan for the shifted repeat before aborting.
#: Also how long a loop the outside world interrupted stays hot, waiting
#: for its neighbours to go quiet again (on the ``cycle_single`` benchmark
#: 99.7% of these waits end within 287 cycles).
MAX_SCAN = 512
#: Consecutive expired scan windows allowed to re-snapshot in place before
#: the controller gives the loop up and waits for hotness again.  A loop
#: still warming its caches is *about* to become periodic — dropping back
#: to hotness accumulation would waste the cycles between windows.
MAX_RESCANS = 3
#: Minimum cycles of timer/timeline headroom required to arm a recording.
MIN_ARM_HEADROOM = 64
#: Absolute cap on periods applied per replay session (runaway backstop).
MAX_PERIODS = 1 << 20

#: Delivery strategies whose idle state is fully captured by an empty
#: ``pending_inventory()`` — the only ones replay may run under.
_REPLAY_SAFE_STRATEGIES = (FlushStrategy, DrainStrategy, TrackedStrategy)


def _signed(value: int) -> int:
    return value - _WRAP if value >= _SIGN else value


# ---------------------------------------------------------------------------
# The sigma table
#
# One row per field path of ``Core`` (dotted through the objects the core
# owns) and of ``UOp`` (prefixed ``uop.``).  Each row names how the field
# at a matching boundary relates to its value in the snapshot: sigma maps
# the snapshot to the live core when every row holds.  The snapshot, the
# compare and the apply below are loops over these rows, and
# ``tests/cpu/test_sigma_fields.py`` checks that the rows name exactly the
# attributes a live core has.

#: The live value equals the snapshot's (``arg``: how the snapshot copies a
#: mutable value).
EQUAL = "equal"
#: The live value is idle (``arg``); a falsy idle value admits any falsy
#: value, e.g. an empty tuple or list.
CLEAN = "clean"
#: Moved by one unit per window (``arg``: DELTA cycles or CC sequence
#: numbers); apply moves it n units.
SHIFTED = "shifted"
#: A counter whose per-window delta must be ``arg`` (DELTA, CC or 0) or is
#: FREE; apply adds n deltas.
ADVANCED = "advanced"
#: Data the functional evaluator produces (``arg``: the record slot).
EVALUATED = "evaluated"
#: Uop references, compared as ROB-relative indices by the hand-written
#: edge, rename and heap checks.
INDEX = "index"
#: Neither compared nor applied; ``note`` says why that is safe.
IGNORED = "ignored"

DELTA = "delta"
CC = "cc"
FREE = "free"

#: ``when`` qualifiers.  WAITING: read, so compared and applied, only while
#: the uop is ST_WAITING, where a shifted value at or before the boundary on
#: both ends is dead (the wakeup reads it as ``max(cycle, value)``).  STALE:
#: a shifted value may instead stay unchanged at or before the snapshot
#: cycle (dead; its per-window delta is then 0).
WAITING = "waiting"
STALE = "stale"


class SigmaField(NamedTuple):
    """One row: a field path, its relation under sigma, the relation's
    argument, why the relation holds, and a ``when`` qualifier."""

    path: str
    relation: str
    arg: Any = None
    note: str = ""
    when: str = ""


def _rows(relation: str, names: str, arg: Any = None, note: str = "", prefix: str = ""):
    dot = prefix + "." if prefix else ""
    return tuple(SigmaField(dot + name, relation, arg, note) for name in names.split())


def _copy_seq(value):
    """A copy of a list, bytearray or array, of the same type."""
    return value[:]


_CONFIG = "wiring or configuration, constant during simulation"
_NA_CACHE = (
    "run-loop memo of next_activity_cycle, re-derived from the heaps, "
    "timers and stalls; staleness can only shorten a skip"
)
_TIMER = "enabled vector armed periodic deadline period"

SIGMA_FIELDS: Tuple[SigmaField, ...] = (
    # -- Core: the interrupt, serialisation and microcode paths are idle.
    *_rows(CLEAN, "halted interrupt_path _trace_resume_pending uintr.in_handler", False),
    *_rows(CLEAN, "wait_reason delivery_state current_interrupt _last_chain_uop", None),
    *_rows(CLEAN, "inject_queue macro_queue apic._pending apic.slow_path_queue", ()),
    SigmaField("_serialize_until", CLEAN, -1),
    # -- Core: equal, in compare order.  The compare stops at the first
    # mismatch, so the long front-end tables come last.
    *_rows(EQUAL, "fetch_pc iq_count _current_fetch_line _notif_pir"),
    SigmaField("_conservative_loads", EQUAL, frozenset),
    *_rows(ADVANCED, "squashed_uops branch_squashes memory_order_squashes", 0, prefix="stats"),
    *_rows(ADVANCED, "serialize_stall_cycles interrupts_delivered", 0, prefix="stats"),
    *_rows(ADVANCED, "interrupt_flushes committed_handler_instructions", 0, prefix="stats"),
    *_rows(EQUAL, "uif uirr handler_index upid_addr uitt_base safepoint_mode", prefix="uintr"),
    SigmaField("uintr.ui_return_pc", EQUAL),
    *_rows(EQUAL, _TIMER, prefix="uintr.kb_timer"),
    *_rows(EQUAL, _TIMER, prefix="apic_timer"),
    *_rows(ADVANCED, "accepted forwarded_fast forwarded_slow", 0, prefix="apic"),
    *_rows(ADVANCED, "faults_dropped user_queued", 0, prefix="apic"),
    SigmaField("apic.kernel_queue", EQUAL, deque, "grows only when accepted advances"),
    *_rows(ADVANCED, "hierarchy.remote_misses predictor.mispredictions", 0),
    SigmaField("predictor.gshare._history", EQUAL),
    *_rows(EQUAL, "gshare._table btb._tags btb._targets ras._stack", _copy_seq, prefix="predictor"),
    *_rows(EQUAL, "icache.cache._sets uop_cache._sets", list, "sets are immutable tuples"),
    # -- Core: clocks, sequence numbers and counters.
    SigmaField("cycle", SHIFTED, DELTA, "defines delta"),
    SigmaField("_seq", SHIFTED, CC),
    SigmaField("last_program_commit_cycle", SHIFTED, DELTA),
    SigmaField("fetch_stall_until", SHIFTED, DELTA, when=STALE),
    SigmaField("stats.cycles", ADVANCED, DELTA),
    *_rows(ADVANCED, "committed_instructions committed_uops fetched_uops", CC, prefix="stats"),
    *_rows(ADVANCED, "predictor.predictions icache.cache.hits icache.cache.misses", FREE),
    *_rows(ADVANCED, "uop_cache.hits uop_cache.misses", FREE),
    SigmaField("arch_regs", EVALUATED, note="the evaluator must reproduce them after one period"),
    # -- Core: uop references.
    SigmaField("rob", INDEX, note="slot i holds sequence number seq0 + cc + i"),
    *_rows(INDEX, "reg_producer lsq.loads lsq.stores"),
    *_rows(INDEX, "ready_heap exec_heap", note="time shifted by delta unless due, seq by cc"),
    # -- Core: ignored.
    *_rows(
        IGNORED,
        "core_id program config params timing send_ipi uitt invariant_probe _prog_len "
        "hierarchy.core_id hierarchy.params hierarchy.shared icache.params "
        "icache.cache.params icache.cache._line_shift icache.cache._num_sets "
        "uop_cache.num_sets uop_cache.ways uop_cache.hit_depth_bonus "
        "predictor.gshare.table_bits predictor.gshare.history_bits "
        "predictor.gshare._history_mask predictor.gshare._index_mask "
        "predictor.btb._entries predictor.ras._depth apic.apic_id "
        "apic.uipi_notification_vector apic.forwarding_enabled apic.forwarded_active "
        "apic.forward_user_vector lsq.params fus.params fus.limits",
        note=_CONFIG,
    ),
    SigmaField("apic.fault_interceptor", IGNORED, note="_eligible refuses to arm beside one"),
    SigmaField("strategy", IGNORED, note="_eligible arms only on an empty pending_inventory()"),
    SigmaField(
        "shared",
        IGNORED,
        note="the evaluator reads it, apply writes the replayed stores, and "
        "_probe_periods refuses lines another core wrote",
    ),
    SigmaField("trace", IGNORED, note="records deliveries; interrupts_delivered advances by 0"),
    *_rows(IGNORED, "hierarchy.dcache hierarchy.l2cache", note="_probe_periods proves them"),
    SigmaField("engine_cycles_skipped", IGNORED, note="engine telemetry, not simulated state"),
    *_rows(IGNORED, "_next_activity _idle_anchor _na_streak _na_backoff", note=_NA_CACHE),
    *_rows(IGNORED, "_macro _macro_rec", note="the macro tier's own plumbing"),
    *_rows(IGNORED, "inject_pos macro_pos macro_pc", note="cursors of queues that are clean"),
    *_rows(
        IGNORED,
        "_decoded _routines _boundary_hook",
        note="memos of the program's and the microcode's decode and of the "
        "strategy's fetch hook: functions of program, config and strategy",
    ),
    # -- UOp.
    SigmaField("uop.seq", SHIFTED, CC, "compared as the ROB index"),
    *_rows(EQUAL, "op pc instr macro_first macro_last dest src_regs imm target", prefix="uop"),
    *_rows(EQUAL, "safepoint chain uitt_index extra_latency", prefix="uop"),
    *_rows(EQUAL, "pred_taken pred_target history_token state", prefix="uop"),
    *_rows(CLEAN, "is_micro from_interrupt squashed", False, prefix="uop"),
    SigmaField("uop.semantic", CLEAN, ""),
    SigmaField("uop.ras_snapshot", CLEAN, None),
    SigmaField("uop.wait_count", EQUAL, when=WAITING),
    SigmaField("uop.frontend_ready", SHIFTED, DELTA, when=WAITING),
    SigmaField("uop.result", EVALUATED, 0),
    SigmaField("uop.addr", EVALUATED, 1),
    SigmaField("uop.store_value", EVALUATED, 2),
    SigmaField("uop.actual_taken", EVALUATED, 3),
    SigmaField("uop.actual_target", EVALUATED, note="equals target once a branch executed"),
    SigmaField("uop.producers", INDEX, note="read until it executes; slot or retired position"),
    SigmaField("uop.dependents", INDEX, note="only dependents still waiting are woken"),
    *_rows(IGNORED, "is_serializing is_branch is_cond_branch fu_class exec_class", prefix="uop",
           note="decoded from op"),
    *_rows(IGNORED, "commit_class latency", prefix="uop", note="decoded from op and extra_latency"),
)


def _select(uop: bool, relations: Tuple[str, ...], when: Optional[str] = "") -> List[SigmaField]:
    """The rows of one scope (UOp or Core) with these relations, in table
    order; ``when=None`` takes every qualifier."""
    return [
        row
        for row in SIGMA_FIELDS
        if row.path.startswith("uop.") == uop
        and row.relation in relations
        and when in (None, row.when)
    ]


def _getter(rows: Sequence[SigmaField]):
    """One ``attrgetter`` over the rows' paths that always returns a tuple."""
    paths = [row.path[4:] if row.path.startswith("uop.") else row.path for row in rows]
    if len(paths) > 1:
        return attrgetter(*paths)
    get = attrgetter(*paths)
    return lambda obj: (get(obj),)


def _dirty(rows: Sequence[SigmaField]):
    """Predicate: is any CLEAN row off its idle value?"""
    falsy = _getter([row for row in rows if not row.arg])
    exact = [row for row in rows if row.arg]
    get_exact = _getter(exact)
    idle = tuple(row.arg for row in exact)
    return lambda obj: any(falsy(obj)) or get_exact(obj) != idle


def _setter(path: str):
    owner, _, name = path.rpartition(".")
    return (attrgetter(owner) if owner else None), name


# Core rows, compiled.  ADVANCED rows with a zero delta compare like EQUAL
# rows and apply nothing.
_CORE_EQUAL_ROWS = [
    row for row in _select(False, (EQUAL, ADVANCED)) if row.relation == EQUAL or row.arg == 0
]
_CORE_EQUAL = _getter(_CORE_EQUAL_ROWS)
_CORE_COPIES = tuple(
    (i, row.arg) for i, row in enumerate(_CORE_EQUAL_ROWS) if row.relation == EQUAL and row.arg
)
_SQUASHED = [row.path for row in _CORE_EQUAL_ROWS].index("stats.squashed_uops")
#: The plain EQUAL rows of a ``_CORE_EQUAL`` tuple: the core's state, less
#: the counters that must not move within one window.
_CORE_STATE = itemgetter(
    *[i for i, row in enumerate(_CORE_EQUAL_ROWS) if row.relation == EQUAL]
)
_CORE_DIRTY = _dirty(_select(False, (CLEAN,)))
_CORE_STEP_ROWS = [
    row for row in _select(False, (SHIFTED, ADVANCED), None) if row.arg in (DELTA, CC)
]
_CORE_COUNT_ROWS = _CORE_STEP_ROWS + [row for row in _select(False, (ADVANCED,)) if row.arg == FREE]
_CORE_COUNT = _getter(_CORE_COUNT_ROWS)
_CORE_STEPS = tuple((row.arg, row.when == STALE) for row in _CORE_STEP_ROWS)
_STEP_BY_DELTA = tuple(unit is DELTA for unit, _ in _CORE_STEPS)
_COUNT_SETTERS = tuple(_setter(row.path) for row in _CORE_COUNT_ROWS)
#: The SHIFTED rows of a ``_CORE_COUNT`` tuple: (index, unit, stale).
_SHIFTED_AT = tuple(
    (i, row.arg, row.when == STALE)
    for i, row in enumerate(_CORE_COUNT_ROWS)
    if row.relation == SHIFTED
)

# UOp rows, compiled.  Every UOp idle value is falsy.  The snapshot refuses
# a uop with a dirty CLEAN row, so the live compare folds CLEAN rows into
# the EQUAL tuple.
_UOP_EQUAL_ROWS = _select(True, (EQUAL,)) + _select(True, (CLEAN,))
_UOP_EQUAL = _getter(_UOP_EQUAL_ROWS)
_UOP_CLEAN = itemgetter(slice(len(_select(True, (EQUAL,))), None))  # of a _UOP_EQUAL tuple
_EXEC_CLASS = attrgetter("exec_class")
_TIME_SEQ = itemgetter(0, 1)
_UOP_WAITING_ROWS = _select(True, (EQUAL, SHIFTED), WAITING)
_UOP_WAITING = _getter(_UOP_WAITING_ROWS)
_WAITING_SHIFTED = tuple(row.relation == SHIFTED for row in _UOP_WAITING_ROWS)
_UOP_SHIFTS = tuple(
    (row.path[4:], row.arg, attrgetter(row.path[4:]), row.when == WAITING)
    for row in _select(True, (SHIFTED,), None)
)
_UOP_EVALUATED = _getter(_select(True, (EVALUATED,)))
#: Where :func:`_values_ok` finds the fields that decide which evaluated
#: fields are live, in a ``_UOP_EQUAL`` tuple.
_STATE_AT, _PRED_TAKEN_AT, _PRED_TARGET_AT, _TARGET_AT = (
    [row.path[4:] for row in _UOP_EQUAL_ROWS].index(name)
    for name in ("state", "pred_taken", "pred_target", "target")
)
_RECORD_SLOT = {row.path[4:]: row.arg for row in _select(True, (EVALUATED,))}
#: The evaluated fields each supported execute class writes, with their
#: record slot.
_WRITES = {
    _CLASS_OF[op]: tuple((name, _RECORD_SLOT[name]) for name in names)
    for op, names in {
        **{op: ("result",) for op in SUPPORTED_OPS},
        **{op: ("actual_taken",) for op in _BRANCH_OPS},
        Op.LOAD: ("addr", "result"),
        Op.STORE: ("addr", "store_value"),
    }.items()
}


def applied_paths() -> Tuple[str, ...]:
    """The field paths ``MacroController._apply`` writes through ``setattr``
    from the tables above, rooted at ``core`` or ``uop``: the SHIFTED and
    ADVANCED core rows, the SHIFTED uop rows and the evaluated uop
    fields."""
    return tuple(
        ["core." + row.path for row in _CORE_COUNT_ROWS]
        + ["uop." + shift[0] for shift in _UOP_SHIFTS]
        + ["uop." + name for name in _RECORD_SLOT]
    )


#: Writes made through ``setattr`` from a table, which a static reading of
#: the source cannot see: writer -> the ``receiver.field`` paths it writes
#: (read by ``repro.analysis.statemodel``).
TABLE_WRITERS = {"MacroController._apply": applied_paths()}


class _Snapshot(NamedTuple):
    """The core's rows at the boundary a recording armed on."""

    t0: int
    seq0: int
    equal: Tuple  # _CORE_EQUAL, mutable values copied
    count: Tuple  # _CORE_COUNT
    regs: List[int]
    uops: List[Tuple]  # _UOP_EQUAL per ROB slot
    evaluated: List[Tuple]  # _UOP_EVALUATED per ROB slot
    classes: List[int]  # exec_class per ROB slot
    writes: List[Tuple]  # _WRITES per ROB slot
    waiting: List[Tuple[int, Tuple]]  # (slot, _UOP_WAITING) of each waiting uop
    refs: Tuple  # see _index
    heaps: List
    fingerprint: Tuple


def _fingerprint(core) -> Tuple:
    """Cheap per-boundary hash-alike gating the full sigma comparison."""
    rob = core.rob
    head = rob[0] if rob else None
    return (
        core.fetch_pc,
        len(rob),
        core.iq_count,
        head.pc if head is not None else -1,
        head.state if head is not None else -1,
        len(core.ready_heap),
        len(core.exec_heap),
        len(core.lsq.loads),
        len(core.lsq.stores),
        core._current_fetch_line,
    )


# -- the INDEX rows, by hand --------------------------------------------------


def _index(core, base: int):
    """Every uop reference the core holds, as slots of its ROB, which must
    hold sequence numbers ``base``, ``base + 1``, ... in order.  Returns
    ``(retired, refs, heaps)``, or None when a reference leaves the ROB:

    - ``refs``: each slot's live (producers, dependents), the rename map,
      and the LSQ membership, all compared for equality;
    - ``heaps``: the ready and exec heaps as sorted (time, seq, slot)
      lists, the only order heappop observes (the array layout depends on
      push/pop history);
    - ``retired``: the producers that already retired, which a slot names
      by their sequence number relative to ``base``.

    Only edges the core will still *read* count.  Operand values are read
    once, when execution starts (``UOp.source_value``), so producer edges
    are dead for state >= ST_EXECUTING; a producer wakes only dependents
    still ST_WAITING (and unsquashed), so the rest of the list is inert.
    Comparing dead edges would demand a fetch-phase alignment that deep
    out-of-order windows (memops) never reach, without adding soundness."""
    rob = core.rob
    # ROB sequence numbers strictly increase (dispatch order; a squash
    # drops a suffix), so the ends decide contiguity.  A gap means a squash
    # is in flight.
    if rob and (rob[0].seq != base or rob[-1].seq != base + len(rob) - 1):
        return None
    index_of: Dict[UOp, int] = dict(zip(rob, range(len(rob))))  # UOp hashes by identity
    slot_of = index_of.get
    # Slots with a live edge only: most in-flight uops have none.
    edges = []
    retired: List[UOp] = []
    for slot, uop in enumerate(rob):
        dependents = uop.dependents
        producers = ()
        if uop.state < ST_EXECUTING:
            links = uop.producers
            if links:
                live = []
                for reg in sorted(links) if len(links) > 1 else links:
                    prod = links[reg]
                    idx = slot_of(prod)
                    if idx is not None:
                        live.append((reg, "r", idx))
                    elif prod.state == ST_DONE and not prod.squashed:
                        live.append((reg, "x", prod.seq - base))
                        retired.append(prod)
                    else:
                        return None  # squashed leftover: not sigma-comparable
                producers = tuple(live)
            elif not dependents:
                continue
        elif not dependents:
            continue
        waiting = []
        for dep in dependents:
            if dep.squashed or dep.state != ST_WAITING:
                continue  # already woken (or dead): never touched again
            idx = slot_of(dep)
            if idx is None:
                return None  # waiting dependent outside the ROB
            waiting.append(idx)
        if waiting:
            waiting.sort()
            edges.append((slot, producers, tuple(waiting)))
        elif producers:
            edges.append((slot, producers, ()))
    rename = []
    for reg, uop in sorted(core.reg_producer.items()):
        idx = slot_of(uop)
        if idx is None:
            return None
        rename.append((reg, idx))
    lsq = core.lsq
    loads = tuple(map(slot_of, lsq.loads))
    stores = tuple(map(slot_of, lsq.stores))
    if None in loads or None in stores:
        return None
    heaps = []
    for heap in (core.ready_heap, core.exec_heap):
        shadow = []
        for t, seq, uop in heap:
            idx = slot_of(uop)
            if idx is None:
                return None
            shadow.append((t, seq, idx))
        shadow.sort()
        heaps.append(shadow)
    return retired, (edges, rename, loads, stores), heaps




# -- snapshot and compare ---------------------------------------------------------


def _snapshot_core(core, like: Optional[_Snapshot] = None) -> Optional[_Snapshot]:
    """Capture the sigma-comparison baseline, or None if the pipeline holds
    anything the comparison (or the functional evaluator) cannot model.
    ``like``, an earlier snapshot of the core, lends its per-slot decode
    when the ROB slots equal its own (so its checks hold already)."""
    rob = core.rob
    if not rob:
        return None
    uops = list(map(_UOP_EQUAL, rob))
    if like is not None and uops == like.uops:
        uops = like.uops
        classes = like.classes
        writes = like.writes
    else:
        # Only micro-ops lack an instruction, and is_micro is a CLEAN row.
        classes = list(map(_EXEC_CLASS, rob))
        writes = list(map(_WRITES.get, classes))
        if None in writes or any(map(any, map(_UOP_CLEAN, uops))):
            return None  # an op the evaluator lacks, or a dirty CLEAN row
    seq0 = rob[0].seq
    index = _index(core, seq0)
    if index is None:
        return None
    equal = list(_CORE_EQUAL(core))
    for i, copy in _CORE_COPIES:
        equal[i] = copy(equal[i])
    return _Snapshot(
        core.cycle,
        seq0,
        tuple(equal),
        _CORE_COUNT(core),
        list(core.arch_regs),
        uops,
        list(map(_UOP_EVALUATED, rob)),
        classes,
        writes,
        [(i, _UOP_WAITING(uop)) for i, uop in enumerate(rob) if uop.state == ST_WAITING],
        index[1],
        index[2],
        _fingerprint(core),
    )


def _sigma_match(core, snap: _Snapshot, commits: Sequence[UOp]):
    """Does the core, at this boundary, equal the snapshot shifted by the
    recording window?  Returns ``(cc, delta, retired)``, where ``retired``
    lists ``(producer, window position)`` for each retired producer an
    in-flight uop still reads, or None."""
    cc = len(commits)
    if cc < 1:
        return None
    t0 = snap.t0
    cycle = core.cycle
    delta = cycle - t0  # both ends measured pre-step at a boundary
    if delta < 1:
        return None
    seq0 = snap.seq0
    rob = core.rob
    if len(rob) != len(snap.uops):
        return None
    # Commit-stream contiguity: exactly the snapshot's oldest cc uops
    # retired, in order, with nothing squashed in between.
    for i, uop in enumerate(commits):
        if uop.seq != seq0 + i:
            return None
    if _CORE_DIRTY(core) or _CORE_EQUAL(core) != snap.equal:
        return None
    count = _CORE_COUNT(core)
    # Every counter moved by exactly its unit, or fall back to the row-by-row
    # check that also admits a stale row.
    if list(map(sub, count, snap.count))[: len(_CORE_STEPS)] != [
        delta if by_delta else cc for by_delta in _STEP_BY_DELTA
    ]:
        for value, value0, (unit, stale) in zip(count, snap.count, _CORE_STEPS):
            if value - value0 != (delta if unit is DELTA else cc) and not (
                stale and value == value0 <= t0
            ):
                return None
    # The heaps' times and sequence numbers, before the costlier per-slot
    # compares (deep pipelines that do not match yet mostly differ here);
    # the slots are checked with the index below.
    for heap, shadow in zip((core.ready_heap, core.exec_heap), snap.heaps):
        if len(heap) != len(shadow):
            return None
        for (t, seq, _), (ts, seqs, _) in zip(sorted(heap, key=_TIME_SEQ), shadow):
            if seq != seqs + cc or (t != ts + delta and not (ts <= t0 and t <= cycle)):
                return None
    if list(map(_UOP_EQUAL, rob)) != snap.uops:
        return None
    # State is an EQUAL row, so the waiting slots are the snapshot's.
    for i, waiting in snap.waiting:
        for value, shot, shifted in zip(_UOP_WAITING(rob[i]), waiting, _WAITING_SHIFTED):
            if not shifted:
                if value != shot:
                    return None
            elif value != shot + delta and not (shot <= t0 and value <= cycle):
                return None
    index = _index(core, seq0 + cc)
    if index is None or index[1] != snap.refs:
        return None
    # Heap entries already due at the snapshot are lagging backlog: their
    # exact time is dead (pops compare it against the current cycle, which
    # it is already below on both ends) but their *relative* order still
    # decides bandwidth-limited pop order, which the pairwise sorted zip
    # enforces.  Future entries must shift.
    for heap, shadow in zip(index[2], snap.heaps):
        if len(heap) != len(shadow):
            return None
        for (t, seq, idx), (ts, seqs, idxs) in zip(heap, shadow):
            if seq != seqs + cc or idx != idxs:
                return None
            if t != ts + delta and not (ts <= t0 and t <= cycle):
                return None
    retired = []
    for prod in index[0]:
        q1 = prod.seq - seq0
        if not 0 <= q1 < cc:
            return None
        retired.append((prod, q1))
    return cc, delta, retired


class _Proof(NamedTuple):
    """A window of one memory-free core that a full sigma match proved:
    its snapshot, the period's commit count and length, and the window
    positions of the retired producers its in-flight uops read."""

    snap: _Snapshot
    cc: int
    delta: int
    retired: Tuple[int, ...]


def _proven(core, snap: _Snapshot, commits: Sequence[UOp], proof: _Proof):
    """The sigma match of a window whose snapshot is a shifted copy of a
    proven one, at the proven period's end (what ``_sigma_match`` returns
    there), or None.

    The core-level rows are compared live, as ``_sigma_match`` does, so
    nothing outside the core's own stepping (a kernel interrupt, a timer
    firing) moved them inside the window.  The rest follows from the
    proof: stepping is a function of the core's state, so a snapshot equal
    to a proven one up to the shift of its clocks and sequence numbers
    steps one period into the shifted image of the proven match.  The
    rows the snapshots do not hold cannot break that here: the loop
    touches no memory (so neither the shared words nor the data caches
    matter, and other cores, awake or not, reach it only through
    notifications), the window opened with no interrupt work, and
    on_boundary has checked at every boundary since that none arrived and
    nothing was squashed.  Counters advance freely between windows; only
    their per-window moves are applied, from the live core."""
    cc = proof.cc
    if core.cycle - snap.t0 != proof.delta or len(commits) != cc:
        return None
    seq0 = snap.seq0
    for i, uop in enumerate(commits):
        if uop.seq != seq0 + i:
            return None
    prev = proof.snap
    if (
        _CORE_DIRTY(core)
        or _CORE_EQUAL(core) != snap.equal
        or snap.uops != prev.uops
        or snap.refs != prev.refs
        or _CORE_STATE(snap.equal) != _CORE_STATE(prev.equal)
    ):
        return None
    t0 = snap.t0
    p0 = prev.t0
    shift = {DELTA: t0 - p0, CC: seq0 - prev.seq0}
    for i, unit, stale in _SHIFTED_AT:
        value = snap.count[i]
        shot = prev.count[i]
        if value != shot + shift[unit] and not (stale and shot <= p0 and value <= t0):
            return None
    dt = shift[DELTA]
    # State is an EQUAL row, so the waiting slots are the proven ones.
    for (_, waiting), (_, shots) in zip(snap.waiting, prev.waiting):
        for value, shot, shifted in zip(waiting, shots, _WAITING_SHIFTED):
            if not shifted:
                if value != shot:
                    return None
            elif value != shot + dt and not (shot <= p0 and value <= t0):
                return None
    dseq = shift[CC]
    for heap, shadow in zip(snap.heaps, prev.heaps):
        if len(heap) != len(shadow):
            return None
        for (t, seq, idx), (tp, seqp, idxp) in zip(heap, shadow):
            if seq != seqp + dseq or idx != idxp:
                return None
            if t != tp + dt and not (tp <= p0 and t <= t0):
                return None
    return cc, proof.delta, [(commits[q1], q1) for q1 in proof.retired]


#: Execute classes that read a first source register unconditionally.
_ONE_SOURCE_CLASSES = frozenset(
    _CLASS_OF[op] for op in (Op.MOV, Op.SHL, Op.SHR, Op.BEQ, Op.BNE, Op.BLT, Op.BGE)
)


def _build_template(commits: Sequence[UOp]) -> Optional[List[Tuple]]:
    """Decode the committed window into (op, dest, src_regs, imm, target, pc)
    tuples — the loop body B.  None if anything is beyond the evaluator.

    An RDTSC slot carries its recorded (period-0) reading in ``imm``."""
    body: List[Tuple] = []
    for uop in commits:
        x = uop.exec_class
        if (
            x not in _SUPPORTED_CLASSES
            or uop.is_micro
            or uop.from_interrupt
            or uop.semantic
            or not (uop.macro_first and uop.macro_last)
        ):
            return None
        nsrc = len(uop.src_regs)
        if x == X_STORE:
            if nsrc < 2:
                return None
        elif x in _ONE_SOURCE_CLASSES:
            if nsrc < 1:
                return None
        imm = uop.result if x == X_RDTSC else uop.imm
        body.append((uop.op, uop.dest, uop.src_regs, imm, uop.target, uop.pc))
    return body


class _Evaluation:
    """The functional evaluator on one core's loop body, resumable.

    :meth:`extend` architecturally executes the unrolled loop up to a
    position, decoding position ``p`` from ``body[p % cc]``.  An RDTSC in
    period ``k = p // cc`` reads its recorded value plus ``k * delta``:
    sigma shifts every timestamp by ``delta`` cycles per period.

    ``records`` holds ``(result, addr, store_value, taken)`` of positions
    ``start``, ``start + 1``, ...; ``exit`` is the first position whose
    behaviour leaves the recorded loop (a branch off the body, or a load
    aliasing an earlier replayed store), or None while none has.  Loads
    read live shared memory; the alias guard makes that sound by fencing
    ``exit`` below any position that could observe a deferred store.

    A load-free body whose registers are affine in the period (see
    :func:`_affine`) need not be stepped to its exit: :meth:`solve` finds
    the exit in closed form and :meth:`seek` jumps the register file to any
    period, so only the positions a replay reads are stepped
    (:meth:`settle`).  Stepping stays the only source of records."""

    __slots__ = (
        "body",
        "regs0",
        "regs",
        "records",
        "start",
        "exit",
        "_read",
        "_delta",
        "_store_words",
        "_form",
        "_slots",
    )

    def __init__(self, body: Sequence[Tuple], regs0: Sequence[int], shared_read, delta: int):
        self.body = body
        self.regs0 = regs0
        self.regs = list(regs0)
        self.records: List[Tuple] = []
        self.start = 0
        self.exit: Optional[int] = None
        self._read = shared_read
        self._delta = delta
        self._store_words: set = set()
        #: The closed form once :meth:`solve` found one, else None.
        self._form: Optional[_Affine] = None
        # Per-slot decode, hoisted out of :meth:`extend`: the execute class
        # and whether a taken / a fall-through successor stays on the body.
        cc = len(body)
        self._slots = [
            (_CLASS_OF[op], dest, src_regs, imm, target == follow, pc + 1 == follow)
            for (op, dest, src_regs, imm, target, pc), follow in zip(
                body, [body[(j + 1) % cc][5] for j in range(cc)]
            )
        ]

    def extend(self, horizon: int) -> None:
        """Evaluate on to position ``horizon`` (or to the exit)."""
        if self.exit is not None:
            return
        slots = self._slots
        cc = len(slots)
        regs = self.regs
        records = self.records
        append = records.append
        store_words = self._store_words
        shared_read = self._read
        delta = self._delta
        before = len(records)
        p = self.start + before
        j = p % cc
        while p < horizon:
            x, dest, src_regs, imm, stay_taken, stay_fall = slots[j]
            # Each record is (result, addr, store_value, taken).
            if x >= X_JMP:
                if x == X_JMP:
                    taken = True
                else:
                    lhs = regs[src_regs[0]]
                    rhs = regs[src_regs[1]] if len(src_regs) > 1 else imm
                    if x == X_BEQ:
                        taken = lhs == rhs
                    elif x == X_BNE:
                        taken = lhs != rhs
                    else:
                        if lhs >= _SIGN:
                            lhs -= _WRAP
                        if rhs >= _SIGN:
                            rhs -= _WRAP
                        taken = lhs < rhs if x == X_BLT else lhs >= rhs
                append((0, None, 0, taken))
                stays = stay_taken if taken else stay_fall
                result = 0
            elif x == X_LOAD:
                if src_regs:
                    addr = (regs[src_regs[0]] + imm) & MASK64
                else:
                    addr = imm
                if (addr & ~0x7) in store_words:
                    self.exit = p
                    break
                result = shared_read(addr)
                append((result, addr, 0, False))
                stays = stay_fall
            elif x == X_STORE:
                if src_regs:
                    addr = (regs[src_regs[0]] + imm) & MASK64
                else:
                    addr = imm
                store_value = regs[src_regs[1]]
                store_words.add(addr & ~0x7)
                append((0, addr, store_value, False))
                stays = stay_fall
                result = 0
            else:
                if x <= X_XOR:
                    a = regs[src_regs[0]] if src_regs else 0
                    b = regs[src_regs[1]] if len(src_regs) > 1 else imm
                    if x == X_ADD:
                        result = (a + b) & MASK64
                    elif x == X_SUB:
                        result = (a - b) & MASK64
                    elif x == X_MUL:
                        result = (a * b) & MASK64
                    elif x == X_DIV:
                        result = (a // b) & MASK64 if b else 0
                    elif x == X_AND:
                        result = a & b
                    elif x == X_OR:
                        result = a | b
                    else:  # XOR
                        result = (a ^ b) & MASK64
                elif x == X_RDTSC:
                    result = (imm + (p // cc) * delta) & MASK64
                elif x == X_MOVI:
                    result = imm & MASK64
                elif x == X_MOV:
                    result = regs[src_regs[0]]
                elif x == X_SHL:
                    result = (regs[src_regs[0]] << (imm & 63)) & MASK64
                else:  # SHR
                    result = (regs[src_regs[0]] & MASK64) >> (imm & 63)
                append((result, None, 0, False))
                stays = stay_fall
            if dest is not None:
                regs[dest] = result & MASK64
            # Control-flow guard: the implied successor must stay on the body.
            if not stays:
                self.exit = p
                break
            p += 1
            j += 1
            if j == cc:
                j = 0
        GLOBAL_COUNTERS.macro_evaluated_positions += len(records) - before

    def regs_after(self, m: int) -> List[int]:
        """The register file after ``m >= 1`` full periods: every register
        the body writes holds its last writer's result in period ``m - 1``
        (whose records must be present)."""
        regs = list(self.regs0)
        records = self.records
        base = (m - 1) * len(self.body) - self.start
        for j, slot in enumerate(self.body):
            dest = slot[1]
            if dest is not None:
                regs[dest] = records[base + j][0] & MASK64
        return regs

    def solve(self, horizon: int) -> bool:
        """Find the exit before position ``horizon`` in closed form, for a
        body :func:`_affine` solves, and step the period holding it, which
        must exit at exactly that position.  Call it once the first
        ``cc + rob_len`` positions are evaluated without an exit.  Returns
        False, changing nothing, when the body has no closed form or an
        operand could leave the signed 64-bit range before the exit (or
        before ``horizon``)."""
        form = _affine(self.body, self.regs0, self._delta)
        if form is None:
            return False
        cc = len(self.body)
        last = (horizon - 1) // cc  # the last period holding a position before horizon
        exit = None
        for slot, flip, a, b in form.exits:
            k = _first_flip(flip, a, b)
            if k is not None and k <= last and (exit is None or k * cc + slot < exit):
                exit = k * cc + slot
        if exit is not None and exit >= horizon:
            exit = None
        end = last if exit is None else exit // cc
        for a, b in form.operands:
            if not (-(1 << 63) <= a + b < 1 << 63 and -(1 << 63) <= a + end * b < 1 << 63):
                return False
        self._form = form
        if exit is not None:
            if exit < self.start + len(self.records):
                raise SimulationError(f"solved exit {exit} lies in the stepped prefix")
            self.seek(exit // cc)
            self.extend(exit + 1)
            if self.exit != exit:
                raise SimulationError(f"solved exit {exit}, stepped exit {self.exit}")
        return True

    def seek(self, period: int) -> None:
        """Restart a solved evaluation at the start of ``period``, with its
        records dropped."""
        regs = list(self.regs0)
        if period:
            for reg, base, stride in self._form.regs:
                regs[reg] = (base + period * stride) & MASK64
        self.regs = regs
        self.records = []
        self.start = period * len(self.body)
        self.exit = None

    def settle(self, n: int, rob_len: int) -> None:
        """Make present the records a replay of ``n`` periods reads, those
        of positions ``[n * cc, (n + 1) * cc + rob_len)``: a stepped
        evaluation holds them already, a solved one steps them afresh from
        period ``n``, where its exit must not lie."""
        if self._form is None:
            return
        exit = self.exit
        self.seek(n)
        self.extend((n + 1) * len(self.body) + rob_len)
        if self.exit is not None:
            raise SimulationError(f"stepped exit {self.exit} before the solved one ({exit})")
        self.exit = exit


#: A branch condition on ``lhs - rhs`` and its negation.
_NEGATED = {"==": "!=", "!=": "==", "<": ">=", ">=": "<"}
_CONDITION = {Op.BEQ: "==", Op.BNE: "!=", Op.BLT: "<", Op.BGE: ">="}


class _Affine(NamedTuple):
    """A body's registers as affine functions of the period index ``k``,
    valid from period 1 on (period 0 reads the snapshot's registers)."""

    regs: Tuple[Tuple[int, int, int], ...]  # (reg, base, stride): base + k * stride at period start
    operands: Tuple[Tuple[int, int], ...]  # each value a slot reads, as (base, stride)
    exits: Tuple[Tuple[int, Optional[str], int, int], ...]  # (slot, flip, base, stride)


def _affine(body: Sequence[Tuple], regs0: Sequence[int], delta: int) -> Optional[_Affine]:
    """Solve a load-free body whose registers are affine in the period, or
    return None.  Its ops may be ADD/SUB of an immediate or of a register
    that holds the same value every period, MOV, MOVI, RDTSC (its reading
    plus ``k * delta``), conditional branches and JMP.

    One symbolic pass writes every value as ``(reg, a, b)``: the start-of-
    period value of a register the body writes (None: zero) plus
    ``a + k * b``.  At the period's end each written register must hold
    itself plus a stride, or something built from constants, the clock
    and such self-strided registers.  Values are signed: an operand inside
    the signed 64-bit range equals what the stepper compares, so a branch
    on ``lhs - rhs`` flips where a linear function of ``k`` crosses zero.
    Each exit row gives a slot's flip condition on ``base + k * stride``
    (None: the slot leaves the body every period)."""
    written = {slot[1] for slot in body if slot[1] is not None}
    cur: Dict[int, Tuple] = {reg: (reg, 0, 0) for reg in written}
    zero = (None, 0, 0)
    reads: List[Tuple] = []
    branches = []
    cc = len(body)
    for j, (op, dest, src_regs, imm, target, pc) in enumerate(body):
        srcs = [cur[reg] if reg in written else (None, _signed(regs0[reg]), 0) for reg in src_regs]
        reads += srcs
        next_pc = body[(j + 1) % cc][5]
        if op is _ADD or op is _SUB:
            a = srcs[0] if srcs else zero
            b = srcs[1] if len(srcs) > 1 else (None, _signed(imm & MASK64), 0)
            if op is _SUB:
                if b[0] is not None:
                    return None  # minus a register: not one stride per period
                value = (a[0], a[1] - b[1], a[2] - b[2])
            elif a[0] is not None and b[0] is not None:
                return None
            else:
                value = (a[0] if b[0] is None else b[0], a[1] + b[1], a[2] + b[2])
        elif op is _MOV:
            value = srcs[0]
        elif op is _MOVI:
            value = (None, _signed(imm & MASK64), 0)
        elif op is _RDTSC:
            value = (None, _signed(imm & MASK64), delta)
        elif op is _JMP:
            if target != next_pc:
                branches.append((j, None, zero, zero))
            continue
        elif op in _CONDITION:
            condition = _CONDITION[op]
            if len(srcs) > 1:
                rhs = srcs[1]
            elif (op is _BEQ or op is _BNE) and not 0 <= imm <= MASK64:
                return None  # never equal to a register: leave it to the stepper
            else:
                rhs = (None, _signed(imm), 0)
                reads.append(rhs)
            stay_taken = target == next_pc
            if stay_taken != (pc + 1 == next_pc):  # one outcome leaves the body
                branches.append(
                    (j, _NEGATED[condition] if stay_taken else condition, srcs[0], rhs)
                )
            elif not stay_taken:
                branches.append((j, None, zero, zero))
            continue
        else:
            return None
        if pc + 1 != next_pc:
            branches.append((j, None, zero, zero))
        if dest is not None:
            cur[dest] = value
    # Start-of-period values: self-strided registers hold base + k * stride
    # from period 0 on, the others their last value of period k - 1.
    start: Dict[int, Tuple[int, int]] = {}
    for reg, (src, a, b) in cur.items():
        if src == reg:
            if b:
                return None  # a stride growing with k
            start[reg] = (_signed(regs0[reg]), a)
    for reg, (src, a, b) in cur.items():
        if src is None:
            start[reg] = (a - b, b)
        elif src != reg:
            if cur[src][0] != src:
                return None  # a chain through another period's value
            base, stride = start[src]
            start[reg] = (base - stride + a - b, stride + b)

    def resolve(value):
        src, a, b = value
        if src is None:
            return a, b
        base, stride = start[src]
        return base + a, stride + b

    exits = []
    for j, flip, lhs, rhs in branches:
        (la, lb), (ra, rb) = resolve(lhs), resolve(rhs)
        exits.append((j, flip, la - ra, lb - rb))
    return _Affine(
        tuple((reg, base, stride) for reg, (base, stride) in start.items()),
        tuple(map(resolve, reads)),
        tuple(exits),
    )


def _first_flip(flip: Optional[str], a: int, b: int) -> Optional[int]:
    """The first period ``k >= 1`` where ``a + k * b`` meets ``flip``
    (compared with zero), or None if none does."""
    if flip is None:
        return 1
    if flip == "<":  # a + kb < 0  <=>  (-a - 1) + k(-b) >= 0
        flip, a, b = ">=", -a - 1, -b
    if flip == ">=":
        if a + b >= 0:
            return 1
        return -(a // b) if b > 0 else None
    if b == 0:
        return 1 if (a == 0) == (flip == "==") else None
    if flip == "!=":
        return 1 if a + b != 0 else 2
    k, rem = divmod(-a, b)
    return k if rem == 0 and k >= 1 else None


def _values_ok(
    classes: Sequence[int], equals: Sequence[Tuple], evaluated: Sequence[Tuple], records
) -> bool:
    """Do the ROB slots' EVALUATED rows agree with the functional records
    for their positions?  ``classes`` holds each slot's execute class and
    ``equals`` its ``_UOP_EQUAL`` tuple; ``records`` yields the record of
    slot 0, 1, ... in order."""
    for x, equal, values, rec in zip(classes, equals, evaluated, records):
        target = equal[_TARGET_AT]
        result, addr, store_value, actual_taken, actual_target = values
        r_result, r_addr, r_store_value, taken = rec
        if x >= X_JMP:
            # Predicted direction must equal the functional outcome no
            # matter the state, else a squash is pending inside the window.
            if equal[_PRED_TAKEN_AT] != taken or (taken and equal[_PRED_TARGET_AT] != target):
                return False
        if equal[_STATE_AT] < ST_EXECUTING:
            ok = (
                result == 0
                and addr is None
                and store_value == 0
                and not actual_taken
                and actual_target is None
            )
        elif x == X_LOAD:
            ok = addr == r_addr and result == r_result
        elif x == X_STORE:
            ok = addr == r_addr and store_value == r_store_value
        elif x >= X_JMP:
            ok = actual_taken == taken and actual_target == target
        else:
            ok = result == r_result
        if not ok:
            return False
    return True


class _CacheOverlay:
    """Copy-on-write shadow of one :class:`SetAssociativeCache`.

    Replay probes run the exact ``lookup`` algorithm (MRU fast path, LRU
    shuffle, fill-with-evict) against lazily copied sets, so nothing touches
    the real cache until every probed period has matched the template."""

    __slots__ = ("cache", "_copies", "hits", "misses")

    def __init__(self, cache) -> None:
        self.cache = cache
        self._copies: Dict[int, List[int]] = {}
        self.hits = 0
        self.misses = 0

    def lookup(self, addr: int) -> bool:
        cache = self.cache
        line = addr >> cache._line_shift
        index = line % cache._num_sets
        tags = self._copies.get(index)
        if tags is None:
            tags = list(cache._sets[index])
            self._copies[index] = tags
        if tags and tags[-1] == line:
            self.hits += 1
            return True
        if line in tags:
            tags.remove(line)
            tags.append(line)
            self.hits += 1
            return True
        self.misses += 1
        if len(tags) >= cache.params.associativity:
            tags.pop(0)
        tags.append(line)
        return False

    def flush_into_real(self) -> None:
        cache = self.cache
        sets = cache._sets
        for index in sorted(self._copies):
            sets[index] = tuple(self._copies[index])
        cache.hits += self.hits
        cache.misses += self.misses


def _probe_periods(core, mem_template, records, cc: int, n: int):
    """Prove the template's load/store latencies repeat for ``n`` periods.

    Returns ``(n_ok, dcache_overlay, l2_overlay)`` — ``n_ok`` may be smaller
    than requested if some period diverges (overlays are rebuilt so they
    cover exactly the validated periods); ``(0, None, None)`` if even the
    first period fails, and no overlays for a template without accesses."""
    if not mem_template:
        return n, None, None
    hierarchy = core.hierarchy
    shared = core.shared
    core_id = core.core_id
    hit_latency = hierarchy.dcache.params.hit_latency
    l2_hit = hierarchy.params.l2_hit_latency
    dram = hierarchy.params.dram_latency
    while n >= 1:
        dcache_ov = _CacheOverlay(hierarchy.dcache)
        l2_ov = _CacheOverlay(hierarchy.l2cache)
        completed = n
        for m in range(n):
            base = (m + 1) * cc
            good = True
            for pos, latency in mem_template:
                addr = records[pos + base][1]
                writer = shared.last_writer(addr)
                if writer is not None and writer != core_id:
                    good = False  # cross-core line: let the interpreter pay
                    break
                if dcache_ov.lookup(addr):
                    lat = hit_latency
                elif l2_ov.lookup(addr):
                    lat = hit_latency + l2_hit
                else:
                    lat = hit_latency + dram
                if lat != latency:
                    good = False
                    break
            if not good:
                completed = m
                break
        if completed == n:
            return n, dcache_ov, l2_ov
        n = completed  # rebuild overlays for the validated prefix only
    return 0, None, None


def _lines(body: Sequence[Tuple], records, horizon: int, line_bytes: int):
    """``(touched, stored)``: the cache lines positions ``[0, horizon)``
    load or store, and the lines they store."""
    cc = len(body)
    touched: set = set()
    stored: set = set()
    for j, slot in enumerate(body):
        op = slot[0]
        if op is _LOAD or op is _STORE:
            lines = {records[p][1] // line_bytes for p in range(j, horizon, cc)}
            touched |= lines
            if op is _STORE:
                stored |= lines
    return touched, stored


def _horizons(sleepers) -> Tuple[int, ...]:
    """The cached next-activity cycle of every live core outside the
    window.  It moves when such a core steps on its own schedule or a
    timeline event resets it, and a halt drops the core from the tuple, so
    an unchanged tuple means none of them has acted since it was taken."""
    return tuple(core._next_activity for core in sleepers if not core.halted)


def _still_quiet(sleepers, horizons: Tuple[int, ...]) -> bool:
    """Do the sleepers still show these :func:`_horizons` (taken when every
    one of them was live)?"""
    for core, horizon in zip(sleepers, horizons):
        if core.halted or core._next_activity != horizon:
            return False
    return True


def _eligible(core) -> bool:
    """Is this core in a state where a recording could ever replay safely?

    Everything notification-visible must be quiet: no pending or in-flight
    interrupt work, no armed fault interceptor, no invariant
    write-observers, no microcode, and a delivery strategy whose idle state
    is fully described by an empty ``pending_inventory()``."""
    apic = core.apic
    strategy = core.strategy
    return (
        not core.halted
        and core.wait_reason is None
        and core.delivery_state is None
        and core.current_interrupt is None
        and not core.interrupt_path
        and not core.uintr.in_handler
        and not apic._pending
        and not apic.slow_path_queue
        and apic.fault_interceptor is None
        # Microcode queues are non-empty exactly while a routine is
        # unfinished (see ``Core``).
        and not core.inject_queue
        and not core.macro_queue
        and core._serialize_until < 0
        and isinstance(strategy, _REPLAY_SAFE_STRATEGIES)
        and not strategy.pending_inventory()
        and not core.shared._write_observers
    )


def _flush_idle(core, cycle: int) -> None:
    """Account the core's open idle stretch up to this boundary, so its
    rows read as the naive stepper's would."""
    anchor = core._idle_anchor
    if anchor >= 0:
        core._idle_anchor = -1
        core.note_skipped(cycle - anchor)


def _timers_bound(core, cycle: int, delta: int, n_bound: int) -> int:
    """``n_bound`` lowered so ``n`` periods end at or before each armed
    timer's next deadline."""
    for timer in (core.uintr.kb_timer, core.apic_timer):
        if timer.armed:
            fire = timer.next_fire_cycle()
            if fire is not None:
                bound = (fire - cycle) // delta
                if bound < n_bound:
                    n_bound = bound
    return n_bound


class _Plan(NamedTuple):
    """One core's share of a replay: what ``_apply`` needs to move it."""

    core: Any
    snap: _Snapshot
    match: Tuple  # (cc, delta, retired) from _sigma_match
    ev: _Evaluation
    dcache: Optional[_CacheOverlay]  # None when the loop touches no memory
    l2: Optional[_CacheOverlay]


class _Park(NamedTuple):
    """A core parked on its plan (see :meth:`MacroController._park`): it
    matched at cycle ``t1`` and may apply up to ``n`` periods; it stays hot
    after landing there if ``hot`` (the timeline head bounded ``n``)."""

    rec: "CoreRecorder"
    plan: _Plan
    t1: int
    n: int
    hot: bool

    @property
    def landing(self) -> int:
        return self.t1 + self.n * self.plan.match[1]


class CoreRecorder:
    """One core's share of the macro tier, installed on ``core._macro``:
    its loop hotness and, while a window is open, its snapshot and the uops
    and memory accesses it commits."""

    __slots__ = (
        "core",
        "owner",
        "hotness",
        "hot_until",
        "_scanning",
        "_commits",
        "snap",
        "mem_log",
        "proof",
        "_sizes_at",
        "_sizes",
        "_steps",
        "_drift",
    )

    def __init__(self, core, owner: "MacroController") -> None:
        self.core = core
        self.owner = owner
        self.hotness = HotnessTracker()
        #: Last cycle at which the core counts as hot (-1: cold).  A core
        #: stays hot for MAX_SCAN cycles after its loop crosses the hotness
        #: threshold, and after a window the outside world cut short.
        self.hot_until = -1
        self._scanning = False
        self._commits: List[UOp] = []
        self.snap: Optional[_Snapshot] = None
        self.mem_log: List[Tuple] = []
        #: The last window of this core alone that a full sigma match
        #: proved, if its loop touched no memory (see :func:`_proven`).
        self.proof: Optional[_Proof] = None
        #: The ROB length and IQ count before the last cycle that committed
        #: a back-edge (``_sizes_at``), their changes from the cycle before,
        #: and whether either moved the same way twice (see :meth:`settled`).
        self._sizes_at = -2
        self._sizes = (0, 0)
        self._steps = (0, 0)
        self._drift = False

    def note_backedge(self, pc: int, rob_len: int) -> None:
        """A committed taken backward branch, in a cycle that began with
        ``rob_len`` uops in the ROB (commit leaves the IQ count alone)."""
        cycle = self.core.cycle
        if self._sizes_at != cycle:
            sizes = (rob_len, self.core.iq_count)
            if self._sizes_at == cycle - 1:
                (rob0, iq0), (rob_step, iq_step) = self._sizes, self._steps
                steps = (rob_len - rob0, sizes[1] - iq0)
                self._drift = steps[0] * rob_step > 0 or steps[1] * iq_step > 0
            else:
                steps = (0, 0)
                self._drift = False
            self._sizes_at = cycle
            self._sizes = sizes
            self._steps = steps
        if self.hotness.note_backedge(pc) is not None:
            self.hot_until = cycle + MAX_SCAN
            self.owner.busy = True

    def settled(self, cycle: int) -> bool:
        """Is the core's pipeline not still filling or draining?  A ROB or
        issue queue that grew (or shrank) across each of the two cycles
        before this boundary is drifting, and a window armed on it could
        not return to the snapshot (as after a handler returns into a tight
        loop, whose back-end drains for a few dozen cycles)."""
        return not self._drift or self._sizes_at < cycle - 1


class MacroController:
    """The system's driver of the detect → record → match → replay loop.

    Installed by the multi-core fast path when ``REPRO_MACRO`` is enabled.
    While :attr:`busy` is set (a core is hot or a window is open),
    ``MultiCoreSystem.run`` calls :meth:`on_boundary` once per cycle, after
    the timeline drain and before any core steps; it returns the number of
    cycles a replay just covered (0 when the cores should simply step).
    When it leaves :attr:`recheck` set, the run loop calls
    :meth:`on_recheck` that cycle just before that core steps.  A core it
    parked sleeps until :attr:`landing`, where the run loop calls
    :meth:`land` before the timeline drains (and for every parked core
    before any timeline event fires, and when the run stops)."""

    __slots__ = (
        "recorders",
        "busy",
        "recheck",
        "landing",
        "_timeline",
        "_scanning",
        "_solo",
        "_window",
        "_sleepers",
        "_quiet",
        "_t0",
        "_scan_deadline",
        "_rescans",
        "_parked",
    )

    def __init__(self, cores, timeline: Sequence[Tuple]) -> None:
        self.recorders = tuple(CoreRecorder(core, self) for core in cores)
        self.busy = False
        #: The first hot core of a window that may open this cycle once
        #: the cold cores stepping before it have gone back to sleep.
        self.recheck = None
        #: The earliest landing cycle of a parked core (FAR_FUTURE: none).
        self.landing = FAR_FUTURE
        self._timeline = timeline
        self._scanning = False
        #: The open window has one core, armed while another core was
        #: awake: it may park but never jump the clock.
        self._solo = False
        #: The recorders of the open window's cores, and the other live
        #: cores, asleep when it armed.
        self._window: Tuple[CoreRecorder, ...] = ()
        self._sleepers: Tuple = ()
        #: The sleepers' horizons (:func:`_horizons`) when the window armed.
        self._quiet: Tuple[int, ...] = ()
        self._t0 = 0
        self._scan_deadline = 0
        #: Consecutive windows the outside world ended without a replay.
        self._rescans = 0
        self._parked: List[_Park] = []

    # -- the boundary hook ----------------------------------------------
    def on_boundary(self, cycle: int, end: int) -> int:
        """Called pre-step at a cycle boundary; returns replayed cycles."""
        self.recheck = None
        if not self._scanning:
            self._try_arm(cycle)
            return 0
        window = self._window
        for rec in window:
            core = rec.core
            if (
                core.halted
                or core.apic._pending
                or core.wait_reason is not None
                or core.delivery_state is not None
                or core.stats.squashed_uops != rec.snap.equal[_SQUASHED]
            ):
                self._abort_form()
                return 0
        if not _still_quiet(self._sleepers, self._quiet):
            # A sleeper stepped or was woken: the window no longer shows
            # its cores alone.  Their loops did not cool, but a sleeper
            # that keeps waking up would make every re-arm pay a snapshot
            # for nothing: cap the streak.
            self._retry(cycle, arm=False)
            return 0
        if cycle > self._scan_deadline:
            # Often a loop is still warming its caches, and the *next*
            # snapshot is the one that recurs: re-arm right away.
            self._retry(cycle, arm=True)
            return 0
        for rec in window:
            if rec.core._next_activity > cycle:
                # Asleep here (a partner keeps the clock stepping): no
                # match, and its idle stretch stays one run-loop anchor,
                # since ``note_skipped`` assumes no split between steps.
                return 0
        for rec in window:
            core = rec.core
            _flush_idle(core, cycle)
            if _fingerprint(core) != rec.snap.fingerprint:
                return 0
        delta = cycle - self._t0
        if len(window) == 1 and window[0].proof is not None:
            rec = window[0]
            match = _proven(rec.core, rec.snap, rec._commits, rec.proof)
            if match is not None:
                return self._replay([match], cycle, end, proved=True)
        matches = []
        for rec in window:
            match = _sigma_match(rec.core, rec.snap, rec._commits)
            if match is None or match[1] != delta:
                return 0
            matches.append(match)
        return self._replay(matches, cycle, end)

    # -- internals -------------------------------------------------------
    def _timeline_head(self) -> Optional[int]:
        timeline = self._timeline
        return timeline[0][0] if timeline else None

    def on_recheck(self, cycle: int) -> None:
        """Called mid-cycle, just before :attr:`recheck` steps: the cores
        before it have stepped this cycle, and a window opens if each of
        them now sleeps past the next boundary."""
        self.recheck = None
        self._try_arm(cycle)

    def _try_arm(self, cycle: int) -> None:
        """Open a window on every live core due at this boundary (and not
        yet stepped in this cycle), if each is hot, eligible and settled
        (:meth:`CoreRecorder.settled`) and every other live core sleeps past
        the next boundary.  Due cold cores that step before every hot one
        may go back to sleep in this cycle's step, so then the window waits
        for :meth:`on_recheck` (the naive stepper steps cores in index
        order, so the hot ones have not stepped yet).  While another core
        stays awake, a window opens on the first such core with no load or
        store in flight alone, a solo window that may only park
        (:meth:`_replay`).  A hot core that is not eligible, or lacks
        headroom, goes cold."""
        window = []
        sleepers = []
        awake = False  # a live core outside the window steps before the next boundary
        late = False  # one other than a due cold core ahead of every hot one
        for rec in self.recorders:
            core = rec.core
            if core.halted:
                continue
            na = core._next_activity
            if na > cycle + 1:
                sleepers.append(core)
                continue
            if na <= cycle:
                if rec.hot_until >= cycle:
                    if not _eligible(core):
                        self._cool((rec,))
                    elif rec.settled(cycle):
                        window.append(rec)
                        continue
                elif not window:
                    awake = True
                    continue
            awake = late = True
        if window:
            if not awake:
                if self._headroom(window, cycle):
                    self._arm(window, sleepers, cycle)
                    return
                self._cool(window)
            elif not late:
                self.recheck = window[0].core
                return
            else:
                for rec in window:
                    lsq = rec.core.lsq
                    if not lsq.loads and not lsq.stores:
                        if self._headroom((rec,), cycle):
                            self._arm((rec,), (), cycle, solo=True)
                            return
                        self._cool((rec,))
                        break
        for rec in self.recorders:
            if rec.hot_until >= cycle:
                return
        self.busy = False

    @staticmethod
    def _cool(recs) -> None:
        """Cores that must re-earn their hotness."""
        for rec in recs:
            rec.hotness.reset()
            rec.hot_until = -1

    def _headroom(self, window, cycle: int) -> bool:
        """Is every timer deadline and the timeline head far enough away
        for a window to pay off?"""
        head = self._timeline_head()
        if head is not None and head - cycle < MIN_ARM_HEADROOM:
            return False
        return all(
            _timers_bound(rec.core, cycle, 1, MIN_ARM_HEADROOM) >= MIN_ARM_HEADROOM
            for rec in window
        )

    def _arm(self, window, sleepers, cycle: int, solo: bool = False) -> None:
        snaps = []
        for rec in window:
            _flush_idle(rec.core, cycle)
            snap = _snapshot_core(rec.core, rec.proof.snap if rec.proof is not None else None)
            if snap is None:
                GLOBAL_COUNTERS.macro_form_aborts += 1  # snapshot refused
                self._cool((rec,))
                return
            snaps.append(snap)
        for rec, snap in zip(window, snaps):
            rec.snap = snap
            rec._commits.clear()
            rec.mem_log.clear()
            rec.core._macro_rec = rec.mem_log
            rec._scanning = True
        self._window = tuple(window)
        self._solo = solo
        self._sleepers = tuple(sleepers)
        self._quiet = _horizons(sleepers)
        self._t0 = cycle
        self._scan_deadline = cycle + MAX_SCAN
        self._scanning = True

    def _end(self, hot_until: int = -1) -> None:
        """Close the window.  Its cores stay hot until ``hot_until`` (they
        go cold with -1 and must re-earn their hotness)."""
        for rec in self._window:
            rec._scanning = False
            rec.snap = None
            rec._commits.clear()
            rec.mem_log.clear()
            rec.core._macro_rec = None
            rec.hotness.reset()
            rec.hot_until = hot_until
        self._rescans = 0
        self._scanning = False
        self._window = ()
        self._sleepers = ()
        self._quiet = ()

    def _abort_form(self) -> None:
        GLOBAL_COUNTERS.macro_form_aborts += 1
        self._end()

    def _retry(self, cycle: int, arm: bool) -> None:
        """The window ended without a replay through no fault of its
        loops: keep them hot (re-arming at once with ``arm``) for up to
        MAX_RESCANS windows in a row."""
        GLOBAL_COUNTERS.macro_form_aborts += 1
        rescans = self._rescans
        if rescans >= MAX_RESCANS:
            self._end()
            return
        self._end(cycle + MAX_SCAN)
        self._rescans = rescans + 1
        if arm:
            self._try_arm(cycle)

    def _replay(self, matches, cycle: int, end: int, proved: bool = False) -> int:
        """Replay the matched window; ``proved``: the match came from a
        proof (:func:`_proven`), not from a full sigma match."""
        window = self._window
        delta = cycle - self._t0

        # Period budget from every notification-visible horizon.  Landing
        # exactly on a horizon cycle is safe: the event fires (or the
        # sleeper steps) there natively.  A stop at a timeline event or a
        # sleeper's wake-up (``n_bound == wake_bound``) leaves the loops
        # hot; an own-timer deadline does not (that core is about to take
        # an interrupt).
        # A window of one core whose body touches no memory may park it
        # instead (:meth:`_park`): the sleepers' horizons do not bound it,
        # and a solo window must park, since awake cores keep the clock.
        n_bound = (end - cycle) // delta
        if n_bound > MAX_PERIODS:
            n_bound = MAX_PERIODS
        horizon_bound = n_bound
        wake_bound = None
        head = self._timeline_head()
        head_bound = None if head is None else (head - cycle) // delta
        park_bound = None
        if len(window) == 1:
            park_bound = n_bound if head is None else min(n_bound, head_bound)
            park_bound = _timers_bound(window[0].core, cycle, delta, park_bound)
        wake = min(self._quiet) if self._quiet else None
        if head is not None and (wake is None or head < wake):
            wake = head
        if wake is not None:
            bound = (wake - cycle) // delta
            if bound < n_bound:
                n_bound = wake_bound = bound
        for rec in window:
            n_bound = _timers_bound(rec.core, cycle, delta, n_bound)
        if self._solo:
            n_bound = 0
        if n_bound < 1 and (park_bound is None or park_bound < 1):
            return self._bail_event(cycle, n_bound == wake_bound)

        bodies = []
        for rec in window:
            body = _build_template(rec._commits)
            if body is None:
                self._abort_form()
                return 0
            bodies.append(body)
        memory_free = len(window) == 1 and not any(
            slot[0] is _LOAD or slot[0] is _STORE for slot in bodies[0]
        )
        parkable = memory_free and park_bound >= 1
        if not parkable and n_bound < 1:
            return self._bail_event(cycle, n_bound == wake_bound)

        # Every core's recorded window must reproduce under the evaluator.
        # A load-free affine body's exit is then solved in closed form; the
        # others are evaluated one at a time, none past the smallest exit
        # found so far.  With more than one of them the reach doubles from
        # one period and each evaluation resumes where it stopped, so a
        # long loop is evaluated at most twice as far as a partner's exit.
        evals = []
        templates: List[List[Tuple[int, int]]] = []
        for rec, body in zip(window, bodies):
            ev = _Evaluation(body, rec.snap.regs, rec.core.shared.read, delta)
            ev.extend(len(body) + len(rec.core.rob))
            template = self._checked(rec, ev)
            if template is None:
                return 0
            evals.append(ev)
            templates.append(template)
        bound = park_bound if parkable else n_bound
        n = bound
        stepped = []
        for rec, ev, template in zip(window, evals, templates):
            cc = len(ev.body)
            rob_len = len(rec.core.rob)
            if template or not ev.solve((bound + 1) * cc + rob_len):
                stepped.append((ev, cc, rob_len))
            elif ev.exit is not None:
                n = min(n, (ev.exit - rob_len) // cc - 1)
        if parkable and stepped:
            # No closed form, so no landing to park on: replay as far as
            # the sleepers allow.
            parkable = False
            n = n_bound
            if n < 1:
                return self._bail_event(cycle, n_bound == wake_bound)
        reach = n if len(stepped) == 1 else 1
        while stepped:
            for ev, cc, rob_len in stepped:
                if ev.exit is not None:
                    continue
                ev.extend((reach + 1) * cc + rob_len)
                if ev.exit is not None:
                    n_func = (ev.exit - rob_len) // cc - 1
                    if n_func < n:
                        n = n_func
                        if n < reach:
                            reach = n
            if reach >= n:
                break
            reach = min(2 * reach, n)
        GLOBAL_COUNTERS.macro_formations += 1
        if n < 1:
            GLOBAL_COUNTERS.macro_bail_divergence += 1
            self._end()
            return 0
        if parkable and n > n_bound:
            return self._park(matches[0], evals[0], cycle, n, n == head_bound, proved)

        # Cores share a window only if they cannot see each other inside
        # it: no line one stores within its evaluated horizon may be
        # loaded or stored by another.  (Lines, not words: a remote store
        # to a line changes the latency of every access to it.)
        if len(window) > 1:
            line_bytes = window[0].core.shared.LINE_BYTES
            seen: List[Tuple[set, set]] = []
            for rec, ev in zip(window, evals):
                horizon = (n + 1) * len(ev.body) + len(rec.core.rob)
                touched, stored = _lines(ev.body, ev.records, horizon, line_bytes)
                for other_touched, other_stored in seen:
                    if stored & other_touched or touched & other_stored:
                        GLOBAL_COUNTERS.macro_bail_divergence += 1
                        self._end()
                        return 0
                seen.append((touched, stored))

        # Prove every core's load/store latencies repeat for n periods;
        # a core that proves fewer lowers n for all, and the overlays are
        # rebuilt to cover exactly the n periods applied.
        while True:
            plans = []
            for rec, match, ev, template in zip(window, matches, evals, templates):
                n_ok, dcache_ov, l2_ov = _probe_periods(
                    rec.core, template, ev.records, len(ev.body), n
                )
                if n_ok < n:
                    break
                plans.append(_Plan(rec.core, rec.snap, match, ev, dcache_ov, l2_ov))
            else:
                break
            n = n_ok
            if n < 1:
                GLOBAL_COUNTERS.macro_bail_divergence += 1
                self._end()
                return 0
        if n < n_bound:
            GLOBAL_COUNTERS.macro_bail_divergence += 1
        elif n_bound < horizon_bound:
            GLOBAL_COUNTERS.macro_bail_event += 1
        else:
            GLOBAL_COUNTERS.macro_bail_horizon += 1

        for plan in plans:
            plan.ev.settle(n, len(plan.core.rob))
        if memory_free and not proved:
            self._prove(matches[0])
        self._apply(plans, n)
        GLOBAL_COUNTERS.macro_replays += 1
        GLOBAL_COUNTERS.macro_replayed_periods += n
        GLOBAL_COUNTERS.macro_replayed_cycles += n * delta * len(plans)
        # The sleepers idle through the jump: open their idle stretch here.
        # (A window core commits in every period, so its cached horizon
        # lies within the first one and it steps on landing.)
        for core in self._sleepers:
            if not core.halted and core._idle_anchor < 0:
                core._idle_anchor = cycle
        stay_hot = n == n_bound == wake_bound
        self._end(cycle + n * delta + MAX_SCAN if stay_hot else -1)
        return n * delta

    def _bail_event(self, cycle: int, stay_hot: bool) -> int:
        """No period fits before the next horizon: close the window, its
        loops hot if a sleeper's wake-up or the timeline stopped it."""
        GLOBAL_COUNTERS.macro_bail_event += 1
        GLOBAL_COUNTERS.macro_form_aborts += 1
        self._end(cycle + MAX_SCAN if stay_hot else -1)
        return 0

    def _prove(self, match) -> None:
        """Keep the matched window of one memory-free core as its proof."""
        rec = self._window[0]
        cc, delta, retired = match
        rec.proof = _Proof(rec.snap, cc, delta, tuple(q1 for _, q1 in retired))

    def _park(self, match, ev: _Evaluation, cycle: int, n: int, hot: bool, proved: bool) -> int:
        """Park the window's one core instead of replaying it: a loop that
        touches no memory cannot see another core or be seen by one, except
        through notifications, so the others keep stepping while it sleeps
        until its landing, ``n`` periods on.  ``n`` stops at its solved
        exit, its own timer deadlines, the run end or the timeline head
        (``hot``); :meth:`land` applies the periods that fit before the
        cycle where the core wakes."""
        rec = self._window[0]
        core = rec.core
        if not proved:
            self._prove(match)
        park = _Park(rec, _Plan(core, rec.snap, match, ev, None, None), cycle, n, hot)
        self._parked.append(park)
        landing = park.landing
        if landing < self.landing:
            self.landing = landing
        core._next_activity = landing
        GLOBAL_COUNTERS.macro_parks += 1
        self._end()
        return 0

    def land(self, cycle: int, every: bool = False) -> int:
        """Bring each parked core whose landing has come (with ``every``,
        each parked core: a timeline event is due, or the run stops) to its
        state before this cycle steps.  Returns the cycles it stepped."""
        stepped = 0
        parked = []
        for park in self._parked:
            if every or park.landing <= cycle:
                stepped += self._land(park, cycle)
            else:
                parked.append(park)
        self._parked = parked
        self.landing = min([park.landing for park in parked], default=FAR_FUTURE)
        return stepped

    def _land(self, park: _Park, cycle: int) -> int:
        """Apply the whole periods that fit before ``cycle``, then step the
        core natively through the rest: alone, since nothing it does is
        seen by another core.  It stays hot if it woke before its landing,
        or the timeline head chose the landing."""
        rec, plan, t1, n, hot = park
        core = plan.core
        delta = plan.match[1]
        m = (cycle - t1) // delta
        if m > n:
            raise SimulationError(f"core {core.core_id} landed at {cycle}, past {park.landing}")
        if m:
            plan.ev.settle(m, len(core.rob))
            self._apply((plan,), m)
            GLOBAL_COUNTERS.macro_replays += 1
            GLOBAL_COUNTERS.macro_replayed_periods += m
            GLOBAL_COUNTERS.macro_replayed_cycles += m * delta
        # The run loop opened an idle stretch on the parked core; the
        # periods and the steps below account its cycles instead.
        core._idle_anchor = -1
        start = t1 + m * delta
        for c in range(start, cycle):
            core.step(c)
        core._next_activity = 0
        if hot or m < n:
            rec.hot_until = cycle + MAX_SCAN
            self.busy = True
        return cycle - start

    def _checked(self, rec: CoreRecorder, ev: _Evaluation):
        """The core's memory template if its recorded window reproduces
        under the evaluator, else None (the window is closed)."""
        core = rec.core
        snap = rec.snap
        body = ev.body
        records = ev.records
        cc = len(body)
        rob_len = len(core.rob)
        # The recorded window itself must be reproducible: the evaluator
        # stays on the loop through the in-flight positions (the first
        # ``cc + rob_len``, evaluated), and its registers after one period
        # equal the live register file.
        if ev.exit is not None or ev.regs_after(1) != core.arch_regs:
            self._abort_form()
            return None
        # Memory template: position-resolved accesses with fixed latencies.
        template: List[Tuple[int, int]] = []
        for seq, is_load, latency, forwarded, addr in rec.mem_log:
            pos = seq - snap.seq0
            if forwarded or pos < 0 or pos >= cc + rob_len:
                self._abort_form()
                return None
            expected = _LOAD if is_load else _STORE
            if body[pos % cc][0] is not expected or records[pos][1] != addr:
                self._abort_form()
                return None
            template.append((pos, latency))
        # Every in-flight value (snapshot and live ends) must agree with the
        # functional stream at its window position.  The live slots' EQUAL
        # rows are the snapshot's: sigma matched.
        if not _values_ok(snap.classes, snap.uops, snap.evaluated, records) or not _values_ok(
            snap.classes, snap.uops, list(map(_UOP_EVALUATED, core.rob)), islice(records, cc, None)
        ):
            self._abort_form()
            return None
        return template

    def _apply(self, plans: Sequence[_Plan], n: int) -> None:
        """Jump every core of the window from S1 to sigma^n(S1) in place."""
        for core, snap, match, ev, dcache_ov, l2_ov in plans:
            cc, delta, retired = match
            by_delta = n * delta
            by_cc = n * cc
            body = ev.body
            records = ev.records
            start = ev.start
            # EVALUATED rows: registers and the committed store write-set.
            core.arch_regs[:] = ev.regs_after(n + 1)
            store_slots = [j for j in range(cc) if body[j][0] is _STORE]
            if store_slots:
                shared = core.shared
                core_id = core.core_id
                for m in range(1, n + 1):
                    base = m * cc - start
                    for j in store_slots:
                        rec = records[base + j]
                        shared.write(rec[1], rec[2] & MASK64, core_id=core_id)
            # In-flight uops: SHIFTED rows move n units, EVALUATED rows take
            # the functional stream's values at their new window positions,
            # as do the retired producers they read.
            rob = core.rob
            for name, unit, get, only_waiting in _UOP_SHIFTS:
                by = by_delta if unit is DELTA else by_cc
                for uop in [rob[i] for i, _ in snap.waiting] if only_waiting else rob:
                    setattr(uop, name, get(uop) + by)
            base = (n + 1) * cc - start
            for uop, writes, rec in zip(rob, snap.writes, islice(records, base, None)):
                if uop.state >= ST_EXECUTING:
                    for name, slot in writes:
                        setattr(uop, name, rec[slot])
            for prod, q1 in retired:
                prod.result = records[q1 + by_cc - start][0]
            # SHIFTED and ADVANCED rows: n more windows' worth of their delta.
            for (owner, name), value, value0 in zip(
                _COUNT_SETTERS, _CORE_COUNT(core), snap.count
            ):
                if value != value0:
                    setattr(
                        core if owner is None else owner(core), name, value + (value - value0) * n
                    )
            core.ready_heap[:] = [(t + by_delta, s + by_cc, u) for t, s, u in core.ready_heap]
            core.exec_heap[:] = [(t + by_delta, s + by_cc, u) for t, s, u in core.exec_heap]
            if dcache_ov is not None:
                dcache_ov.flush_into_real()
                l2_ov.flush_into_real()
