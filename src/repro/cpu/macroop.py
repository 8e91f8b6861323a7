"""Macro-op trace tier (``REPRO_MACRO``): O(1) replay of hot loop bodies.

The cycle-skipping engine (``REPRO_FAST``) wins when cores are quiescent but
is floored by the per-cycle interpreter on dense loops.  This tier closes
that gap with the classic trace-cache move, applied to the *simulator*
rather than the simulated frontend:

1. **Detect** — :class:`repro.cpu.hotness.HotnessTracker` counts committed
   taken backward branches; crossing the threshold nominates a loop.
2. **Record** — at the next cycle boundary the controller snapshots the
   full microarchitectural state (ROB slots, heaps, LSQ, rename map,
   predictor tables, caches, timers) and keeps stepping normally while
   logging every committed uop and every load/store latency.
3. **Match** — at each later boundary it looks for the *shifted repeat* of
   the snapshot: the same pipeline picture with every sequence number
   advanced by ``cc`` (uops committed in the window) and every timestamp by
   ``delta`` (cycles elapsed).  That equivalence — ``sigma`` below — is what
   makes replay sound: if stepping ``delta`` cycles maps state S0 to
   ``sigma(S0)``, stepping another ``delta`` maps ``sigma(S0)`` to
   ``sigma^2(S0)``, and ``n`` periods can be applied as one O(1) update.
4. **Replay** — a functional evaluator re-executes the *architectural*
   loop body (template decode only, no pipeline) to produce the committed
   register/memory write-set per period, while a copy-on-write cache
   overlay proves every load/store latency repeats.  ``RDTSC`` is
   clock-affine: sigma shifts every timestamp by ``delta``, so period ``k``
   reads the recorded value plus ``k * delta``.  The period count ``n`` is
   capped by every notification-visible horizon: run end, the event
   timeline (fault injections, watches), armed timer deadlines, and every
   other core's next activity.
5. **Bail** — anything else — a pending interrupt, an armed fault
   interceptor, a latency or branch divergence, a neighbour core that
   steps — either blocks formation or caps ``n``, and the interpreter
   resumes at the exact cycle it would have reached natively.  Delivery
   semantics, invariant probes, and trace timestamps stay bit-identical to
   the naive engine.

Other cores need not be halted, only quiescent: a neighbour whose cached
``_next_activity`` lies in the future changes no state before then (its
external wakeups arrive through the timeline, which caps ``n`` already).
A recording is dropped as soon as any neighbour's horizon moves, and a
replay stops on the earliest one, where that core steps natively.

Everything here reads only the core it was handed — no wall clock, no
mutable module globals (detlint PRO104) — so replay is simulation-pure and
deterministic.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.common.counters import GLOBAL_COUNTERS
from repro.cpu.backend import ST_DONE, ST_EXECUTING, ST_WAITING, UOp
from repro.cpu.delivery import DrainStrategy, FlushStrategy, TrackedStrategy
from repro.cpu.hotness import HotnessTracker
from repro.cpu.isa import Op

MASK64 = (1 << 64) - 1

#: Ops the functional replay evaluator understands.  Anything else in the
#: loop body (serializing ops, microcode, CALL/RET, HALT) blocks formation —
#: those touch notification or control state the evaluator does not model.
#: RDTSC is the one clock reader allowed: its reading is affine in the
#: period (see :func:`_evaluate`).
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
    return value - (1 << 64) if value >= (1 << 63) else value


class _UopShot:
    """Immutable picture of one ROB slot, with producers/dependents resolved
    to ROB indices (or committed-window positions for retired producers)."""

    __slots__ = (
        "seq",
        "op",
        "pc",
        "instr",
        "macro_first",
        "macro_last",
        "dest",
        "src_regs",
        "imm",
        "target",
        "safepoint",
        "chain",
        "uitt_index",
        "extra_latency",
        "pred_taken",
        "pred_target",
        "history_token",
        "state",
        "wait_count",
        "frontend_ready",
        "complete_cycle",
        "result",
        "addr",
        "store_value",
        "actual_taken",
        "actual_target",
        "producers",
        "dependents",
    )

    def __init__(self, uop: UOp, index_of: Dict[int, int], seq0: int) -> None:
        self.seq = uop.seq
        self.op = uop.op
        self.pc = uop.pc
        self.instr = uop.instr
        self.macro_first = uop.macro_first
        self.macro_last = uop.macro_last
        self.dest = uop.dest
        self.src_regs = uop.src_regs
        self.imm = uop.imm
        self.target = uop.target
        self.safepoint = uop.safepoint
        self.chain = uop.chain
        self.uitt_index = uop.uitt_index
        self.extra_latency = uop.extra_latency
        self.pred_taken = uop.pred_taken
        self.pred_target = uop.pred_target
        self.history_token = uop.history_token
        self.state = uop.state
        self.wait_count = uop.wait_count
        self.frontend_ready = uop.frontend_ready
        self.complete_cycle = uop.complete_cycle
        self.result = uop.result
        self.addr = uop.addr
        self.store_value = uop.store_value
        self.actual_taken = uop.actual_taken
        self.actual_target = uop.actual_target
        # Only fields the core will still *read* take part in the sigma
        # compare.  Operand values are read once, when execution starts
        # (``UOp.source_value`` call sites), so producer edges are dead for
        # state >= ST_EXECUTING; a producer only ever wakes dependents that
        # are still ST_WAITING (and unsquashed) at completion, so everything
        # else in the dependents list is inert bookkeeping.  Comparing dead
        # edges would demand fetch-phase alignment deep OoO windows (memops)
        # never reach, without adding any soundness.
        # producers: reg -> ("r", rob_index) | ("x", window_position)
        producers: List[Tuple[int, str, int]] = []
        ok = True
        if uop.state < ST_EXECUTING:
            for reg in sorted(uop.producers):
                prod = uop.producers[reg]
                idx = index_of.get(id(prod))
                if idx is not None:
                    producers.append((reg, "r", idx))
                elif prod.state == ST_DONE and not prod.squashed:
                    producers.append((reg, "x", prod.seq - seq0))
                else:
                    ok = False  # squashed leftover — not sigma-comparable
        deps: List[int] = []
        for dep in uop.dependents:
            if dep.squashed or dep.state != ST_WAITING:
                continue  # already woken (or dead): never touched again
            idx = index_of.get(id(dep))
            if idx is None:
                ok = False  # waiting dependent outside the ROB — bail
                break
            deps.append(idx)
        self.producers = tuple(producers) if ok else None
        self.dependents = tuple(sorted(deps))


class _Snapshot:
    """Full boundary picture of one core, taken when a recording is armed."""

    __slots__ = (
        "t0",
        "seq0",
        "seq_next",
        "shots",
        "loads_idx",
        "stores_idx",
        "ready",
        "execq",
        "rename",
        "arch_regs",
        "fetch_pc",
        "iq_count",
        "fetch_stall_until",
        "current_fetch_line",
        "lpcc",
        "conservative_loads",
        "notif_pir",
        "stats",
        "uintr_state",
        "kb_state",
        "apic_timer_state",
        "predictions",
        "mispredictions",
        "gshare_table",
        "gshare_history",
        "btb_tags",
        "btb_targets",
        "ras_stack",
        "icache_sets",
        "icache_hits",
        "icache_misses",
        "uop_sets",
        "uop_hits",
        "uop_misses",
        "remote_misses",
        "apic_ctrs",
        "apic_queue_lens",
        "fingerprint",
    )


def _timer_state(timer) -> Tuple:
    return (
        timer.enabled,
        timer.vector,
        timer.armed,
        timer.periodic,
        timer.deadline,
        timer.period,
    )


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


def _snapshot_core(core) -> Optional[_Snapshot]:
    """Capture the sigma-comparison baseline, or None if the pipeline holds
    anything the comparison (or the functional evaluator) cannot model."""
    rob = core.rob
    if not rob:
        return None
    seq0 = rob[0].seq
    index_of: Dict[int, int] = {}
    for i, uop in enumerate(rob):
        if uop.seq != seq0 + i:  # non-contiguous: a squash is in flight
            return None
        index_of[id(uop)] = i
    shots: List[_UopShot] = []
    for uop in rob:
        if (
            uop.op not in SUPPORTED_OPS
            or uop.is_micro
            or uop.from_interrupt
            or uop.squashed
            or uop.semantic
            or uop.instr is None
            or uop.ras_snapshot is not None
            or uop.src_values
        ):
            return None
        shot = _UopShot(uop, index_of, seq0)
        if shot.producers is None:
            return None
        shots.append(shot)
    rename: List[Tuple[int, int]] = []
    for reg in sorted(core.reg_producer):
        idx = index_of.get(id(core.reg_producer[reg]))
        if idx is None:
            return None
        rename.append((reg, idx))
    # Shadows are stored in sorted (t, seq) order, not raw heapq array
    # order: the internal array layout depends on push/pop history, but
    # heappop only ever sees the sorted order, so that is all sigma needs.
    ready: List[Tuple[int, int, int]] = []
    for t, seq, uop in core.ready_heap:
        idx = index_of.get(id(uop))
        if idx is None:
            return None
        ready.append((t, seq, idx))
    ready.sort()
    execq: List[Tuple[int, int, int]] = []
    for t, seq, uop in core.exec_heap:
        idx = index_of.get(id(uop))
        if idx is None:
            return None
        execq.append((t, seq, idx))
    execq.sort()
    loads_idx = tuple(index_of.get(id(u), -1) for u in core.lsq.loads)
    stores_idx = tuple(index_of.get(id(u), -1) for u in core.lsq.stores)
    if -1 in loads_idx or -1 in stores_idx:
        return None

    snap = _Snapshot()
    snap.t0 = core.cycle
    snap.seq0 = seq0
    snap.seq_next = core._seq
    snap.shots = shots
    snap.loads_idx = loads_idx
    snap.stores_idx = stores_idx
    snap.ready = ready
    snap.execq = execq
    snap.rename = tuple(rename)
    snap.arch_regs = list(core.arch_regs)
    snap.fetch_pc = core.fetch_pc
    snap.iq_count = core.iq_count
    snap.fetch_stall_until = core.fetch_stall_until
    snap.current_fetch_line = core._current_fetch_line
    snap.lpcc = core.last_program_commit_cycle
    snap.conservative_loads = frozenset(core._conservative_loads)
    snap.notif_pir = core._notif_pir
    snap.stats = dict(core.stats.__dict__)
    u = core.uintr
    snap.uintr_state = (
        u.uif,
        u.uirr,
        u.handler_index,
        u.upid_addr,
        u.uitt_base,
        u.safepoint_mode,
        u.ui_return_pc,
        u.in_handler,
    )
    snap.kb_state = _timer_state(u.kb_timer)
    snap.apic_timer_state = _timer_state(core.apic_timer)
    pred = core.predictor
    snap.predictions = pred.predictions
    snap.mispredictions = pred.mispredictions
    snap.gshare_table = list(pred.gshare._table)
    snap.gshare_history = pred.gshare._history
    snap.btb_tags = list(pred.btb._tags)
    snap.btb_targets = list(pred.btb._targets)
    snap.ras_stack = list(pred.ras._stack)
    icache = core.icache.cache
    snap.icache_sets = [list(tags) for tags in icache._sets]
    snap.icache_hits = icache.hits
    snap.icache_misses = icache.misses
    uc = core.uop_cache
    snap.uop_sets = [list(tags) for tags in uc._sets]
    snap.uop_hits = uc.hits
    snap.uop_misses = uc.misses
    snap.remote_misses = core.hierarchy.remote_misses
    apic = core.apic
    snap.apic_ctrs = (
        apic.accepted,
        apic.forwarded_fast,
        apic.forwarded_slow,
        apic.faults_dropped,
        apic.user_queued,
    )
    snap.apic_queue_lens = (len(apic.slow_path_queue), len(apic.kernel_queue))
    snap.fingerprint = _fingerprint(core)
    return snap


#: CoreStats fields that must not move at all inside a recording window.
_ZERO_DELTA_STATS = (
    "squashed_uops",
    "branch_squashes",
    "memory_order_squashes",
    "serialize_stall_cycles",
    "interrupts_delivered",
    "interrupt_flushes",
    "committed_handler_instructions",
)


class _Match:
    """A confirmed sigma-periodic window: S1 == shift(S0) by (cc, delta)."""

    __slots__ = (
        "cc",
        "delta",
        "ext_fixups",
        "pred_delta",
        "icache_hits_d",
        "icache_misses_d",
        "uop_hits_d",
        "uop_misses_d",
        "fsu_shift",
    )


def _sigma_match(core, snap: _Snapshot, commits: Sequence[UOp]) -> Optional[_Match]:
    """Does the core, at this boundary, equal the snapshot shifted by the
    recording window?  Returns the match descriptor, or None."""
    cc = len(commits)
    if cc < 1:
        return None
    delta = core.cycle - snap.t0  # both ends measured pre-step at a boundary
    if delta < 1:
        return None
    seq0 = snap.seq0
    rob = core.rob
    shots = snap.shots
    if len(rob) != len(shots):
        return None
    # Commit-stream contiguity: exactly the snapshot's oldest cc uops
    # retired, in order, with nothing squashed in between.
    for i, uop in enumerate(commits):
        if uop.seq != seq0 + i:
            return None
    # Core scalars that must be byte-equal (loop phase) or trivially clean.
    if (
        core.halted
        or core.wait_reason is not None
        or core.delivery_state is not None
        or core.current_interrupt is not None
        or core.interrupt_path
        or core._last_chain_uop is not None
        or core._trace_resume_pending
        or core._serialize_until != -1
        or core.inject_pos < len(core.inject_queue)
        or core.macro_pos < len(core.macro_queue)
        or core.apic._pending
        or core.fetch_pc != snap.fetch_pc
        or core.iq_count != snap.iq_count
        or core._current_fetch_line != snap.current_fetch_line
        or core._notif_pir != snap.notif_pir
        or core._seq != snap.seq_next + cc
        or frozenset(core._conservative_loads) != snap.conservative_loads
    ):
        return None
    # fetch_stall_until: either inert on both ends, or shifted with time.
    fsu = core.fetch_stall_until
    if fsu == snap.fetch_stall_until + delta:
        fsu_shift = True
    elif fsu == snap.fetch_stall_until and fsu <= snap.t0:
        fsu_shift = False
    else:
        return None
    # Stats deltas: pure loop progress, no squashes, no interrupt activity.
    stats = core.stats.__dict__
    s0 = snap.stats
    if (
        stats["cycles"] - s0["cycles"] != delta
        or stats["committed_uops"] - s0["committed_uops"] != cc
        or stats["fetched_uops"] - s0["fetched_uops"] != cc
        or stats["committed_instructions"] - s0["committed_instructions"] != cc
    ):
        return None
    for name in _ZERO_DELTA_STATS:
        if stats[name] != s0[name]:
            return None
    if core.last_program_commit_cycle != snap.lpcc + delta:
        return None
    # Notification state: identical, and quiet.
    u = core.uintr
    if (
        u.in_handler
        or (
            u.uif,
            u.uirr,
            u.handler_index,
            u.upid_addr,
            u.uitt_base,
            u.safepoint_mode,
            u.ui_return_pc,
            u.in_handler,
        )
        != snap.uintr_state
        or _timer_state(u.kb_timer) != snap.kb_state
        or _timer_state(core.apic_timer) != snap.apic_timer_state
    ):
        return None
    apic = core.apic
    if (
        apic.accepted,
        apic.forwarded_fast,
        apic.forwarded_slow,
        apic.faults_dropped,
        apic.user_queued,
    ) != snap.apic_ctrs or (
        len(apic.slow_path_queue),
        len(apic.kernel_queue),
    ) != snap.apic_queue_lens:
        return None
    if core.hierarchy.remote_misses != snap.remote_misses:
        return None
    # Front-end structures: byte-equal (steady loops saturate them).
    pred = core.predictor
    if (
        pred.mispredictions != snap.mispredictions
        or pred.gshare._history != snap.gshare_history
        or pred.gshare._table != snap.gshare_table
        or pred.btb._tags != snap.btb_tags
        or pred.btb._targets != snap.btb_targets
        or pred.ras._stack != snap.ras_stack
    ):
        return None
    icache = core.icache.cache
    uc = core.uop_cache
    if icache._sets != snap.icache_sets or uc._sets != snap.uop_sets:
        return None
    # Per-slot structural comparison against the shifted snapshot.
    index_of: Dict[int, int] = {}
    for i, uop in enumerate(rob):
        if uop.seq != seq0 + cc + i:
            return None
        index_of[id(uop)] = i
    ext_fixups: List[Tuple[UOp, int]] = []
    for i, live in enumerate(rob):
        shot = shots[i]
        if (
            live.op is not shot.op
            or live.pc != shot.pc
            or live.instr is not shot.instr
            or live.is_micro
            or live.from_interrupt
            or live.squashed
            or live.semantic
            or live.src_values
            or live.ras_snapshot is not None
            or live.macro_first != shot.macro_first
            or live.macro_last != shot.macro_last
            or live.dest != shot.dest
            or live.src_regs != shot.src_regs
            or live.imm != shot.imm
            or live.target != shot.target
            or live.safepoint != shot.safepoint
            or live.chain != shot.chain
            or live.uitt_index != shot.uitt_index
            or live.extra_latency != shot.extra_latency
            or live.pred_taken != shot.pred_taken
            or live.pred_target != shot.pred_target
            or live.history_token != shot.history_token
            or live.state != shot.state
        ):
            return None
        # Mirror _UopShot's liveness rules: frontend_ready/wait_count are
        # read only while ST_WAITING (the wakeup path), producers only
        # until execution starts, dependents only while still waiting.
        # complete_cycle is inert after its exec_heap push (the heap entry
        # carries its own copy and is compared, shifted, below).
        if live.state == ST_WAITING:
            if live.wait_count != shot.wait_count:
                return None
            # Wakeup uses max(cycle, frontend_ready): a frontend_ready
            # already in the past (on both sides) can never win that max
            # again, so only future values must line up shifted.
            if live.frontend_ready != shot.frontend_ready + delta and not (
                shot.frontend_ready <= snap.t0 and live.frontend_ready <= core.cycle
            ):
                return None
        prods: List[Tuple[int, str, int]] = []
        if live.state < ST_EXECUTING:
            for reg in sorted(live.producers):
                prod = live.producers[reg]
                idx = index_of.get(id(prod))
                if idx is not None:
                    prods.append((reg, "r", idx))
                elif prod.state == ST_DONE and not prod.squashed:
                    q1 = prod.seq - seq0
                    if not 0 <= q1 < cc:
                        return None
                    prods.append((reg, "x", q1 - cc))
                    ext_fixups.append((prod, q1))
                else:
                    return None
        if tuple(prods) != shot.producers:
            return None
        deps: List[int] = []
        for dep in live.dependents:
            if dep.squashed or dep.state != ST_WAITING:
                continue
            idx = index_of.get(id(dep))
            if idx is None:
                return None
            deps.append(idx)
        if tuple(sorted(deps)) != shot.dependents:
            return None
    # Rename map, LSQ membership, scheduler heaps: same picture, shifted.
    rename: List[Tuple[int, int]] = []
    for reg in sorted(core.reg_producer):
        idx = index_of.get(id(core.reg_producer[reg]))
        if idx is None:
            return None
        rename.append((reg, idx))
    if tuple(rename) != snap.rename:
        return None
    if tuple(
        index_of.get(id(uq), -1) for uq in core.lsq.loads
    ) != snap.loads_idx or tuple(
        index_of.get(id(uq), -1) for uq in core.lsq.stores
    ) != snap.stores_idx:
        return None
    # Heaps are compared in sorted (t, seq) order — the only order heappop
    # can observe (the internal array layout depends on push/pop history).
    # Entries already eligible at the snapshot (t0 <= snap.t0) are lagging
    # backlog: their exact timestamp is dead — pops compare it against the
    # current cycle, which it is already below on both sides — but their
    # *relative* order still decides bandwidth-limited pop order, and the
    # pairwise sorted zip enforces exactly that.  Future entries must shift.
    for heap, shadow in ((core.ready_heap, snap.ready), (core.exec_heap, snap.execq)):
        if len(heap) != len(shadow):
            return None
        for (t, seq, uop), (t0, s0q, idx) in zip(sorted(heap), shadow):
            if seq != s0q + cc or uop is not rob[idx]:
                return None
            if t != t0 + delta and not (t0 <= snap.t0 and t <= core.cycle):
                return None

    match = _Match()
    match.cc = cc
    match.delta = delta
    match.ext_fixups = ext_fixups
    match.pred_delta = pred.predictions - snap.predictions
    match.icache_hits_d = icache.hits - snap.icache_hits
    match.icache_misses_d = icache.misses - snap.icache_misses
    match.uop_hits_d = uc.hits - snap.uop_hits
    match.uop_misses_d = uc.misses - snap.uop_misses
    match.fsu_shift = fsu_shift
    return match


def _build_template(commits: Sequence[UOp]) -> Optional[List[Tuple]]:
    """Decode the committed window into (op, dest, src_regs, imm, target, pc)
    tuples — the loop body B.  None if anything is beyond the evaluator.

    An RDTSC slot carries its recorded (period-0) reading in ``imm``."""
    body: List[Tuple] = []
    for uop in commits:
        if (
            uop.op not in SUPPORTED_OPS
            or uop.is_micro
            or uop.from_interrupt
            or uop.semantic
            or not (uop.macro_first and uop.macro_last)
        ):
            return None
        op = uop.op
        nsrc = len(uop.src_regs)
        if op is Op.STORE:
            if nsrc < 2:
                return None
        elif op in (Op.MOV, Op.SHL, Op.SHR, Op.BEQ, Op.BNE, Op.BLT, Op.BGE):
            if nsrc < 1:
                return None
        imm = uop.result if op is Op.RDTSC else uop.imm
        body.append((op, uop.dest, uop.src_regs, imm, uop.target, uop.pc))
    return body


def _evaluate(
    body: Sequence[Tuple],
    regs0: Sequence[int],
    horizon: int,
    shared_read,
    delta: int,
) -> Tuple[List[Tuple], List[List[int]], int]:
    """Architecturally execute positions ``[0, horizon)`` of the unrolled
    loop, decoding position ``p`` from ``body[p % cc]``.  An RDTSC in period
    ``k = p // cc`` reads its recorded value plus ``k * delta``: sigma shifts
    every timestamp by ``delta`` cycles per period.

    Returns ``(records, regs_at, f)`` where ``records[p]`` is
    ``(result, addr, store_value, taken)``, ``regs_at[m]`` is the register
    file after ``m`` full periods, and ``f`` is the first position whose
    behaviour leaves the recorded loop (a branch off the body, or a load
    aliasing an earlier replayed store) — ``horizon`` if none diverge.
    Loads read live shared memory; the alias guard makes that sound by
    fencing ``f`` below any position that could observe a deferred store.
    """
    cc = len(body)
    regs = list(regs0)
    records: List[Tuple] = []
    regs_at: List[List[int]] = [list(regs)]
    store_words: set = set()
    # Per-slot decode hoisted out of the loop: ``op in _BRANCH_OPS`` hashes
    # the enum on every position, and the successor pc is fixed per slot.
    # This cuts the evaluator's time by about 12% on long windows.
    is_branch = [slot[0] in _BRANCH_OPS for slot in body]
    next_on_body = [body[(j + 1) % cc][5] for j in range(cc)]
    p = 0
    j = 0  # p % cc
    while p < horizon:
        op, dest, src_regs, imm, target, pc = body[j]
        result = 0
        addr = None
        store_value = 0
        taken = False
        if op is Op.LOAD:
            if src_regs:
                addr = (regs[src_regs[0]] + imm) & MASK64
            else:
                addr = imm
            if (addr & ~0x7) in store_words:
                return records, regs_at, p
            result = shared_read(addr)
        elif op is Op.STORE:
            if src_regs:
                addr = (regs[src_regs[0]] + imm) & MASK64
            else:
                addr = imm
            store_value = regs[src_regs[1]]
            store_words.add(addr & ~0x7)
        elif op is Op.JMP:
            taken = True
        elif is_branch[j]:
            lhs = regs[src_regs[0]]
            rhs = regs[src_regs[1]] if len(src_regs) > 1 else imm
            if op is Op.BEQ:
                taken = lhs == rhs
            elif op is Op.BNE:
                taken = lhs != rhs
            elif op is Op.BLT:
                taken = _signed(lhs) < _signed(rhs)
            else:  # BGE
                taken = _signed(lhs) >= _signed(rhs)
        elif op is Op.MOVI:
            result = imm & MASK64
        elif op is Op.RDTSC:
            result = (imm + (p // cc) * delta) & MASK64
        elif op is Op.MOV:
            result = regs[src_regs[0]]
        elif op is Op.SHL:
            result = (regs[src_regs[0]] << (imm & 63)) & MASK64
        elif op is Op.SHR:
            result = (regs[src_regs[0]] & MASK64) >> (imm & 63)
        else:
            a = regs[src_regs[0]] if src_regs else 0
            b = regs[src_regs[1]] if len(src_regs) > 1 else imm
            if op in (Op.ADD, Op.FADD):
                result = (a + b) & MASK64
            elif op is Op.SUB:
                result = (a - b) & MASK64
            elif op in (Op.MUL, Op.FMUL):
                result = (a * b) & MASK64
            elif op in (Op.DIV, Op.FDIV):
                result = (a // b) & MASK64 if b else 0
            elif op is Op.AND:
                result = a & b
            elif op is Op.OR:
                result = a | b
            else:  # XOR
                result = (a ^ b) & MASK64
        records.append((result, addr, store_value, taken))
        if dest is not None:
            regs[dest] = result & MASK64
        # Control-flow guard: the implied successor must stay on the body.
        next_pc = target if taken else pc + 1
        if next_pc != next_on_body[j]:
            return records, regs_at, p
        p += 1
        j += 1
        if j == cc:
            j = 0
            regs_at.append(list(regs))
    return records, regs_at, horizon


def _values_ok(u, rec: Tuple, op) -> bool:
    """Do a ROB slot's data fields agree with the functional record for its
    position?  (For snapshots `u` is a :class:`_UopShot` — same field names.)"""
    result, addr, store_value, taken = rec
    if op in _BRANCH_OPS:
        # Predicted direction must equal the functional outcome no matter
        # the state, else a squash is pending inside the replay window.
        if u.pred_taken != taken or (taken and u.pred_target != u.target):
            return False
    if u.state >= ST_EXECUTING:
        if op is Op.LOAD:
            return u.addr == addr and u.result == result
        if op is Op.STORE:
            return u.addr == addr and u.store_value == store_value
        if op in _BRANCH_OPS:
            return u.actual_taken == taken and u.actual_target == u.target
        return u.result == result
    return (
        u.result == 0
        and u.addr is None
        and u.store_value == 0
        and not u.actual_taken
        and u.actual_target is None
    )


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
            sets[index] = self._copies[index]
        cache.hits += self.hits
        cache.misses += self.misses


def _probe_periods(core, mem_template, records, cc: int, n: int):
    """Prove the template's load/store latencies repeat for ``n`` periods.

    Returns ``(n_ok, dcache_overlay, l2_overlay)`` — ``n_ok`` may be smaller
    than requested if some period diverges (overlays are rebuilt so they
    cover exactly the validated periods); ``(0, None, None)`` if even the
    first period fails."""
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


def _horizons(others) -> Tuple[int, ...]:
    """The cached next-activity cycle of every live neighbour.  It moves
    when a neighbour steps on its own schedule, a timeline event resets it,
    and a halt drops the core from the tuple, so an unchanged tuple means no
    neighbour has touched shared state since it was taken.  (A neighbour
    that the reset makes step on the event's cycle, and that re-derives the
    same horizon, had nothing to do there; ``MultiCoreSystem.run`` reopens
    its idle anchor when a replay follows.)"""
    return tuple(other._next_activity for other in others if not other.halted)


def _eligible(core, others, cycle: int) -> bool:
    """Is this core in a state where a recording could ever replay safely?

    Everything notification-visible must be quiet: every other core halted
    or quiescent past the next boundary (a neighbour that steps could store
    into the window, and would drop the recording at once), no pending or
    in-flight interrupt work, no armed fault interceptor, no invariant
    write-observers, no microcode, and a delivery strategy whose idle state
    is fully described by an empty ``pending_inventory()``."""
    for other in others:
        if not other.halted and other._next_activity <= cycle + 1:
            return False
    strategy = core.strategy
    return (
        not core.halted
        and core.wait_reason is None
        and core.delivery_state is None
        and core.current_interrupt is None
        and not core.interrupt_path
        and not core.uintr.in_handler
        and not core.apic._pending
        and not core.apic.slow_path_queue
        and core.apic.fault_interceptor is None
        and core.inject_pos >= len(core.inject_queue)
        and core.macro_pos >= len(core.macro_queue)
        and core._serialize_until < 0
        and isinstance(strategy, _REPLAY_SAFE_STRATEGIES)
        and not strategy.pending_inventory()
        and not core.shared._write_observers
    )


class MacroController:
    """Per-core driver of the detect → record → match → replay loop.

    Installed on ``core._macro`` by the multi-core fast path when
    ``REPRO_MACRO`` is enabled; ``on_boundary`` is called once per core per
    cycle boundary and returns the number of cycles replay just covered
    (0 when the interpreter should simply step)."""

    __slots__ = (
        "core",
        "others",
        "hotness",
        "_timeline_peek",
        "_scanning",
        "_want_arm",
        "_rearm_by",
        "_scan_deadline",
        "_rescans",
        "_snap",
        "_quiet",
        "_commits",
        "_mem_log",
    )

    def __init__(self, core, cores, timeline_peek=None) -> None:
        self.core = core
        self.others = tuple(other for other in cores if other is not core)
        self.hotness = HotnessTracker()
        self._timeline_peek = timeline_peek
        self._scanning = False
        self._want_arm = False
        #: While the loop stays hot after a replay the outside world cut
        #: short: the last cycle at which to re-arm without re-earning
        #: hotness (-1 otherwise).
        self._rearm_by = -1
        self._scan_deadline = 0
        self._rescans = 0
        self._snap: Optional[_Snapshot] = None
        #: Neighbour horizons (:func:`_horizons`) when the recording armed.
        self._quiet: Tuple[int, ...] = ()
        self._commits: List[UOp] = []
        self._mem_log: List[Tuple] = []

    # -- hooks from Core ------------------------------------------------
    def note_backedge(self, pc: int) -> None:
        if not self._scanning and self.hotness.note_backedge(pc) is not None:
            self._want_arm = True

    # -- the boundary hook ----------------------------------------------
    def on_boundary(self, cycle: int, end: int) -> int:
        """Called pre-step at each cycle boundary; returns replayed cycles."""
        if self._scanning:
            core = self.core
            snap = self._snap
            if (
                core.halted
                or core.apic._pending
                or core.wait_reason is not None
                or core.delivery_state is not None
                or core.stats.squashed_uops != snap.stats["squashed_uops"]
            ):
                self._abort_form()
                return 0
            if _horizons(self.others) != self._quiet:
                # A neighbour stepped or was woken: the window no longer
                # shows this core alone.  The loop itself did not cool,
                # but a neighbour that keeps waking up would make every
                # re-arm pay a snapshot for nothing: cap the streak.
                rescans = self._rescans
                self._abort_form()
                if rescans < MAX_RESCANS:
                    self._stay_hot(cycle)
                    self._rescans = rescans + 1
                return 0
            if cycle > self._scan_deadline:
                self._expire_scan(cycle)
                return 0
            if _fingerprint(core) != snap.fingerprint:
                return 0
            match = _sigma_match(core, snap, self._commits)
            if match is None:
                return 0
            return self._replay(match, cycle, end)
        if self._want_arm:
            if self._rearm_by < 0:
                self._want_arm = False
                self._try_arm(cycle)
            elif cycle > self._rearm_by:
                self._want_arm = False
                self._rearm_by = -1
            elif _eligible(self.core, self.others, cycle):
                self._try_arm(cycle)  # re-entry: the neighbours are quiet
        return 0

    # -- internals -------------------------------------------------------
    def _timeline_head(self) -> Optional[int]:
        peek = self._timeline_peek
        return peek() if peek is not None else None

    def _reset(self) -> None:
        self._scanning = False
        self._want_arm = False
        self._rearm_by = -1
        self._rescans = 0
        self._snap = None
        self._quiet = ()
        self.core._macro_rec = None
        self._commits.clear()
        self._mem_log.clear()
        self.hotness.reset()

    def _stay_hot(self, cycle: int) -> None:
        """Re-arm at the first boundary (up to ``MAX_SCAN`` cycles away)
        where every neighbour is quiet again.  Waiting polls only
        :func:`_eligible`; the loop does not re-earn its hotness."""
        self._want_arm = True
        self._rearm_by = cycle + MAX_SCAN

    def _abort_form(self) -> None:
        GLOBAL_COUNTERS.macro_form_aborts += 1
        self._reset()

    def _expire_scan(self, cycle: int) -> None:
        """Scan window expired without a repeat — often the loop is still
        warming caches, and the *next* snapshot will be the one that
        recurs.  Re-arm with a fresh snapshot right away (bounded) rather
        than falling all the way back to hotness accumulation: the loop
        did not get any less hot."""
        GLOBAL_COUNTERS.macro_form_aborts += 1
        rescans = self._rescans
        self._reset()
        if rescans < MAX_RESCANS:
            self._try_arm(cycle)
            if self._scanning:
                self._rescans = rescans + 1

    def _try_arm(self, cycle: int) -> None:
        core = self.core
        if not _eligible(core, self.others, cycle):
            self.hotness.reset()
            return
        for timer in (core.uintr.kb_timer, core.apic_timer):
            if timer.armed:
                fire = timer.next_fire_cycle()
                if fire is not None and fire - cycle < MIN_ARM_HEADROOM:
                    self.hotness.reset()
                    return
        head = self._timeline_head()
        if head is not None and head - cycle < MIN_ARM_HEADROOM:
            self.hotness.reset()
            return
        snap = _snapshot_core(core)
        if snap is None:
            self._abort_form()  # snapshot refused
            return
        self._snap = snap
        self._quiet = _horizons(self.others)
        self._commits.clear()
        self._mem_log.clear()
        core._macro_rec = self._mem_log
        self._scanning = True
        self._scan_deadline = cycle + MAX_SCAN

    def _replay(self, match: _Match, cycle: int, end: int) -> int:
        core = self.core
        snap = self._snap
        cc = match.cc
        delta = match.delta
        rob_len = len(core.rob)

        # Period budget from every notification-visible horizon.  Landing
        # exactly on a horizon cycle is safe: the event fires (or the
        # neighbour steps) there natively.  A stop at a timeline event or a
        # neighbour wake-up (``n_bound == wake_bound``) leaves the loop hot;
        # an own-timer deadline does not (the core is about to take an
        # interrupt).
        n_bound = (end - cycle) // delta
        limited_by_event = False
        if n_bound > MAX_PERIODS:
            n_bound = MAX_PERIODS
        wake_bound = None
        head = self._timeline_head()
        wake = min(self._quiet) if self._quiet else None
        if head is not None and (wake is None or head < wake):
            wake = head
        if wake is not None:
            bound = (wake - cycle) // delta
            if bound < n_bound:
                n_bound = wake_bound = bound
                limited_by_event = True
        for timer in (core.uintr.kb_timer, core.apic_timer):
            if timer.armed:
                fire = timer.next_fire_cycle()
                if fire is not None:
                    bound = (fire - cycle) // delta
                    if bound < n_bound:
                        n_bound = bound
                        limited_by_event = True
        if n_bound < 1:
            GLOBAL_COUNTERS.macro_bail_event += 1
            self._abort_form()
            if n_bound == wake_bound:
                self._stay_hot(cycle)
            return 0

        body = _build_template(self._commits)
        if body is None:
            self._abort_form()
            return 0
        horizon = (n_bound + 1) * cc + rob_len
        records, regs_at, f = _evaluate(
            body, snap.arch_regs, horizon, core.shared.read, delta
        )
        # The recorded window itself must be reproducible: the evaluator's
        # registers after one period must equal the live register file.
        if f < cc + rob_len or regs_at[1] != core.arch_regs:
            self._abort_form()
            return 0
        # Memory template: position-resolved accesses with fixed latencies.
        mem_template: List[Tuple[int, int]] = []
        ok = True
        for seq, is_load, latency, forwarded, addr in self._mem_log:
            pos = seq - snap.seq0
            if forwarded or pos < 0 or pos >= cc + rob_len:
                ok = False
                break
            expected = Op.LOAD if is_load else Op.STORE
            if body[pos % cc][0] is not expected or records[pos][1] != addr:
                ok = False
                break
            mem_template.append((pos, latency))
        if not ok:
            self._abort_form()
            return 0
        # Every in-flight value (snapshot and live ends) must agree with the
        # functional stream at its window position.
        shots = snap.shots
        for i, live in enumerate(core.rob):
            op = shots[i].op
            if not _values_ok(shots[i], records[i], op) or not _values_ok(
                live, records[cc + i], op
            ):
                GLOBAL_COUNTERS.macro_form_aborts += 1
                self._reset()
                return 0
        GLOBAL_COUNTERS.macro_formations += 1

        if f < horizon:
            n_func = (f - rob_len) // cc - 1
        else:
            n_func = n_bound
        n = n_bound if n_bound < n_func else n_func
        if n < 1:
            GLOBAL_COUNTERS.macro_bail_divergence += 1
            self._reset()
            return 0
        n_ok, dcache_ov, l2_ov = _probe_periods(core, mem_template, records, cc, n)
        if n_ok < 1:
            GLOBAL_COUNTERS.macro_bail_divergence += 1
            self._reset()
            return 0
        diverged = n_func < n_bound or n_ok < n
        if diverged:
            GLOBAL_COUNTERS.macro_bail_divergence += 1
        elif limited_by_event:
            GLOBAL_COUNTERS.macro_bail_event += 1
        else:
            GLOBAL_COUNTERS.macro_bail_horizon += 1
        n = n_ok

        self._apply(match, records, regs_at, body, n, dcache_ov, l2_ov)
        GLOBAL_COUNTERS.macro_replays += 1
        GLOBAL_COUNTERS.macro_replayed_periods += n
        GLOBAL_COUNTERS.macro_replayed_cycles += n * delta
        self._reset()
        if n_bound == wake_bound and not diverged:
            self._stay_hot(cycle + n * delta)
        return n * delta

    def _apply(self, match, records, regs_at, body, n, dcache_ov, l2_ov) -> None:
        """Jump the core from S1 to sigma^n(S1) in place."""
        core = self.core
        snap = self._snap
        cc = match.cc
        shift_cycles = n * match.delta
        shift_seq = n * cc
        # Architectural registers and the committed store write-set.
        core.arch_regs[:] = regs_at[n + 1]
        store_slots = [j for j in range(cc) if body[j][0] is Op.STORE]
        if store_slots:
            shared = core.shared
            core_id = core.core_id
            for m in range(1, n + 1):
                base = m * cc
                for j in store_slots:
                    rec = records[base + j]
                    shared.write(rec[1], rec[2] & MASK64, core_id=core_id)
        # Model counters: n more windows' worth of deltas.
        stats = core.stats.__dict__
        s0 = snap.stats
        for name in s0:
            stats[name] += (stats[name] - s0[name]) * n
        core.cycle += shift_cycles
        core._seq += shift_seq
        core.last_program_commit_cycle += shift_cycles
        if match.fsu_shift:
            core.fetch_stall_until += shift_cycles
        core.predictor.predictions += match.pred_delta * n
        icache = core.icache.cache
        icache.hits += match.icache_hits_d * n
        icache.misses += match.icache_misses_d * n
        uc = core.uop_cache
        uc.hits += match.uop_hits_d * n
        uc.misses += match.uop_misses_d * n
        # In-flight uops: shift timestamps/sequence, refresh data fields from
        # the functional stream at their new window positions.
        base = (n + 1) * cc
        for i, uop in enumerate(core.rob):
            uop.seq += shift_seq
            uop.frontend_ready += shift_cycles
            if uop.complete_cycle != -1:
                uop.complete_cycle += shift_cycles
            if uop.state >= ST_EXECUTING:
                result, addr, store_value, taken = records[base + i]
                op = uop.op
                if op is Op.LOAD:
                    uop.addr = addr
                    uop.result = result
                elif op is Op.STORE:
                    uop.addr = addr
                    uop.store_value = store_value
                elif op in _BRANCH_OPS:
                    uop.actual_taken = taken
                else:
                    uop.result = result
        for prod, q1 in match.ext_fixups:
            prod.result = records[q1 + shift_seq][0]
        core.ready_heap[:] = [
            (t + shift_cycles, s + shift_seq, u) for (t, s, u) in core.ready_heap
        ]
        core.exec_heap[:] = [
            (t + shift_cycles, s + shift_seq, u) for (t, s, u) in core.exec_heap
        ]
        dcache_ov.flush_into_real()
        l2_ov.flush_into_real()

