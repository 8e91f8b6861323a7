"""The out-of-order core: fetch, rename, issue, execute, commit — per cycle.

One :meth:`Core.step` call advances the core by one cycle, in back-to-front
stage order (commit, completions, issue, fetch) so each stage works on the
previous cycle's state.  Interrupt-delivery behaviour is delegated to a
:class:`repro.cpu.delivery.DeliveryStrategy`, which is where flush / drain /
tracking differ.
"""

from __future__ import annotations

import heapq
from collections import deque
from operator import itemgetter
from dataclasses import dataclass
from typing import Callable, Deque, Dict, List, Optional, Sequence, Tuple

from repro import obs as _obs
from repro.common.errors import ProtocolError, SimulationError
from repro.cpu.backend import (
    C_LOAD,
    C_STORE,
    C_SPECIAL,
    STATIC_FIELDS,
    ST_DONE,
    ST_EXECUTING,
    ST_READY,
    ST_WAITING,
    X_ADD,
    X_AND,
    X_BEQ,
    X_BLT,
    X_BNE,
    X_CALL,
    X_DIV,
    X_JMP,
    X_LOAD,
    X_MOV,
    X_MOVI,
    X_MUL,
    X_OR,
    X_RDTSC,
    X_RET,
    X_SHL,
    X_SHR,
    X_STORE,
    X_SUB,
    X_TESTUI,
    X_UIRET,
    X_XOR,
    NUM_UNITS,
    FunctionalUnits,
    LoadStoreQueues,
    UOp,
    squash_penalty_cycles,
    template,
)
from repro.cpu.branch import BranchPredictor
from repro.cpu.cache import InstructionCache, MemoryHierarchy, SharedMemory
from repro.cpu.config import SystemConfig
from repro.cpu.delivery import DeliveryStrategy
from repro.cpu.isa import NUM_REGS, Op, RegNames
from repro.cpu import microcode as mc
from repro.cpu.program import Program, instruction_address
from repro.cpu.uintr_state import KBTimerState, UserInterruptFile
from repro.cpu.uopcache import UopCache
from repro.sim.trace import TraceRecorder
from repro.uintr.apic import InterruptKind, LocalApic, PendingInterrupt
from repro.uintr.upid import UPID

MASK64 = (1 << 64) - 1
#: XOR-ing the sign bit maps signed 64-bit order onto unsigned order.
SIGN64 = 1 << 63
#: Pseudo-register key for microcode chain dependences.
CHAIN_KEY = -1
#: Store-to-load forwarding latency.
FORWARD_LATENCY = 5
#: "No activity in sight" sentinel for :meth:`Core.next_activity_cycle`.
FAR_FUTURE = 1 << 62
#: Cap on the adaptive horizon-scan backoff: after a long busy streak the
#: fast engine re-checks for skip opportunities at most once per CAP stepped
#: cycles.  The backoff ramps at a quarter of the streak so workloads with
#: short, frequent stalls (streaming copies) still detect quiescence within
#: a couple of cycles, while truly dense code (spin loops, tight ALU chains)
#: amortizes the scan 1:CAP.  Bounds both the wasted scans on dense code and
#: the quiescence-detection delay on stall-heavy code.
NA_BACKOFF_CAP = 16

# Fetch classes of a decoded program instruction (see ``Core._decode``):
# what the fetch stage does with it beyond dispatching one µop.
F_PLAIN, F_LOAD, F_STORE, F_BRANCH, F_CALLRET, F_UIRET, F_HALT, F_SENDUIPI = range(8)
_FETCH_CLASS = {
    Op.LOAD: F_LOAD,
    Op.STORE: F_STORE,
    **{op: F_BRANCH for op in (Op.BEQ, Op.BNE, Op.BLT, Op.BGE, Op.JMP)},
    Op.CALL: F_CALLRET,
    Op.RET: F_CALLRET,
    Op.UIRET: F_UIRET,
    Op.HALT: F_HALT,
    Op.SENDUIPI: F_SENDUIPI,
}

# Template fields read outside a UOp: the µop-cache fill, the senduipi
# UITT index.
_FILL_FIELDS = itemgetter(
    *(STATIC_FIELDS.index(name) for name in ("instr", "dest", "src_regs", "extra_latency"))
)
_IMM_AT = STATIC_FIELDS.index("imm")

# Members read on the rare paths (an ``Op.X`` attribute load costs as much
# as a dict lookup).
_JMP, _STORE, _CALL = Op.JMP, Op.STORE, Op.CALL
_CLUI, _STUI, _SETTIMER, _CLRTIMER, _UIRET = Op.CLUI, Op.STUI, Op.SETTIMER, Op.CLRTIMER, Op.UIRET
#: The base class's no-op commit hook: ``_commit_stage`` skips strategies
#: that keep it.
_BASE_ON_COMMIT = DeliveryStrategy.on_commit


@dataclass
class CoreStats:
    """Counters the experiments read out."""

    cycles: int = 0
    committed_instructions: int = 0
    committed_uops: int = 0
    committed_handler_instructions: int = 0
    squashed_uops: int = 0
    fetched_uops: int = 0
    interrupts_delivered: int = 0
    interrupt_flushes: int = 0
    branch_squashes: int = 0
    memory_order_squashes: int = 0
    serialize_stall_cycles: int = 0

    def snapshot(self) -> "CoreStats":
        return CoreStats(**self.__dict__)


class Core:
    """One out-of-order core executing a :class:`Program`."""

    # Slotted (PRO103): a core is the densest object in the cycle tier, and
    # slots also turn accidental attribute scribbles (a fault injector or
    # test typo) into an immediate AttributeError instead of silent state
    # the engines could diverge on.
    __slots__ = (
        "core_id",
        "program",
        "config",
        "params",
        "timing",
        "shared",
        "apic",
        "strategy",
        "send_ipi",
        "trace",
        "hierarchy",
        "icache",
        "uop_cache",
        "predictor",
        "fus",
        "lsq",
        "uintr",
        "uitt",
        "apic_timer",
        "stats",
        "arch_regs",
        "cycle",
        "halted",
        "engine_cycles_skipped",
        "_next_activity",
        "_idle_anchor",
        "_na_streak",
        "_na_backoff",
        "_prog_len",
        "_decoded",
        "_routines",
        "_boundary_hook",
        "rob",
        "reg_producer",
        "ready_heap",
        "exec_heap",
        "iq_count",
        "_seq",
        "_serialize_until",
        "fetch_pc",
        "fetch_stall_until",
        "wait_reason",
        "inject_queue",
        "inject_pos",
        "macro_queue",
        "macro_pos",
        "macro_pc",
        "interrupt_path",
        "_last_chain_uop",
        "_current_fetch_line",
        "delivery_state",
        "current_interrupt",
        "last_program_commit_cycle",
        "_notif_pir",
        "_trace_resume_pending",
        "_conservative_loads",
        "invariant_probe",
        "_macro",
        "_macro_rec",
    )

    def __init__(
        self,
        core_id: int,
        program: Program,
        config: SystemConfig,
        shared_memory: SharedMemory,
        apic: LocalApic,
        strategy: "DeliveryStrategy",
        send_ipi: Optional[Callable[[int, int], None]] = None,
        trace: Optional[TraceRecorder] = None,
    ) -> None:
        self.core_id = core_id
        self.program = program
        self.config = config
        self.params = config.core
        self.timing = config.timing
        self.shared = shared_memory
        self.apic = apic
        self.strategy = strategy
        self.send_ipi = send_ipi or (lambda dest, vector: None)
        self.trace = trace or TraceRecorder(enabled=False)

        self.hierarchy = MemoryHierarchy(core_id, config.dcache, config.memory, shared_memory)
        self.icache = InstructionCache(config.icache, config.memory)
        self.uop_cache = UopCache()
        self.predictor = BranchPredictor()
        self.fus = FunctionalUnits(config.core)
        self.lsq = LoadStoreQueues(config.core)
        self.uintr = UserInterruptFile()
        self.uitt = None  # set by MultiCoreSystem.register_sender
        #: The conventional local APIC timer (the kernel's timer).  Exists
        #: so the Skyloft UINV-overload trick (§7) can be reproduced; xUI
        #: adds the separate KB timer precisely so this one stays with the
        #: kernel (§4.3).
        self.apic_timer = KBTimerState()
        self.stats = CoreStats()

        self.arch_regs: List[int] = [0] * NUM_REGS
        self.cycle = 0
        self.halted = False

        # Engine telemetry (NOT part of CoreStats: simulated results must be
        # byte-identical between the naive and cycle-skipping engines, so
        # skip accounting lives outside the model counters).
        self.engine_cycles_skipped = 0
        #: Cached next-activity horizon, maintained by MultiCoreSystem.run.
        self._next_activity = 0
        #: First cycle of the current idle stretch (-1 when active); idle
        #: accounting is deferred until the core next steps (lazy flush).
        self._idle_anchor = -1
        #: Adaptive horizon-scan backoff: consecutive "no skip possible"
        #: answers from :meth:`next_activity_cycle`, and how many stepped
        #: cycles to skip re-asking.  A busy pipeline (dense compute) would
        #: otherwise pay the horizon scan every cycle for nothing; stepping
        #: without asking is always safe, merely conservative.
        self._na_streak = 0
        self._na_backoff = 0
        self._prog_len = len(program)
        #: Decode memo, one entry per program index, filled on first fetch
        #: (:meth:`_decode`): ``(icache line, address, fetch class, µop
        #: cache set, template)``.
        self._decoded: List[Optional[tuple]] = [None] * self._prog_len
        #: Decoded microcode routines, keyed by :meth:`_routine`.
        self._routines: Dict[tuple, Tuple[tuple, ...]] = {}
        #: ``strategy.try_inject_at_boundary``, or None when the strategy
        #: keeps the base class's no-op (fetch then skips the call).
        self._boundary_hook: Optional[Callable[[], bool]] = (
            None
            if type(strategy).try_inject_at_boundary is DeliveryStrategy.try_inject_at_boundary
            else strategy.try_inject_at_boundary
        )

        # Back-end state
        self.rob: Deque[UOp] = deque()
        self.reg_producer: Dict[int, UOp] = {}
        self.ready_heap: List[Tuple[int, int, UOp]] = []
        self.exec_heap: List[Tuple[int, int, UOp]] = []
        self.iq_count = 0
        self._seq = 0
        self._serialize_until = -1

        # Front-end state
        self.fetch_pc = program.entry_index
        self.fetch_stall_until = 0
        self.wait_reason: Optional[str] = None  # "uiret" | "halt" | "drain"
        # Queues hold decoded routines (tuples of µop templates shared
        # across expansions); they are rebound on reset, never mutated in
        # place, and are non-empty exactly while a routine is unfinished.
        self.inject_queue: Sequence[tuple] = ()
        self.inject_pos = 0
        self.macro_queue: Sequence[tuple] = ()
        self.macro_pos = 0
        self.macro_pc = -1
        self.interrupt_path = False
        self._last_chain_uop: Optional[UOp] = None
        self._current_fetch_line = -1

        # Interrupt delivery state (driven by the strategy)
        self.delivery_state: Optional[str] = None  # None | "inflight"
        self.current_interrupt: Optional[PendingInterrupt] = None
        self.last_program_commit_cycle = 0
        self._notif_pir = 0
        self._trace_resume_pending = False
        #: (pc, is_micro) of loads that have violated memory ordering:
        #: they wait for older store addresses on later executions.
        self._conservative_loads: set = set()
        #: Optional invariant hook (see ``repro.faults.invariants``): called
        #: as ``probe(event, core)`` after interrupt injection ("inject"),
        #: after a misspeculation squash ("squash"), after a full flush
        #: ("flush"), and at uiret commit ("uiret").  Probes must only read
        #: state — simulated results stay byte-identical with or without one.
        self.invariant_probe: Optional[Callable[[str, "Core"], None]] = None
        #: Macro-op trace tier (``repro.cpu.macroop``): this core's recorder,
        #: which the multi-core fast path installs when ``REPRO_MACRO`` is on,
        #: and the active recording's memory-access log (a list, or None when
        #: not recording).  Both are engine plumbing — never simulated state.
        self._macro = None
        self._macro_rec: Optional[list] = None

        strategy.attach(self)

    # ------------------------------------------------------------------
    # Per-cycle step
    # ------------------------------------------------------------------

    def step(self, cycle: int) -> None:
        """Advance the core by one cycle (``cycle`` is the global clock).

        Each stage is entered only when it has work this cycle: a done ROB
        head to retire, a due completion, a due ready entry (or a stalled
        serializing µop to count), and fetch."""
        if self.halted:
            return
        self.cycle = cycle
        self.stats.cycles += 1
        # Timer checks run only when an armed timer's deadline has come
        # (``KBTimerState.check_fire``'s own test), and strategies that
        # declare ``always_poll = False`` are polled only while an interrupt
        # is pending — both are pure no-ops otherwise.
        timer = self.uintr.kb_timer
        if timer.armed and cycle >= timer.deadline:
            self._check_kb_timer()
        else:
            timer = self.apic_timer
            if timer.armed and cycle >= timer.deadline:
                self._check_kb_timer()
        strategy = self.strategy
        if strategy.always_poll or self.apic._pending:
            strategy.on_cycle()
        rob = self.rob
        if rob and rob[0].state == ST_DONE:
            self._commit_stage()
            if self.halted:
                return
        exec_heap = self.exec_heap
        if exec_heap and exec_heap[0][0] <= cycle:
            self._complete_stage()
        if self._serialize_until >= 0:
            # A serializing µop is in flight: issue stalls, and counts it.
            self.stats.serialize_stall_cycles += 1
        else:
            ready_heap = self.ready_heap
            if ready_heap and ready_heap[0][0] <= cycle:
                self._issue_stage()
        self._fetch_stage()

    # ------------------------------------------------------------------
    # Cycle skipping (the fast engine)
    # ------------------------------------------------------------------

    def note_skipped(self, cycles: int) -> None:
        """Account ``cycles`` quiescent cycles without stepping them.

        A quiescent cycle in the naive stepper touches two counters —
        ``stats.cycles`` (every stepped cycle) and
        ``stats.serialize_stall_cycles`` (the issue stage increments it every
        cycle a serializing µop is in flight) — and, crucially, it also
        *re-defers* every due-but-blocked ready-heap entry to the next cycle
        (see ``_issue_stage``).  That time bump is not cosmetic: entries pop
        in ``(time, seq)`` order, so a blocked load left at a stale time
        would later pop *ahead* of a store that became ready mid-window,
        flipping speculative issue order and with it the memory-order squash
        pattern.  All callers share one convention — ``self.cycle`` is the
        last stepped cycle and the next step lands at
        ``self.cycle + cycles + 1`` — so the heap is normalized to exactly
        the state the naive stepper would arrive with.
        """
        self.stats.cycles += cycles
        self.engine_cycles_skipped += cycles
        if self._serialize_until >= 0:
            # Naive's issue stage early-outs while a serializing µop is in
            # flight: it counts the stall and pops nothing.
            self.stats.serialize_stall_cycles += cycles
            return
        ready_heap = self.ready_heap
        target = self.cycle + cycles + 1
        if not ready_heap or ready_heap[0][0] >= target:
            return
        # The skip was only taken because no due entry is issuable, so every
        # entry due inside the window is either stale (dropped at its first
        # due pop) or blocked (re-deferred each cycle, landing at ``target``).
        deferred: List[Tuple[int, int, UOp]] = []
        while ready_heap and ready_heap[0][0] < target:
            _, seq, uop = heapq.heappop(ready_heap)
            if uop.squashed or uop.state != ST_READY:
                continue
            deferred.append((target, seq, uop))
        for item in deferred:
            heapq.heappush(ready_heap, item)

    def next_activity_cycle(self) -> int:
        """The earliest future cycle at which stepping this core could change
        any state — i.e. cycles strictly between :attr:`cycle` + 1 and the
        returned value are provably no-ops and may be skipped.

        Activity sources, mirroring the stage conditions in :meth:`step`:

        - commit: the ROB head is already done (retires next cycle);
        - completion: the ``exec_heap`` head's completion time (memory
          responses surface here too — the hierarchy is synchronous, so a
          miss's latency is fixed at issue);
        - issue: the ``ready_heap`` head's ready time (ignored while a
          serializing µop stalls issue; its completion re-enables issue and
          is covered by the exec head);
        - fetch: the fetch stage could dispatch (not waiting on
          uiret/halt/drain, PC in range or microcode queued, back-end room)
          at ``max(cycle+1, fetch_stall_until)``;
        - timers: an armed KB/APIC timer's next deadline;
        - delivery: a pending deliverable interrupt, or whatever the
          strategy reports via ``DeliveryStrategy.next_activity_cycle``
          (the base class conservatively disables skipping for strategies
          that have not opted in).
        """
        cycle = self.cycle
        horizon = cycle + 1
        rob = self.rob
        if rob and rob[0].state == ST_DONE:
            return horizon
        nxt = FAR_FUTURE
        exec_heap = self.exec_heap
        if exec_heap:
            t = exec_heap[0][0]
            if t <= horizon:
                return horizon
            if t < nxt:
                nxt = t
        if self._serialize_until < 0:
            ready_heap = self.ready_heap
            if ready_heap:
                t = ready_heap[0][0]
                if t <= horizon:
                    # The head is due, but issue may still be unable to act on
                    # it: stale entries (squashed / already issued) are merely
                    # dropped, and blocked entries (a serializing µop waiting
                    # for the ROB head, a conservative load waiting on older
                    # store addresses) are re-deferred every cycle.  Both are
                    # woken only by commit/completion progress, which the ROB
                    # and exec-heap clauses above already cover — so scan past
                    # them, mirroring ``_issue_stage``'s own filters, and force
                    # a step only if a genuinely issuable µop is due.
                    rob_head = rob[0] if rob else None
                    for rt, _, ruop in ready_heap:
                        if rt > horizon:
                            if rt < nxt:
                                nxt = rt
                            continue
                        if ruop.squashed or ruop.state != ST_READY:
                            continue  # stale: dropped whenever popped
                        if ruop.is_serializing and ruop is not rob_head:
                            continue  # deferred until it reaches the ROB head
                        if (
                            ruop.exec_class == X_LOAD
                            and (ruop.pc, ruop.is_micro) in self._conservative_loads
                            and self.lsq.has_unresolved_older_store(ruop)
                        ):
                            continue  # deferred until older stores resolve
                        return horizon
                elif t < nxt:
                    nxt = t
        if (
            self.wait_reason is None
            and (
                self.inject_pos < len(self.inject_queue)
                or self.macro_pos < len(self.macro_queue)
                or 0 <= self.fetch_pc < self._prog_len
            )
        ):
            # Back-end room: the fetch stage's own test.
            params = self.params
            lsq = self.lsq
            if (
                len(rob) < params.rob_size
                and self.iq_count < params.iq_size
                and len(lsq.loads) < params.lq_size
                and len(lsq.stores) < params.sq_size
            ):
                t = self.fetch_stall_until
                if t <= horizon:
                    return horizon
                if t < nxt:
                    nxt = t
        # Armed timers: the first integer cycle at or past the deadline
        # (``KBTimerState.next_fire_cycle``, inlined).
        uintr = self.uintr
        timer = uintr.kb_timer
        if timer.armed and timer.enabled:
            t = timer.deadline
            if t <= horizon:
                return horizon
            if t < nxt:
                nxt = -int(-t // 1)
        timer = self.apic_timer
        if timer.armed and timer.enabled:
            t = timer.deadline
            if t <= horizon:
                return horizon
            if t < nxt:
                nxt = -int(-t // 1)
        # Interrupt delivery can act on any cycle while something is pending
        # and deliverable; be conservative and step through those windows.
        if self.apic._pending and uintr.uif and self.delivery_state is None:
            return horizon
        t = self.strategy.next_activity_cycle()
        if t is not None and t < nxt:
            nxt = t
        return nxt if nxt > horizon else horizon

    # ------------------------------------------------------------------
    # KB timer (§4.3)
    # ------------------------------------------------------------------

    def _check_kb_timer(self) -> None:
        timer = self.uintr.kb_timer
        if timer.check_fire(self.cycle):
            self.apic.raise_timer(timer.vector, self.cycle)
            self.trace.record(self.cycle, "kb_timer_fire", core=self.core_id)
            if _obs.enabled:
                _obs.TRACER.instant(
                    self.cycle, "timer.kb_fire", f"timer{self.core_id}",
                    _obs.CAT_TIMER, vector=timer.vector,
                )
        # The conventional local APIC timer delivers through the APIC's
        # normal vector classification: a kernel interrupt — unless UINV has
        # been overloaded onto its vector (the Skyloft trick, §7).
        if self.apic_timer.check_fire(self.cycle):
            self.apic.accept(self.apic_timer.vector, self.cycle, kind=None)
            self.trace.record(self.cycle, "apic_timer_fire", core=self.core_id)
            if _obs.enabled:
                _obs.TRACER.instant(
                    self.cycle, "timer.apic_fire", f"timer{self.core_id}",
                    _obs.CAT_TIMER, vector=self.apic_timer.vector,
                )

    # ------------------------------------------------------------------
    # Commit stage
    # ------------------------------------------------------------------

    def _commit_stage(self) -> None:
        """Retire up to ``retire_width`` done µops from the ROB head.  A
        plain µop writes its destination register; loads and stores also
        leave the LSQ (always from its head: commit is in order and squashed
        entries are dropped at the squash), and stores, microcode and the
        special ops take :meth:`_commit_special`."""
        budget = self.params.retire_width
        rob = self.rob
        arch_regs = self.arch_regs
        reg_producer = self.reg_producer
        mac = self._macro
        # Strategies that keep the base class's no-op hook are not called.
        strategy = self.strategy
        on_commit = (
            None if type(strategy).on_commit is _BASE_ON_COMMIT else strategy.on_commit
        )
        stats = self.stats
        retired = 0
        while budget > 0 and rob:
            uop = rob[0]
            if uop.state != ST_DONE:
                break
            rob.popleft()
            budget -= 1
            retired += 1
            commit_class = uop.commit_class
            if commit_class == C_LOAD:
                self.lsq.loads.remove(uop)
            elif commit_class == C_STORE:
                self.lsq.stores.remove(uop)
            # Architectural register update.
            dest = uop.dest
            if dest is not None:
                arch_regs[dest] = uop.result & MASK64
                if reg_producer.get(dest) is uop:
                    del reg_producer[dest]
            if commit_class >= C_STORE or uop.semantic:
                self._commit_special(uop)
            # Instruction accounting.
            if uop.macro_last and not uop.is_micro:
                if uop.from_interrupt:
                    stats.committed_handler_instructions += 1
                else:
                    stats.committed_instructions += 1
                    self.last_program_commit_cycle = self.cycle
            # Macro-op trace tier: feed the recorder while scanning, else
            # count committed taken backward branches (conditional or JMP)
            # toward the hotness threshold, with the ROB length before this
            # cycle's commits.
            if mac is not None:
                if mac._scanning:
                    mac._commits.append(uop)
                elif (
                    (uop.is_cond_branch or uop.op is _JMP)
                    and uop.actual_taken
                    and not uop.is_micro
                    and not uop.from_interrupt
                    and uop.target is not None
                    and uop.target < uop.pc
                ):
                    mac.note_backedge(uop.pc, len(rob) + retired)
            if on_commit is not None:
                on_commit(uop)
            # A retired uop never reads an operand or wakes a dependent
            # again.  Dropping its links breaks the producer/dependent
            # reference cycles, so retired uops are freed by refcount rather
            # than piling up until the cyclic collector's next full pass.
            if uop.producers:
                uop.producers.clear()
            if uop.dependents:
                uop.dependents.clear()
            if self.halted:
                break
        stats.committed_uops += retired

    def _commit_special(self, uop: UOp) -> None:
        """Commit effects beyond the register write: the memory write of a
        store, microcode semantics, and the UIF/timer/uiret/halt ops."""
        op = uop.op
        if op is _STORE and uop.addr is not None and not uop.semantic:
            self.shared.write(uop.addr, uop.store_value & MASK64, core_id=self.core_id)
        if uop.semantic:
            self._apply_semantic(uop)
        if uop.commit_class != C_SPECIAL:
            return
        if op is _CLUI:
            self.uintr.uif = False
        elif op is _STUI:
            self.uintr.uif = True
        elif op is _SETTIMER:
            self._apply_set_timer(uop)
        elif op is _CLRTIMER:
            self.uintr.kb_timer.disarm()
        elif op is _UIRET:
            self._commit_uiret(uop)
        else:  # HALT
            self.halted = True

    def _apply_set_timer(self, uop: UOp) -> None:
        cycles_value = uop.source_value(uop.src_regs[0], self.arch_regs)
        mode_value = uop.source_value(uop.src_regs[1], self.arch_regs)
        if mode_value:
            self.uintr.kb_timer.arm_periodic(cycles_value, now=self.cycle)
        else:
            self.uintr.kb_timer.arm_oneshot(cycles_value)

    def _commit_uiret(self, uop: UOp) -> None:
        if self.invariant_probe is not None:
            self.invariant_probe("uiret", self)
        self.uintr.uif = True
        self.uintr.in_handler = False
        self.delivery_state = None
        self.current_interrupt = None
        self.stats.interrupts_delivered += 1
        self.trace.record(self.cycle, "uiret_commit", core=self.core_id)

    # -- microcode commit semantics ------------------------------------

    def _apply_semantic(self, uop: UOp) -> None:
        semantic = uop.semantic
        if semantic == mc.SEM_UPID_SET_PIR:
            entry_upid, entry_vector = self._uitt_entry(uop.uitt_index)
            upid = UPID(self.shared, entry_upid)
            upid.post_vector(entry_vector, core_id=self.core_id)
            self.trace.record(self.cycle, "upid_posted", core=self.core_id, vector=entry_vector)
        elif semantic == mc.SEM_ICR_WRITE:
            entry_upid, _ = self._uitt_entry(uop.uitt_index)
            upid = UPID(self.shared, entry_upid)
            if not upid.suppressed:
                self.trace.record(self.cycle, "icr_write", core=self.core_id)
                self.send_ipi(upid.notification_destination, upid.notification_vector)
        elif semantic == mc.SEM_NOTIF_LATCH_UIRR:
            self.uintr.latch_uirr(self._notif_pir)
            self._notif_pir = 0
        elif semantic == mc.SEM_NOTIF_CLEAR_ON:
            if self.uintr.upid_addr is not None:
                upid = UPID(self.shared, self.uintr.upid_addr)
                self._notif_pir = upid.take_pir(core_id=self.core_id)
                upid.set_outstanding(False, core_id=self.core_id)
            self.trace.record(self.cycle, "notif_clear_on", core=self.core_id)
        elif semantic == mc.SEM_DEL_PUSH_SP and uop.addr is not None:
            self.shared.write(uop.addr, uop.store_value & MASK64, core_id=self.core_id)
        elif semantic == mc.SEM_DEL_PUSH_PC and uop.addr is not None:
            value = self.uintr.ui_return_pc if self.uintr.ui_return_pc is not None else 0
            self.shared.write(uop.addr, value, core_id=self.core_id)
        elif semantic == mc.SEM_DEL_PUSH_VEC and uop.addr is not None:
            vector = self.current_interrupt.vector if self.current_interrupt else 0
            self.shared.write(uop.addr, vector, core_id=self.core_id)
        elif semantic == mc.SEM_DEL_CLEAR_UIF:
            self.uintr.uif = False
            self.uintr.in_handler = True
            self.trace.record(self.cycle, "uif_clear", core=self.core_id)
        elif semantic == mc.SEM_DEL_UPDATE_UIRR:
            self.uintr.take_uirr_vector()
            self.trace.record(self.cycle, "delivery_done", core=self.core_id)
            if _obs.enabled and self.current_interrupt is not None:
                # One span per delivery: APIC arrival through delivery-done.
                pending = self.current_interrupt
                _obs.TRACER.complete(
                    pending.arrival_time,
                    self.cycle - pending.arrival_time,
                    "uintr.delivery",
                    f"core{self.core_id}",
                    _obs.CAT_DELIVERY,
                    vector=pending.vector,
                    kind=pending.kind.value,
                )

    def _uitt_entry(self, index: int) -> Tuple[int, int]:
        if self.uintr.uitt_base is None:
            raise ProtocolError("senduipi without a registered UITT")
        addr = self.uintr.uitt_base + 16 * index
        return self.shared.read(addr), self.shared.read(addr + 8)

    # ------------------------------------------------------------------
    # Completion stage
    # ------------------------------------------------------------------

    def _complete_stage(self) -> None:
        exec_heap = self.exec_heap
        ready_heap = self.ready_heap
        cycle = self.cycle
        heappop = heapq.heappop
        heappush = heapq.heappush
        resolve = self.predictor.resolve
        while exec_heap and exec_heap[0][0] <= cycle:
            uop = heappop(exec_heap)[2]
            if uop.squashed:
                continue
            uop.state = ST_DONE
            if uop.is_serializing:
                self._serialize_until = -1
            for dependent in uop.dependents:
                if dependent.squashed or dependent.state != ST_WAITING:
                    continue
                waits = dependent.wait_count - 1
                dependent.wait_count = waits
                if not waits:
                    dependent.state = ST_READY
                    ready = dependent.frontend_ready
                    heappush(ready_heap, (ready if ready > cycle else cycle, dependent.seq, dependent))
            if uop.is_branch:
                # One predictor call per resolution; a mispredict recovers.
                target = uop.actual_target
                if target is None:
                    target = uop.pc + 1
                if resolve(
                    uop.pc,
                    uop.is_cond_branch,
                    uop.history_token,
                    uop.actual_taken,
                    target,
                    uop.pred_taken,
                    uop.pred_target,
                ):
                    self._recover_branch(uop, target)
            elif uop.exec_class == X_UIRET:
                self._uiret_redirect(uop)

    # -- branch resolution ----------------------------------------------

    def _recover_branch(self, uop: UOp, actual_target: int) -> None:
        """Recover from the mispredicted branch ``uop`` (already trained by
        ``BranchPredictor.resolve``): restore the predictor's history and
        return stack, and squash the wrong path."""
        actual_taken = uop.actual_taken
        self.stats.branch_squashes += 1
        # Recover predictor history to the state at this branch, then shift
        # the actual outcome in.
        self.predictor.gshare.restore_history(uop.history_token)
        self.predictor.gshare.record_speculative(actual_taken)
        if uop.ras_snapshot is not None:
            self.predictor.ras.restore(uop.ras_snapshot)
            if uop.op is _CALL:
                self.predictor.ras.push(uop.pc + 1)
        new_pc = actual_target if actual_taken else uop.pc + 1
        self._squash_younger_than(uop, new_pc)

    def _uiret_redirect(self, uop: UOp) -> None:
        if self.uintr.ui_return_pc is None:
            raise ProtocolError("uiret executed with no saved return state")
        self.fetch_pc = self.uintr.ui_return_pc
        self.wait_reason = None
        self.interrupt_path = False
        self._current_fetch_line = -1
        self._trace_resume_pending = self.trace.enabled
        self.trace.record(self.cycle, "uiret_exec", core=self.core_id)

    # -- squash ----------------------------------------------------------

    def _squash_younger_than(self, trigger: UOp, new_fetch_pc: int) -> None:
        """Squash every µop younger than ``trigger`` and redirect fetch."""
        self._squash_after_seq(trigger.seq, new_fetch_pc, trigger.from_interrupt)

    def _squash_after_seq(
        self, keep_upto_seq: int, new_fetch_pc: int, trigger_from_interrupt: bool
    ) -> None:
        seq = keep_upto_seq
        survivors: Deque[UOp] = deque()
        squashed = 0
        squashed_interrupt_path = False
        for uop in self.rob:
            if uop.seq <= seq:
                survivors.append(uop)
            else:
                uop.squashed = True
                if uop.from_interrupt:
                    squashed_interrupt_path = True
                if uop.state in (ST_WAITING, ST_READY):
                    self.iq_count -= 1
                if uop.is_serializing and uop.state == ST_EXECUTING:
                    self._serialize_until = -1
                squashed += 1
        self.rob = survivors
        self.stats.squashed_uops += squashed
        self.lsq.drop_squashed()
        self._rebuild_rename()
        # Un-fetched remainders of macros/injections are younger than the
        # squash point by construction; drop them.
        self.macro_queue = []
        self.macro_pos = 0
        self.macro_pc = -1
        if self.inject_pos < len(self.inject_queue):
            squashed_interrupt_path = True
        self.inject_queue = []
        self.inject_pos = 0
        self._last_chain_uop = None
        # A squash triggered from within the interrupt path (a handler
        # branch) stays on the interrupt path; a program-path squash
        # removes the whole injected stream.
        self.interrupt_path = trigger_from_interrupt
        self.wait_reason = None
        self.fetch_pc = new_fetch_pc
        self._current_fetch_line = -1
        penalty = squash_penalty_cycles(squashed, self.params.squash_width)
        self.fetch_stall_until = max(self.fetch_stall_until, self.cycle + penalty)
        # Only a program-path trigger can have squashed the *whole* injected
        # stream; a handler-internal mispredict leaves the microcode (older
        # than the branch) intact and uses normal recovery (§4.2).
        self.strategy.on_squash(
            new_fetch_pc, squashed_interrupt_path and not trigger_from_interrupt
        )
        if self.invariant_probe is not None:
            self.invariant_probe("squash", self)

    def flush_all(self) -> Tuple[int, int]:
        """Interrupt-style full flush; returns (resume_pc, num_squashed).

        The resume PC is the oldest uncommitted program instruction (or the
        current fetch PC if the ROB is empty).
        """
        resume_pc = self.rob[0].pc if self.rob else self.fetch_pc
        num = len(self.rob)
        for uop in self.rob:
            uop.squashed = True
            if uop.state in (ST_WAITING, ST_READY):
                self.iq_count -= 1
        self.rob.clear()
        self._serialize_until = -1
        self.stats.squashed_uops += num
        self.lsq.drop_squashed()
        self.reg_producer.clear()
        self.macro_queue = []
        self.macro_pos = 0
        self.macro_pc = -1
        self.inject_queue = []
        self.inject_pos = 0
        self._last_chain_uop = None
        self.interrupt_path = False
        self.wait_reason = None
        self._current_fetch_line = -1
        if self.invariant_probe is not None:
            self.invariant_probe("flush", self)
        return resume_pc, num

    def _rebuild_rename(self) -> None:
        self.reg_producer.clear()
        for uop in self.rob:
            if uop.dest is not None and uop.state != ST_DONE:
                self.reg_producer[uop.dest] = uop
            elif uop.dest is not None:
                # Done-but-uncommitted producers still hold the latest value.
                self.reg_producer[uop.dest] = uop

    # ------------------------------------------------------------------
    # Issue stage
    # ------------------------------------------------------------------

    def _issue_stage(self) -> None:
        """Issue due ready µops (``step`` enters only with one due and no
        serializing µop in flight) and execute them: operand values are read
        here, once, from in-flight producers or the register file."""
        budget = self.params.issue_width
        deferred: List[Tuple[int, int, UOp]] = []
        ready_heap = self.ready_heap
        exec_heap = self.exec_heap
        heappop = heapq.heappop
        heappush = heapq.heappush
        cycle = self.cycle
        arch_regs = self.arch_regs
        conservative = self._conservative_loads
        # Functional-unit bandwidth is per cycle, and this stage runs once a
        # cycle: the slots taken are counted here.
        used = [0] * NUM_UNITS
        limits = self.fus.limits
        while budget > 0 and ready_heap and ready_heap[0][0] <= cycle:
            _, seq, uop = heappop(ready_heap)
            if uop.squashed or uop.state != ST_READY:
                continue
            if uop.is_serializing and (not self.rob or self.rob[0] is not uop):
                deferred.append((cycle + 1, seq, uop))
                continue
            x = uop.exec_class
            if (
                x == X_LOAD
                and conservative
                and (uop.pc, uop.is_micro) in conservative
                and self.lsq.has_unresolved_older_store(uop)
            ):
                # A load that has violated memory ordering before waits for
                # older store addresses (store-set-style dependence predictor).
                deferred.append((cycle + 1, seq, uop))
                continue
            unit = uop.fu_class
            busy = used[unit]
            if busy >= limits[unit]:
                deferred.append((cycle + 1, seq, uop))
                continue
            used[unit] = busy + 1
            # Execute.
            uop.state = ST_EXECUTING
            self.iq_count -= 1
            latency = uop.latency
            if x == X_LOAD:
                latency = self._execute_load(uop)
            elif x == X_STORE:
                latency = self._execute_store(uop) + uop.extra_latency
            else:
                srcs = uop.src_regs
                if srcs:
                    producers = uop.producers
                    reg = srcs[0]
                    producer = producers.get(reg)
                    a = arch_regs[reg] if producer is None else producer.result
                    if len(srcs) > 1:
                        reg = srcs[1]
                        producer = producers.get(reg)
                        b = arch_regs[reg] if producer is None else producer.result
                    else:
                        b = uop.imm
                else:
                    a = 0
                    b = uop.imm
                if x < X_JMP:
                    if x == X_ADD:
                        uop.result = (a + b) & MASK64
                    elif x == X_SUB:
                        uop.result = (a - b) & MASK64
                    elif x == X_MOVI:
                        uop.result = b & MASK64
                    elif x == X_MOV:
                        uop.result = a
                    elif x == X_MUL:
                        uop.result = (a * b) & MASK64
                    elif x == X_DIV:
                        uop.result = (a // b) & MASK64 if b else 0
                    elif x == X_AND:
                        uop.result = a & b
                    elif x == X_OR:
                        uop.result = a | b
                    elif x == X_XOR:
                        uop.result = (a ^ b) & MASK64
                    elif x == X_SHL:
                        uop.result = (a << (uop.imm & 63)) & MASK64
                    elif x == X_SHR:
                        uop.result = (a & MASK64) >> (uop.imm & 63)
                    elif x == X_RDTSC:
                        uop.result = cycle
                    elif x == X_TESTUI:
                        uop.result = int(self.uintr.uif)
                    elif x == X_UIRET:
                        # Restores the pre-delivery stack pointer.
                        uop.result = (a + 24) & MASK64
                    # Every other op (X_NONE) leaves its result at 0.
                elif x == X_JMP:
                    uop.actual_taken = True
                    uop.actual_target = uop.target
                elif x == X_CALL:
                    uop.actual_taken = True
                    uop.actual_target = uop.target
                    uop.result = uop.pc + 1  # link register value
                elif x == X_RET:
                    uop.actual_taken = True
                    uop.actual_target = a & MASK64
                else:
                    if x == X_BEQ:
                        taken = a == b
                    elif x == X_BNE:
                        taken = a != b
                    elif x == X_BLT:
                        taken = ((a & MASK64) ^ SIGN64) < ((b & MASK64) ^ SIGN64)
                    else:  # X_BGE
                        taken = ((a & MASK64) ^ SIGN64) >= ((b & MASK64) ^ SIGN64)
                    uop.actual_taken = taken
                    uop.actual_target = uop.target
            if uop.semantic == "senduipi_entry":
                self.trace.record(cycle, "senduipi_start", core=self.core_id)
            heappush(exec_heap, (cycle + latency if latency > 1 else cycle + 1, seq, uop))
            budget -= 1
            if uop.is_serializing:
                self._serialize_until = cycle + latency
                break
        for item in deferred:
            heappush(ready_heap, item)

    def _resolve_mem_addr(self, uop: UOp) -> int:
        if uop.semantic in mc.ARCH_ADDR_SEMANTICS:
            return self._arch_addr(uop)
        if not uop.src_regs:
            return uop.imm
        base = uop.source_value(uop.src_regs[0], self.arch_regs)
        return (base + uop.imm) & MASK64

    def _arch_addr(self, uop: UOp) -> int:
        semantic = uop.semantic
        if semantic == mc.SEM_UITT_LOAD:
            if self.uintr.uitt_base is None:
                raise ProtocolError("senduipi without a registered UITT")
            return self.uintr.uitt_base + 16 * uop.uitt_index
        if semantic in (mc.SEM_UPID_SET_PIR, mc.SEM_UPID_READ_NDST):
            entry_upid, _ = self._uitt_entry(uop.uitt_index)
            offset = 8 if semantic == mc.SEM_UPID_SET_PIR else 0
            return entry_upid + offset
        if semantic == mc.SEM_NOTIF_READ_PIR:
            if self.uintr.upid_addr is None:
                raise ProtocolError("notification processing without a UPID")
            return self.uintr.upid_addr + 8
        if semantic == mc.SEM_NOTIF_CLEAR_ON:
            return self.uintr.upid_addr if self.uintr.upid_addr is not None else 0
        raise SimulationError(f"no architectural address for semantic {semantic!r}")

    def _execute_load(self, uop: UOp) -> int:
        uop.addr = self._resolve_mem_addr(uop)
        forwarded = self.lsq.forward_value(uop)
        if forwarded is not None:
            uop.result = forwarded
            if self._macro_rec is not None:
                self._macro_rec.append((uop.seq, 1, FORWARD_LATENCY, 1, uop.addr))
            return FORWARD_LATENCY
        latency, value = self.hierarchy.load(uop.addr)
        uop.result = value
        if self._macro_rec is not None:
            self._macro_rec.append((uop.seq, 1, latency, 0, uop.addr))
        return latency

    def _execute_store(self, uop: UOp) -> int:
        uop.addr = self._resolve_mem_addr(uop)
        self._check_memory_order_violation(uop)
        if uop.semantic:
            # Microcode stores: the commit handler supplies the real value.
            uop.store_value = (
                uop.source_value(uop.src_regs[0], self.arch_regs) if uop.src_regs else 0
            )
        else:
            uop.store_value = uop.source_value(uop.src_regs[1], self.arch_regs)
        latency = self.hierarchy.store_probe(uop.addr)
        if self._macro_rec is not None:
            self._macro_rec.append((uop.seq, 0, latency, 0, uop.addr))
        return latency

    def _check_memory_order_violation(self, store: UOp) -> None:
        """Optimistic loads may have run ahead of this store to the same
        word: squash from the oldest violator and train the predictor so its
        next execution waits (memory-order replay)."""
        word = store.addr & ~0x7
        violator: Optional[UOp] = None
        for load in self.lsq.loads:
            if (
                load.seq > store.seq
                and not load.squashed
                and load.state in (ST_EXECUTING, ST_DONE)
                and load.addr is not None
                and (load.addr & ~0x7) == word
            ):
                if violator is None or load.seq < violator.seq:
                    violator = load
        if violator is None:
            return
        self._conservative_loads.add((violator.pc, violator.is_micro))
        self.stats.memory_order_squashes += 1
        if violator.is_micro:
            # Microcode loads cannot be refetched by PC; their values only
            # affect timing (the commit handlers re-read architectural
            # state), so train the predictor and let this one stand.
            return
        self._squash_after_seq(violator.seq - 1, violator.pc, violator.from_interrupt)

    # ------------------------------------------------------------------
    # Fetch / dispatch stage
    # ------------------------------------------------------------------

    def _fetch_stage(self) -> None:
        """Fetch, decode and dispatch up to ``fetch_width`` µops: microcode
        first (the injected interrupt routine, then an expanding
        ``senduipi``), else program instructions from their decoded
        templates (:meth:`_decode`), renamed into the back-end in place."""
        if self.wait_reason is not None:
            if self.wait_reason == "drain":
                self.strategy.on_drain_wait()
            return
        cycle = self.cycle
        if cycle < self.fetch_stall_until:
            return
        params = self.params
        rob_size = params.rob_size
        iq_size = params.iq_size
        lq_size = params.lq_size
        sq_size = params.sq_size
        rob = self.rob
        loads = self.lsq.loads
        stores = self.lsq.stores
        reg_producer = self.reg_producer
        ready_heap = self.ready_heap
        decoded_table = self._decoded
        prog_len = self._prog_len
        boundary_hook = self._boundary_hook
        uop_cache = self.uop_cache
        uop_sets = uop_cache._sets
        miss_depth = params.frontend_depth
        hit_depth = miss_depth - uop_cache.hit_depth_bonus
        if hit_depth < 1:
            hit_depth = 1
        budget = params.fetch_width
        micro_budget = self.timing.msrom_fetch_width
        fetched = 0
        while budget > 0:
            if (
                len(rob) >= rob_size
                or self.iq_count >= iq_size
                or len(loads) >= lq_size
                or len(stores) >= sq_size
            ):
                break
            if self.inject_queue or self.macro_queue:
                if micro_budget <= 0:
                    break
                self._fetch_microop()
                micro_budget -= 1
                budget -= 1
                continue
            # Instruction boundary: a staged (tracked) interrupt may inject here.
            if boundary_hook is not None and boundary_hook():
                continue
            pc = self.fetch_pc
            if pc >= prog_len or pc < 0:
                break
            decoded = decoded_table[pc]
            if decoded is None:
                decoded = self._decode(pc)
            line, addr, fetch_class, uop_set, static = decoded
            if line != self._current_fetch_line:
                latency = self.icache.fetch_latency(addr)
                self._current_fetch_line = line
                if latency > 0:
                    self.fetch_stall_until = cycle + latency
                    break
            if self._trace_resume_pending:
                self._trace_resume_pending = False
                self.trace.record(cycle, "resume_fetch", core=self.core_id)
            if fetch_class == F_SENDUIPI:
                self.macro_queue = self._routine(False, static[_IMM_AT])
                self.macro_pos = 0
                self.macro_pc = pc
                self._last_chain_uop = None
                self.fetch_pc = pc + 1
                budget -= 1
                continue
            # Micro-op cache: a hit skips the decode stages (a shorter
            # front-end), a miss fills the entry (§4.4 carries the safepoint
            # bit into it).  The MRU test is ``UopCache.lookup``'s own fast
            # path, inlined.
            entries = uop_sets[uop_set]
            if entries and entries[-1].pc == pc:
                uop_cache.hits += 1
                depth = hit_depth
            elif uop_cache.lookup(pc) is not None:
                depth = hit_depth
            else:
                self._fill_uop_cache(pc, static)
                depth = miss_depth
            seq = self._seq + 1
            self._seq = seq
            ready = cycle + depth
            uop = UOp(seq, pc, ready, self.interrupt_path, True, True, static)
            fetched += 1
            # Rename: record producers for each source register.
            waits = 0
            for reg in uop.src_regs:
                producer = reg_producer.get(reg)
                if producer is not None:
                    uop.producers[reg] = producer
                    if producer.state != ST_DONE:
                        waits += 1
                        producer.dependents.append(uop)
            dest = uop.dest
            if dest is not None:
                reg_producer[dest] = uop
            rob.append(uop)
            self.iq_count += 1
            if fetch_class == F_LOAD:
                loads.append(uop)
            elif fetch_class == F_STORE:
                stores.append(uop)
            if waits:
                uop.wait_count = waits
            else:
                uop.state = ST_READY
                heapq.heappush(ready_heap, (ready, seq, uop))
            budget -= 1
            if fetch_class < F_BRANCH:
                self.fetch_pc = pc + 1
                continue
            if fetch_class >= F_UIRET:
                self.wait_reason = "uiret" if fetch_class == F_UIRET else "halt"
                break
            predictor = self.predictor
            if fetch_class == F_CALLRET:
                uop.ras_snapshot = predictor.ras._stack[:]
            taken, target, history = predictor.predict(pc, uop.instr)
            uop.pred_taken = taken
            uop.pred_target = target
            uop.history_token = history
            if not taken:
                self.fetch_pc = pc + 1
                continue
            if target is not None:
                self.fetch_pc = target
                self._current_fetch_line = -1
            else:
                # Predicted taken with unknown target (cold RET): stall
                # until the branch resolves — resolution redirects fetch.
                self.fetch_pc = pc + 1
                self.fetch_stall_until = cycle + params.frontend_depth
            break  # taken branches end the fetch group
        self.stats.fetched_uops += fetched

    def _decode(self, pc: int) -> tuple:
        """Decode the instruction at ``pc`` once: its fetch block, what
        fetch does with it, and the µop template every fetch of it
        instantiates (what the µop cache holds, plus the op's classes and
        this core's unit latency)."""
        instr = self.program.instructions[pc]
        op = instr.op
        dest = instr.dest_reg()
        src_regs = instr.source_regs()
        if op is _UIRET:
            # uiret restores the pre-delivery stack pointer.
            dest = RegNames.SP
            src_regs = (RegNames.SP,)
        static = template(
            op,
            self.fus.latency(op),
            instr=instr,
            dest=dest,
            src_regs=src_regs,
            imm=instr.imm,
            target=instr.target if isinstance(instr.target, int) else None,
            safepoint=instr.safepoint,
            extra_latency=self.timing.stui_stall if op is _STUI else 0,
        )
        addr = instruction_address(pc)
        decoded = (
            addr // self.config.icache.line_bytes,
            addr,
            _FETCH_CLASS.get(op, F_PLAIN),
            pc % self.uop_cache.num_sets,
            static,
        )
        self._decoded[pc] = decoded
        return decoded

    def _fill_uop_cache(self, pc: int, static: tuple) -> None:
        """A µop-cache miss: fill the entry from the decoded template."""
        instr, dest, src_regs, extra = _FILL_FIELDS(static)
        self.uop_cache.fill(pc, instr, dest, src_regs, extra_latency=extra)

    def _routine(self, receive: bool, arg) -> Tuple[tuple, ...]:
        """A microcode routine, decoded into µop templates once per core:
        the receive routine (``arg``: needs notification processing) or the
        ``senduipi`` expansion (``arg``: the UITT index)."""
        key = (receive, arg)
        routine = self._routines.get(key)
        if routine is None:
            if receive:
                micro_ops = mc.receive_routine_cached(self.timing, arg)
            else:
                micro_ops = mc.senduipi_routine_cached(self.timing, arg)
            latency = self.fus.latency
            routine = self._routines[key] = tuple(
                template(
                    micro.op,
                    latency(micro.op),
                    semantic=micro.semantic,
                    is_micro=True,
                    dest=micro.dest,
                    src_regs=micro.src_regs,
                    imm=micro.imm,
                    chain=micro.chain,
                    extra_latency=micro.extra_latency,
                    uitt_index=micro.imm,
                )
                for micro in micro_ops
            )
        return routine

    def _fetch_microop(self) -> None:
        """Dispatch the next µop of the injected interrupt routine, else of
        the expanding macro-instruction."""
        if self.inject_pos < len(self.inject_queue):
            self._dispatch_microop(self.inject_queue[self.inject_pos], from_interrupt=True)
            self.inject_pos += 1
            if self.inject_pos >= len(self.inject_queue):
                # Microcode done: control transfers to the user handler.
                self.inject_queue = []
                self.inject_pos = 0
                self._last_chain_uop = None
                handler = self.uintr.handler_index
                if handler is None:
                    raise ProtocolError("interrupt delivery with no registered handler")
                self.fetch_pc = handler
                self._current_fetch_line = -1
                self.trace.record(self.cycle, "handler_fetch", core=self.core_id)
            return
        is_last = self.macro_pos == len(self.macro_queue) - 1
        self._dispatch_microop(
            self.macro_queue[self.macro_pos],
            from_interrupt=self.interrupt_path,
            macro_pc=self.macro_pc,
            macro_first=self.macro_pos == 0,
            macro_last=is_last,
        )
        self.macro_pos += 1
        if self.macro_pos >= len(self.macro_queue):
            self.macro_queue = []
            self.macro_pos = 0
            self.macro_pc = -1
            self._last_chain_uop = None

    def _dispatch_microop(
        self,
        static: tuple,
        from_interrupt: bool,
        macro_pc: int = -1,
        macro_first: bool = False,
        macro_last: bool = False,
    ) -> UOp:
        pc = macro_pc if macro_pc >= 0 else (
            self.uintr.ui_return_pc if self.uintr.ui_return_pc is not None else self.fetch_pc
        )
        self._seq += 1
        uop = UOp(
            self._seq,
            pc,
            self.cycle + self.params.frontend_depth,
            from_interrupt,
            macro_first,
            macro_last,
            static,
        )
        self._enter_backend(uop, chain_to=self._last_chain_uop if uop.chain else None)
        self._last_chain_uop = uop
        return uop

    def _enter_backend(self, uop: UOp, chain_to: Optional[UOp] = None) -> None:
        """Rename and dispatch a microcode µop (the fetch stage renames
        program µops inline, the same way)."""
        self.stats.fetched_uops += 1
        for reg in uop.src_regs:
            producer = self.reg_producer.get(reg)
            if producer is not None:
                uop.producers[reg] = producer
                if producer.state != ST_DONE:
                    uop.wait_count += 1
                    producer.dependents.append(uop)
        if chain_to is not None and chain_to.state != ST_DONE and not chain_to.squashed:
            uop.producers[CHAIN_KEY] = chain_to
            uop.wait_count += 1
            chain_to.dependents.append(uop)
        if uop.dest is not None:
            self.reg_producer[uop.dest] = uop
        self.rob.append(uop)
        self.iq_count += 1
        if uop.commit_class == C_LOAD or uop.commit_class == C_STORE:
            self.lsq.add(uop)
        if uop.wait_count == 0:
            uop.state = ST_READY
            heapq.heappush(self.ready_heap, (uop.frontend_ready, uop.seq, uop))

    # ------------------------------------------------------------------
    # Interrupt injection (called by delivery strategies)
    # ------------------------------------------------------------------

    def safepoint_at(self, pc: int) -> bool:
        """Is the instruction at ``pc`` a safepoint?  Consults the micro-op
        cache's safepoint bit first (§4.4: optimized front-end paths must
        still recognize safepoints), falling back to the decoder view."""
        if not 0 <= pc < self._prog_len:
            return False
        entry = self.uop_cache.lookup(pc)
        if entry is not None:
            return entry.safepoint
        return self.program.at(pc).safepoint

    def inject_interrupt(
        self,
        pending: PendingInterrupt,
        next_pc: int,
        refill_stall: int = 0,
    ) -> None:
        """Queue the receive microcode for injection at the front-end."""
        if self.uintr.handler_index is None:
            raise ProtocolError("cannot deliver a user interrupt with no handler registered")
        needs_notification = pending.kind is InterruptKind.UIPI
        self.inject_queue = self._routine(True, needs_notification)
        self.inject_pos = 0
        self._last_chain_uop = None
        self.interrupt_path = True
        self.uintr.ui_return_pc = next_pc
        self.delivery_state = "inflight"
        self.current_interrupt = pending
        self.wait_reason = None
        if refill_stall > 0:
            self.fetch_stall_until = max(self.fetch_stall_until, self.cycle + refill_stall)
        self.trace.record(
            self.cycle,
            "inject",
            core=self.core_id,
            intr_kind=pending.kind.value,
            next_pc=next_pc,
        )
        if self.invariant_probe is not None:
            self.invariant_probe("inject", self)

