"""Back-end structures: in-flight micro-ops, functional units, LSQ.

The :class:`UOp` is the unit of everything in flight: program instructions
decode to one µop each (``senduipi`` expands via the MSROM), and interrupt
microcode is injected as µop streams by the front-end.  Each µop carries the
``from_interrupt`` source bit the tracking hardware adds to every ROB entry
(§4.2 "bill of materials").
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional

from repro.common.errors import SimulationError
from repro.cpu.config import CoreParams
from repro.cpu.isa import (
    DIV_OPS,
    FP_OPS,
    INT_ALU_OPS,
    MUL_OPS,
    Instruction,
    Op,
)

# µop lifecycle states
ST_WAITING = 0  # in ROB, operands or front-end latency outstanding
ST_READY = 1  # eligible for issue
ST_EXECUTING = 2
ST_DONE = 3

# TESTUI is gated to the ROB head (not a stall) so it observes the
# architectural UIF, which CLUI/STUI update at commit.
_SERIALIZING_OPS = frozenset((Op.MSR_WRITE, Op.STUI, Op.TESTUI))
_BRANCH_OPS = frozenset((Op.BEQ, Op.BNE, Op.BLT, Op.BGE, Op.JMP, Op.CALL, Op.RET))
_COND_BRANCH_OPS = frozenset((Op.BEQ, Op.BNE, Op.BLT, Op.BGE))

# Execute classes (``UOp.exec_class``): what the issue stage computes for a
# µop, decoded once so execution never hashes or compares an ``Op``.  The
# branch classes come last (``>= X_JMP``).
(
    X_NONE, X_ADD, X_SUB, X_MUL, X_DIV, X_AND, X_OR, X_XOR, X_SHL, X_SHR, X_MOV,
    X_MOVI, X_RDTSC, X_TESTUI, X_UIRET, X_LOAD, X_STORE,
    X_JMP, X_CALL, X_RET, X_BEQ, X_BNE, X_BLT, X_BGE,
) = range(24)
_EXEC_CLASS = {
    Op.ADD: X_ADD, Op.FADD: X_ADD, Op.SUB: X_SUB, Op.MUL: X_MUL, Op.FMUL: X_MUL,
    Op.DIV: X_DIV, Op.FDIV: X_DIV, Op.AND: X_AND, Op.OR: X_OR, Op.XOR: X_XOR,
    Op.SHL: X_SHL, Op.SHR: X_SHR, Op.MOV: X_MOV, Op.MOVI: X_MOVI, Op.RDTSC: X_RDTSC,
    Op.TESTUI: X_TESTUI, Op.UIRET: X_UIRET, Op.LOAD: X_LOAD, Op.STORE: X_STORE,
    Op.JMP: X_JMP, Op.CALL: X_CALL, Op.RET: X_RET, Op.BEQ: X_BEQ, Op.BNE: X_BNE,
    Op.BLT: X_BLT, Op.BGE: X_BGE,
}

# Commit classes (``UOp.commit_class``): a plain µop retires by writing its
# destination register; loads and stores also leave the LSQ, and stores and
# the special ops take ``Core._commit_special``.
C_PLAIN, C_LOAD, C_STORE, C_SPECIAL = range(4)
_COMMIT_CLASS = {
    Op.LOAD: C_LOAD,
    Op.STORE: C_STORE,
    **{
        op: C_SPECIAL
        for op in (Op.CLUI, Op.STUI, Op.SETTIMER, Op.CLRTIMER, Op.UIRET, Op.HALT)
    },
}


# Functional-unit classes (``UOp.fu_class``): the issue stage counts each
# class's slots per cycle in a list indexed by these.
U_INT, U_MUL, U_FP, U_MEM, U_BRANCH, U_OTHER = range(6)
NUM_UNITS = 6
#: Unit-class names, indexed by class (for reports and tests).
UNIT_NAMES = ("int", "mul", "fp", "mem", "branch", "other")


def _classify_op(op: Op) -> int:
    if op in INT_ALU_OPS:
        return U_INT
    if op in MUL_OPS or op in DIV_OPS:
        return U_MUL
    if op in FP_OPS:
        return U_FP
    if op in (Op.LOAD, Op.STORE):
        return U_MEM
    if op in _BRANCH_OPS:
        return U_BRANCH
    return U_OTHER


#: Per-op decode metadata, read only when a template is decoded:
#: ``(is_serializing, is_branch, is_cond_branch, fu_class, exec_class,
#: commit_class)``.
OP_META: Dict[Op, tuple] = {
    op: (
        op in _SERIALIZING_OPS,
        op in _BRANCH_OPS,
        op in _COND_BRANCH_OPS,
        _classify_op(op),
        _EXEC_CLASS.get(op, X_NONE),
        _COMMIT_CLASS.get(op, C_PLAIN),
    )
    for op in Op
}


def template(
    op: Op,
    base_latency: int = 0,
    instr: Optional[Instruction] = None,
    semantic: str = "",
    is_micro: bool = False,
    dest: Optional[int] = None,
    src_regs: tuple = (),
    imm: int = 0,
    target: Optional[int] = None,
    safepoint: bool = False,
    chain: bool = False,
    extra_latency: int = 0,
    uitt_index: int = 0,
) -> tuple:
    """A decoded µop: the static fields of a :class:`UOp`, in
    :data:`STATIC_FIELDS` order.  ``base_latency`` is the functional unit's
    latency for ``op``; the template carries it plus ``extra_latency``."""
    return (
        op, instr, semantic, is_micro, dest, src_regs, imm, target, safepoint, chain,
        extra_latency, uitt_index, *OP_META[op][:4], base_latency + extra_latency,
        *OP_META[op][4:],
    )


#: The fields a :func:`template` sets, in order.
STATIC_FIELDS = (
    "op", "instr", "semantic", "is_micro", "dest", "src_regs", "imm", "target",
    "safepoint", "chain", "extra_latency", "uitt_index", "is_serializing", "is_branch",
    "is_cond_branch", "fu_class", "latency", "exec_class", "commit_class",
)


class UOp:
    """One in-flight micro-op (a ROB entry).

    Built from a decoded :func:`template` by one positional call: the
    dispatch path pays no keyword parsing and no per-op table lookup."""

    __slots__ = STATIC_FIELDS + (
        "seq",
        "pc",
        "from_interrupt",
        "macro_first",
        "macro_last",
        "frontend_ready",
        "pred_taken",
        "pred_target",
        "history_token",
        "ras_snapshot",
        "state",
        "wait_count",
        "producers",
        "dependents",
        "result",
        "addr",
        "store_value",
        "squashed",
        "actual_taken",
        "actual_target",
    )

    def __init__(
        self,
        seq: int,
        pc: int,
        frontend_ready: int,
        from_interrupt: bool,
        macro_first: bool,
        macro_last: bool,
        static: tuple,
    ) -> None:
        self.seq = seq
        self.pc = pc
        self.frontend_ready = frontend_ready
        self.from_interrupt = from_interrupt
        self.macro_first = macro_first
        self.macro_last = macro_last
        (
            self.op,
            self.instr,
            self.semantic,
            self.is_micro,
            self.dest,
            self.src_regs,
            self.imm,
            self.target,
            self.safepoint,
            self.chain,
            self.extra_latency,
            self.uitt_index,
            self.is_serializing,
            self.is_branch,
            self.is_cond_branch,
            self.fu_class,
            self.latency,
            self.exec_class,
            self.commit_class,
        ) = static
        # prediction metadata (branches only)
        self.pred_taken = False
        self.pred_target: Optional[int] = None
        self.history_token = 0
        self.ras_snapshot: Optional[List[int]] = None
        # dynamic state
        self.state = ST_WAITING
        self.wait_count = 0
        self.producers: Dict[int, "UOp"] = {}
        self.dependents: List["UOp"] = []
        self.result: int = 0
        self.addr: Optional[int] = None
        self.store_value: int = 0
        self.squashed = False
        self.actual_taken = False
        self.actual_target: Optional[int] = None

    def source_value(self, reg: int, arch_regs: List[int]) -> int:
        """Operand value: the in-flight producer's result, or the committed register."""
        producer = self.producers.get(reg)
        if producer is not None:
            return producer.result
        return arch_regs[reg]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        tag = "µ" if self.is_micro else ""
        return f"<UOp{tag} #{self.seq} {self.op.name} pc={self.pc} st={self.state}>"


class FunctionalUnits:
    """Per-cycle issue-bandwidth limits for each execution-resource class,
    and each op's unit latency."""

    def __init__(self, params: CoreParams) -> None:
        self.params = params
        #: Issue slots per cycle, indexed by unit class (``U_INT`` ...);
        #: the issue stage counts them.
        self.limits = (
            params.int_alu_units,
            params.mul_units,
            params.fp_units,
            3,  # mem: 2 load + 1 store ports, pooled
            2,  # branch
            params.issue_width,  # other
        )

    def latency(self, op: Op) -> int:
        """The unit latency of ``op`` (read when a template is decoded)."""
        params = self.params
        if op in MUL_OPS:
            return params.mul_latency
        if op in DIV_OPS:
            return params.div_latency
        if op is Op.FDIV:
            return params.fp_div_latency
        if op in FP_OPS:
            return params.fp_latency
        return params.int_alu_latency


class LoadStoreQueues:
    """Occupancy tracking plus store-to-load forwarding over in-flight stores."""

    def __init__(self, params: CoreParams) -> None:
        self.params = params
        self.loads: List[UOp] = []
        self.stores: List[UOp] = []

    def has_load_slot(self) -> bool:
        return len(self.loads) < self.params.lq_size

    def has_store_slot(self) -> bool:
        return len(self.stores) < self.params.sq_size

    def add(self, uop: UOp) -> None:
        if uop.op is Op.LOAD:
            if not self.has_load_slot():
                raise SimulationError("load queue overflow")
            self.loads.append(uop)
        elif uop.op is Op.STORE:
            if not self.has_store_slot():
                raise SimulationError("store queue overflow")
            self.stores.append(uop)

    def has_unresolved_older_store(self, load: UOp) -> bool:
        """Any older store whose address is still unknown?  Loads wait for
        those (conservative memory disambiguation, no replay machinery)."""
        for store in self.stores:
            if store.seq < load.seq and store.addr is None and not store.squashed:
                return True
        return False

    def forward_value(self, load: UOp) -> Optional[int]:
        """Youngest older same-word store's value, if its address is known."""
        if load.addr is None:
            return None
        word = load.addr & ~0x7
        best: Optional[UOp] = None
        for store in self.stores:
            if store.seq < load.seq and store.addr is not None and (store.addr & ~0x7) == word:
                if best is None or store.seq > best.seq:
                    best = store
        return best.store_value if best is not None else None

    def drop_squashed(self) -> None:
        self.loads = [u for u in self.loads if not u.squashed]
        self.stores = [u for u in self.stores if not u.squashed]


def squash_penalty_cycles(num_squashed: int, squash_width: int) -> int:
    """Cycles the squash occupies given the per-cycle squash-width limit."""
    if num_squashed <= 0:
        return 0
    return int(math.ceil(num_squashed / squash_width))
