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


def _classify_op(op: Op) -> str:
    if op in INT_ALU_OPS:
        return "int"
    if op in MUL_OPS or op in DIV_OPS:
        return "mul"
    if op in FP_OPS:
        return "fp"
    if op in (Op.LOAD, Op.STORE):
        return "mem"
    if op in _BRANCH_OPS:
        return "branch"
    return "other"


#: Per-op decode metadata, folded into one dict so the µop hot path pays a
#: single enum-hash lookup instead of a chain of frozenset membership tests:
#: ``(is_serializing, is_branch, is_cond_branch, fu_class)``.
OP_META: Dict[Op, tuple] = {
    op: (op in _SERIALIZING_OPS, op in _BRANCH_OPS, op in _COND_BRANCH_OPS, _classify_op(op))
    for op in Op
}


class UOp:
    """One in-flight micro-op (a ROB entry)."""

    __slots__ = (
        "seq",
        "op",
        "pc",
        "instr",
        "semantic",
        "is_micro",
        "from_interrupt",
        "macro_last",
        "dest",
        "src_regs",
        "imm",
        "target",
        "safepoint",
        "chain",
        "extra_latency",
        "pred_taken",
        "pred_target",
        "history_token",
        "ras_snapshot",
        "state",
        "wait_count",
        "producers",
        "dependents",
        "src_values",
        "result",
        "addr",
        "store_value",
        "frontend_ready",
        "complete_cycle",
        "squashed",
        "uitt_index",
        "macro_first",
        "actual_taken",
        "actual_target",
        "is_serializing",
        "is_branch",
        "is_cond_branch",
        "fu_class",
    )

    def __init__(
        self,
        seq: int,
        op: Op,
        pc: int,
        frontend_ready: int,
        instr: Optional[Instruction] = None,
        semantic: str = "",
        is_micro: bool = False,
        from_interrupt: bool = False,
        macro_last: bool = True,
        dest: Optional[int] = None,
        src_regs: tuple = (),
        imm: int = 0,
        target: Optional[int] = None,
        safepoint: bool = False,
        chain: bool = False,
        extra_latency: int = 0,
        uitt_index: int = 0,
        macro_first: bool = True,
    ) -> None:
        self.seq = seq
        self.op = op
        # Classified once at dispatch; read many times per µop on the
        # complete/issue/squash paths.
        meta = OP_META[op]
        self.is_serializing = meta[0]
        self.is_branch = meta[1]
        self.is_cond_branch = meta[2]
        self.fu_class = meta[3]
        self.pc = pc
        self.instr = instr
        self.semantic = semantic
        self.is_micro = is_micro
        self.from_interrupt = from_interrupt
        self.macro_last = macro_last
        self.dest = dest
        self.src_regs = src_regs
        self.imm = imm
        self.target = target
        self.safepoint = safepoint
        self.chain = chain
        self.extra_latency = extra_latency
        self.uitt_index = uitt_index
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
        self.src_values: Dict[int, int] = {}
        self.result: int = 0
        self.addr: Optional[int] = None
        self.store_value: int = 0
        self.frontend_ready = frontend_ready
        self.complete_cycle = -1
        self.squashed = False
        self.macro_first = macro_first
        self.actual_taken = False
        self.actual_target: Optional[int] = None

    def source_value(self, reg: int, arch_regs: List[int]) -> int:
        """Operand value: the in-flight producer's result, or the committed register."""
        producer = self.producers.get(reg)
        if producer is not None:
            return producer.result
        return self.src_values.get(reg, arch_regs[reg])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        tag = "µ" if self.is_micro else ""
        return f"<UOp{tag} #{self.seq} {self.op.name} pc={self.pc} st={self.state}>"


class FunctionalUnits:
    """Per-cycle issue-bandwidth limits for each execution-resource class."""

    def __init__(self, params: CoreParams) -> None:
        self.params = params
        self._cycle = -1
        self._used: Dict[str, int] = {}
        self._limits = {
            "int": params.int_alu_units,
            "mul": params.mul_units,
            "fp": params.fp_units,
            "mem": 3,  # 2 load + 1 store ports, pooled
            "branch": 2,
            "other": params.issue_width,
        }
        # Per-op latency resolved once against this core's parameters; the
        # issue hot path reads the table instead of re-deriving per µop.
        self._latency: Dict[Op, int] = {op: self._latency_of(op) for op in Op}

    def try_acquire(self, op: Op, cycle: int, unit: Optional[str] = None) -> bool:
        # Keyed on the cycle *value*, not on call count, so the bandwidth
        # table resets correctly when the cycle-skipping engine jumps the
        # clock over quiescent stretches.
        if cycle != self._cycle:
            self._cycle = cycle
            self._used.clear()
        if unit is None:
            unit = OP_META[op][3]
        used = self._used.get(unit, 0)
        if used >= self._limits[unit]:
            return False
        self._used[unit] = used + 1
        return True

    def _latency_of(self, op: Op) -> int:
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

    def latency(self, op: Op) -> int:
        return self._latency[op]


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

    def remove(self, uop: UOp) -> None:
        if uop.op is Op.LOAD and uop in self.loads:
            self.loads.remove(uop)
        elif uop.op is Op.STORE and uop in self.stores:
            self.stores.remove(uop)

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
