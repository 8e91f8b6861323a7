"""The µ-ISA: a small register machine with the structure the experiments need.

We do not decode real x86.  What the paper's results depend on is *structural*:
register dataflow (dependence chains, the stack-pointer dependence of §6.1),
memory operations against a cache hierarchy (pointer chasing, UPID reads,
polling lines), branches with prediction (polling checks, misspeculation
interacting with tracked interrupts), and the microcoded user-interrupt
instructions.  The µ-ISA provides exactly those.

Registers are ``r0``-``r15``; by convention ``r15`` is the stack pointer
(``sp``) and ``r14`` the link register (``lr``) used by CALL/RET.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum, auto
from typing import Optional, Union

from repro.common.errors import ConfigError

NUM_REGS = 16


class RegNames:
    """Conventional register aliases."""

    SP = 15  # stack pointer — the register the §6.1 worst case targets
    LR = 14  # link register for CALL/RET
    ZERO = 0  # by convention programs keep r0 == 0 (not enforced in hardware)


class Op(Enum):
    """Operation kinds of the µ-ISA (program-visible and microcode-internal)."""

    # Integer ALU
    ADD = auto()
    SUB = auto()
    MUL = auto()
    DIV = auto()
    AND = auto()
    OR = auto()
    XOR = auto()
    SHL = auto()
    SHR = auto()
    MOV = auto()
    MOVI = auto()
    # Floating point (linpack/matmul kernels)
    FADD = auto()
    FMUL = auto()
    FDIV = auto()
    # Memory
    LOAD = auto()
    STORE = auto()
    # Control flow
    BEQ = auto()
    BNE = auto()
    BLT = auto()
    BGE = auto()
    JMP = auto()
    CALL = auto()
    RET = auto()
    # Special / system
    RDTSC = auto()
    NOP = auto()
    HALT = auto()
    # User-interrupt ISA (UIPI, §3.2)
    SENDUIPI = auto()
    UIRET = auto()
    CLUI = auto()
    STUI = auto()
    TESTUI = auto()
    # xUI kernel-bypass timer ISA (§4.3)
    SETTIMER = auto()
    CLRTIMER = auto()
    # Microcode-internal operations (never appear in programs)
    MSR_WRITE = auto()  # serializing; writing the ICR sends the IPI
    MSR_READ = auto()
    UJMP = auto()  # microcode jump to the registered user handler
    UEND = auto()  # marks the end of a microcode routine


#: Ops whose result comes from the integer ALU network.
INT_ALU_OPS = frozenset(
    {Op.ADD, Op.SUB, Op.AND, Op.OR, Op.XOR, Op.SHL, Op.SHR, Op.MOV, Op.MOVI}
)
MUL_OPS = frozenset({Op.MUL})
DIV_OPS = frozenset({Op.DIV})
FP_OPS = frozenset({Op.FADD, Op.FMUL, Op.FDIV})
MEM_OPS = frozenset({Op.LOAD, Op.STORE})
COND_BRANCH_OPS = frozenset({Op.BEQ, Op.BNE, Op.BLT, Op.BGE})
UNCOND_BRANCH_OPS = frozenset({Op.JMP, Op.CALL, Op.RET})
BRANCH_OPS = COND_BRANCH_OPS | UNCOND_BRANCH_OPS
#: Instructions implemented via MSROM microcode expansion.
MICROCODED_OPS = frozenset({Op.SENDUIPI})
#: Instructions that serialize the pipeline when they execute.
SERIALIZING_OPS = frozenset({Op.MSR_WRITE, Op.STUI})


@dataclass(frozen=True)
class Instruction:
    """One µ-ISA instruction.

    ``target`` holds a label name until :meth:`repro.cpu.program.ProgramBuilder.build`
    resolves it to an instruction index.  ``safepoint`` models the x86
    instruction-prefix encoding of hardware safepoints (§4.4): any
    instruction can carry it, turning it into a point where safepoint-mode
    interrupt delivery is permitted.
    """

    op: Op
    dest: Optional[int] = None
    src1: Optional[int] = None
    src2: Optional[int] = None
    imm: int = 0
    target: Optional[Union[str, int]] = None
    safepoint: bool = False
    comment: str = ""

    def __post_init__(self) -> None:
        for name, reg in (("dest", self.dest), ("src1", self.src1), ("src2", self.src2)):
            if reg is not None and not 0 <= reg < NUM_REGS:
                raise ConfigError(f"{name} register out of range: {reg}")

    @property
    def is_branch(self) -> bool:
        return self.op in BRANCH_OPS

    @property
    def is_cond_branch(self) -> bool:
        return self.op in COND_BRANCH_OPS

    @property
    def is_mem(self) -> bool:
        return self.op in MEM_OPS

    @property
    def is_microcoded(self) -> bool:
        return self.op in MICROCODED_OPS

    def with_safepoint(self) -> "Instruction":
        """Return a copy carrying the safepoint prefix."""
        return replace(self, safepoint=True)

    def source_regs(self) -> tuple:
        """Registers read by this instruction (order is irrelevant)."""
        sources = []
        if self.src1 is not None:
            sources.append(self.src1)
        if self.src2 is not None:
            sources.append(self.src2)
        if self.op is Op.RET:
            sources.append(RegNames.LR)
        return tuple(sources)

    def dest_reg(self) -> Optional[int]:
        """Register written by this instruction, if any."""
        if self.op is Op.CALL:
            return RegNames.LR
        if self.op in (Op.STORE, Op.HALT, Op.NOP) or self.op in BRANCH_OPS:
            return self.dest if self.op not in BRANCH_OPS else None
        return self.dest


# ---------------------------------------------------------------------------
# Construction helpers — make program builders read like assembly.
# ---------------------------------------------------------------------------


def add(dest: int, src1: int, src2: int) -> Instruction:
    return Instruction(Op.ADD, dest=dest, src1=src1, src2=src2)


def addi(dest: int, src1: int, imm: int) -> Instruction:
    """Add-immediate is encoded as ADD with src2=None and an immediate."""
    return Instruction(Op.ADD, dest=dest, src1=src1, imm=imm)


def sub(dest: int, src1: int, src2: int) -> Instruction:
    return Instruction(Op.SUB, dest=dest, src1=src1, src2=src2)


def subi(dest: int, src1: int, imm: int) -> Instruction:
    return Instruction(Op.SUB, dest=dest, src1=src1, imm=imm)


def mul(dest: int, src1: int, src2: int) -> Instruction:
    return Instruction(Op.MUL, dest=dest, src1=src1, src2=src2)


def div(dest: int, src1: int, src2: int) -> Instruction:
    return Instruction(Op.DIV, dest=dest, src1=src1, src2=src2)


def band(dest: int, src1: int, src2: int) -> Instruction:
    return Instruction(Op.AND, dest=dest, src1=src1, src2=src2)


def andi(dest: int, src1: int, imm: int) -> Instruction:
    return Instruction(Op.AND, dest=dest, src1=src1, imm=imm)


def bxor(dest: int, src1: int, src2: int) -> Instruction:
    return Instruction(Op.XOR, dest=dest, src1=src1, src2=src2)


def xori(dest: int, src1: int, imm: int) -> Instruction:
    return Instruction(Op.XOR, dest=dest, src1=src1, imm=imm)


def shli(dest: int, src1: int, imm: int) -> Instruction:
    return Instruction(Op.SHL, dest=dest, src1=src1, imm=imm)


def shri(dest: int, src1: int, imm: int) -> Instruction:
    return Instruction(Op.SHR, dest=dest, src1=src1, imm=imm)


def mov(dest: int, src1: int) -> Instruction:
    return Instruction(Op.MOV, dest=dest, src1=src1)


def movi(dest: int, imm: int) -> Instruction:
    return Instruction(Op.MOVI, dest=dest, imm=imm)


def fadd(dest: int, src1: int, src2: int) -> Instruction:
    return Instruction(Op.FADD, dest=dest, src1=src1, src2=src2)


def fmul(dest: int, src1: int, src2: int) -> Instruction:
    return Instruction(Op.FMUL, dest=dest, src1=src1, src2=src2)


def load(dest: int, base: int, offset: int = 0) -> Instruction:
    return Instruction(Op.LOAD, dest=dest, src1=base, imm=offset)


def store(src: int, base: int, offset: int = 0) -> Instruction:
    return Instruction(Op.STORE, src1=base, src2=src, imm=offset)


def beq(src1: int, src2: int, target: Union[str, int]) -> Instruction:
    return Instruction(Op.BEQ, src1=src1, src2=src2, target=target)


def bne(src1: int, src2: int, target: Union[str, int]) -> Instruction:
    return Instruction(Op.BNE, src1=src1, src2=src2, target=target)


def blt(src1: int, src2: int, target: Union[str, int]) -> Instruction:
    return Instruction(Op.BLT, src1=src1, src2=src2, target=target)


def bge(src1: int, src2: int, target: Union[str, int]) -> Instruction:
    return Instruction(Op.BGE, src1=src1, src2=src2, target=target)


def beqi(src1: int, imm: int, target: Union[str, int]) -> Instruction:
    """Branch if ``reg == imm`` (immediate-compare form)."""
    return Instruction(Op.BEQ, src1=src1, imm=imm, target=target)


def bnei(src1: int, imm: int, target: Union[str, int]) -> Instruction:
    return Instruction(Op.BNE, src1=src1, imm=imm, target=target)


def blti(src1: int, imm: int, target: Union[str, int]) -> Instruction:
    return Instruction(Op.BLT, src1=src1, imm=imm, target=target)


def bgei(src1: int, imm: int, target: Union[str, int]) -> Instruction:
    return Instruction(Op.BGE, src1=src1, imm=imm, target=target)


def jmp(target: Union[str, int]) -> Instruction:
    return Instruction(Op.JMP, target=target)


def call(target: Union[str, int]) -> Instruction:
    return Instruction(Op.CALL, target=target)


def ret() -> Instruction:
    return Instruction(Op.RET)


def rdtsc(dest: int) -> Instruction:
    return Instruction(Op.RDTSC, dest=dest)


def nop() -> Instruction:
    return Instruction(Op.NOP)


def halt() -> Instruction:
    return Instruction(Op.HALT)


def senduipi(uitt_index: int) -> Instruction:
    return Instruction(Op.SENDUIPI, imm=uitt_index)


def uiret() -> Instruction:
    return Instruction(Op.UIRET)


def clui() -> Instruction:
    return Instruction(Op.CLUI)


def stui() -> Instruction:
    return Instruction(Op.STUI)


def testui(dest: int) -> Instruction:
    return Instruction(Op.TESTUI, dest=dest)


def set_timer(cycles_reg: int, mode_reg: int) -> Instruction:
    """xUI ``set_timer(cycles, mode)`` — §4.3."""
    return Instruction(Op.SETTIMER, src1=cycles_reg, src2=mode_reg)


def clear_timer() -> Instruction:
    return Instruction(Op.CLRTIMER)


def safepoint() -> Instruction:
    """A standalone safepoint (a NOP carrying the safepoint prefix)."""
    return Instruction(Op.NOP, safepoint=True)
