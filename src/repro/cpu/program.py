"""Programs and the assembler-style builder.

A :class:`Program` is a flat list of instructions plus a label table.  The
program counter of the cycle tier is an *index* into this list; instruction
``i`` occupies byte address ``code_base + 4 * i`` for I-cache purposes.

Programs may designate a *user interrupt handler* entry label; the interrupt
delivery microcode transfers control there and the handler returns with
``uiret`` (§3.3 step 5-7).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional

from repro.common.errors import ConfigError
from repro.cpu import isa
from repro.cpu.isa import Instruction

#: Byte address of instruction index 0 (arbitrary; shared by all programs).
CODE_BASE = 0x40_0000
#: Encoded instruction size in bytes (for I-cache line behaviour).
INSTR_BYTES = 4


def instruction_address(index: int) -> int:
    """Byte address of the instruction at ``index`` (for the I-cache)."""
    return CODE_BASE + INSTR_BYTES * index


@dataclass
class Program:
    """An executable program for the cycle tier."""

    instructions: List[Instruction]
    labels: Dict[str, int] = field(default_factory=dict)
    handler_label: Optional[str] = None
    entry_label: Optional[str] = None
    name: str = ""

    def __post_init__(self) -> None:
        if not self.instructions:
            raise ConfigError(f"program {self.name!r} has no instructions")
        for label, index in self.labels.items():
            if not 0 <= index <= len(self.instructions):
                raise ConfigError(f"label {label!r} out of range: {index}")
        if self.handler_label is not None and self.handler_label not in self.labels:
            raise ConfigError(f"handler label {self.handler_label!r} is not defined")
        if self.entry_label is not None and self.entry_label not in self.labels:
            raise ConfigError(f"entry label {self.entry_label!r} is not defined")

    def __len__(self) -> int:
        return len(self.instructions)

    @property
    def entry_index(self) -> int:
        return self.labels[self.entry_label] if self.entry_label else 0

    @property
    def handler_index(self) -> Optional[int]:
        return self.labels[self.handler_label] if self.handler_label else None

    def at(self, index: int) -> Instruction:
        if not 0 <= index < len(self.instructions):
            raise ConfigError(f"program index out of range: {index}")
        return self.instructions[index]


class ProgramBuilder:
    """Builds a :class:`Program`, resolving labels to indices.

    Usage::

        b = ProgramBuilder("spin")
        b.label("loop")
        b.emit(isa.addi(1, 1, 1))
        b.emit(isa.jmp("loop"))
        program = b.build()
    """

    def __init__(self, name: str = "") -> None:
        self.name = name
        self._instructions: List[Instruction] = []
        self._labels: Dict[str, int] = {}
        self._handler_label: Optional[str] = None
        self._entry_label: Optional[str] = None

    def __len__(self) -> int:
        return len(self._instructions)

    def label(self, name: str) -> "ProgramBuilder":
        """Define ``name`` at the next instruction's index."""
        if name in self._labels:
            raise ConfigError(f"label {name!r} defined twice")
        self._labels[name] = len(self._instructions)
        return self

    def emit(self, *instructions: Instruction) -> "ProgramBuilder":
        self._instructions.extend(instructions)
        return self

    def handler(self, label: str) -> "ProgramBuilder":
        """Designate ``label`` as the user interrupt handler entry point."""
        self._handler_label = label
        return self

    def entry(self, label: str) -> "ProgramBuilder":
        self._entry_label = label
        return self

    # ------------------------------------------------------------------
    # Common code fragments
    # ------------------------------------------------------------------

    def emit_default_handler(
        self,
        label: str = "ui_handler",
        body_instructions: int = 4,
        counter_addr: Optional[int] = None,
        scratch: int = 12,
    ) -> "ProgramBuilder":
        """Emit a small user-interrupt handler and register it.

        The handler optionally increments a completion counter in memory
        (used by tests to observe deliveries), does a little ALU work, and
        returns with ``uiret`` — the shape of a minimal preemption handler.
        """
        self.label(label)
        self.handler(label)
        if counter_addr is not None:
            self.emit(isa.movi(scratch, counter_addr))
            self.emit(isa.load(scratch - 1, scratch, 0))
            self.emit(isa.addi(scratch - 1, scratch - 1, 1))
            self.emit(isa.store(scratch - 1, scratch, 0))
        for _ in range(body_instructions):
            self.emit(isa.addi(scratch, scratch, 1))
        self.emit(isa.uiret())
        return self

    def build(self) -> Program:
        resolved: List[Instruction] = []
        for position, instruction in enumerate(self._instructions):
            target = instruction.target
            if isinstance(target, str):
                if target not in self._labels:
                    raise ConfigError(
                        f"instruction {position} references undefined label {target!r}"
                    )
                instruction = replace(instruction, target=self._labels[target])
            resolved.append(instruction)
        return Program(
            instructions=resolved,
            labels=dict(self._labels),
            handler_label=self._handler_label,
            entry_label=self._entry_label,
            name=self.name,
        )
