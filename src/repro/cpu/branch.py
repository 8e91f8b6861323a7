"""Branch prediction: gshare direction predictor, BTB, and a return stack.

Prediction quality matters to the experiments in two ways: polling-based
notification eats a mispredict when the flag finally flips (§4.2), and
tracked interrupts must survive misspeculation recovery (§4.2's state
machine), which only gets exercised if branches actually mispredict.
"""

from __future__ import annotations

from array import array
from typing import List, Optional, Tuple

from repro.cpu.isa import Instruction, Op

_JMP, _CALL, _RET = Op.JMP, Op.CALL, Op.RET


class GsharePredictor:
    """Global-history XOR-indexed table of 2-bit saturating counters.

    The counters live in a ``bytearray`` (as do the BTB's columns in
    ``array``s): the macro tier copies and compares these tables at every
    window, and a flat buffer copies and compares as one block."""

    def __init__(self, table_bits: int = 12, history_bits: int = 12) -> None:
        self.table_bits = table_bits
        self.history_bits = history_bits
        self._table = bytearray([2]) * (1 << table_bits)  # weakly taken
        self._history = 0
        self._history_mask = (1 << history_bits) - 1
        self._index_mask = (1 << table_bits) - 1

    def predict(self, pc: int) -> bool:
        return self._table[(pc ^ self._history) & self._index_mask] >= 2

    def record_speculative(self, taken: bool) -> int:
        """Shift the predicted outcome into history; return prior history for recovery."""
        prior = self._history
        self._history = ((self._history << 1) | int(taken)) & self._history_mask
        return prior

    def restore_history(self, history: int) -> None:
        self._history = history

    def invert(self) -> None:
        """Invert every 2-bit counter: taken <-> not-taken (a fault storm)."""
        self._table = bytearray(3 - c for c in self._table)

    def update(self, pc: int, history_at_predict: int, taken: bool) -> None:
        """Train the counter indexed with the history in effect at prediction."""
        index = (pc ^ history_at_predict) & self._index_mask
        counter = self._table[index]
        if taken and counter < 3:
            self._table[index] = counter + 1
        elif not taken and counter > 0:
            self._table[index] = counter - 1


#: BTB tag of an empty entry (no PC is negative).
NO_TAG = -1


class BranchTargetBuffer:
    """Direct-mapped PC -> target cache for taken branches."""

    def __init__(self, entries: int = 1024) -> None:
        self._entries = entries
        self._tags = array("q", [NO_TAG]) * entries
        self._targets = array("q", [0]) * entries

    def lookup(self, pc: int) -> Optional[int]:
        index = pc % self._entries
        if self._tags[index] == pc:
            return self._targets[index]
        return None

    def invalidate(self) -> None:
        """Drop every entry."""
        self._tags = array("q", [NO_TAG]) * self._entries

    def update(self, pc: int, target: int) -> None:
        index = pc % self._entries
        self._tags[index] = pc
        self._targets[index] = target


class ReturnAddressStack:
    """A small RAS for CALL/RET pairs."""

    def __init__(self, depth: int = 16) -> None:
        self._depth = depth
        self._stack: List[int] = []

    def push(self, return_pc: int) -> None:
        if len(self._stack) >= self._depth:
            self._stack.pop(0)
        self._stack.append(return_pc)

    def pop(self) -> Optional[int]:
        return self._stack.pop() if self._stack else None

    def snapshot(self) -> List[int]:
        return list(self._stack)

    def restore(self, snapshot: List[int]) -> None:
        self._stack = list(snapshot)


class BranchPredictor:
    """The front-end's combined predictor.

    ``predict(pc, instruction)`` returns ``(taken, target, history_token)``;
    ``history_token`` must be passed back to :meth:`resolve` so training and
    history recovery use the state in effect at prediction time.
    """

    def __init__(self, table_bits: int = 12, btb_entries: int = 1024) -> None:
        self.gshare = GsharePredictor(table_bits=table_bits)
        self.btb = BranchTargetBuffer(entries=btb_entries)
        self.ras = ReturnAddressStack()
        self.predictions = 0
        self.mispredictions = 0

    def predict(self, pc: int, instruction: Instruction) -> Tuple[bool, Optional[int], int]:
        # One call per prediction: the gshare and BTB tables are read here
        # directly (``GsharePredictor.predict``/``record_speculative`` and
        # ``BranchTargetBuffer.lookup``, inlined).
        self.predictions += 1
        gshare = self.gshare
        history = gshare._history
        op = instruction.op
        if op is _JMP or op is _CALL:
            # Direct unconditional: target known at decode.
            target = instruction.target if isinstance(instruction.target, int) else None
            if op is _CALL:
                self.ras.push(pc + 1)
            gshare._history = ((history << 1) | 1) & gshare._history_mask
            return True, target, history
        if op is _RET:
            target = self.ras.pop()
            gshare._history = ((history << 1) | 1) & gshare._history_mask
            return True, target, history
        # Conditional branch.
        taken = gshare._table[(pc ^ history) & gshare._index_mask] >= 2
        target: Optional[int] = None
        if taken:
            btb = self.btb
            index = pc % btb._entries
            if btb._tags[index] == pc:
                target = btb._targets[index]
            elif isinstance(instruction.target, int):
                # Direct conditional branches carry their target in the
                # encoding; the BTB only matters for the first-sight case,
                # which we approximate as available at decode.
                target = instruction.target
            gshare._history = ((history << 1) | 1) & gshare._history_mask
        else:
            gshare._history = (history << 1) & gshare._history_mask
        return taken, target, history

    def resolve(
        self,
        pc: int,
        conditional: bool,
        history_token: int,
        actual_taken: bool,
        actual_target: int,
        predicted_taken: bool,
        predicted_target: Optional[int],
    ) -> bool:
        """Train on the outcome of the branch at ``pc`` (``conditional``: a
        conditional branch, which trains the direction table); return True
        if this was a misprediction.  Trains the tables directly
        (``GsharePredictor.update``, ``BranchTargetBuffer.update``)."""
        if conditional:
            gshare = self.gshare
            table = gshare._table
            index = (pc ^ history_token) & gshare._index_mask
            counter = table[index]
            if actual_taken:
                if counter < 3:
                    table[index] = counter + 1
            elif counter > 0:
                table[index] = counter - 1
        if actual_taken:
            btb = self.btb
            index = pc % btb._entries
            btb._tags[index] = pc
            btb._targets[index] = actual_target
            if predicted_taken and predicted_target == actual_target:
                return False
        elif not predicted_taken:
            return False
        self.mispredictions += 1
        return True

    @property
    def misprediction_rate(self) -> float:
        return self.mispredictions / self.predictions if self.predictions else 0.0
