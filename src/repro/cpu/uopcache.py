"""The decoded micro-op cache (DSB) and loop-stream path (§4.4).

Modern Intel front-ends often bypass the decoders: recently decoded micro-ops
are served from a micro-op cache (and very hot loops from the loop stream
detector).  §4.4 calls out the interaction with hardware safepoints: "we add
a bit to the encoding of each micro-op to indicate whether it is a
safepoint", so safepoint-mode delivery still recognizes safepoints when
instructions never pass through the decoders.

The model: a small set-associative structure keyed by program index whose
entries are the *decoded* form — (dest, sources, immediate, target, and the
safepoint bit).  Hits shorten the effective front-end depth (fewer pipeline
stages between fetch and issue); misses decode normally and fill the cache.
The safepoint bit is stored in the entry, exercised by the safepoint tests
regardless of which path fetched the instruction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.common.errors import ConfigError
from repro.cpu.isa import Instruction, Op


@dataclass(frozen=True, slots=True)
class UopCacheEntry:
    """One cached decoded micro-op (the 'encoding' of §4.4, with its
    safepoint bit): operation, register slots, immediate, branch target,
    extra issue latency and the safepoint bit.  Hits and misses are the
    modelled front-end timing; the core instantiates µops from its own
    decode of the program (``Core._decode``), which the entry mirrors.
    """

    pc: int
    dest: Optional[int]
    src_regs: Tuple[int, ...]
    imm: int
    target: Optional[int]
    safepoint: bool
    op_name: str
    #: The operation itself (op_name is kept for display/back-compat).
    op: Optional[Op] = None
    #: Extra issue latency baked into the decoded form (e.g. the stui stall).
    extra_latency: int = 0


class UopCache:
    """Set-associative cache of decoded micro-ops, indexed by program PC."""

    __slots__ = ("num_sets", "ways", "hit_depth_bonus", "_sets", "hits", "misses")

    def __init__(self, sets: int = 64, ways: int = 8, hit_depth_bonus: int = 4) -> None:
        if sets <= 0 or ways <= 0:
            raise ConfigError("uop cache geometry must be positive")
        if hit_depth_bonus < 0:
            raise ConfigError("hit_depth_bonus must be non-negative")
        self.num_sets = sets
        self.ways = ways
        #: Front-end stages skipped on a hit (decode/complex-decode stages).
        self.hit_depth_bonus = hit_depth_bonus
        # Each set is an immutable tuple, most-recently-used last (see
        # ``SetAssociativeCache``): a reorder or fill rebinds the set.
        self._sets: List[Tuple[UopCacheEntry, ...]] = [()] * sets
        self.hits = 0
        self.misses = 0

    def lookup(self, pc: int) -> Optional[UopCacheEntry]:
        """Serve the decoded form of ``pc`` if cached (LRU update)."""
        index = pc % self.num_sets
        entries = self._sets[index]
        if entries:
            # Hot loops re-fetch the same PC back to back: the MRU entry sits
            # at the tail, so serve it without the LRU reorder.
            entry = entries[-1]
            if entry.pc == pc:
                self.hits += 1
                return entry
        for at, entry in enumerate(entries):
            if entry.pc == pc:
                self._sets[index] = entries[:at] + entries[at + 1 :] + (entry,)
                self.hits += 1
                return entry
        self.misses += 1
        return None

    def fill(
        self, pc: int, instruction: Instruction, dest, src_regs, extra_latency: int = 0
    ) -> UopCacheEntry:
        """Insert the decoded form of ``instruction`` (called on the decode
        path); carries the safepoint prefix into the cached encoding."""
        entry = UopCacheEntry(
            pc=pc,
            dest=dest,
            src_regs=tuple(src_regs),
            imm=instruction.imm,
            target=instruction.target if isinstance(instruction.target, int) else None,
            safepoint=instruction.safepoint,
            op_name=instruction.op.name,
            op=instruction.op,
            extra_latency=extra_latency,
        )
        index = pc % self.num_sets
        entries = tuple(e for e in self._sets[index] if e.pc != pc)
        if len(entries) >= self.ways:
            entries = entries[1:]
        self._sets[index] = entries + (entry,)
        return entry

    def invalidate_all(self) -> None:
        self._sets = [()] * self.num_sets

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0
