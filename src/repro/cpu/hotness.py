"""Hot-block detection for the macro-op trace tier (``REPRO_MACRO``).

The detector counts *committed, taken, backward* branches (conditional or
``JMP``) per branch PC — the classic trace-cache heuristic: a taken
backward branch marks a loop back-edge, and a back-edge that commits
``HOT_THRESHOLD`` times without the counters being reset identifies a
steady-state loop body worth promoting to a macro-op (see
``repro.cpu.macroop``).

Counting happens at *commit* (never on the speculative path), so wrong-path
back-edges cannot arm the recorder.  The tracker is deliberately free of any
wall-clock or global state: its only inputs are the branch PCs the core
feeds it, keeping recording/replay simulation-pure (detlint PRO104).
"""

from __future__ import annotations

from typing import Dict, Optional

#: Committed back-edge executions before a loop is considered hot.
HOT_THRESHOLD = 64
#: Counter-table bound; a full table is reset wholesale (cheap and rare).
MAX_TRACKED_PCS = 256


class HotnessTracker:
    """Per-core committed back-edge counters with a hotness threshold."""

    __slots__ = ("threshold", "_counts")

    def __init__(self, threshold: int = HOT_THRESHOLD) -> None:
        self.threshold = threshold
        self._counts: Dict[int, int] = {}

    def note_backedge(self, pc: int) -> Optional[int]:
        """Count one committed taken backward branch at ``pc``.

        Returns ``pc`` when the branch just crossed the hotness threshold
        (the caller should try to arm a recording), else ``None``.
        """
        counts = self._counts
        count = counts.get(pc, 0) + 1
        if count >= self.threshold:
            counts.clear()
            return pc
        if count == 1 and len(counts) >= MAX_TRACKED_PCS:
            counts.clear()
        counts[pc] = count
        return None

    def reset(self) -> None:
        """Forget all counts (after a formation attempt, bail, or replay)."""
        self._counts.clear()
