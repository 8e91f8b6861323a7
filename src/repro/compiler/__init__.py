"""Compiler support: the preemption instrumentation hooks of Figure 5.

The paper's Figure 5 compares three preemption mechanisms on instrumented
programs: Concord-style *polling* instrumentation (a check at every function
entry and loop back-edge), xUI *hardware safepoints* (a safepoint prefix at
the same sites, §4.4), and plain UIPI (no instrumentation).  This package
provides them as :class:`Instrumenter` hooks consumed by the µ-ISA benchmark
builders.
"""

from repro.compiler.instrument import (
    Instrumenter,
    NullInstrumenter,
    PollingInstrumenter,
    SafepointInstrumenter,
)

__all__ = [
    "Instrumenter",
    "NullInstrumenter",
    "PollingInstrumenter",
    "SafepointInstrumenter",
]
