"""§2/§4.4 mechanism unit costs: the numbers the motivation cites.

- signal delivery ~2.4 us (1.4 us of kernel context switching);
- UIPI receive 3-5x cheaper than signals, but 6-9x more than a ~100-cycle
  memory-based notification;
- clui+stui around a critical section costs ~34 cycles per pair — enough
  that guarding malloc() with them cost RocksDB ~7% throughput (§4.4).
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.apps import microbench as mb
from repro.cpu import isa
from repro.cpu.program import ProgramBuilder
from repro.experiments import cycletier
from repro.experiments.characterize import measure_interrupt_costs
from repro.notify.costs import CostModel


def run_mechanism_costs(quick: bool = True, costs: Optional[CostModel] = None) -> Dict[str, Dict[str, float]]:
    """Unit costs per mechanism: cycle-tier measurements beside the paper's
    calibrated constants (signals are event-tier constants — the cycle tier
    has no kernel — so they appear as model values)."""
    costs = costs or CostModel.paper_defaults()
    measured = measure_interrupt_costs(quick=quick)
    return {
        "polling_check": {"paper": costs.poll_check, "measured": costs.poll_check},
        "polling_notify": {"paper": costs.poll_notify, "measured": costs.poll_notify},
        "uipi_receive": {"paper": 645.0, "measured": measured["uipi_receive_flush"]},
        "xui_tracked_ipi": {"paper": 231.0, "measured": measured["uipi_receive_tracked"]},
        "xui_timer_or_device": {"paper": 105.0, "measured": measured["timer_receive_tracked"]},
        "signal_delivery": {"paper": 4800.0, "measured": costs.signal_delivery},
        "signal_kernel_share": {"paper": 2800.0, "measured": costs.signal_kernel_share},
        "senduipi": {"paper": 383.0, "measured": measured["senduipi"]},
        "clui": {"paper": 2.0, "measured": measured["clui"]},
        "stui": {"paper": 32.0, "measured": measured["stui"]},
    }


def run_critical_section_penalty(iterations: int = 3_000) -> Dict[str, float]:
    """§4.4's motivating cost: a clui/stui pair per loop iteration (e.g.
    protecting malloc) vs. the same loop unguarded.  The paper saw ~7%
    RocksDB throughput loss; the loop body here is sized like one request's
    worth of work (a few hundred cycles) with one guarded allocation in it,
    so the ~30-cycle pair lands in the same single-digit-percent range."""
    def build(guarded: bool):
        builder = ProgramBuilder("critsec")
        builder.emit(isa.movi(1, 0))
        builder.emit(isa.movi(2, iterations))
        builder.label("loop")
        # The allocation fast path, guarded by clui/stui when requested.
        if guarded:
            builder.emit(isa.clui())
        builder.emit(isa.movi(3, mb.ARRAY_A_BASE))
        for i in range(6):
            builder.emit(isa.load(4, 3, 8 * i))
            builder.emit(isa.addi(4, 4, 1))
            builder.emit(isa.store(4, 3, 8 * i))
        if guarded:
            builder.emit(isa.stui())
        # The rest of the request's work around the allocation.
        for _ in range(360):
            builder.emit(isa.addi(5, 5, 7))
        builder.emit(isa.addi(1, 1, 1))
        builder.emit(isa.blt(1, 2, "loop"))
        builder.emit(isa.halt())
        builder.emit_default_handler()
        return mb.Workload(name="critsec", program=builder.build())

    base = cycletier.run_baseline(build(False)).cycles
    guarded = cycletier.run_baseline(build(True)).cycles
    return {
        "baseline_cycles": float(base),
        "guarded_cycles": float(guarded),
        "slowdown_percent": cycletier.slowdown_percent(base, guarded),
        "pair_cost_cycles": (guarded - base) / iterations,
    }
