"""Deterministic fault injection and invariant checking (robustness layer).

Public surface:

- :class:`~repro.faults.plan.Fault` / :class:`~repro.faults.plan.FaultPlan`
  — seedable, byte-stable fault schedules.
- :class:`~repro.faults.injector.FaultInjector` — applies a plan to a
  running cycle-tier system.
- :class:`~repro.faults.invariants.InvariantChecker` — read-only probes
  plus an end-of-run delivery-conservation audit; violations raise
  :class:`~repro.common.errors.InvariantViolation` carrying the plan dump.
- :func:`~repro.faults.harness.run_fault_cell` /
  :func:`~repro.faults.harness.run_fault_matrix` — the fault-matrix
  harness comparing naive vs cycle-skipping engines under faults.
"""

from repro.common.errors import InvariantViolation
from repro.faults.injector import FaultInjector, InjectionCounters
from repro.faults.invariants import InvariantChecker
from repro.faults.plan import (
    FAULT_KINDS,
    Fault,
    FaultPlan,
    merge_plans,
    plan_for_kind,
)
from repro.faults.harness import run_fault_cell, run_fault_matrix

__all__ = [
    "FAULT_KINDS",
    "Fault",
    "FaultInjector",
    "FaultPlan",
    "InjectionCounters",
    "InvariantChecker",
    "InvariantViolation",
    "merge_plans",
    "plan_for_kind",
    "run_fault_cell",
    "run_fault_matrix",
]
