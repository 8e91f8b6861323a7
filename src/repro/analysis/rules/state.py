"""S-rules (STA2xx): state-surface coverage and write ownership.

The differential fuzzer found the canonical fast-tier bug *dynamically*:
``ready_heap`` staleness through ``note_skipped``, core state the skip
proof did not account for.  These rules move that bug class to lint time,
using the whole-program state model extracted by
:mod:`repro.analysis.statemodel`:

- STA202: the fast loop's skip proof (``Core.next_activity_cycle`` and
  ``Core.note_skipped``) must reference every mutable ``Core`` field or
  exempt it in :data:`FAST_ACTIVITY_EXEMPT`.
- STA204: read-only modules (``repro.obs``, ``repro.faults.invariants``)
  must not store to engine-state fields owned by other packages; the
  InvariantChecker's "read-only" promise becomes machine-checked.  Declared
  interception points (:data:`WRITE_GRANTS`) are the only exceptions.
- STA205: cross-package attribute writes to modeled engine state must come
  from the owning package or a declared grant — only ``repro.cpu`` writes
  ``Core`` microarchitectural fields; fault injection mutates only through
  its declared interception points.

Fixture pragmas (all ``# detlint:``-prefixed, like the PRO-family pragmas)
let single-file fixtures exercise each rule without shipping a fake engine:

- ``state-class[Name owner=pkg core hot]`` — declare a modeled class
  (parsed by :mod:`repro.analysis.statemodel`).
- ``activity-fn[f,g]`` — STA202: these functions are the activity surface.
- ``exempt[Class.field] -- reason`` — exempt one field from STA202; the
  reason is mandatory.
- ``write-grant[Class.field pkg]`` — STA204/205: declare an interception
  point granting ``pkg`` write access (fixture-local).
- ``read-only-module`` — STA204: apply the read-only contract to the file.

Write-resolution semantics (shared with the state model): a store resolves
strictly when the receiver name hints a modeled class, else to every class
declaring the field; ambiguous writes pass if *any* candidate permits them,
and fields of the writing module's own non-modeled classes are skipped —
ambiguity can relax a finding but never invent one (zero false positives on
the clean tree is the contract).
"""

from __future__ import annotations

import ast
import re
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.analysis.findings import Finding
from repro.analysis.rules import ModuleSource, ProgramModel, ProgramRule, register
from repro.analysis.statemodel import (
    ClassModel,
    StateModel,
    nonmodel_class_fields,
)

# ---------------------------------------------------------------------------
# Declared policy: who may write what, and which fields the fast tiers may
# ignore.  Every entry carries the invariant that justifies it — these are
# audit artifacts, not an escape hatch (satellite rule: never baseline a
# true positive silently).

#: Modules that must be read-only over engine state (prefix match).
READ_ONLY_MODULES: Tuple[str, ...] = ("repro.obs", "repro.faults.invariants")

#: Declared cross-package write grants: ``"Class.field" -> (module prefixes)``.
#: These are the *interception points* — the complete, reviewed list of
#: places allowed to mutate another package's engine state.
WRITE_GRANTS: Dict[str, Tuple[str, ...]] = {
    # §4.4 safepoint mode is an architectural MSR bit: the xui feature API
    # is its canonical writer, and the scenario compiler / fault harness set
    # it at configuration time (before cycle 0), never mid-simulation.
    "UserInterruptFile.safepoint_mode": (
        "repro.xui",
        "repro.scenario.compile",
        "repro.faults.harness",
    ),
    # Declared fault-injection interception points: the injector may drift a
    # timer deadline and install an APIC-level interceptor — and nothing
    # else.  Any new injector mutation must be granted here to pass lint.
    "KBTimerState.deadline": ("repro.faults.injector",),
    "LocalApic.fault_interceptor": ("repro.faults.injector",),
    # The InvariantChecker installs its probe hook on the core; the probe
    # itself only reads (that is exactly what STA204 enforces elsewhere).
    "Core.invariant_probe": ("repro.faults.invariants",),
}

#: Shared justification for the run-loop's memoized next-activity cache.
#: These four fields summarize the primary activity sources (heaps, timers,
#: stalls); a stale summary can only *shorten* a skip (forcing a re-scan),
#: never extend one, so neither tier needs to version them.
_NA_CACHE_REASON = (
    "run-loop memoization of next_activity_cycle; re-derived from the "
    "primary sources (heaps/timers/stalls), staleness can only shorten a skip"
)

#: Shared justification for configuration-time installs: written before
#: cycle 0 (system wiring / kernel registration), constant during simulation.
_CONFIG_TIME_REASON = "installed at configuration time, constant during simulation"

#: Shared justification for data-path fields only the core's own step()
#: (or its interrupt-delivery path, which runs inside step()) mutates: a
#: skipped core executes nothing, and the skip proof consults only timing
#: sources (heaps, timers, stalls), never data-path values.
_STEP_ONLY_REASON = (
    "mutated only while the core itself steps (pipeline/delivery path); a "
    "skipped core executes nothing and the horizon proof reads only timing "
    "sources"
)

#: STA202 — mutable ``Core`` fields the fast loop's skip proof
#: (next_activity_cycle + note_skipped) may ignore.  This is the complete
#: audited list: every other mutable Core field must be read by the skip
#: proof or lint fails.
FAST_ACTIVITY_EXEMPT: Dict[str, str] = {
    "arch_regs": _STEP_ONLY_REASON,
    "reg_producer": _STEP_ONLY_REASON,
    "iq_count": _STEP_ONLY_REASON,
    "_seq": _STEP_ONLY_REASON,
    "_current_fetch_line": _STEP_ONLY_REASON,
    "_last_chain_uop": _STEP_ONLY_REASON,
    "interrupt_path": _STEP_ONLY_REASON,
    "current_interrupt": _STEP_ONLY_REASON,
    "macro_pc": _STEP_ONLY_REASON,
    "_macro_rec": _STEP_ONLY_REASON + " (macro-tier recorder bookkeeping)",
    "_trace_resume_pending": _STEP_ONLY_REASON,
    "last_program_commit_cycle": _STEP_ONLY_REASON,
    "_notif_pir": (
        "written during interrupt recognition, which only happens on a "
        "stepped cycle; the pending notification it records is already "
        "visible to next_activity_cycle through the APIC's pending set"
    ),
    "_idle_anchor": _NA_CACHE_REASON,
    "_na_backoff": _NA_CACHE_REASON,
    "_na_streak": _NA_CACHE_REASON,
    "_next_activity": _NA_CACHE_REASON,
    "halted": (
        "terminal: set once while the core steps and never cleared; the run "
        "loop tests it before consulting any horizon, so a halted core is "
        "neither stepped nor skipped"
    ),
    "_macro": (
        _CONFIG_TIME_REASON + " (installed per run() before the first cycle; "
        "the run loop hands scanning/arming cores to on_boundary before it "
        "steps them, never to the skip proof)"
    ),
    "invariant_probe": _CONFIG_TIME_REASON + " (declared fault-hook grant)",
    "_decoded": (
        "decode memo filled on first fetch of each program index, a pure "
        "function of the program and configuration; fetch happens only on a "
        "stepped cycle"
    ),
    "_routines": (
        "decode memo of the microcode routines, a pure function of the "
        "timing configuration; filled only on a stepped cycle"
    ),
    "uitt": _CONFIG_TIME_REASON + " (connect_uipi / kernel UITT registration)",
}

# ---------------------------------------------------------------------------
# Pragmas

_ACTIVITY_FN_RE = re.compile(r"#\s*detlint:\s*activity-fn\[([A-Za-z0-9_,\s]+)\]")
_EXEMPT_RE = re.compile(r"#\s*detlint:\s*exempt\[(\w+)\.(\w+)\]\s*--\s*(\S.*)")
_GRANT_RE = re.compile(r"#\s*detlint:\s*write-grant\[(\w+)\.(\w+)\s+([\w.]+)\]")
_READ_ONLY_RE = re.compile(r"#\s*detlint:\s*read-only-module\b")


def _fn_list(regex: re.Pattern, text: str) -> List[str]:
    names: List[str] = []
    for match in regex.finditer(text):
        names.extend(part.strip() for part in match.group(1).split(",") if part.strip())
    return names


def _pragma_exemptions(text: str) -> Dict[Tuple[str, str], str]:
    return {
        (match.group(1), match.group(2)): match.group(3).strip()
        for match in _EXEMPT_RE.finditer(text)
    }


def _pragma_grants(text: str) -> Dict[str, Tuple[str, ...]]:
    grants: Dict[str, Tuple[str, ...]] = {}
    for match in _GRANT_RE.finditer(text):
        key = f"{match.group(1)}.{match.group(2)}"
        grants[key] = grants.get(key, ()) + (match.group(3),)
    return grants


# ---------------------------------------------------------------------------
# AST helpers

class _Loc:
    """Minimal node stand-in carrying a source location for findings."""

    __slots__ = ("lineno", "col_offset")

    def __init__(self, lineno: int, col_offset: int = 0) -> None:
        self.lineno = lineno
        self.col_offset = col_offset


def _attr_mentions(tree: ast.AST) -> Set[str]:
    """Every attribute name referenced anywhere in ``tree`` (any context)."""
    return {
        node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)
    }


def _functions_named(tree: ast.AST, names: Set[str]) -> List[ast.AST]:
    return [
        node
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and node.name in names
    ]


def _in_pkg(module: str, prefix: str) -> bool:
    return module == prefix or module.startswith(prefix + ".")


def _is_read_only(module: ModuleSource) -> bool:
    return any(_in_pkg(module.module, prefix) for prefix in READ_ONLY_MODULES) or bool(
        _READ_ONLY_RE.search(module.text)
    )


def _write_allowed(
    module: str,
    cls: ClassModel,
    attr: str,
    extra_grants: Dict[str, Tuple[str, ...]],
) -> bool:
    # No same-module free pass: ownership is the declared owner package.
    # Registered classes live inside their owner prefix, so their defining
    # module passes via _in_pkg; pragma classes honor the owner= token.
    if _in_pkg(module, cls.owner):
        return True
    key = f"{cls.name}.{attr}"
    for prefix in WRITE_GRANTS.get(key, ()) + extra_grants.get(key, ()):
        if _in_pkg(module, prefix):
            return True
    return False


def _local_nonmodel_fields(module: ModuleSource, model: StateModel) -> Set[str]:
    """Fields of classes defined in ``module`` that are *not* in the state
    model — writes to these are the module's own business."""
    modeled = {cls.name for cls in model.classes if cls.module == module.module}
    return nonmodel_class_fields(module.tree, modeled)


# ---------------------------------------------------------------------------
# STA202 — activity coverage


@register
class FastActivityCoverageRule(ProgramRule):
    """STA202 — the fast loop's skip proof must know every mutable Core
    field, and every exemption must name a field that exists."""

    rule_id = "STA202"
    description = (
        "mutable core-state field invisible to the fast loop's skip proof "
        "(next_activity_cycle / note_skipped)"
    )
    hint = (
        "reference the field from next_activity_cycle or note_skipped, or "
        "exempt it with the invariant that keeps the skip proof sound"
    )

    _ACTIVITY_FNS = {"next_activity_cycle", "note_skipped"}

    def check_program(self, program: ProgramModel) -> Iterator[Finding]:
        model = program.state_model
        for cls in model.core_classes():
            source = program.by_module.get(cls.module)
            if source is None:
                continue
            if cls.module == "repro.cpu.core":
                fn_names = self._ACTIVITY_FNS
                exempt = dict(FAST_ACTIVITY_EXEMPT)
            else:
                fn_names = set(_fn_list(_ACTIVITY_FN_RE, source.text))
                if not fn_names:
                    continue
                exempt = {
                    field: reason
                    for (name, field), reason in _pragma_exemptions(source.text).items()
                    if name == cls.name
                }
            readers: Set[str] = set()
            for fn in _functions_named(source.tree, fn_names):
                readers |= _attr_mentions(fn)
            surface = f"the skip proof of {source.module}"
            for info in cls.mutable_fields():
                if info.name in readers or exempt.get(info.name):
                    continue
                yield self.program_finding(
                    source,
                    None,
                    f"mutable {cls.name} field `{info.name}` is not referenced by "
                    f"{surface} and carries no exemption",
                    hint=(
                        f"teach {surface} about the field, or add it to "
                        "FAST_ACTIVITY_EXEMPT with the invariant that makes "
                        "skipping it safe"
                    ),
                )
            field_names = {info.name for info in cls.fields}
            for name in sorted(exempt):
                if name not in field_names:
                    yield self.program_finding(
                        source,
                        None,
                        f"stale exemption: `{name}` is not a field of {cls.name}",
                        hint="delete the entry from FAST_ACTIVITY_EXEMPT",
                    )


# ---------------------------------------------------------------------------
# STA204 / STA205 — write ownership


class _OwnershipRule(ProgramRule):
    """Shared resolution: map attribute stores to modeled classes and judge
    them against the ownership map + declared grants."""

    def _violations(
        self, program: ProgramModel, module: ModuleSource
    ) -> Iterator[Tuple[int, str, str, Tuple[ClassModel, ...]]]:
        model = program.state_model
        grants = _pragma_grants(module.text)
        local_fields: Optional[Set[str]] = None
        for write in model.writes:
            if write.module != module.module or write.self_direct:
                continue
            candidates = model.classes_with_field(write.attr)
            if not candidates:
                continue
            strict = tuple(
                cls
                for cls in candidates
                if cls.name.lower() == write.receiver
                or _hinted_class(write.receiver) == cls.name
            )
            if strict:
                candidates = strict
            else:
                if local_fields is None:
                    local_fields = _local_nonmodel_fields(module, model)
                if write.attr in local_fields:
                    continue  # plausibly the module's own class; never guess
            if any(
                _write_allowed(module.module, cls, write.attr, grants)
                for cls in candidates
            ):
                continue
            yield write.line, write.attr, write.receiver, candidates


def _hinted_class(receiver: str) -> str:
    from repro.analysis.statemodel import RECEIVER_HINTS

    return RECEIVER_HINTS.get(receiver, "")


@register
class ReadOnlyEngineStateRule(_OwnershipRule):
    """STA204 — obs/invariants are read-only over engine state."""

    rule_id = "STA204"
    description = (
        "read-only module (repro.obs, repro.faults.invariants) stores to an "
        "engine-state field owned by another package"
    )
    hint = (
        "observability and invariant checking must only read engine state; "
        "if this mutation is a deliberate probe hook, declare it in "
        "WRITE_GRANTS so the interception point is reviewed"
    )

    def check_program(self, program: ProgramModel) -> Iterator[Finding]:
        for module in program.sources:
            if not _is_read_only(module):
                continue
            for line, attr, receiver, candidates in self._violations(program, module):
                names = "/".join(sorted(cls.name for cls in candidates))
                yield self.program_finding(
                    module,
                    _Loc(line),
                    f"read-only module writes engine state "
                    f"`{receiver or '<expr>'}.{attr}` ({names})",
                )


@register
class WriteOwnershipRule(_OwnershipRule):
    """STA205 — engine state is written only by its owner or a grant."""

    rule_id = "STA205"
    description = (
        "attribute write to modeled engine state from outside the owning "
        "package without a declared grant/interception point"
    )
    hint = (
        "route the mutation through the owner's API, or — if this is a "
        "genuine architectural surface (syscall, MSR, fault hook) — declare "
        "it in WRITE_GRANTS with the contract that justifies it"
    )

    def check_program(self, program: ProgramModel) -> Iterator[Finding]:
        for module in program.sources:
            if _is_read_only(module):
                continue  # STA204's jurisdiction; avoid double findings
            for line, attr, receiver, candidates in self._violations(program, module):
                owners = ", ".join(
                    sorted({f"{cls.name} (owner {cls.owner})" for cls in candidates})
                )
                yield self.program_finding(
                    module,
                    _Loc(line),
                    f"write to engine state `{receiver or '<expr>'}.{attr}` "
                    f"from {module.module}; field belongs to {owners}",
                )
