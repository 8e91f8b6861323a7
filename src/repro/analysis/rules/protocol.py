"""P-rules: engine-contract and simulation-purity protocol conformance.

Where the D-rules catch nondeterministic *inputs*, these catch classes that
break the contracts the engines rely on:

- PRO101: every ``DeliveryStrategy`` subclass must take an explicit position
  on the cycle-skipping quiescence hooks (``always_poll`` and
  ``next_activity_cycle``).  The base-class defaults are safe but silently
  disable skipping; worse, a subclass that sets ``always_poll = False``
  without implementing ``next_activity_cycle`` documents an opt-in it never
  made.  The fast engine's whole correctness argument (PR 2) hangs on these
  two hooks agreeing.
- PRO102: event callbacks (``on_*`` / ``*_callback`` functions) must not
  mutate module-global state — ``global`` rebinding or writes through
  ALL_CAPS module constants make replay order-dependent.
- PRO103: hot-path classes named in :data:`SLOTS_MANIFEST` must declare
  ``__slots__`` (directly or via ``@dataclass(slots=True)``).  Beyond the
  memory/speed win, slots make accidental state — the attribute a fault
  injector or test scribbles onto a live core — an immediate ``AttributeError``
  instead of silent divergence between engines.
- PRO104: modules named in :data:`PURE_MODULES` (macro-op recording/replay
  and hot-block detection) must be simulation-pure: no wall-clock/entropy
  imports, no ambient process-state reads (``os.environ``), no ``global``
  rebinding, and no function-body reads of mutable module-level variables.
  The macro tier's replay results land in the equality contract; any input
  that varies between two runs of the same workload would break
  bit-identical replay.  (Writes *to* ALL_CAPS telemetry singletons are
  not flagged — counters are write-only engine telemetry by design.)
"""

from __future__ import annotations

import ast
import re
from typing import Dict, Iterator, List, Set, Tuple

from repro.analysis.findings import Finding
from repro.analysis.rules import ModuleSource, Rule, register
from repro.analysis.statemodel import derive_slots_manifest

#: Hot-path classes that must declare ``__slots__``, keyed by module.
#: Derived from :data:`repro.analysis.statemodel.STATE_CLASSES` — the single
#: registry shared with the STA2xx state rules, so PRO103 and STA2xx can
#: never disagree about which classes are hot-path.  Growing the model?  Add
#: per-event/per-uop/per-packet classes to ``STATE_CLASSES``.
SLOTS_MANIFEST: Dict[str, Tuple[str, ...]] = derive_slots_manifest()

#: Fixture/ad-hoc files can demand slots for local classes with a
#: ``slots-manifest[ClassA,ClassB]`` pragma (written after the usual
#: ``detlint:`` comment marker) anywhere in the file.
_MANIFEST_PRAGMA_RE = re.compile(r"#\s*detlint:\s*slots-manifest\[([A-Za-z0-9_,\s]+)\]")

_CALLBACK_NAME_RE = re.compile(r"^on_\w+$|^\w+_callback$|^\w+_cb$")

#: Modules that must be simulation-pure (PRO104): the macro-op trace tier's
#: recording/replay, hot-block detection, and the scenario -> system
#: compiler.  Their outputs land in the engine equality contract (the
#: compiler additionally in the fuzz replay contract: compiling the same
#: scenario twice must build byte-identical systems), so any
#: nondeterministic or ambient input here would break bit-identical replay.
PURE_MODULES: Tuple[str, ...] = (
    "repro.cpu.hotness",
    "repro.cpu.macroop",
    "repro.scenario.compile",
)

#: Fixture/ad-hoc files opt into PRO104 with a ``pure-module`` pragma.
_PURE_PRAGMA_RE = re.compile(r"#\s*detlint:\s*pure-module\b")

#: Wall-clock and entropy sources a pure module may never import.
_IMPURE_IMPORTS = frozenset(("time", "datetime", "random", "secrets", "uuid"))

#: ``os`` members that read ambient process state.
_OS_AMBIENT = frozenset(("environ", "environb", "getenv", "getenvb", "urandom"))


def _class_defs(tree: ast.AST) -> Iterator[ast.ClassDef]:
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            yield node


def _base_names(cls: ast.ClassDef) -> List[str]:
    names = []
    for base in cls.bases:
        if isinstance(base, ast.Name):
            names.append(base.id)
        elif isinstance(base, ast.Attribute):
            names.append(base.attr)
    return names


def _assigned_names(cls: ast.ClassDef) -> Set[str]:
    names: Set[str] = set()
    for stmt in cls.body:
        if isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    names.add(target.id)
        elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
            if stmt.value is not None:
                names.add(stmt.target.id)
    return names


def _method_names(cls: ast.ClassDef) -> Set[str]:
    return {
        stmt.name
        for stmt in cls.body
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
    }


def _has_slots(cls: ast.ClassDef) -> bool:
    if "__slots__" in _assigned_names(cls):
        return True
    # AnnAssign without value still declares the slot when paired with
    # dataclass(slots=True); the decorator check below covers that path.
    for decorator in cls.decorator_list:
        if isinstance(decorator, ast.Call):
            func = decorator.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
            if name == "dataclass":
                for kw in decorator.keywords:
                    if (
                        kw.arg == "slots"
                        and isinstance(kw.value, ast.Constant)
                        and kw.value.value is True
                    ):
                        return True
    return False


@register
class DeliveryQuiescenceRule(Rule):
    """PRO101 — DeliveryStrategy subclasses and the cycle-skip contract."""

    rule_id = "PRO101"
    description = (
        "DeliveryStrategy subclass does not take an explicit position on the "
        "quiescence hooks (always_poll + next_activity_cycle)"
    )
    hint = (
        "declare `always_poll` in the class body and override "
        "`next_activity_cycle` (return None to act only on pending "
        "interrupts, or a cycle bound); the cycle-skipping engine trusts "
        "these two hooks to agree"
    )

    def check(self, module: ModuleSource) -> Iterator[Finding]:
        for cls in _class_defs(module.tree):
            bases = _base_names(cls)
            if not any(base.endswith("DeliveryStrategy") for base in bases):
                continue
            declares_poll = "always_poll" in _assigned_names(cls)
            implements_next = "next_activity_cycle" in _method_names(cls)
            if declares_poll and implements_next:
                continue
            missing = []
            if not declares_poll:
                missing.append("an explicit `always_poll` declaration")
            if not implements_next:
                missing.append("a `next_activity_cycle` override")
            yield self.finding(
                module,
                cls,
                f"strategy {cls.name} is missing {' and '.join(missing)}",
            )


@register
class CallbackPurityRule(Rule):
    """PRO102 — event callbacks must not mutate module-global state."""

    rule_id = "PRO102"
    description = (
        "event callback (on_* / *_callback) mutates module-global state "
        "(`global` rebinding or writes through an ALL_CAPS module constant)"
    )
    hint = (
        "carry state on the owning object (self) or thread it through the "
        "callback's arguments; global mutation makes replay order-dependent"
    )

    def _module_constants(self, tree: ast.AST) -> Set[str]:
        constants: Set[str] = set()
        for stmt in getattr(tree, "body", []):
            if isinstance(stmt, ast.Assign):
                for target in stmt.targets:
                    if isinstance(target, ast.Name) and target.id.isupper():
                        constants.add(target.id)
            elif isinstance(stmt, (ast.Import, ast.ImportFrom)):
                for alias in stmt.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name.isupper():
                        constants.add(name)
        return constants

    def check(self, module: ModuleSource) -> Iterator[Finding]:
        constants = self._module_constants(module.tree)
        for node in ast.walk(module.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if not _CALLBACK_NAME_RE.match(node.name):
                continue
            for inner in ast.walk(node):
                if isinstance(inner, ast.Global):
                    yield self.finding(
                        module,
                        inner,
                        f"callback {node.name} rebinds global(s) "
                        f"{', '.join(inner.names)}",
                    )
                elif isinstance(inner, (ast.Assign, ast.AugAssign)):
                    targets = (
                        inner.targets if isinstance(inner, ast.Assign) else [inner.target]
                    )
                    for target in targets:
                        root = target
                        while isinstance(root, (ast.Attribute, ast.Subscript)):
                            root = root.value
                        if (
                            isinstance(root, ast.Name)
                            and root.id in constants
                            and root is not target
                        ):
                            yield self.finding(
                                module,
                                inner,
                                f"callback {node.name} writes through module "
                                f"constant {root.id}",
                            )


@register
class SlotsManifestRule(Rule):
    """PRO103 — manifest-listed hot-path classes must declare __slots__."""

    rule_id = "PRO103"
    description = (
        "hot-path class named in the slots manifest does not declare "
        "__slots__ (directly or via @dataclass(slots=True))"
    )
    hint = (
        "add `__slots__ = (...)` listing every instance attribute, or pass "
        "slots=True to @dataclass; update SLOTS_MANIFEST if the class moved"
    )

    def _required_classes(self, module: ModuleSource) -> Set[str]:
        required = set(SLOTS_MANIFEST.get(module.module, ()))
        for match in _MANIFEST_PRAGMA_RE.finditer(module.text):
            required.update(
                part.strip() for part in match.group(1).split(",") if part.strip()
            )
        return required

    def check(self, module: ModuleSource) -> Iterator[Finding]:
        required = self._required_classes(module)
        if not required:
            return
        found: Set[str] = set()
        for cls in _class_defs(module.tree):
            if cls.name not in required:
                continue
            found.add(cls.name)
            if not _has_slots(cls):
                yield self.finding(
                    module,
                    cls,
                    f"hot-path class {cls.name} has no __slots__ declaration",
                )
        for name in sorted(required - found):
            yield self.finding(
                module,
                module.tree,
                f"manifest class {name} not found in {module.module} "
                "(stale SLOTS_MANIFEST entry?)",
                hint="update SLOTS_MANIFEST in repro.analysis.rules.protocol",
            )


def _function_locals(fn: ast.AST) -> Set[str]:
    """Names bound inside ``fn``: parameters, assignments, comprehension and
    exception targets, nested defs.  Used to tell a local shadow apart from
    a genuine read of a module-level variable."""
    names: Set[str] = set()
    args = getattr(fn, "args", None)
    if args is not None:
        for arg in (
            list(args.posonlyargs)
            + list(args.args)
            + list(args.kwonlyargs)
            + ([args.vararg] if args.vararg else [])
            + ([args.kwarg] if args.kwarg else [])
        ):
            names.add(arg.arg)
    for node in ast.walk(fn):
        if isinstance(node, ast.Name) and isinstance(node.ctx, (ast.Store, ast.Del)):
            names.add(node.id)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if node is not fn:
                names.add(node.name)
        elif isinstance(node, ast.ExceptHandler) and node.name:
            names.add(node.name)
    return names


@register
class SimulationPurityRule(Rule):
    """PRO104 — macro recording/replay modules must be simulation-pure."""

    rule_id = "PRO104"
    description = (
        "simulation-pure module (macro-op recording/replay) reads the wall "
        "clock, entropy, ambient process state, or a mutable module global"
    )
    hint = (
        "pure modules may only read the core state they are handed: drop "
        "time/random/os.environ, and carry caches on the controller object "
        "instead of module-level variables (ALL_CAPS constants are fine)"
    )

    def _applies(self, module: ModuleSource) -> bool:
        return module.module in PURE_MODULES or bool(
            _PURE_PRAGMA_RE.search(module.text)
        )

    def _mutable_globals(self, tree: ast.AST) -> Set[str]:
        """Module-level assigned names that are not ALL_CAPS constants."""
        names: Set[str] = set()
        for stmt in getattr(tree, "body", []):
            targets: List[ast.expr] = []
            if isinstance(stmt, ast.Assign):
                targets = list(stmt.targets)
            elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                targets = [stmt.target]
            for target in targets:
                if (
                    isinstance(target, ast.Name)
                    and not target.id.isupper()
                    and not target.id.startswith("__")
                ):
                    names.add(target.id)
        return names

    def check(self, module: ModuleSource) -> Iterator[Finding]:
        if not self._applies(module):
            return
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    root = alias.name.split(".")[0]
                    if root in _IMPURE_IMPORTS:
                        yield self.finding(
                            module,
                            node,
                            f"pure module imports wall-clock/entropy source "
                            f"{alias.name}",
                        )
            elif isinstance(node, ast.ImportFrom):
                root = (node.module or "").split(".")[0]
                if root in _IMPURE_IMPORTS:
                    yield self.finding(
                        module,
                        node,
                        f"pure module imports from wall-clock/entropy source "
                        f"{node.module}",
                    )
            elif isinstance(node, ast.Global):
                yield self.finding(
                    module,
                    node,
                    f"pure module rebinds module global(s) "
                    f"{', '.join(node.names)}",
                )
            elif (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == "os"
                and node.attr in _OS_AMBIENT
            ):
                yield self.finding(
                    module,
                    node,
                    f"pure module reads ambient process state os.{node.attr}",
                )
        mutable = self._mutable_globals(module.tree)
        if not mutable:
            return
        seen: Set[Tuple[int, int, str]] = set()
        for fn in ast.walk(module.tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            local = _function_locals(fn)
            for node in ast.walk(fn):
                if (
                    isinstance(node, ast.Name)
                    and isinstance(node.ctx, ast.Load)
                    and node.id in mutable
                    and node.id not in local
                ):
                    key = (node.lineno, node.col_offset, node.id)
                    if key in seen:
                        continue
                    seen.add(key)
                    yield self.finding(
                        module,
                        node,
                        f"pure function {fn.name} reads mutable module "
                        f"global {node.id}",
                    )
