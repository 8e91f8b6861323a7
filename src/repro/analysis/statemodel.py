"""Whole-program state model: every engine class, every field, every writer.

The fast tiers (FAST horizons, REPRO_MACRO sigma replay) are only correct
if every mutable field of the simulated machine is either covered by their
snapshot/compare logic or provably untouched.  This module extracts that
state surface statically:

- :data:`STATE_CLASSES` is the canonical registry of engine classes.  It is
  the single source of truth shared by PRO103 (``SLOTS_MANIFEST`` is now
  *derived* from it, see :func:`derive_slots_manifest`) and the STA2xx rules,
  so the two families can never disagree about which classes are hot-path.
- :func:`extract_state_model` walks the parsed ASTs of a scanned program and
  unifies ``__slots__`` declarations, dataclass annotations, and attribute
  assignments into a per-class field model: name, defining module, mutability,
  and where-written.
- :func:`state_model_to_json` emits the model as a stable, schema-versioned
  JSON artifact (``repro lint --statemodel-out``); the committed copy at the
  repo root (``STATEMODEL.json``) makes state-surface changes visible in
  review.

Semantics worth knowing:

- *Field-level* model: a field is **mutable** when the attribute itself is
  rebound, augmented, or subscript-stored outside the defining class's
  ``__init__``/``__post_init__`` (including from other modules).  In-place
  mutation through method calls (``self.rob.append(...)``) is invisible at
  this level; deep state is covered by the inner object's own class being in
  the registry (e.g. ``KBTimerState`` fields, not the ``kb_timer`` handle).
  Stores made by ``setattr`` from a table are invisible to the AST pass; a
  module that makes them declares them in ``TABLE_WRITERS``, which
  :func:`table_writes` reads.
- Writes are resolved to classes by field name.  A receiver whose name hints
  a registered class (``core.cycle`` -> ``Core``) resolves strictly; a field
  name unique to one class resolves to it; ambiguous names attach the writer
  to every candidate (the ownership rules then judge leniently — a write
  passes if *any* candidate's owner permits it, so ambiguity can only relax,
  never invent, a finding).

Fixture files opt classes into the model with a pragma::

    # detlint: state-class[MyCore owner=engine.pkg core hot]

``owner=`` overrides the owning package (default: the first two dotted
components of the defining module), ``core`` marks the class as the
machine-state class targeted by the snapshot-coverage rules, ``hot`` adds it
to the derived slots manifest.
"""

from __future__ import annotations

import ast
import importlib
import json
import re
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from repro.common.errors import ConfigError

#: Schema version of the ``--statemodel-out`` JSON artifact.  Bump on any
#: field addition/removal/rename in the emitted object.
STATE_SCHEMA_VERSION = 1

#: Methods whose self-writes count as *construction*, not mutation.
_INIT_METHODS = frozenset(("__init__", "__post_init__"))


@dataclass(frozen=True)
class StateClassSpec:
    """One registry entry: an engine class detlint must model."""

    module: str
    name: str
    #: Owning package prefix — the only modules allowed to write this
    #: class's fields without an explicit grant (default: first two dotted
    #: components of ``module``).
    owner: str
    #: Listed in the derived ``SLOTS_MANIFEST`` (PRO103).
    hot_path: bool = True
    #: The machine-state class the skip-proof coverage rule (STA202) audits
    #: field-by-field.
    core_state: bool = False


def _default_owner(module: str) -> str:
    return ".".join(module.split(".")[:2])


def _spec(module: str, name: str, *, core: bool = False) -> StateClassSpec:
    return StateClassSpec(
        module=module, name=name, owner=_default_owner(module), core_state=core
    )


#: The canonical engine-class registry.  Order within a module is preserved
#: into the derived slots manifest.  Growing the model?  Add per-event/
#: per-uop/per-packet classes here — PRO103 and STA2xx pick them up together.
STATE_CLASSES: Tuple[StateClassSpec, ...] = (
    _spec("repro.sim.event", "Event"),
    _spec("repro.sim.event", "EventQueue"),
    _spec("repro.sim.simulator", "Simulator"),
    _spec("repro.sim.trace", "TraceEvent"),
    _spec("repro.sim.trace", "TraceRecorder"),
    _spec("repro.obs.ring", "RingBuffer"),
    _spec("repro.obs.events", "InstantEvent"),
    _spec("repro.obs.events", "SpanEvent"),
    _spec("repro.obs.spans", "Tracer"),
    _spec("repro.obs.spans", "SpanHandle"),
    _spec("repro.obs.hist", "LatencyHistogram"),
    _spec("repro.obs.registry", "MetricsRegistry"),
    _spec("repro.cpu.core", "Core", core=True),
    _spec("repro.cpu.backend", "UOp"),
    _spec("repro.cpu.hotness", "HotnessTracker"),
    _spec("repro.cpu.macroop", "CoreRecorder"),
    _spec("repro.cpu.macroop", "MacroController"),
    _spec("repro.cpu.macroop", "_CacheOverlay"),
    _spec("repro.cpu.uopcache", "UopCache"),
    _spec("repro.cpu.uopcache", "UopCacheEntry"),
    _spec("repro.cpu.uintr_state", "KBTimerState"),
    _spec("repro.cpu.uintr_state", "UserInterruptFile"),
    _spec("repro.uintr.apic", "PendingInterrupt"),
    _spec("repro.uintr.apic", "LocalApic"),
    _spec("repro.uintr.upid", "UPID"),
    _spec("repro.net.packet", "Packet"),
    _spec("repro.accel.dsa", "OffloadRequest"),
    _spec("repro.cluster.topology", "ClusterTopology"),
    _spec("repro.cluster.topology", "ShardSpec"),
    _spec("repro.cluster.topology", "TenantSpec"),
    _spec("repro.cluster.shard", "ShardJob"),
    _spec("repro.cluster.shard", "ShardResult"),
)

#: Receiver-name hints: a write through a receiver with one of these names
#: resolves *strictly* to the named class (when the field exists on it).
#: Lower-cased class names resolve automatically; these are the extras.
RECEIVER_HINTS: Dict[str, str] = {
    "apic": "LocalApic",
    "uintr": "UserInterruptFile",
    "kb_timer": "KBTimerState",
    "timer": "KBTimerState",
    "queue": "EventQueue",
    "sim": "Simulator",
    "uop": "UOp",
    "u": "UOp",
}

#: Fixture/ad-hoc files declare state classes with this pragma (see module
#: docstring for the token grammar).
_STATE_CLASS_PRAGMA_RE = re.compile(r"#\s*detlint:\s*state-class\[([^\]]+)\]")


def derive_slots_manifest() -> Dict[str, Tuple[str, ...]]:
    """The PRO103 slots manifest, derived from :data:`STATE_CLASSES`."""
    manifest: Dict[str, List[str]] = {}
    for spec in STATE_CLASSES:
        if spec.hot_path:
            manifest.setdefault(spec.module, []).append(spec.name)
    return {module: tuple(names) for module, names in manifest.items()}


@dataclass(frozen=True)
class FieldInfo:
    """One field of a modeled class."""

    name: str
    #: Rebound/augmented/subscript-stored outside the defining class's
    #: constructor (see module docstring for exact semantics).
    mutable: bool
    #: Sorted ``"module:line"`` sites that write the field.
    writers: Tuple[str, ...]


@dataclass(frozen=True)
class ClassModel:
    """One modeled class with its extracted field surface."""

    name: str
    module: str
    owner: str
    hot_path: bool
    core_state: bool
    fields: Tuple[FieldInfo, ...]

    def field(self, name: str) -> Optional[FieldInfo]:
        for info in self.fields:
            if info.name == name:
                return info
        return None

    def mutable_fields(self) -> Tuple[FieldInfo, ...]:
        return tuple(info for info in self.fields if info.mutable)


@dataclass(frozen=True)
class AttrWrite:
    """One attribute store, as seen by the write-graph pass."""

    module: str
    line: int
    #: Final attribute name stored to (``a.b.f = v`` -> ``f``).
    attr: str
    #: Name immediately left of the attr (``a.b.f`` -> ``b``), lower-cased;
    #: empty when not a simple name.
    receiver: str
    #: Root of the chain is literally ``self`` and the chain is one level
    #: deep — the class's own field, attributed during extraction.
    self_direct: bool
    #: Enclosing (class, method) when inside a class body, else ("", fn).
    cls: str
    func: str


class StateModel:
    """The extracted whole-program state model."""

    __slots__ = ("classes", "writes", "_by_name", "_field_index")

    def __init__(
        self, classes: Sequence[ClassModel], writes: Sequence[AttrWrite]
    ) -> None:
        self.classes: Tuple[ClassModel, ...] = tuple(
            sorted(classes, key=lambda c: (c.module, c.name))
        )
        self.writes: Tuple[AttrWrite, ...] = tuple(writes)
        self._by_name: Dict[str, ClassModel] = {c.name: c for c in self.classes}
        index: Dict[str, List[ClassModel]] = {}
        for cls in self.classes:
            for info in cls.fields:
                index.setdefault(info.name, []).append(cls)
        self._field_index = index

    def get(self, name: str) -> Optional[ClassModel]:
        return self._by_name.get(name)

    def classes_with_field(self, attr: str) -> Tuple[ClassModel, ...]:
        return tuple(self._field_index.get(attr, ()))

    def core_classes(self) -> Tuple[ClassModel, ...]:
        return tuple(c for c in self.classes if c.core_state)


# ---------------------------------------------------------------------------
# Extraction


def _parse_state_class_pragmas(module: str, text: str) -> List[StateClassSpec]:
    specs: List[StateClassSpec] = []
    for match in _STATE_CLASS_PRAGMA_RE.finditer(text):
        tokens = match.group(1).split()
        if not tokens:
            continue
        name = tokens[0]
        owner = module
        hot = False
        core = False
        for token in tokens[1:]:
            if token.startswith("owner="):
                owner = token[len("owner=") :]
            elif token == "hot":
                hot = True
            elif token == "core":
                core = True
        specs.append(
            StateClassSpec(
                module=module, name=name, owner=owner, hot_path=hot, core_state=core
            )
        )
    return specs


def _slots_names(cls: ast.ClassDef) -> List[str]:
    for stmt in cls.body:
        if isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                if isinstance(target, ast.Name) and target.id == "__slots__":
                    value = stmt.value
                    if isinstance(value, (ast.Tuple, ast.List)):
                        return [
                            elt.value
                            for elt in value.elts
                            if isinstance(elt, ast.Constant)
                            and isinstance(elt.value, str)
                        ]
    return []


def _annotation_fields(cls: ast.ClassDef) -> List[str]:
    names: List[str] = []
    for stmt in cls.body:
        if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
            annotation = ast.unparse(stmt.annotation)
            if "ClassVar" in annotation:
                continue
            names.append(stmt.target.id)
    return names


def _store_targets(node: ast.stmt) -> List[ast.expr]:
    if isinstance(node, ast.Assign):
        out: List[ast.expr] = []
        for target in node.targets:
            if isinstance(target, (ast.Tuple, ast.List)):
                out.extend(target.elts)
            else:
                out.append(target)
        return out
    if isinstance(node, (ast.AugAssign, ast.AnnAssign)):
        return [node.target] if getattr(node, "value", True) is not None else []
    return []


def _attr_of_target(target: ast.expr) -> Optional[ast.Attribute]:
    """The Attribute being stored to: ``a.f = v`` and ``a.f[i] = v`` both
    write field ``f`` (the latter mutates the container it holds)."""
    if isinstance(target, ast.Subscript):
        target = target.value  # type: ignore[assignment]
    return target if isinstance(target, ast.Attribute) else None


def _receiver_of(attr: ast.Attribute) -> Tuple[str, bool]:
    """(receiver hint, self_direct) for a stored-to attribute."""
    value = attr.value
    if isinstance(value, ast.Name):
        return value.id.lower(), value.id == "self"
    if isinstance(value, ast.Attribute):
        return value.attr.lower(), False
    return "", False


def iter_attr_writes(module: str, tree: ast.AST) -> Iterator[AttrWrite]:
    """Every attribute store in ``tree``, with enclosing class/function."""

    def walk(node: ast.AST, cls: str, func: str) -> Iterator[AttrWrite]:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                yield from walk(child, child.name, func)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from walk(child, cls, child.name)
            else:
                if isinstance(child, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                    for target in _store_targets(child):
                        attr = _attr_of_target(target)
                        if attr is None:
                            continue
                        receiver, self_direct = _receiver_of(attr)
                        yield AttrWrite(
                            module=module,
                            line=child.lineno,
                            attr=attr.attr,
                            receiver=receiver,
                            self_direct=self_direct,
                            cls=cls,
                            func=func,
                        )
                yield from walk(child, cls, func)

    yield from walk(tree, "", "")


def table_writes(module: str, tree: ast.AST) -> List[AttrWrite]:
    """Writes a module makes through ``setattr`` driven by a table, which
    :func:`iter_attr_writes` cannot see.  Such a module binds
    ``TABLE_WRITERS`` at module level: a mapping from each writer
    (``Class.method`` or a function name) to the ``receiver.field`` paths
    it writes.  The paths are usually computed from the table, so the
    mapping is read by importing the module.  Each path is recorded as a
    write by its writer at the writer's ``def`` line, with the component
    before the field as its receiver."""
    declares = any(
        isinstance(target, ast.Name) and target.id == "TABLE_WRITERS"
        for stmt in getattr(tree, "body", ())
        for target in _store_targets(stmt)
    )
    if not declares:
        return []
    lines: Dict[str, int] = {}
    for stmt in tree.body:  # type: ignore[attr-defined]
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            lines[stmt.name] = stmt.lineno
        elif isinstance(stmt, ast.ClassDef):
            for node in stmt.body:
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    lines[f"{stmt.name}.{node.name}"] = node.lineno
    writes = []
    for writer, paths in importlib.import_module(module).TABLE_WRITERS.items():
        if writer not in lines:
            raise ConfigError(f"{module}: TABLE_WRITERS names {writer!r}, which it does not define")
        cls, _, func = writer.rpartition(".")
        for path in paths:
            owner, _, attr = path.rpartition(".")
            writes.append(
                AttrWrite(
                    module=module,
                    line=lines[writer],
                    attr=attr,
                    receiver=owner.rpartition(".")[2],
                    self_direct=False,
                    cls=cls,
                    func=func,
                )
            )
    return writes


def _class_defs(tree: ast.AST) -> Iterator[ast.ClassDef]:
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            yield node


def local_class_fields(tree: ast.AST) -> Set[str]:
    """Field names of every class defined in ``tree`` (slots, annotations,
    and direct self-writes) — used to tell writes to a module's own local
    classes apart from writes to modeled engine state."""
    names: Set[str] = set()
    for cls in _class_defs(tree):
        names.update(_slots_names(cls))
        names.update(_annotation_fields(cls))
        for node in ast.walk(cls):
            if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                for target in _store_targets(node):
                    attr = _attr_of_target(target)
                    if (
                        attr is not None
                        and isinstance(attr.value, ast.Name)
                        and attr.value.id == "self"
                    ):
                        names.add(attr.attr)
    return names


def nonmodel_class_fields(tree: ast.AST, modeled: Set[str]) -> Set[str]:
    """Fields of classes in ``tree`` that are *not* in the state model."""
    names: Set[str] = set()
    for cls in _class_defs(tree):
        if cls.name in modeled:
            continue
        names |= local_class_fields(cls)
    return names


def extract_state_model(sources: Iterable) -> StateModel:
    """Build the :class:`StateModel` for a scanned program.

    ``sources`` is any iterable of objects with ``.module`` (dotted name),
    ``.text``, and ``.tree`` attributes (:class:`ModuleSource` satisfies
    this).  Registry entries whose module is absent from the program are
    skipped, so fixture scans model only what they declare via pragma.
    """
    by_module: Dict[str, List] = {}
    ordered = list(sources)
    for source in ordered:
        by_module.setdefault(source.module, []).append(source)

    specs: List[StateClassSpec] = [
        spec for spec in STATE_CLASSES if spec.module in by_module
    ]
    for source in ordered:
        specs.extend(_parse_state_class_pragmas(source.module, source.text))

    # Phase A: per-class declared fields + own-method write sites.
    fields: Dict[Tuple[str, str], Dict[str, List[str]]] = {}
    mutated: Dict[Tuple[str, str], Set[str]] = {}
    spec_index: Dict[Tuple[str, str], StateClassSpec] = {}
    for spec in specs:
        key = (spec.module, spec.name)
        if key in spec_index:
            continue
        spec_index[key] = spec
        for source in by_module.get(spec.module, ()):
            for cls in _class_defs(source.tree):
                if cls.name != spec.name:
                    continue
                declared: Dict[str, List[str]] = {}
                for name in _slots_names(cls) + _annotation_fields(cls):
                    declared.setdefault(name, [])
                fields[key] = declared
                mutated.setdefault(key, set())

    # Phase B: attribute-write pass over the whole program.
    all_writes: List[AttrWrite] = []
    class_by_name: Dict[str, List[Tuple[str, str]]] = {}
    for key in fields:
        class_by_name.setdefault(key[1], []).append(key)

    # Fields of each module's own non-modeled classes: a hint-less write to
    # such a name stays the module's business and is not attributed to the
    # model (e.g. a local dataclass that happens to share a field name with
    # an engine class).
    local_nonmodel: Dict[str, Set[str]] = {}
    for source in ordered:
        modeled_here = {key[1] for key in fields if key[0] == source.module}
        local_nonmodel[source.module] = nonmodel_class_fields(
            source.tree, modeled_here
        )

    def record(key: Tuple[str, str], name: str, write: AttrWrite) -> None:
        declared = fields[key]
        declared.setdefault(name, []).append(f"{write.module}:{write.line}")
        own_init = (
            write.module == key[0]
            and write.cls == key[1]
            and write.func in _INIT_METHODS
        )
        if not own_init:
            mutated[key].add(name)

    for source in ordered:
        writes = list(iter_attr_writes(source.module, source.tree))
        writes += table_writes(source.module, source.tree)
        for write in writes:
            all_writes.append(write)
            if write.self_direct and write.cls:
                # Unambiguous: self.<attr> inside class <cls>.
                for key in class_by_name.get(write.cls, ()):
                    if key[0] == write.module:
                        record(key, write.attr, write)
                continue
            hinted = RECEIVER_HINTS.get(write.receiver, "")
            candidates = [
                key
                for keys in class_by_name.values()
                for key in keys
                if write.attr in fields[key]
            ]
            strict = [
                key
                for key in candidates
                if key[1] == hinted or key[1].lower() == write.receiver
            ]
            if not strict and write.attr in local_nonmodel.get(write.module, ()):
                continue
            for key in strict or candidates:
                record(key, write.attr, write)

    classes: List[ClassModel] = []
    for key, spec in spec_index.items():
        declared = fields.get(key)
        if declared is None:
            continue
        infos = tuple(
            FieldInfo(
                name=name,
                mutable=name in mutated[key],
                writers=tuple(sorted(set(declared[name]))),
            )
            for name in sorted(declared)
        )
        classes.append(
            ClassModel(
                name=spec.name,
                module=spec.module,
                owner=spec.owner,
                hot_path=spec.hot_path,
                core_state=spec.core_state,
                fields=infos,
            )
        )
    return StateModel(classes, all_writes)


# ---------------------------------------------------------------------------
# JSON emission


def state_model_to_dict(model: StateModel) -> Dict:
    return {
        "schema": STATE_SCHEMA_VERSION,
        "classes": [
            {
                "class": cls.name,
                "module": cls.module,
                "owner": cls.owner,
                "hot_path": cls.hot_path,
                "core_state": cls.core_state,
                "fields": [
                    {
                        "name": info.name,
                        "mutable": info.mutable,
                        "writers": list(info.writers),
                    }
                    for info in cls.fields
                ],
            }
            for cls in model.classes
        ],
    }


def state_model_to_json(model: StateModel) -> str:
    """Byte-stable rendering: sorted classes/fields/writers, sorted keys,
    trailing newline — safe to commit and diff in CI."""
    return json.dumps(state_model_to_dict(model), indent=2, sort_keys=True) + "\n"
