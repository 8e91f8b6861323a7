"""The detlint rule engine: rule base class, registry, and program model.

A rule is a stateless object with an ``rule_id``, a one-line description,
and a ``check(module)`` generator yielding :class:`Finding` records.  Rules
see one module at a time as a :class:`ModuleSource` — path, dotted module
name (when the file lives under a ``repro`` package root), raw text, split
lines, and the parsed AST.

Whole-program rules subclass :class:`ProgramRule` instead and implement
``check_program(program)``: they see the :class:`ProgramModel` — every
module parsed exactly once, shared across all rule families, plus the
lazily-extracted engine state model (:mod:`repro.analysis.statemodel`).

Adding a rule:

1. subclass :class:`Rule` in ``repro.analysis.rules.determinism`` (D-rules:
   nondeterministic *inputs*) or ``repro.analysis.rules.protocol`` (P-rules:
   simulation-purity and engine-contract violations), or :class:`ProgramRule`
   in ``repro.analysis.rules.state`` (S-rules: state-surface coverage and
   write ownership), or a new module;
2. decorate it with :func:`register`;
3. make sure the module is imported from this package (the built-in rule
   modules are imported at the bottom of this file);
4. add a paired good/bad fixture under ``tests/analysis/fixtures/`` and a
   case in ``tests/analysis/test_rules.py``.

Rule identifiers: ``DET0xx`` for determinism-input rules, ``PRO1xx`` for
protocol/purity rules, ``STA2xx`` for state-model rules.  Never reuse a
retired identifier — baselines and suppression comments reference them
textually.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Type

from repro.analysis.findings import Finding
from repro.analysis.statemodel import StateModel, extract_state_model


class ModuleSource:
    """One parsed source file, as seen by the rules."""

    __slots__ = ("path", "display_path", "module", "text", "lines", "tree")

    def __init__(self, path: Path, display_path: str, module: str, text: str) -> None:
        self.path = path
        #: The path findings report (repo-relative when resolvable).
        self.display_path = display_path
        #: Dotted module name ("repro.sim.event"), or the bare stem for
        #: files outside a ``repro`` package root (fixtures) — rules use it
        #: for layer allowlists, which therefore never match fixtures.
        self.module = module
        self.text = text
        self.lines: List[str] = text.splitlines()
        self.tree: ast.AST = ast.parse(text, filename=str(path))

    def line_at(self, lineno: int) -> str:
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1].strip()
        return ""

    def in_layer(self, *prefixes: str) -> bool:
        """Does this module live under one of the dotted-name prefixes?"""
        return any(
            self.module == prefix or self.module.startswith(prefix + ".")
            for prefix in prefixes
        )


class Rule:
    """Base class for all detlint rules."""

    rule_id: str = ""
    description: str = ""
    #: Default fix hint, attached to findings that don't override it.
    hint: str = ""

    def check(self, module: ModuleSource) -> Iterator[Finding]:
        raise NotImplementedError

    def finding(
        self,
        module: ModuleSource,
        node: ast.AST,
        message: str,
        hint: Optional[str] = None,
    ) -> Finding:
        lineno = getattr(node, "lineno", 1)
        return Finding(
            rule_id=self.rule_id,
            path=module.display_path,
            line=lineno,
            col=getattr(node, "col_offset", 0),
            message=message,
            hint=self.hint if hint is None else hint,
            snippet=module.line_at(lineno),
        )


class ProgramModel:
    """Every scanned module, parsed once; the shared whole-program view.

    Built by the engine after file discovery and handed to every
    :class:`ProgramRule`.  The engine state model is extracted lazily (and
    exactly once) on first access — rule families share both the parse and
    the extraction.
    """

    __slots__ = ("sources", "by_module", "_state_model")

    def __init__(self, sources: List[ModuleSource]) -> None:
        self.sources: List[ModuleSource] = list(sources)
        #: Last-wins by dotted name; fixture files keep bare-stem keys.
        self.by_module: Dict[str, ModuleSource] = {s.module: s for s in self.sources}
        self._state_model: Optional[StateModel] = None

    @property
    def state_model(self) -> StateModel:
        if self._state_model is None:
            self._state_model = extract_state_model(self.sources)
        return self._state_model


class ProgramRule(Rule):
    """Base class for whole-program rules (STA2xx).

    ``check`` (the per-module entry point) is a no-op; the engine dispatches
    these once per scan through ``check_program``.
    """

    def check(self, module: ModuleSource) -> Iterator[Finding]:
        return iter(())

    def check_program(self, program: ProgramModel) -> Iterator[Finding]:
        raise NotImplementedError

    def program_finding(
        self,
        module: ModuleSource,
        node: Optional[ast.AST],
        message: str,
        hint: Optional[str] = None,
    ) -> Finding:
        return self.finding(module, node if node is not None else module.tree, message, hint)


_REGISTRY: Dict[str, Type[Rule]] = {}


def register(cls: Type[Rule]) -> Type[Rule]:
    """Class decorator adding a rule to the global registry."""
    if not cls.rule_id:
        raise ValueError(f"rule {cls.__name__} has no rule_id")
    if cls.rule_id in _REGISTRY:
        raise ValueError(f"duplicate rule id {cls.rule_id}")
    _REGISTRY[cls.rule_id] = cls
    return cls


def all_rules() -> List[Rule]:
    """Instantiate every registered rule, ordered by rule id."""
    return [_REGISTRY[rule_id]() for rule_id in sorted(_REGISTRY)]


def rule_ids() -> List[str]:
    return sorted(_REGISTRY)


# Import the built-in rule modules so registration runs on package import.
from repro.analysis.rules import determinism as _determinism  # noqa: E402,F401
from repro.analysis.rules import protocol as _protocol  # noqa: E402,F401
from repro.analysis.rules import state as _state  # noqa: E402,F401
