"""Every module under ``src/repro`` is reached from an entry point.

The entry points are the CLI (``repro.cli``, ``repro.__main__``) and every
``.py`` file under ``benchmarks/`` and ``examples/``.  The import graph is
built from the AST, so nothing is executed:

* a plain module reaches everything it imports, wherever the import sits
  (module level or inside a function), except under ``if TYPE_CHECKING:``;
* a package ``__init__`` re-exports names, so importing a name from it
  reaches only the module that name comes from.  Its own imports count in
  full only when the ``__init__`` itself uses the name (``TRACER =
  Tracer()``) or when the import is a ``_``-aliased side-effect import
  (rule registration);
* a string names a module only where code imports it at run time:
  ``importlib.import_module("repro.x")``, a tracing ``Hook("repro.x", ...)``
  or a ``"repro.x:attr"`` hook string.  Other strings, such as the
  ``_spec("repro.x", ...)`` entries of the state-class registry, do not.

Code that no entry point reaches is deleted, or given a caller that earns it.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Set, Tuple

REPO_ROOT = Path(__file__).resolve().parents[1]
SRC = REPO_ROOT / "src"
ENTRY_MODULES = ("repro.cli", "repro.__main__")
ENTRY_DIRS = ("benchmarks", "examples")
HOOK_STRING = re.compile(r"^(repro(?:\.\w+)*):[\w.]+$")

# A reached node: ("mod", module) for a module run in full, or
# ("name", package, name) for one name asked of a package ``__init__``.
Node = Tuple[str, ...]


def _module_paths() -> Dict[str, Path]:
    paths = {}
    for path in sorted((SRC / "repro").rglob("*.py")):
        parts = list(path.relative_to(SRC).with_suffix("").parts)
        if parts[-1] == "__init__":
            parts.pop()
        paths[".".join(parts)] = path
    return paths


MODULES = _module_paths()


def _is_package(module: str) -> bool:
    return MODULES.get(module, Path()).name == "__init__.py"


def _parents(module: str) -> Iterator[str]:
    """Every enclosing package: importing ``a.b.c`` runs ``a`` and ``a.b``."""
    parts = module.split(".")
    for i in range(1, len(parts)):
        yield ".".join(parts[:i])


def _is_type_checking(node: ast.If) -> bool:
    test = node.test
    return (isinstance(test, ast.Name) and test.id == "TYPE_CHECKING") or (
        isinstance(test, ast.Attribute) and test.attr == "TYPE_CHECKING"
    )


def _walk(tree: ast.AST) -> Iterator[ast.AST]:
    """Every node, skipping the bodies of ``if TYPE_CHECKING:`` blocks."""
    for child in ast.iter_child_nodes(tree):
        if isinstance(child, ast.If) and _is_type_checking(child):
            for other in child.orelse:
                yield other
                yield from _walk(other)
            continue
        yield child
        yield from _walk(child)


def _edges_of_import(node: ast.AST, names: Optional[List[ast.alias]] = None) -> List[Node]:
    """What one import statement (or some of its ``names``) reaches,
    counting absolute imports of repro modules only."""
    found: List[Node] = []
    if isinstance(node, (ast.Import, ast.ImportFrom)) and names is None:
        names = node.names
    if isinstance(node, ast.Import):
        for alias in names:
            if alias.name in MODULES:
                found.append(("mod", alias.name))
    elif isinstance(node, ast.ImportFrom):
        source = node.module
        if node.level or source not in MODULES:
            return found
        found.append(("mod", source))
        for alias in names:
            submodule = f"{source}.{alias.name}"
            if submodule in MODULES:
                found.append(("mod", submodule))
            elif _is_package(source):
                found.append(("name", source, alias.name))
    return found


def _string_edges(node: ast.AST) -> List[Node]:
    """Modules a call imports by name at run time."""
    found: List[Node] = []
    if isinstance(node, ast.Call) and node.args:
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
        first = node.args[0]
        if name in ("import_module", "Hook") and isinstance(first, ast.Constant):
            if first.value in MODULES:
                found.append(("mod", first.value))
    elif isinstance(node, ast.Constant) and isinstance(node.value, str):
        match = HOOK_STRING.match(node.value)
        if match and match.group(1) in MODULES:
            found.append(("mod", match.group(1)))
    return found


class ImportGraph:
    """Edges of the AST import graph, with package re-exports by name."""

    def __init__(self) -> None:
        self._trees: Dict[Path, ast.AST] = {}

    def _tree(self, path: Path) -> ast.AST:
        if path not in self._trees:
            self._trees[path] = ast.parse(path.read_text(), filename=str(path))
        return self._trees[path]

    def file_edges(self, path: Path) -> List[Node]:
        """Everything a plain module or script reaches."""
        found: List[Node] = []
        for node in _walk(self._tree(path)):
            found.extend(_edges_of_import(node))
            found.extend(_string_edges(node))
        return found

    def _init_table(self, package: str) -> Tuple[Dict[str, List[Node]], List[Node]]:
        """An ``__init__``'s imports by bound name, and the edges it always
        takes (``_`` aliases, strings, and imports of names it uses)."""
        tree = self._tree(MODULES[package])
        by_name: Dict[str, List[Node]] = {}
        always: List[Node] = []
        used: Set[str] = set()
        for node in _walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            always.extend(_string_edges(node))
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            for alias in node.names:
                edges = _edges_of_import(node, [alias])
                bound = alias.asname or alias.name.split(".")[0]
                if bound.startswith("_"):
                    always.extend(edges)
                else:
                    by_name.setdefault(bound, []).extend(edges)
        for name in sorted(used & set(by_name)):
            always.extend(by_name[name])
        return by_name, always

    def edges(self, node: Node) -> List[Node]:
        if node[0] == "mod":
            module = node[1]
            found: List[Node] = [("mod", parent) for parent in _parents(module)]
            if _is_package(module):
                return found + self._init_table(module)[1]
            return found + self.file_edges(MODULES[module])
        _, package, name = node
        return list(self._init_table(package)[0].get(name, []))


def reached_modules() -> Set[str]:
    graph = ImportGraph()
    todo: List[Node] = [("mod", module) for module in ENTRY_MODULES]
    for directory in ENTRY_DIRS:
        for path in sorted((REPO_ROOT / directory).rglob("*.py")):
            todo.extend(graph.file_edges(path))
    seen: Set[Node] = set()
    while todo:
        node = todo.pop()
        if node in seen:
            continue
        seen.add(node)
        todo.extend(graph.edges(node))
    return {node[1] for node in seen if node[0] == "mod"}


def test_every_src_module_is_reached_from_an_entry_point():
    reached = reached_modules()
    unreached = sorted(
        module
        for module, path in MODULES.items()
        if path.name != "__init__.py" and module not in reached
    )
    assert unreached == [], (
        "modules no CLI command, benchmark or example reaches: "
        f"{unreached}; delete them or give them a caller"
    )


def test_package_init_reexports_count_only_for_names_asked_for():
    """``from repro.kernel import OSIntervalTimer`` reaches ``kernel.timers``
    through the ``__init__``; an ``__init__`` alone reaches none of the
    modules it merely re-exports from."""
    graph = ImportGraph()
    assert ("mod", "repro.kernel.timers") in graph.edges(
        ("name", "repro.kernel", "OSIntervalTimer")
    )
    assert ("mod", "repro.kernel.timers") not in graph.edges(("mod", "repro.kernel"))
    # The obs package uses its Tracer import itself (TRACER = Tracer()).
    assert ("mod", "repro.obs.spans") in graph.edges(("mod", "repro.obs"))
    # Rule registration is a side-effect import aliased with "_".
    assert ("mod", "repro.analysis.rules.state") in graph.edges(
        ("mod", "repro.analysis.rules")
    )
