"""The docs name only code that exists.

README, DESIGN and EXPERIMENTS point readers at modules, classes and files.
A rename or a deletion that forgets the docs leaves them pointing at
nothing, so every reference is checked here:

* every backticked ``repro.…`` dotted name imports and resolves by
  ``getattr`` (schema ids such as ``repro.obs.metrics/v1`` are exempt);
* every backticked ``src/``, ``tests/``, ``benchmarks/`` or ``examples/``
  path exists (a glob must match something);
* every ``*.py`` file named in DESIGN §3's module map exists in its package.
"""

from __future__ import annotations

import importlib
import re
from pathlib import Path
from typing import List, Tuple

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]
DOCS = ("README.md", "DESIGN.md", "EXPERIMENTS.md")
BACKTICKED = re.compile(r"`([^`\n]+)`")
DOTTED = re.compile(r"repro(?:\.\w+)+")
PATH_PREFIXES = ("src/", "tests/", "benchmarks/", "examples/")


def _backticked() -> List[Tuple[str, str]]:
    found = []
    for doc in DOCS:
        for text in BACKTICKED.findall((REPO_ROOT / doc).read_text()):
            found.append((doc, text))
    return found


def _dotted_names() -> List[Tuple[str, str]]:
    names = set()
    for doc, text in _backticked():
        match = DOTTED.match(text)
        if match and not text[match.end():].startswith("/"):
            names.add((doc, match.group(0)))
    return sorted(names)


def _paths() -> List[Tuple[str, str]]:
    paths = set()
    for doc, text in _backticked():
        if text.startswith(PATH_PREFIXES):
            paths.add((doc, text.split()[0].split("::")[0]))
    return sorted(paths)


def _resolve(dotted: str) -> object:
    parts = dotted.split(".")
    for split in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:split]))
        except ModuleNotFoundError:
            continue
        for attr in parts[split:]:
            obj = getattr(obj, attr)
        return obj
    raise ModuleNotFoundError(dotted)


@pytest.mark.parametrize("doc,dotted", _dotted_names())
def test_dotted_name_resolves(doc, dotted):
    try:
        _resolve(dotted)
    except (ImportError, AttributeError) as exc:
        pytest.fail(f"{doc} names `{dotted}`, which does not resolve: {exc}")


@pytest.mark.parametrize("doc,path", _paths())
def test_path_exists(doc, path):
    matches = list(REPO_ROOT.glob(path.rstrip("/"))) if "*" in path else []
    assert (REPO_ROOT / path).exists() or matches, f"{doc} names missing `{path}`"


def _module_map_files() -> List[Tuple[str, str]]:
    """(package directory, file name) for every ``.py`` in DESIGN §3."""
    text = (REPO_ROOT / "DESIGN.md").read_text()
    section = text.split("## 3. System inventory", 1)[1].split("\n## ", 1)[0]
    block = section.split("```", 2)[1]
    files = []
    package = ""
    for line in block.splitlines():
        entry = re.match(r"^  (\w+)/", line)
        if entry:
            package = entry.group(1)
        elif re.match(r"^  \S", line):
            package = ""  # a top-level entry such as cli.py
        for name in re.findall(r"\b(\w+\.py)\b", line):
            files.append((package, name))
    return files


def test_module_map_lists_files():
    assert len(_module_map_files()) > 50


@pytest.mark.parametrize("package,name", _module_map_files())
def test_module_map_file_exists(package, name):
    path = REPO_ROOT / "src" / "repro" / package / name
    assert path.is_file(), f"DESIGN §3 lists {package}/{name}, which does not exist"
