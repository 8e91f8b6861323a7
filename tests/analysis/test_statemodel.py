"""The whole-program state model: extraction semantics, the derived slots
manifest, the schema-versioned JSON artifact, and its committed copy.

The golden-file tests pin two artifacts:

* ``fixtures/statemodel_golden.json`` — the model extracted from a fixed
  pair of fixture modules, byte-for-byte.  Catches accidental schema or
  ordering drift in the dump.
* ``STATEMODEL.json`` at the repo root — the model of the real engine.
  Catches engine-state changes that were not re-reviewed: regenerate with
  ``python -m repro lint --statemodel-out STATEMODEL.json``.
"""

from __future__ import annotations

import ast
import json
import sys
import types
from pathlib import Path

import pytest

from repro.analysis.engine import default_scan_root, run_rules
from repro.analysis.lint import main
from repro.analysis.rules import ModuleSource
from repro.analysis.statemodel import (
    STATE_CLASSES,
    STATE_SCHEMA_VERSION,
    derive_slots_manifest,
    extract_state_model,
    state_model_to_json,
    table_writes,
)
from repro.common.errors import ConfigError

FIXTURES = Path(__file__).parent / "fixtures"
REPO_ROOT = Path(__file__).resolve().parents[2]
GOLDEN_PAIR = [FIXTURES / "sta202_good.py", FIXTURES / "sta205_good.py"]


def _source(module: str, text: str) -> ModuleSource:
    return ModuleSource(FIXTURES / "in_memory.py", "in_memory.py", module, text)


# ---------------------------------------------------------------------------
# Extraction semantics


def test_mutability_classification():
    text = (
        "# detlint: state-class[Widget owner=engine.cpu]\n"
        "class Widget:\n"
        "    __slots__ = ('a', 'b', 'c', 'd')\n"
        "    def __init__(self):\n"
        "        self.a = 0\n"
        "        self.b = 0\n"
        "        self.c = []\n"
        "        self.d = 0\n"
        "    def tick(self):\n"
        "        self.b += 1\n"         # AugAssign outside __init__
        "        self.c[0] = 1\n"       # subscript store still writes c
        "    def _reset(self):\n"
        "        self.d = 0\n"          # plain rebind outside __init__
    )
    model = extract_state_model([_source("widget_mod", text)])
    (cls,) = model.classes
    assert cls.name == "Widget"
    by_name = {f.name: f.mutable for f in cls.fields}
    assert by_name == {"a": False, "b": True, "c": True, "d": True}


def test_external_write_marks_field_mutable_and_records_writer():
    decl = (
        "# detlint: state-class[Widget owner=engine.cpu]\n"
        "class Widget:\n"
        "    __slots__ = ('a',)\n"
        "    def __init__(self):\n"
        "        self.a = 0\n"
    )
    writer = "def poke(widget):\n    widget.a = 9\n"
    model = extract_state_model(
        [_source("widget_mod", decl), _source("poker_mod", writer)]
    )
    (cls,) = model.classes
    field = cls.field("a")
    assert field.mutable
    assert "poker_mod:2" in field.writers


def test_writes_to_local_nonmodel_classes_are_not_attributed():
    # A module's own helper class sharing a field name with a modeled class
    # must not pollute the model (the LintReport.program incident).
    decl = (
        "# detlint: state-class[Widget owner=engine.cpu]\n"
        "class Widget:\n"
        "    __slots__ = ('payload',)\n"
        "    def __init__(self):\n"
        "        self.payload = None\n"
    )
    other = (
        "class Report:\n"
        "    def __init__(self):\n"
        "        self.payload = None\n"
        "def fill(report):\n"
        "    report.payload = 1\n"
    )
    model = extract_state_model(
        [_source("widget_mod", decl), _source("report_mod", other)]
    )
    (cls,) = model.classes
    assert not cls.field("payload").mutable


# ---------------------------------------------------------------------------
# Derived slots manifest


def test_slots_manifest_is_derived_from_state_classes():
    from repro.analysis.rules.protocol import SLOTS_MANIFEST

    assert SLOTS_MANIFEST == derive_slots_manifest()


def test_slots_manifest_pins_hot_path_modules():
    manifest = derive_slots_manifest()
    assert "Core" in manifest["repro.cpu.core"]
    assert "MacroController" in manifest["repro.cpu.macroop"]
    # Every hot-path spec lands in the manifest, and nothing else does.
    hot = {(s.module, s.name) for s in STATE_CLASSES if s.hot_path}
    listed = {(m, n) for m, names in manifest.items() for n in names}
    assert listed == hot


def test_exactly_one_core_state_class():
    cores = [s for s in STATE_CLASSES if s.core_state]
    assert [(s.module, s.name) for s in cores] == [("repro.cpu.core", "Core")]


# ---------------------------------------------------------------------------
# JSON artifact


def test_json_dump_matches_golden_fixture():
    report = run_rules(GOLDEN_PAIR)
    text = state_model_to_json(report.program.state_model)
    golden = (FIXTURES / "statemodel_golden.json").read_text()
    assert text == golden


def test_json_dump_is_deterministic_and_schema_versioned():
    texts = []
    for _ in range(2):
        report = run_rules(GOLDEN_PAIR)
        texts.append(state_model_to_json(report.program.state_model))
    assert texts[0] == texts[1]
    assert texts[0].endswith("\n")
    payload = json.loads(texts[0])
    assert payload["schema"] == STATE_SCHEMA_VERSION == 1
    modules = [c["module"] for c in payload["classes"]]
    assert modules == sorted(modules)
    for cls in payload["classes"]:
        names = [f["name"] for f in cls["fields"]]
        assert names == sorted(names)


def test_committed_statemodel_matches_tree():
    report = run_rules([default_scan_root()])
    text = state_model_to_json(report.program.state_model)
    committed = (REPO_ROOT / "STATEMODEL.json").read_text()
    assert text == committed, (
        "STATEMODEL.json is stale — regenerate with "
        "`python -m repro lint --statemodel-out STATEMODEL.json` and review "
        "the diff"
    )


def test_real_tree_core_is_modeled():
    report = run_rules([default_scan_root()])
    model = report.program.state_model
    (core,) = model.core_classes()
    assert core.name == "Core" and core.module == "repro.cpu.core"
    assert core.field("cycle").mutable
    assert core.field("halted").mutable


def test_every_row_macro_apply_writes_is_mutable():
    """``MacroController._apply`` writes its rows through ``setattr``; the
    model must still count each one as written (by ``repro.cpu.macroop``)
    wherever the owning class is modeled."""
    from operator import attrgetter

    from repro.apps import microbench as mb
    from repro.cpu.delivery import FlushStrategy
    from repro.cpu.macroop import applied_paths
    from repro.cpu.multicore import MultiCoreSystem

    core = MultiCoreSystem([mb.make_count_loop(10).program], [FlushStrategy()]).cores[0]
    model = run_rules([default_scan_root()]).program.state_model
    checked = []
    for path in applied_paths():
        owner, _, name = path.rpartition(".")
        root, _, inner = owner.partition(".")
        if root == "uop":
            class_name = "UOp"
        else:
            class_name = type(attrgetter(inner)(core) if inner else core).__name__
        cls = model.get(class_name)
        if cls is None:
            continue
        info = cls.field(name)
        assert info is not None and info.mutable, f"{class_name}.{name} not mutable"
        assert any(writer.startswith("repro.cpu.macroop:") for writer in info.writers)
        checked.append(f"{class_name}.{name}")
    assert {"UOp.seq", "UOp.frontend_ready", "Core.cycle"} <= set(checked)


def test_every_write_grant_has_a_writer():
    """A WRITE_GRANTS entry whose grantee no longer writes the field is a
    stale permission: it would let a new write through unreviewed."""
    from repro.analysis.rules.state import WRITE_GRANTS, _in_pkg

    report = run_rules([default_scan_root()])
    model = report.program.state_model
    stale = []
    for key, grantees in sorted(WRITE_GRANTS.items()):
        class_name, field_name = key.split(".")
        info = model.get(class_name).field(field_name)
        writer_modules = {writer.rsplit(":", 1)[0] for writer in info.writers}
        for grantee in grantees:
            if not any(_in_pkg(module, grantee) for module in writer_modules):
                stale.append((key, grantee))
    assert stale == []


# ---------------------------------------------------------------------------
# CLI


def test_statemodel_out_flag_writes_artifact(tmp_path, capsys):
    out = tmp_path / "model.json"
    assert main([str(p) for p in GOLDEN_PAIR] + ["--statemodel-out", str(out)]) == 0
    assert "wrote state model" in capsys.readouterr().err
    payload = json.loads(out.read_text())
    assert payload["schema"] == STATE_SCHEMA_VERSION
    assert {c["class"] for c in payload["classes"]} == {"LoopCore", "EngineCore"}


def test_table_writes_reads_a_module_declaration(monkeypatch):
    """``TABLE_WRITERS`` is read from any module that binds it; a writer the
    module does not define is an error, not a silent drop."""
    module = types.ModuleType("table_fixture")
    module.TABLE_WRITERS = {"Owner.apply": ("core.cycle", "uop.seq")}
    monkeypatch.setitem(sys.modules, "table_fixture", module)
    tree = ast.parse("TABLE_WRITERS = {}\nclass Owner:\n    def apply(self):\n        pass\n")
    writes = table_writes("table_fixture", tree)
    assert [(w.line, w.cls, w.func, w.receiver, w.attr) for w in writes] == [
        (3, "Owner", "apply", "core", "cycle"),
        (3, "Owner", "apply", "uop", "seq"),
    ]
    assert table_writes("table_fixture", ast.parse("x = 1\n")) == []
    module.TABLE_WRITERS = {"Owner.renamed": ("core.cycle",)}
    with pytest.raises(ConfigError):
        table_writes("table_fixture", tree)
