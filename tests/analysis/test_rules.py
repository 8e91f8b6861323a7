"""Every detlint rule: one true-positive fixture, one clean twin.

The fixtures under ``fixtures/`` are scanned with the real engine, so these
tests cover file discovery, module-name mapping (fixtures get bare-stem
names and thus never match layer allowlists), rule dispatch, and ordering —
not just the rule visitors in isolation.
"""

from __future__ import annotations

import shutil
from pathlib import Path

import pytest

from repro.analysis.engine import run_rules
from repro.analysis.rules import all_rules, rule_ids

FIXTURES = Path(__file__).parent / "fixtures"

ALL_RULE_IDS = (
    "DET001",
    "DET002",
    "DET003",
    "DET004",
    "DET005",
    "PRO101",
    "PRO102",
    "PRO103",
    "PRO104",
    "STA202",
    "STA204",
    "STA205",
)


def scan(name: str):
    return run_rules([FIXTURES / name])


def test_registry_is_complete_and_ordered():
    assert rule_ids() == list(ALL_RULE_IDS)
    for rule in all_rules():
        assert rule.description, rule.rule_id
        assert rule.hint, rule.rule_id


@pytest.mark.parametrize("rule_id", ALL_RULE_IDS)
def test_bad_fixture_triggers_rule(rule_id):
    report = scan(f"{rule_id.lower()}_bad.py")
    assert not report.ok
    assert rule_id in {f.rule_id for f in report.new_findings}


@pytest.mark.parametrize("rule_id", ALL_RULE_IDS)
def test_good_fixture_is_clean(rule_id):
    report = scan(f"{rule_id.lower()}_good.py")
    assert report.ok
    assert report.new_findings == []
    assert report.suppressed_count == 0


def test_det001_flags_aliased_import():
    report = scan("det001_bad.py")
    messages = [f.message for f in report.new_findings]
    assert any("time.perf_counter" in m for m in messages)  # `pc` alias resolved
    assert any("datetime.datetime.now" in m for m in messages)


def test_det002_flags_literal_none_seed():
    report = scan("det002_bad.py")
    snippets = [f.snippet for f in report.new_findings if f.rule_id == "DET002"]
    assert any("random.Random(None)" in s for s in snippets)


def test_det005_bad_also_trips_unordered_iteration():
    # The histogram loop iterates set(samples) directly: DET003 and DET005
    # both apply, at the loop and the augmented assignment respectively.
    rules = {f.rule_id for f in scan("det005_bad.py").new_findings}
    assert {"DET003", "DET005"} <= rules


def test_pro101_names_the_missing_hooks():
    report = scan("pro101_bad.py")
    by_message = {f.message for f in report.new_findings}
    assert any("SilentStrategy" in m and "always_poll" in m for m in by_message)
    assert any(
        "HalfStrategy" in m and "next_activity_cycle" in m for m in by_message
    )
    # HalfStrategy *did* declare always_poll — only the override is missing.
    assert not any("HalfStrategy" in m and "always_poll" in m for m in by_message)


def test_pro102_flags_global_and_constant_writes():
    messages = [f.message for f in scan("pro102_bad.py").new_findings]
    assert any("rebinds global" in m for m in messages)
    assert any("EVENT_LOG" in m for m in messages)


def test_pro103_reports_missing_slots_and_stale_entry():
    report = scan("pro103_bad.py")
    messages = [f.message for f in report.new_findings]
    assert any("HotEvent" in m and "__slots__" in m for m in messages)
    assert any("GoneClass" in m and "stale" in m for m in messages)
    # The unlisted helper class is not the manifest's business.
    assert not any("ColdHelper" in m for m in messages)


def test_pro104_flags_clock_env_global_and_mutable_reads():
    report = scan("pro104_bad.py")
    messages = [f.message for f in report.new_findings]
    assert any("imports wall-clock/entropy source time" in m for m in messages)
    assert any("imports from wall-clock/entropy source random" in m for m in messages)
    assert any("os.environ" in m for m in messages)
    assert any("rebinds module global" in m and "_replay_cache" in m for m in messages)
    assert any(
        "reads mutable module global _replay_cache" in m for m in messages
    )
    # ALL_CAPS constants and local shadows stay clean (see the good twin).


def test_pro104_only_applies_to_pure_modules():
    # No pragma, not in PURE_MODULES: the same sins go unflagged by PRO104.
    report = scan("pro102_bad.py")
    assert not any(f.rule_id == "PRO104" for f in report.new_findings)


def test_scenariocompile_shaped_fixture_flags_purity():
    """The scenario-compiler contract: a pure-module pragma'd compiler with
    ambient inputs trips PRO104 on every sin the real module must avoid."""
    report = scan("scenariocompile_bad.py")
    messages = [f.message for f in report.new_findings if f.rule_id == "PRO104"]
    assert any("imports wall-clock/entropy source time" in m for m in messages)
    assert any("imports wall-clock/entropy source random" in m for m in messages)
    assert any("os.environ" in m for m in messages)
    assert any("_compile_cache" in m for m in messages)


def test_scenariocompile_shaped_fixture_clean_twin_passes():
    report = scan("scenariocompile_good.py")
    assert not any(f.rule_id == "PRO104" for f in report.new_findings)


def test_pure_modules_pin_the_scenario_compiler():
    from repro.analysis.rules.protocol import PURE_MODULES

    assert "repro.scenario.compile" in PURE_MODULES


def _det002_scan(module_name: str, text: str):
    from repro.analysis.rules import ModuleSource
    from repro.analysis.rules.determinism import UnseededRandomRule

    source = ModuleSource(
        FIXTURES / "in_memory.py", "in_memory.py", module_name, text
    )
    return list(UnseededRandomRule().check(source))


def test_det002_allows_seeded_rng_in_generator_modules():
    from repro.analysis.rules.determinism import SEEDED_RNG_MODULES

    assert "repro.scenario.generate" in SEEDED_RNG_MODULES
    text = "import random\nrng = random.Random(7)\n"
    for module in SEEDED_RNG_MODULES:
        assert _det002_scan(module, text) == []


def test_det002_contains_seeded_rng_to_generator_modules():
    # A seeded constructor in an arbitrary repro module is still a finding:
    # simulation code must draw through the generator modules.
    text = "import random\nrng = random.Random(7)\n"
    findings = _det002_scan("repro.cpu.core", text)
    assert len(findings) == 1
    assert "outside the seeded-RNG generator modules" in findings[0].message

    np_text = "import numpy as np\nrng = np.random.default_rng(7)\n"
    findings = _det002_scan("repro.faults.harness", np_text)
    assert len(findings) == 1
    assert "numpy.random.default_rng" in findings[0].message


def test_det002_containment_exempts_bare_stem_fixtures():
    # Files outside a repro package root keep seeded constructions legal
    # (det002_good.py relies on this via the real scanner too).
    text = "import random\nrng = random.Random(7)\n"
    assert _det002_scan("det002_good", text) == []


def test_real_scenario_modules_scan_clean():
    # The genuine generator + compiler files, scanned with their real
    # dotted names through the full engine: allowlisted and pure.
    repo_root = Path(__file__).resolve().parents[2]
    report = run_rules(
        [
            repo_root / "src" / "repro" / "scenario" / "generate.py",
            repo_root / "src" / "repro" / "scenario" / "compile.py",
        ]
    )
    assert report.ok
    assert report.new_findings == []


def test_sta202_catches_note_skipped_regression_shape():
    """The PR-8 bug shape: deferred work parked in a field the activity
    surface (``next_activity_cycle``/``note_skipped``) never consults, so a
    multi-cycle skip can jump straight past a due wakeup."""
    report = scan("sta202_bad.py")
    messages = [f.message for f in report.new_findings if f.rule_id == "STA202"]
    assert any("deferred_wakeups" in m and "LoopCore" in m for m in messages)
    # The heap itself is consulted by the horizon proof: not a finding.
    assert not any("ready_heap" in m for m in messages)


def test_sta202_fires_on_new_core_field_in_real_tree(tmp_path):
    """Mutation check on a copy of the real tree: a new mutable ``Core``
    field that neither ``next_activity_cycle`` nor ``note_skipped`` reads
    must fail STA202, so the rule never silently checks nothing."""
    src = Path(__file__).resolve().parents[2] / "src" / "repro"
    root = tmp_path / "src" / "repro"
    shutil.copytree(src, root, ignore=shutil.ignore_patterns("__pycache__"))
    core = root / "cpu" / "core.py"
    text = core.read_text()
    assert text.count("    __slots__ = (\n") == 1
    assert text.count("    def note_skipped(") == 1
    text = text.replace("    __slots__ = (\n", '    __slots__ = (\n        "spill_mask",\n')
    text = text.replace(
        "    def note_skipped(",
        "    def _spill(self) -> None:\n        self.spill_mask = 1\n\n    def note_skipped(",
    )
    core.write_text(text)
    report = run_rules([root])
    messages = [f.message for f in report.new_findings if f.rule_id == "STA202"]
    assert len(messages) == 1
    assert "spill_mask" in messages[0] and "Core" in messages[0]


def test_sta204_message_names_module_and_class():
    report = scan("sta204_bad.py")
    messages = [f.message for f in report.new_findings if f.rule_id == "STA204"]
    assert any("halted" in m and "ProbeCore" in m for m in messages)


def test_sta205_message_names_the_owner():
    report = scan("sta205_bad.py")
    messages = [f.message for f in report.new_findings if f.rule_id == "STA205"]
    assert any(
        "cycle" in m and "EngineCore" in m and "engine.cpu" in m
        for m in messages
    )


def test_sta205_write_grant_is_package_scoped():
    # The same granted write from a module *outside* the granted package is
    # still a finding: grants name interception points, not open season.
    report = scan("sta205_wrong_pkg.py")
    assert any(f.rule_id == "STA205" for f in report.new_findings)


def test_findings_are_totally_ordered():
    report = scan("det002_bad.py")
    keys = [f.sort_key() for f in report.new_findings]
    assert keys == sorted(keys)
    assert len(set(keys)) == len(keys)


def test_fixture_module_names_never_match_repro_layers():
    # det004_bad would be exempt if the fixture resolved into a config
    # layer; the bare-stem module name guarantees it does not.
    report = scan("det004_bad.py")
    assert any(f.rule_id == "DET004" for f in report.new_findings)
