"""Differential fuzz driver: oracles, fingerprints, env hygiene."""

import json
import os

import pytest

from repro.common.counters import ENV_FAST, ENV_MACRO
from repro.common.errors import ConfigError
from repro.scenario.dsl import (
    ENGINE_LEG_NAMES,
    CoreSpec,
    FaultSpec,
    Scenario,
    WorkloadSpec,
)
from repro.scenario.fuzz import (
    ENGINE_LEGS,
    ENV_TEST_DIVERGENCE,
    FINDING_KINDS,
    ScenarioGenerator,
    _engine_env,
    fingerprint,
    fuzz,
    run_one,
    run_scenario,
)


def tiny_scenario(**overrides):
    base = dict(
        name="tiny",
        cores=(
            CoreSpec(
                role="workload",
                workload=WorkloadSpec(
                    kind="count_loop", knobs=(("iterations", 100),)
                ),
            ),
        ),
        links=(),
        faults=FaultSpec(seed=1),
        engines=ENGINE_LEG_NAMES,
        max_cycles=20_000,
        seed=3,
    )
    base.update(overrides)
    return Scenario(**base)


class TestFingerprint:
    def test_digit_runs_are_normalized(self):
        a = fingerprint("divergence", "fast", "cycle 3656 vs 3655")
        b = fingerprint("divergence", "fast", "cycle 12 vs 9")
        assert a == b

    def test_kind_and_leg_are_identity(self):
        detail = "cycle 10 vs 11"
        assert fingerprint("divergence", "fast", detail) != fingerprint(
            "divergence", "naive", detail
        )
        assert fingerprint("divergence", "fast", detail) != fingerprint(
            "timeout", "fast", detail
        )

    def test_shape(self):
        fp = fingerprint("crash", "naive", "ValueError: boom")
        assert len(fp) == 12
        assert all(c in "0123456789abcdef" for c in fp)


class TestEngineEnv:
    def test_legs_cover_the_engine_matrix(self):
        assert tuple(ENGINE_LEGS) == ENGINE_LEG_NAMES
        assert ENGINE_LEGS["naive"][ENV_FAST] == "0"
        assert ENGINE_LEGS["fast+macro"][ENV_MACRO] == "1"
        assert ENGINE_LEGS["fast+macro"][ENV_FAST] == "1"

    def test_env_restored_after_leg(self, monkeypatch):
        monkeypatch.setenv(ENV_FAST, "1")
        monkeypatch.delenv(ENV_MACRO, raising=False)
        with _engine_env("naive"):
            assert os.environ[ENV_FAST] == "0"
            assert os.environ[ENV_MACRO] == "0"
        assert os.environ[ENV_FAST] == "1"
        assert ENV_MACRO not in os.environ

    def test_env_restored_on_exception(self, monkeypatch):
        monkeypatch.setenv(ENV_MACRO, "1")
        with pytest.raises(RuntimeError):
            with _engine_env("naive"):
                raise RuntimeError("boom")
        assert os.environ[ENV_MACRO] == "1"


class TestRunOne:
    def test_clean_scenario_has_no_findings(self):
        assert run_one(tiny_scenario()) == []

    def test_views_agree_across_legs(self):
        s = tiny_scenario()
        views = [run_scenario(s, leg) for leg in s.engines]
        assert all(v == views[0] for v in views[1:])

    def test_timeout_oracle_fires_on_starved_budget(self):
        s = tiny_scenario(
            cores=(
                CoreSpec(
                    role="workload",
                    workload=WorkloadSpec(
                        kind="count_loop", knobs=(("iterations", 100_000),)
                    ),
                ),
            ),
            max_cycles=1_000,
        )
        findings = run_one(s)
        assert findings
        assert {f.kind for f in findings} == {"timeout"}
        # Every leg times out the same way, so each reports it.
        assert sorted(f.leg for f in findings) == sorted(s.engines)

    def test_divergence_hook_fires_on_named_leg(self, monkeypatch):
        monkeypatch.setenv(ENV_TEST_DIVERGENCE, "fast+macro")
        findings = run_one(tiny_scenario())
        assert len(findings) == 1
        finding = findings[0]
        assert finding.kind == "divergence"
        assert finding.leg == "fast+macro"
        assert "cycles" in finding.detail
        assert finding.fingerprint == fingerprint(
            "divergence", "fast+macro", finding.detail
        )

    def test_finding_to_json_is_replayable(self, monkeypatch):
        monkeypatch.setenv(ENV_TEST_DIVERGENCE, "fast")
        (finding,) = run_one(tiny_scenario())
        obj = finding.to_json()
        assert obj["engine_env"] == ENGINE_LEGS["fast"]
        assert Scenario.from_json(obj["scenario"]) == finding.scenario
        assert obj["scenario_id"] == finding.scenario.content_id()

    def test_artifact_naming_a_removed_leg_is_rejected(
        self, tmp_path, monkeypatch, capsys
    ):
        """A corpus artifact written when the numpy batch leg still existed
        no longer parses: the DSL rejects the unknown leg with a ConfigError
        and ``repro fuzz repro`` exits 2 instead of crashing."""
        from repro.cli import main
        from repro.scenario.corpus import CrashCorpus

        removed_leg = "+".join(("fast", "batch"))
        monkeypatch.setenv(ENV_TEST_DIVERGENCE, "fast")
        (finding,) = run_one(tiny_scenario())
        path = CrashCorpus(tmp_path).save(finding)
        obj = json.loads(path.read_text())
        obj["leg"] = removed_leg
        obj["scenario"]["engines"].append(removed_leg)
        path.write_text(json.dumps(obj))
        with pytest.raises(ConfigError, match="unknown engine legs"):
            Scenario.from_json(obj["scenario"])
        assert main(["fuzz", "repro", str(path)]) == 2
        assert "unknown engine legs" in capsys.readouterr().err
        assert finding.kind in FINDING_KINDS


class TestFuzzDriver:
    def test_clean_seeds_report_clean(self):
        report = fuzz(ScenarioGenerator(root_seed=0), seeds=2)
        assert report.clean
        assert report.scenarios_run == 2
        assert (report.first_seed, report.last_seed) == (0, 1)
        assert not report.stopped_on_budget
        summary = report.summary()
        assert summary["scenarios_run"] == 2
        assert summary["findings"] == 0
        assert summary["by_kind"] == {}

    def test_hook_findings_reach_the_report(self, monkeypatch):
        monkeypatch.setenv(ENV_TEST_DIVERGENCE, "fast+macro")
        report = fuzz(ScenarioGenerator(root_seed=0), seeds=1)
        assert not report.clean
        summary = report.summary()
        assert summary["by_kind"] == {"divergence": len(report.findings)}
        assert summary["unique_fingerprints"] >= 1

    def test_zero_time_budget_stops_before_any_scenario(self):
        report = fuzz(ScenarioGenerator(root_seed=0), seeds=5, time_budget=0.0)
        assert report.scenarios_run == 0
        assert report.last_seed is None
        assert report.stopped_on_budget

    def test_progress_callback_sees_every_seed(self):
        seen = []
        fuzz(
            ScenarioGenerator(root_seed=0),
            seeds=2,
            start=10,
            progress=lambda i, s, f: seen.append((i, s.name, len(f))),
        )
        assert [i for i, _, _ in seen] == [10, 11]

    def test_negative_seeds_rejected(self):
        with pytest.raises(ConfigError):
            fuzz(ScenarioGenerator(), seeds=-1)
