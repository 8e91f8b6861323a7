"""Shrinker and crash corpus: minimize preserving identity, store strictly."""

import json

import pytest

from repro.common.errors import ConfigError
from repro.faults.plan import Fault
from repro.scenario.corpus import ARTIFACT_VERSION, CrashCorpus
from repro.scenario.dsl import (
    ENGINE_LEG_NAMES,
    CoreSpec,
    FaultSpec,
    Scenario,
    TimerSpec,
    UipiLink,
    WorkloadSpec,
)
from repro.scenario.fuzz import ENV_TEST_DIVERGENCE, run_one
from repro.scenario.shrink import shrink


def roomy_scenario():
    """Deliberately padded: idle core, sender, timer, fault, big budget —
    all of it droppable once the hook is what makes the finding fire."""
    return Scenario(
        name="roomy",
        cores=(
            CoreSpec(
                role="workload",
                workload=WorkloadSpec(
                    kind="count_loop", knobs=(("iterations", 500),)
                ),
                kb_timer=TimerSpec(period=2048),
            ),
            CoreSpec(role="uipi_sender", interval=600, count=4),
            CoreSpec(role="idle"),
        ),
        links=(UipiLink(sender=1, receiver=0, vector=9),),
        faults=FaultSpec(
            seed=5, faults=(Fault(kind="upid_stall", core=0, at=900),)
        ),
        engines=ENGINE_LEG_NAMES,
        max_cycles=60_000,
        seed=21,
    )


@pytest.fixture
def hooked_finding(monkeypatch):
    monkeypatch.setenv(ENV_TEST_DIVERGENCE, "fast+macro")
    findings = run_one(roomy_scenario())
    assert findings, "the test hook must produce a finding"
    return findings[0]


class TestShrink:
    def test_shrinks_strictly_smaller_same_fingerprint(self, hooked_finding):
        result = shrink(hooked_finding)
        assert result.shrank
        assert result.finding.fingerprint == hooked_finding.fingerprint
        assert result.finding.scenario.size_key() < roomy_scenario().size_key()
        assert result.steps_accepted > 0
        assert result.attempts >= result.steps_accepted

    def test_shrunk_scenario_still_reproduces(self, hooked_finding):
        result = shrink(hooked_finding)
        fps = {f.fingerprint for f in run_one(result.finding.scenario)}
        assert hooked_finding.fingerprint in fps

    def test_shrunk_scenario_sheds_the_padding(self, hooked_finding):
        # The hook fires on any scenario, so everything droppable goes:
        # one bare workload core, no faults, no timers, minimal budget.
        small = shrink(hooked_finding).finding.scenario
        assert len(small.cores) == 1
        assert small.cores[0].kb_timer is None
        assert small.links == ()
        assert small.faults.faults == () and small.faults.count == 0

    def test_attempt_cap_respected(self, hooked_finding):
        result = shrink(hooked_finding, max_attempts=3)
        assert result.attempts <= 3

    def test_unreproducible_finding_comes_back_unshrunk(self, hooked_finding):
        # Drop the hook: nothing reproduces, so no candidate is accepted.
        import os

        del os.environ[ENV_TEST_DIVERGENCE]
        result = shrink(hooked_finding, max_attempts=10)
        assert not result.shrank
        assert result.finding.scenario == hooked_finding.scenario
        assert result.steps_accepted == 0


class TestCorpus:
    def test_save_load_round_trip(self, tmp_path, hooked_finding):
        corpus = CrashCorpus(tmp_path / "corpus")
        path = corpus.save(hooked_finding)
        assert path is not None
        assert corpus.fingerprints() == [hooked_finding.fingerprint]
        obj = corpus.load(path)
        assert obj["fingerprint"] == hooked_finding.fingerprint
        assert obj["scenario_obj"] == hooked_finding.scenario

    def test_dedup_by_fingerprint(self, tmp_path, hooked_finding):
        corpus = CrashCorpus(tmp_path)
        assert corpus.save(hooked_finding) is not None
        assert corpus.save(hooked_finding) is None
        assert len(corpus.fingerprints()) == 1

    def test_shrink_metadata_recorded(self, tmp_path, hooked_finding):
        result = shrink(hooked_finding)
        corpus = CrashCorpus(tmp_path)
        path = corpus.save(result.finding, result)
        obj = corpus.load(path)
        shrunk = obj["shrunk"]
        assert shrunk["from_scenario_id"] == roomy_scenario().content_id()
        assert shrunk["to_size_key"] < shrunk["from_size_key"]
        assert shrunk["steps_accepted"] == result.steps_accepted

    def _artifact(self, tmp_path, hooked_finding, **overrides):
        corpus = CrashCorpus(tmp_path)
        path = corpus.save(hooked_finding)
        obj = json.loads(path.read_text())
        obj.update(overrides)
        path.write_text(json.dumps(obj))
        return corpus, path

    def test_unknown_key_rejected(self, tmp_path, hooked_finding):
        corpus, path = self._artifact(tmp_path, hooked_finding, extra=1)
        with pytest.raises(ConfigError, match="unknown key"):
            corpus.load(path)

    def test_version_mismatch_rejected(self, tmp_path, hooked_finding):
        corpus, path = self._artifact(
            tmp_path, hooked_finding, version=ARTIFACT_VERSION + 1
        )
        with pytest.raises(ConfigError, match="version"):
            corpus.load(path)

    def test_unknown_finding_kind_rejected(self, tmp_path, hooked_finding):
        corpus, path = self._artifact(tmp_path, hooked_finding, kind="vibes")
        with pytest.raises(ConfigError, match="finding kind"):
            corpus.load(path)

    def test_corrupt_scenario_rejected(self, tmp_path, hooked_finding):
        corpus, path = self._artifact(tmp_path, hooked_finding)
        obj = json.loads(path.read_text())
        obj["scenario"]["max_cycles"] = 1
        path.write_text(json.dumps(obj))
        with pytest.raises(ConfigError):
            corpus.load(path)

    def test_malformed_json_rejected(self, tmp_path):
        bad = tmp_path / "x.json"
        bad.write_text("{nope")
        with pytest.raises(ConfigError, match="not valid JSON"):
            CrashCorpus(tmp_path).load(bad)

    def test_missing_artifact_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            CrashCorpus(tmp_path).load(tmp_path / "absent.json")

    def test_empty_corpus_lists_nothing(self, tmp_path):
        assert CrashCorpus(tmp_path / "never-made").fingerprints() == []
