"""The ``.repro-fuzz/`` crash corpus: findings as replayable artifacts.

One JSON file per failure *fingerprint* (dedup is by fingerprint, so a bug
that fires on fifty seeds is stored once, as its most-shrunk form).  An
artifact is self-contained: the canonical scenario, the oracle that fired,
the engine leg and its exact flag environment, the observed detail, and —
when the shrinker ran — the original scenario it was minimized from.
``repro fuzz repro <artifact>`` rebuilds the scenario and re-runs its
engine matrix, demanding the same fingerprint fire again.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.common.errors import ConfigError
from repro.scenario.dsl import Scenario
from repro.scenario.fuzz import FINDING_KINDS, FuzzFinding
from repro.scenario.shrink import ShrinkResult

#: Default corpus directory, relative to the working directory.
DEFAULT_CORPUS_DIR = ".repro-fuzz"

#: Artifact schema version (bump on layout changes; loads are strict).
ARTIFACT_VERSION = 1

_ARTIFACT_KEYS: Tuple[str, ...] = (
    "version",
    "fingerprint",
    "kind",
    "leg",
    "engine_env",
    "detail",
    "scenario",
    "scenario_id",
    "shrunk",
)


class CrashCorpus:
    """A directory of fingerprint-keyed finding artifacts."""

    def __init__(self, root: "str | Path" = DEFAULT_CORPUS_DIR) -> None:
        self.root = Path(root)

    def path_for(self, fingerprint: str) -> Path:
        return self.root / f"{fingerprint}.json"

    def save(
        self, finding: FuzzFinding, shrink_result: Optional[ShrinkResult] = None
    ) -> Optional[Path]:
        """Persist a finding; returns the path, or None if the fingerprint
        is already in the corpus (dedup)."""
        path = self.path_for(finding.fingerprint)
        if path.exists():
            return None
        artifact = finding.to_json()
        artifact["version"] = ARTIFACT_VERSION
        if shrink_result is not None and shrink_result.shrank:
            artifact["shrunk"] = {
                "from_scenario_id": shrink_result.original.content_id(),
                "from_size_key": list(shrink_result.original.size_key()),
                "to_size_key": list(finding.scenario.size_key()),
                "steps_accepted": shrink_result.steps_accepted,
                "attempts": shrink_result.attempts,
            }
        self.root.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(".tmp")
        tmp.write_text(
            json.dumps(artifact, sort_keys=True, indent=2) + "\n", encoding="utf-8"
        )
        tmp.replace(path)
        return path

    def fingerprints(self) -> List[str]:
        if not self.root.is_dir():
            return []
        return sorted(p.stem for p in self.root.glob("*.json"))

    def load(self, path: "str | Path") -> Dict[str, object]:
        """Read and validate one artifact (strict: unknown keys, missing
        fields, or a scenario that no longer parses are all errors)."""
        path = Path(path)
        try:
            text = path.read_text(encoding="utf-8")
        except OSError as exc:
            raise ConfigError(f"cannot read artifact {path}: {exc}") from exc
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"artifact {path} is not valid JSON: {exc}") from exc
        if not isinstance(obj, dict):
            raise ConfigError(f"artifact {path} must be a JSON object")
        unknown = sorted(set(obj) - set(_ARTIFACT_KEYS))
        if unknown:
            raise ConfigError(f"artifact {path} has unknown key(s) {unknown}")
        for key in ("version", "fingerprint", "kind", "leg", "scenario"):
            if key not in obj:
                raise ConfigError(f"artifact {path} is missing required key {key!r}")
        if obj["version"] != ARTIFACT_VERSION:
            raise ConfigError(
                f"artifact {path} has version {obj['version']!r}; this build "
                f"reads version {ARTIFACT_VERSION}"
            )
        if obj["kind"] not in FINDING_KINDS:
            raise ConfigError(
                f"artifact {path} has unknown finding kind {obj['kind']!r}"
            )
        # Re-validating through the DSL is the point: a corrupted artifact
        # fails loudly here, not deep inside a replay run.
        obj["scenario_obj"] = Scenario.from_json(obj["scenario"])
        return obj
