"""The detlint scan engine: file discovery, rule dispatch, report assembly.

The engine is deliberately boring: collect files, parse each exactly once
into a :class:`ProgramModel` shared by every rule family, run the per-module
rules over each parsed module and the whole-program rules over the model,
drop suppressed findings, partition the rest against the baseline, and
return a :class:`LintReport`.  All policy (what is a hazard, what is
grandfathered) lives in the rules and the baseline file; all presentation
lives in :mod:`repro.analysis.lint`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.analysis.baseline import BaselineKey, load_baseline, split_by_baseline
from repro.analysis.findings import Finding
from repro.analysis.rules import ModuleSource, ProgramModel, ProgramRule, Rule, all_rules
from repro.analysis.suppressions import Suppressions
from repro.common.errors import ConfigError

#: Directory names never scanned.
_SKIP_DIRS = {"__pycache__", ".git", ".hypothesis"}


def default_scan_root() -> Path:
    """The installed ``repro`` package directory (works from any cwd)."""
    import repro

    return Path(repro.__file__).resolve().parent


def repo_root() -> Optional[Path]:
    """The checkout root (parent of ``src``), or None when installed flat."""
    package = default_scan_root()
    src = package.parent
    if src.name == "src":
        return src.parent
    return None


def collect_files(paths: Sequence[Path]) -> List[Path]:
    """Expand files/directories into a sorted, de-duplicated .py file list."""
    out: Set[Path] = set()
    for path in paths:
        path = path.resolve()
        if path.is_dir():
            for candidate in path.rglob("*.py"):
                if not _SKIP_DIRS.intersection(candidate.parts):
                    out.add(candidate)
        elif path.is_file():
            out.add(path)
        else:
            raise ConfigError(f"lint path does not exist: {path}")
    return sorted(out)


def module_name_for(path: Path) -> str:
    """Dotted module name when ``path`` sits under a ``repro`` package root,
    else the bare stem (fixtures — never matches a layer allowlist)."""
    parts = path.with_suffix("").parts
    for anchor in range(len(parts) - 1, -1, -1):
        if parts[anchor] == "repro" and (
            anchor == 0 or parts[anchor - 1] in ("src", "site-packages")
        ):
            dotted = list(parts[anchor:])
            if dotted[-1] == "__init__":
                dotted.pop()
            return ".".join(dotted)
    return parts[-1]


def display_path_for(path: Path) -> str:
    """Repo-relative path when possible (stable across machines)."""
    root = repo_root()
    if root is not None:
        try:
            return path.resolve().relative_to(root).as_posix()
        except ValueError:
            pass
    return path.as_posix()


@dataclass
class LintReport:
    """Outcome of one scan."""

    files_scanned: int = 0
    rules_run: int = 0
    #: Findings not covered by a suppression or the baseline — these gate.
    new_findings: List[Finding] = field(default_factory=list)
    #: Findings matched by the committed baseline (reported, non-gating).
    baselined_findings: List[Finding] = field(default_factory=list)
    #: Count of findings silenced by inline pragmas.
    suppressed_count: int = 0
    #: Baseline entries that matched nothing (candidates for deletion).
    stale_baseline: List[BaselineKey] = field(default_factory=list)
    #: Files that failed to parse, as (display_path, error) pairs — these
    #: gate too: an unparseable file is an unauditable file.
    parse_errors: List[Tuple[str, str]] = field(default_factory=list)
    #: The shared whole-program view the scan ran over (parsed modules +
    #: lazily-extracted state model); ``--statemodel-out`` reads it.
    program: Optional[ProgramModel] = None

    @property
    def ok(self) -> bool:
        return not self.new_findings and not self.parse_errors


def run_rules(
    paths: Sequence[Path],
    rules: Optional[Sequence[Rule]] = None,
    baseline: Optional[Set[BaselineKey]] = None,
    baseline_path: Optional[Path] = None,
) -> LintReport:
    """Scan ``paths`` with ``rules`` (default: every registered rule).

    ``baseline`` wins over ``baseline_path``; both absent means an empty
    baseline (every finding gates).
    """
    if rules is None:
        rules = all_rules()
    if baseline is None:
        baseline = load_baseline(baseline_path) if baseline_path is not None else set()

    module_rules = [r for r in rules if not isinstance(r, ProgramRule)]
    program_rules = [r for r in rules if isinstance(r, ProgramRule)]

    report = LintReport(rules_run=len(rules))
    raw: List[Finding] = []

    # Phase 1: parse every file exactly once; the resulting sources are the
    # single shared corpus for per-module and whole-program rules alike.
    sources: List[ModuleSource] = []
    suppressions_by_path: Dict[str, Suppressions] = {}
    for path in collect_files(paths):
        display = display_path_for(path)
        try:
            text = path.read_text(encoding="utf-8")
            module = ModuleSource(path, display, module_name_for(path), text)
        except (OSError, SyntaxError, ValueError) as exc:
            report.parse_errors.append((display, str(exc)))
            continue
        report.files_scanned += 1
        sources.append(module)
        suppressions_by_path[display] = Suppressions(text)

    def emit(finding: Finding) -> None:
        suppressions = suppressions_by_path.get(finding.path)
        if suppressions is not None and suppressions.is_suppressed(
            finding.rule_id, finding.line
        ):
            report.suppressed_count += 1
        else:
            raw.append(finding)

    # Phase 2: per-module rules.
    for module in sources:
        for rule in module_rules:
            for finding in rule.check(module):
                emit(finding)

    # Phase 3: whole-program rules over the shared model.
    program = ProgramModel(sources)
    report.program = program
    for rule in program_rules:
        for finding in rule.check_program(program):
            emit(finding)

    raw.sort(key=Finding.sort_key)
    new, old, stale = split_by_baseline(raw, baseline)
    report.new_findings = new
    report.baselined_findings = old
    report.stale_baseline = sorted(stale)
    return report
