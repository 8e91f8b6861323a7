"""Self-test of the end-to-end benchmark at smoke scale (well under a minute).

Run from the repository root::

    python -m pytest benchmarks/e2e -q
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
METRIC_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]*\Z")


def run_bench(*argv: str) -> list:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--scale", "smoke", "--seconds", "0", *argv],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    out = tmp_path_factory.mktemp("e2e")
    lines = run_bench("--seed", "0", "--trace", "1", "--json", str(out / "detail.json"),
                      "--trace-out", str(out))
    return lines, json.loads((out / "detail.json").read_text())


def test_every_benchmark_metric_is_printed(traced):
    lines, _ = traced
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert all(METRIC_NAME.match(name) for name in names)
    printed = {tuple(line.split()[:2]) for line in lines[:-1]}
    for workload in spec["workloads"]:
        missing = [n for n in names if (workload["name"], n) not in printed]
        assert not missing, (workload["name"], missing)
    result = json.loads(lines[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0


def test_self_times_fit_in_wall_and_units_cover_it(traced):
    _, detail = traced
    for name, result in detail["workloads"].items():
        totals = result["traced"]["totals"]
        assert totals["self_s"] <= totals["pass_s"] * (1 + 1e-9), name
        assert totals["unit_s"] >= 0.95 * totals["pass_s"], name


def test_corrupted_digest_fails_the_unit(tmp_path):
    table = json.loads((HERE / "expected.json").read_text())
    units = table["smoke"]["0"]["cycle_manycore"]
    units[sorted(units)[0]] = "0" * 64
    corrupted = tmp_path / "expected.json"
    corrupted.write_text(json.dumps(table))
    lines = run_bench("--workload", "cycle_manycore", "--seed", "0",
                      "--expected", str(corrupted))
    result = json.loads(lines[-1])
    assert not result["correct"] and result["failed"] == 1
    (frac,) = [line for line in lines if line.startswith("cycle_manycore ops_failed_frac ")]
    assert float(frac.split()[2]) > 0


def test_seeds_give_different_inputs():
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    for name, make in WORKLOADS.items():
        assert make(0, "smoke").inputs() != make(1, "smoke").inputs(), name
