"""End-to-end benchmark of the xUI simulator: cluster, cycle tier, fuzzer.

Run from the repository root::

    python3 benchmarks/e2e/run.py --workload cluster_idle --seed 0 --seconds 10 --trace 0

Each workload runs in fresh interpreters, one after another, with the
default engine flags, ``REPRO_CACHE=0`` and one job: first
``SETUP_RUNS`` launches that only import and build the inputs (their
median is ``setup_s``), then one launch that runs whole passes for
``--seconds`` and checks every output (the median pass is ``wall_s``).
Both times are rescaled to a nominal host speed (``hostspeed.py``).
``--trace 1`` adds a further launch with the layer hooks installed and
reports per-layer metrics instead.  Leaving out ``--workload`` runs all
of them.

Human-readable lines are ``workload metric value unit``; the last line is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  See README.md for the workloads, metrics and seed policy.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Tuple

import tracing
from workloads import SCALES, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
WORKER = HERE / "worker.py"
EXPECTED = HERE / "expected.json"
#: Scratch space inside the checkout: checkpoints, traces, the result cache.
OUT_DIR = ROOT / ".bench_out"

#: Fresh-interpreter set-up launches per workload (their median is reported).
SETUP_RUNS = {"full": 7, "smoke": 1}
#: Every launch for one workload must finish within this many seconds.
TIME_LIMIT_S = 170.0

END_TO_END: Tuple[Tuple[str, str], ...] = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("peak_rss_mb", "MB"),
)
PER_LAYER: Tuple[Tuple[str, str], ...] = (
    tuple((name, unit) for name, unit, _ in tracing.PER_LAYER)
    + tracing.COUNTER_METRICS
    + (("trace.overhead_pct", "%"),)
)


class BenchError(Exception):
    """A launch failed; the benchmark prints no result."""


def parse_args(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="one workload (default: all, in order)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="measure whole passes for this long (at least one pass)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=SCALES, default="full",
                        help="'smoke' shrinks every input for the self-test")
    parser.add_argument("--json", dest="json_out", help="write every detail to this file")
    parser.add_argument("--trace-out", default=str(OUT_DIR / "traces"),
                        help="directory for Chrome traces of the traced run")
    parser.add_argument("--expected", default=str(EXPECTED),
                        help="reference digests for seeds 0 and 1")
    parser.add_argument("--write-expected", action="store_true",
                        help="record one pass's digests as the reference instead of checking")
    return parser.parse_args(argv)


def child_env() -> Dict[str, str]:
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("REPRO_") and k != "PYTHONPATH"}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["REPRO_CACHE"] = "0"
    env["REPRO_CACHE_DIR"] = str(OUT_DIR / "cache")
    return env


def launch(argv: List[str], deadline: float) -> Dict[str, Any]:
    """Run one worker to completion and return its JSON line."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("time limit reached before launching " + " ".join(argv[:3]))
    try:
        proc = subprocess.run(
            [sys.executable, str(WORKER)] + argv, cwd=ROOT, env=child_env(),
            capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {' '.join(argv[:3])} exceeded the time limit")
    if proc.returncode != 0:
        raise BenchError(f"worker {' '.join(argv[:3])} exited {proc.returncode}:\n"
                         + proc.stderr[-2000:])
    return json.loads(proc.stdout.strip().splitlines()[-1])


def end_to_end(setups: List[Dict[str, float]], run: Dict[str, Any]) -> Dict[str, float]:
    """Set-up and pass times at the nominal host speed (see hostspeed.py)."""
    return {
        "setup_s": statistics.median(s["norm_setup_s"] for s in setups),
        "wall_s": statistics.median(p["norm_seconds"] for p in run["passes"]),
        "peak_rss_mb": run["peak_rss_mb"],
    }


def raw_wall_s(run: Dict[str, Any]) -> float:
    """Median host seconds of one pass, as measured (host-speed samples out)."""
    return statistics.median(p["seconds"] for p in run["passes"])


def information(setups: List[Dict[str, float]],
                run: Dict[str, Any]) -> List[Tuple[str, Any, str]]:
    """Printed for reading, not compared: simulation speed, unit
    percentiles, failure share, the Table-2 error and the Figure-7 ordering.
    (Their spread across seeds is too wide to gate on, see README.md.)"""
    passes = run["passes"]
    times = sorted(u["seconds"] for u in run["units"]
                   if u["kind"] == run["unit_kind"] and u["seconds"] is not None)
    failed = sum(1 for u in run["units"] if u["notes"])
    rows: List[Tuple[str, Any, str]] = [
        ("passes", len(passes), "count"),
        ("raw_setup_s", statistics.median(s["setup_s"] for s in setups), "s"),
        ("raw_wall_s", raw_wall_s(run), "s"),
        ("sim_mcycles_per_s", sum(p["sim_cycles"] for p in passes)
         / sum(p["seconds"] for p in passes) / 1e6, "Mcycles/s"),
    ]
    if times:
        rows += [("unit_n", len(times), "count"),
                 ("unit_p50_ms", 1e3 * statistics.median(times), "ms")]
    if len(times) >= 100:  # at least ten samples beyond the 90th percentile
        rows.append(("unit_p90_ms", 1e3 * statistics.quantiles(times, n=10)[8], "ms"))
    rows.append(("ops_failed_frac", failed / max(len(run["units"]), 1), "fraction"))
    rows += [(key, value, "%" if key.endswith("_pct") else "")
             for key, value in sorted(run["info"].items())]
    return rows


def bench_workload(name: str, args: argparse.Namespace, deadline: float,
                   lines: List[str]) -> Dict[str, Any]:
    common = ["--workload", name, "--seed", str(args.seed), "--scale", args.scale,
              "--workdir", str(OUT_DIR)]
    expected = [] if args.write_expected else ["--expected", args.expected]
    setups = [] if args.write_expected else [
        launch(["setup"] + common, deadline) for _ in range(SETUP_RUNS[args.scale])
    ]
    seconds = "0" if args.write_expected else str(args.seconds)
    run = launch(["run", "--seconds", seconds] + common + expected, deadline)
    if not run["passes"]:
        raise BenchError(f"{name}: no pass completed: "
                         + "; ".join(n for u in run["units"] for n in u["notes"])[:2000])
    if args.write_expected and any(u["notes"] for u in run["units"]):
        raise BenchError(f"{name}: not recording digests of a failing run")
    result: Dict[str, Any] = {"untraced": run}
    runs = [run]
    if not args.write_expected:
        result["end_to_end"] = end_to_end(setups, run)
        for metric, unit in END_TO_END:
            lines.append(f"{name} {metric} {result['end_to_end'][metric]!r} {unit}")
        for metric, value, unit in information(setups, run):
            lines.append(f"{name} {metric} {value!r} {unit}".rstrip())
    if args.trace and not args.write_expected:
        traced = launch(["run", "--seconds", str(args.seconds), "--trace", "1",
                         "--trace-out", args.trace_out] + common + expected, deadline)
        runs.append(traced)
        result["traced"] = traced
        layers = dict(traced["layers"])
        layers["trace.overhead_pct"] = (
            100.0 * (raw_wall_s(traced) - raw_wall_s(run)) / raw_wall_s(run)
        )
        result["per_layer"] = layers
        for metric, unit in PER_LAYER:
            lines.append(f"{name} {metric} {layers[metric]!r} {unit}")
        for hook in traced["missing_hooks"]:
            lines.append(f"{name} missing-hook {hook} (its metrics read 0)")
    result["attempted"] = sum(len(r["units"]) for r in runs)
    result["failed"] = sum(1 for r in runs for u in r["units"] if u["notes"])
    for r in runs:
        for u in r["units"]:
            for note in u["notes"]:
                lines.append(f"{name} FAIL pass {u['pass']} {u['id']}: {note}")
    return result


def write_expected(path: str, scale: str, seed: int, results: Dict[str, Any]) -> None:
    try:
        with open(path) as handle:
            table = json.load(handle)
    except FileNotFoundError:
        table = {}
    for name, result in results.items():
        table.setdefault(scale, {}).setdefault(str(seed), {})[name] = {
            u["id"]: u["digest"] for u in result["untraced"]["units"] if u["digest"]
        }
    with open(path, "w") as handle:
        json.dump(table, handle, indent=1, sort_keys=True)
        handle.write("\n")


def main(argv: List[str]) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no simulator sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = [args.workload] if args.workload else list(WORKLOADS)
    OUT_DIR.mkdir(exist_ok=True)
    results: Dict[str, Any] = {}
    try:
        for name in names:
            lines: List[str] = []
            deadline = time.monotonic() + TIME_LIMIT_S
            results[name] = bench_workload(name, args, deadline, lines)
            print("\n".join(lines), flush=True)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.write_expected:
        write_expected(args.expected, args.scale, args.seed, results)
        print(f"recorded digests for {', '.join(names)} (scale {args.scale}, seed {args.seed})")
        return 0
    if args.json_out:
        with open(args.json_out, "w") as handle:
            json.dump({"seed": args.seed, "scale": args.scale, "workloads": results}, handle)
    key = "per_layer" if args.trace else "end_to_end"
    units = dict(PER_LAYER if args.trace else END_TO_END)
    metrics = {
        (metric if len(names) == 1 else f"{name}.{metric}"): {"value": value, "unit": units[metric]}
        for name in names for metric, value in results[name][key].items()
    }
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
