"""One workload in one fresh interpreter (started by ``run.py``).

``worker.py setup ...`` builds the inputs and reports how long imports plus
input construction took.  ``worker.py run ...`` builds them too, then runs
whole passes until ``--seconds`` have elapsed (always at least one) while
sampling the host's speed (``hostspeed.py``), checks every unit's output,
and prints one JSON line describing the run.  With ``--trace 1`` the layer
hooks in ``tracing.py`` are installed first, no host-speed samples are
taken, and the line also carries the per-layer metrics.
"""

from __future__ import annotations

import time

T0 = time.perf_counter()  # set-up time counts from here: imports included

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Any, Dict, List, Optional  # noqa: E402

import hostspeed  # noqa: E402
import tracing  # noqa: E402
from workloads import SCALES, WORKLOADS, Recorder  # noqa: E402


#: Reference iterations (~0.1 s) sampled right after a set-up launch, so
#: set-up time can be rescaled to the nominal host speed too.
SETUP_SAMPLE_ITERATIONS = 150_000


def parse_args(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("mode", choices=("setup", "run"))
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", choices=SCALES, default="full")
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-out", help="directory for the Chrome trace")
    parser.add_argument("--workdir", required=True, help="scratch directory to write in")
    parser.add_argument("--expected", help="expected digests (JSON)")
    return parser.parse_args(argv)


def check_digests(units, expected: Optional[Dict[str, str]], rec: Recorder) -> None:
    """Every pass must repeat the first pass's digests; with a reference
    for this seed, the first pass must match it unit for unit."""
    first: Dict[str, str] = {}
    for unit in units:
        if unit.digest is None:
            continue
        reference = first.setdefault(unit.id, unit.digest)
        if unit.digest != reference:
            unit.notes.append(f"digest differs from pass 0 ({unit.digest[:12]})")
        elif expected is not None and unit.digest != expected.get(unit.id):
            unit.notes.append(f"digest {unit.digest[:12]} != expected")
    if expected is not None and set(first) != set(expected):
        check = rec.check("unit-set", "check")
        check.notes.append(
            f"units differ from the reference: missing {sorted(set(expected) - set(first))}, "
            f"extra {sorted(set(first) - set(expected))}"
        )


def run(args: argparse.Namespace) -> Dict[str, Any]:
    from repro.common.counters import GLOBAL_COUNTERS

    tracer = tracing.Tracer() if args.trace else None
    if tracer is not None:
        tracing.install(tracer)
    rec = Recorder(tracer)
    rec.install_cycle_counters()
    workload = WORKLOADS[args.workload](args.seed, args.scale)
    setup_s = time.perf_counter() - T0

    expected = None
    if args.expected:
        with open(args.expected) as handle:
            table = json.load(handle)
        expected = table.get(args.scale, {}).get(str(args.seed), {}).get(args.workload)

    GLOBAL_COUNTERS.reset()
    if tracer is not None:
        tracer.reset()
    passes: List[Dict[str, float]] = []
    info: Dict[str, Any] = {}
    speed = hostspeed.HostSpeed()
    # The traced run is not sampled: samples would land in the layers' self time.
    sampling = speed if tracer is None else contextlib.nullcontext()
    deadline = time.perf_counter() + args.seconds
    workdir = tempfile.mkdtemp(prefix="run-", dir=args.workdir)
    try:
        with sampling:
            while True:
                rec.pass_index = len(passes)
                cycles = rec.sim_cycles
                sampled_s, sampled_n = speed.seconds, speed.iterations
                start = time.perf_counter()
                try:
                    if tracer is None:
                        info = workload.run_pass(rec, workdir)
                    else:
                        info = tracer.call("pass", workload.run_pass, (rec, workdir), span=True)
                except Exception as exc:  # the pass cannot finish; report, do not retry
                    rec.check(f"pass-{len(passes)}", "check").notes.append(
                        f"{type(exc).__name__}: {exc}"
                    )
                    break
                sample_s = speed.seconds - sampled_s
                seconds = time.perf_counter() - start - sample_s
                passes.append({
                    "seconds": seconds,
                    "norm_seconds": hostspeed.normalized(
                        seconds, sample_s, speed.iterations - sampled_n
                    ),
                    "sim_cycles": rec.sim_cycles - cycles,
                })
                if time.perf_counter() >= deadline:
                    break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    check_digests(rec.units, expected, rec)
    out: Dict[str, Any] = {
        "workload": args.workload,
        "seed": args.seed,
        "scale": args.scale,
        "setup_s": setup_s,
        "passes": passes,
        "units": [
            {"id": u.id, "kind": u.kind, "pass": u.pass_index, "seconds": u.seconds,
             "digest": u.digest, "notes": u.notes}
            for u in rec.units
        ],
        "unit_kind": workload.unit_kind,
        "info": info,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        layers = tracing.per_layer_metrics(tracer, max(len(passes), 1))
        layers.update(tracing.engine_counter_metrics(GLOBAL_COUNTERS))
        rows = tracer.by_name()
        out["layers"] = layers
        out["layer_table"] = tracer.table()
        out["missing_hooks"] = tracer.missing
        out["totals"] = {
            "pass_s": rows.get("pass", {}).get("total_s", 0.0),
            "unit_s": sum(row["total_s"] for name, row in rows.items()
                          if name.startswith("unit.")),
            "self_s": sum(row["self_s"] for row in rows.values()),
        }
        if args.trace_out:
            trace_dir = Path(args.trace_out)
            trace_dir.mkdir(parents=True, exist_ok=True)
            path = trace_dir / f"{args.workload}-seed{args.seed}.trace.json"
            tracer.write_chrome_trace(path, {"workload": args.workload, "seed": args.seed,
                                             "scale": args.scale})
            out["trace_file"] = str(path)
    return out


def main(argv: List[str]) -> int:
    args = parse_args(argv)
    if args.mode == "setup":
        WORKLOADS[args.workload](args.seed, args.scale)
        setup_s = time.perf_counter() - T0
        start = time.perf_counter()
        hostspeed.reference(SETUP_SAMPLE_ITERATIONS)
        sample_s = time.perf_counter() - start
        print(json.dumps({
            "setup_s": setup_s,
            "norm_setup_s": hostspeed.normalized(setup_s, sample_s, SETUP_SAMPLE_ITERATIONS),
        }))
        return 0
    print(json.dumps(run(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
