"""Command-line interface: run the paper's experiments without pytest.

Usage::

    python -m repro list
    python -m repro quickstart [--tracked]
    python -m repro costs [--from-cycle-model]
    python -m repro experiment table2|fig2|fig4|fig5|fig6|fig7|fig8|fig9|sec35|sec61|sec2 [--full] [--jobs N] [--verbose] [--trace-out T.json] [--metrics-out M.json]
    python -m repro perf-selftest [--jobs N]
    python -m repro bench-gate [--tolerance 25%] [--baseline PATH] [--json-out PATH]
    python -m repro lint [paths...] [--json] [--list-rules]
    python -m repro fuzz [--seeds N] [--root-seed N] [--time-budget S] [--no-shrink]
    python -m repro fuzz repro .repro-fuzz/<fingerprint>.json

``--full`` runs closer to benchmark scale; the default is a quick variant
(seconds to a couple of minutes per experiment).  ``--jobs N`` fans
independent sweep points over N worker processes (0 = one per CPU); results
are bit-identical to the serial path.  Cycle-tier outcomes are memoized in a
persistent cache (``REPRO_CACHE_DIR``, disable with ``REPRO_CACHE=0``), and
``perf-selftest`` verifies both properties at reduced scale.  Cold runs use
the cycle-skipping fast engine by default; ``REPRO_FAST=0`` falls back to
the naive stepper, and ``--verbose`` prints skip/uop-cache/event telemetry.

``--trace-out``/``--metrics-out`` additionally run the observability pass
(``repro.obs``): one traced cycle-tier run per delivery strategy, exported
as Perfetto-loadable Chrome trace JSON and a metrics document with
per-strategy delivery-latency histograms.  ``bench-gate`` re-runs the
cold-engine benchmark suite and compares it against the committed
``BENCH_cycletier.json`` baseline within a wall-clock tolerance.
"""

from __future__ import annotations

import argparse
import sys
from functools import partial
from typing import Callable, Dict, Optional

from repro.analysis.tables import format_paper_comparison, format_series, format_table

EXPERIMENTS: Dict[str, str] = {
    "table2": "Table 2 — key UIPI performance metrics",
    "fig2": "Figure 2 — UIPI latency timeline",
    "fig4": "Figure 4 — receiver-side overheads (5 us interval)",
    "fig5": "Figure 5 — safepoints vs. polling vs. UIPI preemption",
    "fig6": "Figure 6 — the cost of a timer core",
    "fig7": "Figure 7 — RocksDB tail latency under preemption",
    "fig8": "Figure 8 — l3fwd efficiency (polling vs. xUI)",
    "fig9": "Figure 9 — DSA completion delivery",
    "sec35": "§3.5 — flush-vs-drain fingerprints",
    "sec61": "§6.1 — worst-case tracked-interrupt latency",
    "sec2": "§2 — mechanism unit costs",
}


def _cmd_list(_args) -> int:
    print("Available experiments:\n")
    for name, description in EXPERIMENTS.items():
        print(f"  {name:8s} {description}")
    print("\nRun one with: python -m repro experiment <name>")
    return 0


def _cmd_quickstart(args) -> int:
    from repro import quickstart_uipi_roundtrip

    result = quickstart_uipi_roundtrip(tracked=args.tracked)
    print(
        format_table(
            ["field", "value"],
            [[key, value] for key, value in result.items()],
            title="UIPI round trip between two simulated cores",
        )
    )
    return 0


def _cmd_costs(args) -> int:
    from repro.notify.costs import CostModel

    if args.from_cycle_model:
        print("re-deriving interrupt costs from the cycle tier (takes ~10s)...")
        costs = CostModel.from_cycle_model(quick=True)
    else:
        costs = CostModel.paper_defaults()
    rows = [[name, value] for name, value in sorted(vars(costs).items())]
    print(format_table(["cost (cycles @2GHz)", "value"], rows, title="CostModel"))
    return 0


def _run_table2(full: bool, jobs: Optional[int] = None) -> None:
    from repro.experiments.characterize import run_table2

    print(format_paper_comparison(run_table2(quick=not full), title=EXPERIMENTS["table2"]))


def _run_fig2(full: bool, jobs: Optional[int] = None) -> None:
    from repro.experiments.characterize import run_fig2_timeline

    timeline = run_fig2_timeline()
    print(
        format_table(
            ["segment", "cycles"],
            [[key, value] for key, value in timeline.items()],
            title=EXPERIMENTS["fig2"],
        )
    )


def _run_fig4(full: bool, jobs: Optional[int] = None) -> None:
    from repro.apps import microbench as mb
    from repro.experiments.fig4_overheads import CONFIGURATIONS, run_fig4

    benchmarks = (
        None
        if full
        else {"count_loop": partial(mb.make_count_loop, 14_000)}
    )
    results = run_fig4(benchmarks=benchmarks, jobs=jobs)
    rows = [
        [bench, configuration, cells[configuration]["per_event_cycles"], cells[configuration]["overhead_percent"]]
        for bench, cells in results.items()
        for configuration in CONFIGURATIONS
    ]
    print(
        format_table(
            ["benchmark", "configuration", "cy/event", "overhead %"],
            rows,
            title=EXPERIMENTS["fig4"],
        )
    )


def _run_fig5(full: bool, jobs: Optional[int] = None) -> None:
    from repro.apps import microbench as mb
    from repro.experiments.fig5_safepoints import run_fig5

    programs = (
        None
        if full
        else {"base64": partial(mb.make_base64, iterations=2500)}
    )
    results = run_fig5(quanta=[10_000] if not full else None, programs=programs, jobs=jobs)
    rows = [
        [program, mechanism, quantum, overhead]
        for program, mechanisms in results.items()
        for mechanism, by_quantum in mechanisms.items()
        for quantum, overhead in by_quantum.items()
    ]
    print(
        format_table(
            ["program", "mechanism", "quantum (cy)", "slowdown %"],
            rows,
            title=EXPERIMENTS["fig5"],
        )
    )


def _run_fig6(full: bool, jobs: Optional[int] = None) -> None:
    from repro.experiments.fig6_timer_cost import run_fig6

    results = run_fig6(
        core_counts=[1, 8, 22], intervals=[10_000.0, 2_000_000.0], jobs=jobs
    )
    for interface, by_interval in results.items():
        print(
            format_series(
                {f"{interval / 2000:.0f}us": cores for interval, cores in by_interval.items()},
                x_label="app cores",
                y_label="util",
                title=f"{EXPERIMENTS['fig6']} — {interface}",
            )
        )
        print()


def _run_fig7(full: bool, jobs: Optional[int] = None) -> None:
    from repro.experiments.fig7_rocksdb import run_fig7

    loads = [20_000, 100_000, 200_000] if not full else None
    results = run_fig7(loads_rps=loads, duration_seconds=0.1 if full else 0.04)
    rows = [
        [config, point.offered_rps, point.achieved_rps, point.get_p999_us, point.scan_p999_us]
        for config, points in results.items()
        for point in points
    ]
    print(
        format_table(
            ["config", "offered rps", "achieved", "GET p99.9 us", "SCAN p99.9 us"],
            rows,
            title=EXPERIMENTS["fig7"],
        )
    )


def _run_fig8(full: bool, jobs: Optional[int] = None) -> None:
    from repro.experiments.fig8_l3fwd import run_fig8

    results = run_fig8(
        nic_counts=[1, 4] if not full else None,
        load_fractions=[0.0, 0.4] if not full else None,
        duration_seconds=0.01,
        jobs=jobs,
    )
    rows = [
        [mechanism, nics, point.offered_load, point.free_fraction, point.p95_latency_us]
        for mechanism, by_nics in results.items()
        for nics, points in by_nics.items()
        for point in points
    ]
    print(
        format_table(
            ["mechanism", "nics", "load", "free frac", "p95 us"],
            rows,
            title=EXPERIMENTS["fig8"],
            precision=2,
        )
    )


def _run_fig9(full: bool, jobs: Optional[int] = None) -> None:
    from repro.experiments.fig9_dsa import run_fig9

    results = run_fig9(
        noise_fractions=[0.0, 1.0] if not full else None,
        duration_seconds=0.01,
    )
    rows = [
        [f"{req_us:.0f}us", mechanism, point.noise_fraction, point.mean_notification_lag_us, point.free_fraction]
        for req_us, by_mechanism in results.items()
        for mechanism, points in by_mechanism.items()
        for point in points
    ]
    print(
        format_table(
            ["request", "mechanism", "noise", "lag us", "free frac"],
            rows,
            title=EXPERIMENTS["fig9"],
            precision=2,
        )
    )


def _run_sec35(full: bool, jobs: Optional[int] = None) -> None:
    from repro.experiments.characterize import run_flush_vs_drain, run_flushed_uops_linearity

    latency = run_flush_vs_drain(
        footprints_kb=[16, 256], samples=3 if not full else 6, jobs=jobs
    )
    print(
        format_series(
            latency, x_label="footprint KB", y_label="latency cy", title="§3.5 exp 1"
        )
    )
    print()
    linear = run_flushed_uops_linearity(interrupt_counts=[2, 4])
    print(
        format_table(
            ["interrupts", "flushed uops"],
            [[count, value] for count, value in sorted(linear.items())],
            title="§3.5 exp 2",
        )
    )


def _run_sec61(full: bool, jobs: Optional[int] = None) -> None:
    from repro.experiments.characterize import run_max_latency

    results = run_max_latency(chain_lengths=[10, 50], jobs=jobs)
    print(
        format_series(
            results, x_label="chain length", y_label="worst-case cy", title=EXPERIMENTS["sec61"]
        )
    )


def _run_sec2(full: bool, jobs: Optional[int] = None) -> None:
    from repro.experiments.sec2_costs import run_mechanism_costs

    print(format_paper_comparison(run_mechanism_costs(quick=not full), title=EXPERIMENTS["sec2"]))


_RUNNERS: Dict[str, Callable[..., None]] = {
    "table2": _run_table2,
    "fig2": _run_fig2,
    "fig4": _run_fig4,
    "fig5": _run_fig5,
    "fig6": _run_fig6,
    "fig7": _run_fig7,
    "fig8": _run_fig8,
    "fig9": _run_fig9,
    "sec35": _run_sec35,
    "sec61": _run_sec61,
    "sec2": _run_sec2,
}


def _print_engine_counters() -> None:
    from repro.common.counters import GLOBAL_COUNTERS, fast_engine_enabled, macro_engine_enabled

    g = GLOBAL_COUNTERS
    total_cycles = g.cycles_stepped + g.cycles_skipped
    rows = [
        ["engine", "fast (cycle-skipping)" if fast_engine_enabled() else "naive (REPRO_FAST=0)"],
        ["cycles stepped", f"{g.cycles_stepped:,}"],
        ["cycles skipped", f"{g.cycles_skipped:,}"],
        ["skip fraction", f"{g.skip_fraction:.1%}" if total_cycles else "n/a"],
        ["uop cache hits", f"{g.uop_cache_hits:,}"],
        ["uop cache misses", f"{g.uop_cache_misses:,}"],
        ["uop hit rate", f"{g.uop_hit_rate:.1%}" if (g.uop_cache_hits + g.uop_cache_misses) else "n/a"],
        ["events fired", f"{g.events_fired:,}"],
        ["events fast-forwarded", f"{g.events_fast_forwarded:,}"],
    ]
    macro = [
        ["macro tier", "on (REPRO_MACRO)" if macro_engine_enabled() else "off (REPRO_MACRO=0)"],
        ["macro formations", f"{g.macro_formations:,}"],
        ["macro form aborts", f"{g.macro_form_aborts:,}"],
        ["macro replays", f"{g.macro_replays:,}"],
        ["macro parks", f"{g.macro_parks:,}"],
        ["macro replayed periods", f"{g.macro_replayed_periods:,}"],
        ["macro replayed cycles", f"{g.macro_replayed_cycles:,}"],
        ["macro replayed fraction", f"{g.macro_replayed_fraction:.1%}"],
        ["macro bails (event/divergence/horizon)",
         f"{g.macro_bail_event:,} / {g.macro_bail_divergence:,} / {g.macro_bail_horizon:,}"],
    ]
    if g.macro_formations or g.macro_form_aborts:
        rows += macro
    else:
        rows.append(macro[0])
    robustness = [
        ["sweep points resumed", g.sweep_points_resumed],
        ["sweep points salvaged", g.sweep_points_salvaged],
        ["sweep points retried", g.sweep_points_retried],
        ["cache corrupt entries", g.cache_corrupt_entries],
        ["cache unwritable writes", g.cache_unwritable_writes],
        ["cache stale tmp swept", g.cache_stale_tmp_swept],
    ]
    rows += [[name, f"{value:,}"] for name, value in robustness if value]
    print()
    print(format_table(["engine counter", "value"], rows, title="Engine telemetry (this process)"))
    print("(runs fanned out with --jobs execute in worker processes and are not counted)")


def _write_observability(args) -> None:
    """The ``--trace-out`` / ``--metrics-out`` pass (see repro.obs.observe)."""
    import json

    from repro.obs.chrometrace import write_trace
    from repro.obs.observe import run_observed

    print("\nobservability pass: tracing one run per delivery strategy...")
    observed = run_observed(full=args.full)
    if args.trace_out:
        write_trace(args.trace_out, observed.groups)
        events = sum(len(group.events) for group in observed.groups)
        print(f"wrote {args.trace_out} ({events} events; load at https://ui.perfetto.dev)")
    if args.metrics_out:
        with open(args.metrics_out, "w", encoding="utf-8") as handle:
            json.dump(observed.metrics, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {args.metrics_out}")
    rows = [
        [label, observed.medians.get(label)] for label in sorted(observed.medians)
    ]
    print(
        format_table(
            ["strategy", "median delivery latency (cy)"],
            rows,
            title="Delivery latency (send/fire -> handler entry)",
        )
    )
    ordering = "holds" if observed.ordering_ok else "DOES NOT HOLD"
    print(f"Figure 4 ordering (flush > tracked IPI > tracked timer): {ordering}")


def _cmd_experiment(args) -> int:
    from repro.common.counters import GLOBAL_COUNTERS
    from repro.common.errors import ConfigError

    runner = _RUNNERS.get(args.name)
    if runner is None:
        print(f"unknown experiment {args.name!r}; try: python -m repro list", file=sys.stderr)
        return 2
    if args.verbose:
        GLOBAL_COUNTERS.reset()
    try:
        runner(args.full, jobs=args.jobs)
        if args.trace_out or args.metrics_out:
            _write_observability(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.verbose:
        _print_engine_counters()
    return 0


def _cmd_faultsweep(args) -> int:
    from repro.common.errors import ConfigError, InvariantViolation
    from repro.faults import FAULT_KINDS, run_fault_matrix

    kinds = args.kinds.split(",") if args.kinds else list(FAULT_KINDS)
    unknown = [k for k in kinds if k not in FAULT_KINDS]
    if unknown:
        print(
            f"error: unknown fault kind(s) {unknown}; known: {', '.join(FAULT_KINDS)}",
            file=sys.stderr,
        )
        return 2
    try:
        records = run_fault_matrix(kinds=kinds, seed=args.seed, quick=args.quick)
    except InvariantViolation as exc:
        print(f"INVARIANT VIOLATION:\n{exc}", file=sys.stderr)
        return 1
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    rows = [
        [
            record["kind"],
            record["strategy"],
            "ok" if record["match"] else "MISMATCH",
            record["delivered"],
            sum(record["faults"].values()),
            record["accounting"]["checks_run"],
        ]
        for record in records
    ]
    print(
        format_table(
            ["fault kind", "strategy", "naive==fast", "delivered", "faults fired", "checks"],
            rows,
            title=f"Fault matrix (seed={args.seed}{', quick' if args.quick else ''})",
        )
    )
    mismatches = [r for r in records if not r["match"]]
    if mismatches:
        print(
            f"faultsweep: {len(mismatches)} engine mismatch(es); replay plans:",
            file=sys.stderr,
        )
        for record in mismatches:
            print(f"  {record['kind']}/{record['strategy']}: {record['plan']}", file=sys.stderr)
        return 1
    print("faultsweep: OK — engines agree and all invariants held")
    return 0


def _cmd_lint(args) -> int:
    from repro.analysis.lint import run_lint

    return run_lint(args)


def _write_fuzz_metrics(path: str, report, shrunk: int, saved: int) -> None:
    import json

    from repro.obs.registry import MetricsRegistry

    registry = MetricsRegistry()
    summary = report.summary()
    registry.set_counter("fuzz.scenarios_run", summary["scenarios_run"])
    registry.set_counter("fuzz.findings", summary["findings"])
    registry.set_counter("fuzz.unique_fingerprints", summary["unique_fingerprints"])
    registry.set_counter("fuzz.shrunk", shrunk)
    registry.set_counter("fuzz.artifacts_saved", saved)
    for kind, count in sorted(summary["by_kind"].items()):
        registry.set_counter(f"fuzz.findings.{kind}", count)
    registry.gauge("fuzz.elapsed_seconds", summary["elapsed_seconds"])
    registry.gauge("fuzz.stopped_on_budget", float(summary["stopped_on_budget"]))
    registry.absorb_engine_counters()
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(registry.as_dict(), handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {path}")


def _cmd_fuzz(args) -> int:
    if getattr(args, "fuzz_command", None) == "repro":
        return _cmd_fuzz_repro(args)
    from repro.common.errors import ConfigError
    from repro.scenario.corpus import CrashCorpus
    from repro.scenario.fuzz import fuzz
    from repro.scenario.generate import ScenarioGenerator
    from repro.scenario.shrink import shrink

    def progress(index, scenario, scenario_findings) -> None:
        for finding in scenario_findings:
            print(
                f"seed {index} [{scenario.content_id()}]: {finding.kind} on "
                f"{finding.leg} ({finding.fingerprint}) — {finding.detail}"
            )

    try:
        generator = ScenarioGenerator(args.root_seed)
        report = fuzz(
            generator,
            seeds=args.seeds,
            start=args.start,
            time_budget=args.time_budget,
            progress=progress,
        )
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    corpus = CrashCorpus(args.corpus_dir) if args.corpus_dir else CrashCorpus()
    # One shrink per new fingerprint: a bug that fires on many seeds is
    # minimized once, from its first occurrence.
    first_by_fp = {}
    for finding in report.findings:
        first_by_fp.setdefault(finding.fingerprint, finding)
    shrunk = 0
    saved = 0
    for fp, finding in sorted(first_by_fp.items()):
        if corpus.path_for(fp).exists():
            print(f"{fp}: already in corpus, skipping shrink")
            continue
        shrink_result = None
        if not args.no_shrink:
            shrink_result = shrink(finding)
            if shrink_result.shrank:
                shrunk += 1
                finding = shrink_result.finding
        path = corpus.save(finding, shrink_result)
        if path is not None:
            saved += 1
            note = ""
            if shrink_result is not None and shrink_result.shrank:
                note = (
                    f" (shrunk {shrink_result.original.size_key()} -> "
                    f"{finding.scenario.size_key()} in "
                    f"{shrink_result.steps_accepted} steps)"
                )
            print(f"{fp}: saved {path}{note}")

    summary = report.summary()
    budget_note = " (stopped on time budget)" if report.stopped_on_budget else ""
    print(
        f"fuzz: {summary['scenarios_run']} scenario(s), seeds "
        f"{report.first_seed}..{report.last_seed}, "
        f"{summary['findings']} finding(s), "
        f"{summary['unique_fingerprints']} unique fingerprint(s), "
        f"{summary['elapsed_seconds']}s{budget_note}"
    )
    if args.metrics_out:
        _write_fuzz_metrics(args.metrics_out, report, shrunk, saved)
    if report.clean:
        print("fuzz: OK — engines agree and all invariants held")
        return 0
    return 1


def _cmd_fuzz_repro(args) -> int:
    from repro.common.errors import ConfigError
    from repro.scenario.corpus import CrashCorpus
    from repro.scenario.fuzz import run_one

    try:
        artifact = CrashCorpus().load(args.artifact)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    scenario = artifact["scenario_obj"]
    target = artifact["fingerprint"]
    print(
        f"replaying {args.artifact}: scenario {scenario.content_id()}, "
        f"expecting {artifact['kind']} on {artifact['leg']} ({target})"
    )
    findings = run_one(scenario)
    for finding in findings:
        marker = "MATCH" if finding.fingerprint == target else "other"
        print(
            f"  [{marker}] {finding.kind} on {finding.leg} "
            f"({finding.fingerprint}) — {finding.detail}"
        )
    if any(f.fingerprint == target for f in findings):
        print("fuzz repro: reproduced")
        return 0
    print(
        f"fuzz repro: NOT reproduced — {len(findings)} finding(s), none "
        f"matching {target}",
        file=sys.stderr,
    )
    return 1


def _cmd_bench_gate(args) -> int:
    from pathlib import Path

    from repro.common.errors import ConfigError
    from repro.obs.regress import run_gate, parse_tolerance

    try:
        tolerance = parse_tolerance(args.tolerance)
        return run_gate(
            tolerance=tolerance,
            baseline=Path(args.baseline) if args.baseline else None,
            report=print,
            json_out=Path(args.json_out) if args.json_out else None,
        )
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _cmd_cluster(args) -> int:
    import json
    from pathlib import Path

    from repro.common.errors import ConfigError
    from repro.common.units import cycles_to_us

    try:
        from repro.cluster import ClusterDriver, ClusterTopology
        from repro.cluster.driver import report_to_metrics
        from repro.notify.costs import CostModel

        topology = ClusterTopology(
            name=args.name,
            tenants=args.tenants,
            shards=args.shards,
            hosts=args.hosts,
            cores_per_shard=args.cores_per_shard,
            scenario=args.scenario,
            strategies=tuple(args.strategies.split(",")),
            tenant_rps=args.tenant_rps,
            duration_ms=args.duration_ms,
            seed=args.seed,
        )
        costs = CostModel.from_cycle_model() if args.calibrate else None
        driver = ClusterDriver(
            topology,
            jobs=args.jobs,
            checkpoint_dir=args.checkpoint_dir,
            costs=costs,
        )
        report = driver.run()
        if args.selfcheck:
            rerun = ClusterDriver(
                topology, jobs=args.jobs, checkpoint_dir=args.checkpoint_dir, costs=costs
            ).run()
            if rerun.dumps() != report.dumps():
                print("cluster selfcheck: re-run report NOT byte-identical", file=sys.stderr)
                return 1
            print("cluster selfcheck: re-run report byte-identical")
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    scale = report.scale_factor
    scale_label = f"{scale:,.0f}x" if scale >= 1 else f"{scale:.2g}x"
    rows = []
    for agg in report.aggregates:
        rows.append(
            [
                agg.strategy,
                f"{agg.tenants:,}",
                f"{agg.count:,}",
                f"{cycles_to_us(agg.p50):.2f}" if agg.p50 is not None else "-",
                f"{cycles_to_us(agg.p99):.2f}" if agg.p99 is not None else "-",
                f"{cycles_to_us(agg.p999):.2f}" if agg.p999 is not None else "-",
                f"{agg.preemptions_total:,}",
            ]
        )
    print(
        format_table(
            ["strategy", "tenants", "samples", "p50 (us)", "p99 (us)", "p999 (us)", "preemptions"],
            rows,
            title=(
                f"Cluster {topology.name!r}: {topology.tenants:,} tenants / "
                f"{topology.shards} shards / {topology.hosts} hosts "
                f"({scale_label} paper scale, mode={driver.last_mode})"
            ),
        )
    )
    if args.json_out:
        Path(args.json_out).write_text(report.dumps())
        print(f"cluster report written to {args.json_out}")
    if args.metrics_out:
        from repro.obs.registry import MetricsRegistry

        registry = MetricsRegistry()
        report_to_metrics(report, registry)
        Path(args.metrics_out).write_text(json.dumps(registry.as_dict(), indent=2) + "\n")
        print(f"cluster metrics written to {args.metrics_out}")
    if not report.verdict.applicable:
        print("ordering verdict: not applicable (needs all three strategies with samples)")
        return 0
    if report.verdict.ok:
        print("ordering verdict: OK — p999 flush > tracked > timer (Figure 7 at scale)")
        return 0
    print("ordering verdict: FAILED — p999 not ordered flush > tracked > timer", file=sys.stderr)
    return 1


def _cmd_perf_selftest(args) -> int:
    from repro.common.errors import ConfigError
    from repro.perf.selftest import run_selftest

    try:
        result = run_selftest(jobs=args.jobs if args.jobs is not None else 2, report=print)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if result["ok"]:
        print("perf-selftest: OK")
        return 0
    print("perf-selftest: FAILED", file=sys.stderr)
    return 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Extended User Interrupts (xUI)' (ASPLOS 2025)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list available experiments").set_defaults(func=_cmd_list)

    quickstart = sub.add_parser("quickstart", help="send one UIPI between two cores")
    quickstart.add_argument("--tracked", action="store_true", help="use xUI tracking")
    quickstart.set_defaults(func=_cmd_quickstart)

    costs = sub.add_parser("costs", help="print the calibrated cost model")
    costs.add_argument(
        "--from-cycle-model",
        action="store_true",
        help="re-derive interrupt costs by running the cycle tier",
    )
    costs.set_defaults(func=_cmd_costs)

    experiment = sub.add_parser("experiment", help="run one paper experiment")
    experiment.add_argument("name", help="experiment id (see: python -m repro list)")
    experiment.add_argument("--full", action="store_true", help="benchmark-scale run")
    experiment.add_argument(
        "--jobs",
        type=int,
        default=None,
        metavar="N",
        help="fan sweep points over N worker processes (0 = one per CPU)",
    )
    experiment.add_argument(
        "--verbose",
        action="store_true",
        help="print fast-engine telemetry (cycle skip / uop cache / event counters)",
    )
    experiment.add_argument(
        "--trace-out",
        default=None,
        metavar="PATH",
        help="also run the observability pass and write a Perfetto-loadable "
        "Chrome trace JSON (one process per delivery strategy)",
    )
    experiment.add_argument(
        "--metrics-out",
        default=None,
        metavar="PATH",
        help="write the metrics registry (counters/gauges/delivery-latency "
        "histograms) as JSON",
    )
    experiment.set_defaults(func=_cmd_experiment)

    selftest = sub.add_parser(
        "perf-selftest",
        help="verify parallel/cached runs match the serial path (reduced scale)",
    )
    selftest.add_argument(
        "--jobs",
        type=int,
        default=None,
        metavar="N",
        help="worker processes for the parallel phase (default 2)",
    )
    selftest.set_defaults(func=_cmd_perf_selftest)

    bench_gate = sub.add_parser(
        "bench-gate",
        help="re-run the cold-engine benchmark suite and fail on regression "
        "vs the committed BENCH_cycletier.json baseline",
    )
    bench_gate.add_argument(
        "--tolerance",
        default="25%",
        metavar="T",
        help="allowed fast-engine wall-clock growth, e.g. '25%%' or '0.25' "
        "(default 25%%)",
    )
    bench_gate.add_argument(
        "--baseline",
        default=None,
        metavar="PATH",
        help="baseline JSON to compare against (default: repo BENCH_cycletier.json)",
    )
    bench_gate.add_argument(
        "--json-out",
        default=None,
        metavar="PATH",
        help="write the gate verdict as JSON",
    )
    bench_gate.set_defaults(func=_cmd_bench_gate)

    cluster = sub.add_parser(
        "cluster",
        help="sharded datacenter simulation: sweep notification strategies "
        "over tenants x shards and check the Figure-7 p999 ordering",
    )
    cluster.add_argument("--name", default="cluster", help="topology name (report identity)")
    cluster.add_argument("--tenants", type=int, default=4096, help="total tenants")
    cluster.add_argument("--shards", type=int, default=16, help="independent shards")
    cluster.add_argument("--hosts", type=int, default=4, help="simulated hosts")
    cluster.add_argument(
        "--cores-per-shard", type=int, default=1, metavar="N", help="worker cores per shard"
    )
    cluster.add_argument(
        "--scenario",
        default="rocksdb",
        choices=("rocksdb", "timers", "fanout"),
        help="tenant workload template",
    )
    cluster.add_argument(
        "--strategies",
        default="flush,tracked,timer",
        metavar="LIST",
        help="comma-separated notification strategies (default all three)",
    )
    cluster.add_argument(
        "--tenant-rps", type=float, default=50.0, metavar="R", help="per-tenant request rate"
    )
    cluster.add_argument(
        "--duration-ms", type=float, default=20.0, metavar="MS", help="simulated window per shard"
    )
    cluster.add_argument("--seed", type=int, default=0, help="root seed")
    cluster.add_argument(
        "--jobs", type=int, default=None, metavar="N", help="worker processes (default: auto)"
    )
    cluster.add_argument(
        "--checkpoint-dir",
        default=None,
        metavar="DIR",
        help="JSONL checkpoint directory: a killed run resumes from completed shards",
    )
    cluster.add_argument(
        "--calibrate",
        action="store_true",
        help="derive delivery costs from the cycle-tier model instead of paper defaults",
    )
    cluster.add_argument(
        "--selfcheck",
        action="store_true",
        help="run the topology twice and require byte-identical reports",
    )
    cluster.add_argument("--json-out", default=None, metavar="PATH", help="write the report JSON")
    cluster.add_argument(
        "--metrics-out", default=None, metavar="PATH", help="write cluster.* metrics JSON"
    )
    cluster.set_defaults(func=_cmd_cluster)

    faultsweep = sub.add_parser(
        "faultsweep",
        help="run the fault-injection matrix (fault kind x strategy x engine) "
        "with invariant checking",
    )
    faultsweep.add_argument(
        "--seed", type=int, default=0, metavar="N", help="fault-plan seed (default 0)"
    )
    faultsweep.add_argument(
        "--quick", action="store_true", help="two faults per plan instead of four"
    )
    faultsweep.add_argument(
        "--kinds",
        default=None,
        metavar="K1,K2",
        help="comma-separated fault kinds (default: every cycle-tier kind)",
    )
    faultsweep.set_defaults(func=_cmd_faultsweep)

    from repro.analysis.lint import build_lint_parser

    lint = sub.add_parser(
        "lint",
        help="determinism & simulation-purity static analysis (detlint)",
    )
    build_lint_parser(lint)
    lint.set_defaults(func=_cmd_lint)

    fuzz = sub.add_parser(
        "fuzz",
        help="constrained-random differential fuzzing across engine legs "
        "(naive vs fast vs fast+macro) with shrinking and a "
        "crash corpus",
    )
    fuzz.add_argument(
        "--seeds", type=int, default=100, metavar="N",
        help="number of generated scenarios to run (default 100)",
    )
    fuzz.add_argument(
        "--start", type=int, default=0, metavar="N",
        help="first scenario index (default 0)",
    )
    fuzz.add_argument(
        "--root-seed", type=int, default=0, metavar="N",
        help="generator root seed (default 0); the scenario stream is "
        "byte-stable per (root seed, index)",
    )
    fuzz.add_argument(
        "--time-budget", type=float, default=None, metavar="SECONDS",
        help="stop drawing new scenarios after this much wall clock "
        "(a scenario in flight always finishes)",
    )
    fuzz.add_argument(
        "--corpus-dir", default=None, metavar="DIR",
        help="crash-corpus directory (default .repro-fuzz)",
    )
    fuzz.add_argument(
        "--no-shrink", action="store_true",
        help="save findings as-is instead of minimizing them first",
    )
    fuzz.add_argument(
        "--metrics-out", default=None, metavar="PATH",
        help="write fuzz + engine metrics as JSON (repro.obs.metrics/v1)",
    )
    fuzz.set_defaults(func=_cmd_fuzz)
    fuzz_sub = fuzz.add_subparsers(dest="fuzz_command")
    fuzz_repro = fuzz_sub.add_parser(
        "repro",
        help="replay a saved corpus artifact and demand the same fingerprint",
    )
    fuzz_repro.add_argument("artifact", help="path to a .repro-fuzz/*.json artifact")
    fuzz_repro.set_defaults(func=_cmd_fuzz)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
