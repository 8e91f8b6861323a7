"""The ``python -m repro`` CLI."""

import pytest

from repro.cli import EXPERIMENTS, _RUNNERS, build_parser, main


class TestParser:
    def test_list_command(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in EXPERIMENTS:
            assert name in out

    def test_every_experiment_has_a_runner(self):
        assert set(_RUNNERS) == set(EXPERIMENTS)

    def test_unknown_experiment_rejected(self, capsys):
        assert main(["experiment", "fig99"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestQuickCommands:
    def test_quickstart(self, capsys):
        assert main(["quickstart"]) == 0
        out = capsys.readouterr().out
        assert "interrupts_delivered" in out

    def test_quickstart_tracked(self, capsys):
        assert main(["quickstart", "--tracked"]) == 0
        assert "tracked" in capsys.readouterr().out

    def test_costs_defaults(self, capsys):
        assert main(["costs"]) == 0
        out = capsys.readouterr().out
        assert "senduipi" in out and "383" in out

    def test_experiment_fig2(self, capsys):
        assert main(["experiment", "fig2"]) == 0
        assert "send_to_interrupt" in capsys.readouterr().out

    def test_experiment_fig6(self, capsys):
        assert main(["experiment", "fig6"]) == 0
        assert "setitimer" in capsys.readouterr().out

    def test_experiment_fig9(self, capsys):
        assert main(["experiment", "fig9"]) == 0
        out = capsys.readouterr().out
        assert "busy_spin" in out and "xui" in out


class TestPerfOptions:
    def test_jobs_flag_parses(self):
        args = build_parser().parse_args(["experiment", "fig4", "--jobs", "4"])
        assert args.jobs == 4

    def test_jobs_defaults_to_none(self):
        args = build_parser().parse_args(["experiment", "fig4"])
        assert args.jobs is None

    def test_experiment_fig6_with_jobs(self, capsys):
        assert main(["experiment", "fig6", "--jobs", "2"]) == 0
        assert "setitimer" in capsys.readouterr().out

    def test_perf_selftest_ok(self, capsys, monkeypatch):
        import repro.perf.selftest as selftest

        seen = {}

        def fake_run_selftest(jobs, report=None):
            seen["jobs"] = jobs
            return {"ok": True, "checks": {}, "seconds": {}, "warm_speedup": 1.0}

        monkeypatch.setattr(selftest, "run_selftest", fake_run_selftest)
        assert main(["perf-selftest", "--jobs", "3"]) == 0
        assert seen["jobs"] == 3
        assert "perf-selftest: OK" in capsys.readouterr().out

    def test_perf_selftest_failure_exit_code(self, capsys, monkeypatch):
        import repro.perf.selftest as selftest

        monkeypatch.setattr(
            selftest,
            "run_selftest",
            lambda jobs, report=None: {"ok": False},
        )
        assert main(["perf-selftest"]) == 1
        assert "FAILED" in capsys.readouterr().err


class TestObservabilityOptions:
    def test_trace_and_metrics_flags_parse(self):
        args = build_parser().parse_args(
            ["experiment", "fig2", "--trace-out", "t.json", "--metrics-out", "m.json"]
        )
        assert args.trace_out == "t.json"
        assert args.metrics_out == "m.json"

    def test_flags_default_to_none(self):
        args = build_parser().parse_args(["experiment", "fig2"])
        assert args.trace_out is None
        assert args.metrics_out is None

    def test_experiment_with_trace_out_writes_perfetto_json(self, capsys, tmp_path):
        import json

        trace_path = tmp_path / "trace.json"
        metrics_path = tmp_path / "metrics.json"
        assert (
            main(
                [
                    "experiment",
                    "fig2",
                    "--trace-out",
                    str(trace_path),
                    "--metrics-out",
                    str(metrics_path),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "observability pass" in out
        assert "Figure 4 ordering" in out

        trace = json.loads(trace_path.read_text())
        assert trace["traceEvents"]
        phases = {record["ph"] for record in trace["traceEvents"]}
        assert "M" in phases and "i" in phases

        metrics = json.loads(metrics_path.read_text())
        assert metrics["schema"] == "repro.obs.metrics/v1"
        assert any(
            name.startswith("delivery.") and name.endswith(".total")
            for name in metrics["histograms"]
        )


class TestBenchGate:
    def test_defaults(self):
        args = build_parser().parse_args(["bench-gate"])
        assert args.tolerance == "25%"
        assert args.baseline is None
        assert args.json_out is None

    def test_gate_wires_parsed_arguments_through(self, monkeypatch, tmp_path):
        from pathlib import Path

        import repro.obs.regress as regress

        seen = {}

        def fake_run_gate(tolerance, baseline, report, json_out):
            seen.update(tolerance=tolerance, baseline=baseline, json_out=json_out)
            return 0

        monkeypatch.setattr(regress, "run_gate", fake_run_gate)
        assert (
            main(
                [
                    "bench-gate",
                    "--tolerance",
                    "10%",
                    "--baseline",
                    str(tmp_path / "b.json"),
                    "--json-out",
                    str(tmp_path / "v.json"),
                ]
            )
            == 0
        )
        assert seen["tolerance"] == 0.10
        assert seen["baseline"] == Path(tmp_path / "b.json")
        assert seen["json_out"] == Path(tmp_path / "v.json")

    def test_bad_tolerance_is_a_usage_error(self, capsys):
        assert main(["bench-gate", "--tolerance", "lots"]) == 2
        assert "error" in capsys.readouterr().err

    def test_regression_exit_code_propagates(self, monkeypatch):
        import repro.obs.regress as regress

        monkeypatch.setattr(regress, "run_gate", lambda **kwargs: 1)
        assert main(["bench-gate"]) == 1


class TestFuzz:
    """The fuzz CLI end to end, including the acceptance flow:
    hook -> caught -> shrunk -> saved -> replayed by ``fuzz repro``."""

    HOOK = "REPRO_FUZZ_TEST_DIVERGENCE"

    def test_clean_seeds_exit_zero(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv(self.HOOK, raising=False)
        corpus = tmp_path / "corpus"
        assert (
            main(["fuzz", "--seeds", "2", "--corpus-dir", str(corpus)]) == 0
        )
        out = capsys.readouterr().out
        assert "fuzz: OK" in out
        assert "2 scenario(s)" in out
        assert not corpus.exists()  # nothing to save

    def test_findings_exit_one_and_land_in_corpus(
        self, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.setenv(self.HOOK, "fast+macro")
        corpus = tmp_path / "corpus"
        rc = main(
            [
                "fuzz",
                "--seeds",
                "1",
                "--corpus-dir",
                str(corpus),
                "--no-shrink",
            ]
        )
        assert rc == 1
        out = capsys.readouterr().out
        assert "divergence on fast+macro" in out
        artifacts = list(corpus.glob("*.json"))
        assert len(artifacts) == 1

    def test_rerun_dedups_against_existing_corpus(
        self, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.setenv(self.HOOK, "fast+macro")
        corpus = tmp_path / "corpus"
        args = ["fuzz", "--seeds", "1", "--corpus-dir", str(corpus), "--no-shrink"]
        assert main(args) == 1
        capsys.readouterr()
        assert main(args) == 1  # findings still reported...
        assert "already in corpus" in capsys.readouterr().out
        assert len(list(corpus.glob("*.json"))) == 1  # ...but stored once

    def test_metrics_out_writes_schema(self, tmp_path, monkeypatch):
        import json

        monkeypatch.delenv(self.HOOK, raising=False)
        metrics = tmp_path / "m.json"
        assert (
            main(
                [
                    "fuzz",
                    "--seeds",
                    "1",
                    "--corpus-dir",
                    str(tmp_path / "c"),
                    "--metrics-out",
                    str(metrics),
                ]
            )
            == 0
        )
        obj = json.loads(metrics.read_text())
        assert obj["schema"] == "repro.obs.metrics/v1"
        assert obj["counters"]["fuzz.scenarios_run"] == 1
        assert obj["counters"]["fuzz.findings"] == 0

    def test_bad_artifact_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        assert main(["fuzz", "repro", str(bad)]) == 2
        assert "error" in capsys.readouterr().err

    def test_acceptance_flow_shrink_then_replay(
        self, tmp_path, capsys, monkeypatch
    ):
        # 1. Seeded bug hook on: the fuzzer catches the divergence and
        #    shrinks it to a strictly smaller scenario.
        monkeypatch.setenv(self.HOOK, "fast+macro")
        corpus = tmp_path / "corpus"
        assert (
            main(["fuzz", "--seeds", "1", "--corpus-dir", str(corpus)]) == 1
        )
        out = capsys.readouterr().out
        assert "shrunk" in out
        (artifact,) = corpus.glob("*.json")

        # 2. The shrunk artifact replays: same fingerprint reproduces.
        assert main(["fuzz", "repro", str(artifact)]) == 0
        out = capsys.readouterr().out
        assert "[MATCH]" in out
        assert "fuzz repro: reproduced" in out

        # 3. Hook off (bug "fixed"): the artifact no longer reproduces.
        monkeypatch.delenv(self.HOOK)
        assert main(["fuzz", "repro", str(artifact)]) == 1
        assert "NOT reproduced" in capsys.readouterr().err


class TestClusterCommand:
    def test_cluster_small_run_with_report(self, capsys, tmp_path):
        out = tmp_path / "cluster.json"
        metrics = tmp_path / "metrics.json"
        assert main([
            "cluster", "--tenants", "32", "--shards", "2", "--hosts", "2",
            "--tenant-rps", "2000", "--duration-ms", "10", "--seed", "5",
            "--json-out", str(out), "--metrics-out", str(metrics),
        ]) == 0
        captured = capsys.readouterr().out
        assert "ordering verdict" in captured
        import json

        report = json.loads(out.read_text())
        assert report["schema"] == "repro.cluster.report/v1"
        assert {a["strategy"] for a in report["aggregates"]} == {"flush", "tracked", "timer"}
        payload = json.loads(metrics.read_text())
        assert "cluster.flush.latency" in payload["histograms"]

    def test_cluster_rejects_bad_topology(self, capsys):
        assert main(["cluster", "--tenants", "2", "--shards", "4"]) == 2

    def test_cluster_subset_of_strategies_not_applicable(self, capsys):
        assert main([
            "cluster", "--tenants", "16", "--shards", "2", "--hosts", "1",
            "--tenant-rps", "1000", "--duration-ms", "5",
            "--strategies", "tracked,timer",
        ]) == 0
        assert "not applicable" in capsys.readouterr().out
