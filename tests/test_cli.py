"""Tests for the command-line interface."""

import json
from pathlib import Path

import pytest

from repro.cli import build_parser, main


class TestTaCommand:
    def test_default_run(self, capsys):
        assert main(["ta"]) == 0
        out = capsys.readouterr().out
        assert "0.999995587" in out
        assert "class A" in out and "class B" in out

    def test_single_class(self, capsys):
        assert main(["ta", "--user-class", "A"]) == 0
        out = capsys.readouterr().out
        assert "class A" in out
        assert "class B" not in out

    def test_sweep(self, capsys):
        assert main(["ta", "--sweep", "--user-class", "A"]) == 0
        out = capsys.readouterr().out
        assert "Table 8 sweep" in out
        assert "0.84227" in out  # N = 1 value

    def test_categories(self, capsys):
        assert main(["ta", "--categories", "--user-class", "B"]) == 0
        out = capsys.readouterr().out
        assert "SC4" in out

    def test_reservations_override(self, capsys):
        assert main(["ta", "--reservations", "1", "--user-class", "A"]) == 0
        out = capsys.readouterr().out
        assert "N_F = N_H = N_C = 1" in out
        assert "0.84227" in out

    def test_basic_architecture(self, capsys):
        assert main(["ta", "--architecture", "basic"]) == 0
        out = capsys.readouterr().out
        assert "basic architecture" in out


class TestWebCommand:
    def test_paper_configuration(self, capsys):
        assert main([
            "web", "--servers", "4", "--coverage", "0.98",
        ]) == 0
        out = capsys.readouterr().out
        assert "0.999995587" in out
        assert "manual reconfiguration" in out

    def test_perfect_coverage_default(self, capsys):
        assert main(["web", "--servers", "2"]) == 0
        out = capsys.readouterr().out
        assert "A(Web service)" in out

    def test_deadline_report(self, capsys):
        assert main([
            "web", "--servers", "4", "--coverage", "0.98",
            "--deadline", "0.05",
        ]) == 0
        out = capsys.readouterr().out
        assert "within 0.05s" in out

    def test_invalid_parameters_exit_code(self, capsys):
        # capacity below servers is a model validation error -> exit 2.
        assert main(["web", "--servers", "12", "--buffer", "10"]) == 2
        assert "error:" in capsys.readouterr().err


class TestEvaluateCommand:
    @pytest.fixture
    def spec_file(self, tmp_path):
        spec = {
            "resources": {"host": 0.999, "link": 0.99},
            "services": {"web": "host", "net": "link"},
            "functions": {"home": {"services": ["web"]}},
            "require_everywhere": ["net"],
            "user_classes": {"all": {"home": 1.0}},
        }
        path = tmp_path / "model.json"
        path.write_text(json.dumps(spec))
        return str(path)

    def test_evaluates_spec(self, spec_file, capsys):
        assert main(["evaluate", spec_file]) == 0
        out = capsys.readouterr().out
        assert "home" in out
        assert "all" in out

    def test_selects_user_class(self, spec_file, capsys):
        assert main(["evaluate", spec_file, "--user-class", "all"]) == 0
        assert "all" in capsys.readouterr().out

    def test_unknown_user_class(self, spec_file, capsys):
        assert main(["evaluate", spec_file, "--user-class", "ghost"]) == 2
        assert capsys.readouterr().err == (
            f"error: user class 'ghost' is not declared in {spec_file} "
            "(available: ['all'])\n"
        )

    def test_unknown_user_class_reraises_under_debug(self, spec_file):
        from repro.errors import ValidationError

        with pytest.raises(ValidationError, match="'ghost' is not declared"):
            main(["--debug", "evaluate", spec_file, "--user-class", "ghost"])

    def test_broken_spec_exit_code(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{")
        assert main(["evaluate", str(path)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_missing_spec_file_is_a_one_line_error(self, tmp_path, capsys):
        assert main(["evaluate", str(tmp_path / "nope.json")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "cannot read spec file" in err
        assert "Traceback" not in err

    def test_structurally_malformed_spec(self, tmp_path, capsys):
        path = tmp_path / "malformed.json"
        path.write_text(json.dumps({
            "resources": {"host": 0.999},
            "services": {"web": "ghost-resource"},
            "functions": {"home": {"services": ["web"]}},
        }))
        assert main(["evaluate", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "Traceback" not in err

    def test_debug_flag_reraises(self, tmp_path):
        from repro.errors import ReproError

        with pytest.raises(ReproError):
            main(["--debug", "evaluate", str(tmp_path / "nope.json")])


class TestInjectCommand:
    def test_null_campaign_calibrates(self, capsys):
        assert main([
            "inject", "--scenario", "null", "--user-class", "A",
            "--horizon", "1500", "--replications", "3", "--seed", "1",
        ]) == 0
        out = capsys.readouterr().out
        assert "Fault-injection campaign" in out
        assert "agrees with the analytic" in out

    def test_lan_host_campaign_reports_drop(self, capsys):
        assert main([
            "inject", "--scenario", "lan-host", "--user-class", "A",
            "--horizon", "1000", "--replications", "2",
        ]) == 0
        out = capsys.readouterr().out
        assert "recurrent-outage" in out
        assert "drop" in out

    def test_web_degradation_scenario(self, capsys):
        assert main([
            "inject", "--scenario", "web-degraded", "--user-class", "B",
            "--horizon", "500", "--replications", "2",
        ]) == 0
        assert "recurrent-degradation" in capsys.readouterr().out

    def test_unknown_scenario_rejected(self):
        with pytest.raises(SystemExit):
            main(["inject", "--scenario", "asteroid"])

    def test_invalid_horizon_is_a_one_line_error(self, capsys):
        assert main(["inject", "--horizon", "-5"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "Traceback" not in err

    def test_workers_do_not_change_the_report(self, capsys):
        args = [
            "inject", "--scenario", "null", "--user-class", "A",
            "--horizon", "800", "--replications", "3", "--seed", "4",
        ]
        assert main(args) == 0
        serial = capsys.readouterr().out
        assert main(args + ["--workers", "2"]) == 0
        assert capsys.readouterr().out == serial

    def test_invalid_workers_is_a_one_line_error(self, capsys):
        assert main(["inject", "--workers", "0"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "--workers" in err
        assert "Traceback" not in err


class TestJournaledInject:
    ARGS = [
        "inject", "--scenario", "null", "--user-class", "A",
        "--horizon", "800", "--replications", "3", "--seed", "4",
    ]

    def test_journaled_run_records_campaign(self, tmp_path, capsys):
        from repro.runtime import read_journal

        path = tmp_path / "campaign.jsonl"
        assert main(self.ARGS + ["--journal", str(path)]) == 0
        records = read_journal(path)
        kinds = [r["kind"] for r in records]
        assert kinds[0] == "campaign_start"
        assert kinds.count("replication") == 3
        assert kinds[-1] == "campaign_end"
        assert records[0]["meta"]["cli"] == "inject"

    def test_journal_requires_single_user_class(self, tmp_path, capsys):
        path = tmp_path / "campaign.jsonl"
        assert main([
            "inject", "--scenario", "null", "--user-class", "both",
            "--journal", str(path),
        ]) == 2
        err = capsys.readouterr().err
        assert "single campaign" in err
        assert "Traceback" not in err

    def test_deadline_exceeded_exits_2_with_resumable_journal(
        self, tmp_path, capsys
    ):
        from repro.runtime import read_journal

        path = tmp_path / "campaign.jsonl"
        code = main([
            "inject", "--scenario", "null", "--user-class", "A",
            "--horizon", "100000", "--replications", "100", "--seed", "4",
            "--journal", str(path), "--deadline", "0.3",
        ])
        assert code == 2
        assert "deadline" in capsys.readouterr().err.lower()
        records = read_journal(path)  # intact despite the interruption
        assert records[0]["kind"] == "campaign_start"
        completed = [r for r in records if r["kind"] == "replication"]
        assert len(completed) < 100
        assert not any(r["kind"] == "campaign_end" for r in records)

    def test_resume_completes_and_matches_uninterrupted_output(
        self, tmp_path, capsys
    ):
        # The uninterrupted journaled run is the reference...
        full = tmp_path / "full.jsonl"
        assert main(self.ARGS + ["--journal", str(full)]) == 0
        reference = capsys.readouterr().out

        # ...an interrupted run leaves a partial journal...
        partial = tmp_path / "partial.jsonl"
        code = main([
            "inject", "--scenario", "null", "--user-class", "A",
            "--horizon", "800", "--replications", "3", "--seed", "4",
            "--journal", str(partial), "--deadline", "1e-9",
        ])
        assert code == 2
        capsys.readouterr()

        # ...and resume reproduces the reference numbers exactly.
        assert main(["resume", str(partial)]) == 0
        resumed = capsys.readouterr().out
        assert "Resumed fault-injection campaign" in resumed
        body = reference.split("\n", 1)[1]  # drop the differing title
        assert body == resumed.split("\n", 1)[1]

    def test_resume_of_completed_journal_reprints_result(
        self, tmp_path, capsys
    ):
        path = tmp_path / "campaign.jsonl"
        assert main(self.ARGS + ["--journal", str(path)]) == 0
        capsys.readouterr()
        assert main(["resume", str(path)]) == 0
        out = capsys.readouterr().out
        assert "3 x 800 h" in out
        assert "agrees with the analytic" in out

    def test_resume_missing_journal_is_a_one_line_error(
        self, tmp_path, capsys
    ):
        assert main(["resume", str(tmp_path / "ghost.jsonl")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "Traceback" not in err

    def test_resume_rejects_foreign_journal(self, tmp_path, capsys):
        from repro.runtime import Journal

        path = tmp_path / "foreign.jsonl"
        with Journal(path) as journal:
            journal.append("campaign_start", user_class="A", meta={})
        assert main(["resume", str(path)]) == 2
        assert "repro inject" in capsys.readouterr().err

    @pytest.mark.parametrize("kind, change, names", [
        ("campaign_start", {"meta": {"cli": "inject"}}, "'architecture'"),
        ("replication", {"index": 0.7}, "index 0.7"),
    ], ids=["missing-architecture", "float-index"])
    def test_resume_rejects_malformed_journal_with_one_line(
        self, tmp_path, capsys, rewrite_journal, kind, change, names
    ):
        from repro.runtime import read_journal

        path = tmp_path / "campaign.jsonl"
        assert main(self.ARGS + ["--journal", str(path)]) == 0
        capsys.readouterr()
        rewrite_journal(path, [
            {**r, **change} if r["kind"] == kind else r
            for r in read_journal(path)
        ])
        assert main(["resume", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert names in err
        assert err.count("\n") == 1

    def test_rerunning_over_existing_journal_refused(self, tmp_path, capsys):
        path = tmp_path / "campaign.jsonl"
        assert main(self.ARGS + ["--journal", str(path)]) == 0
        capsys.readouterr()
        assert main(self.ARGS + ["--journal", str(path)]) == 2
        assert "resume" in capsys.readouterr().err


class TestRetriesCommand:
    def test_default_run(self, capsys):
        assert main(["retries", "--user-class", "A"]) == 0
        out = capsys.readouterr().out
        assert "Retry-adjusted" in out
        assert "class A" in out

    def test_zero_retries_reproduce_eq_10(self, capsys):
        assert main([
            "retries", "--user-class", "A", "--max-retries", "0",
        ]) == 0
        out = capsys.readouterr().out
        # Both columns show the paper's single-submission value.
        assert out.count("0.978817412") >= 2

    def test_sweep_prints_retry_column(self, capsys):
        assert main([
            "retries", "--user-class", "A", "--sweep", "--max-retries", "2",
        ]) == 0
        out = capsys.readouterr().out
        assert "Table 8 with retries" in out
        assert "0.84227" in out  # N = 1 single-submission value survives

    def test_simulate_cross_validates(self, capsys):
        assert main([
            "retries", "--user-class", "A", "--max-retries", "1",
            "--simulate", "2000", "--seed", "7",
        ]) == 0
        out = capsys.readouterr().out
        assert "DES cross-validation" in out
        assert "closed form" in out

    def test_journal_records_results(self, tmp_path, capsys):
        from repro.runtime import read_journal

        path = tmp_path / "retries.jsonl"
        assert main([
            "retries", "--user-class", "A", "--max-retries", "1",
            "--journal", str(path),
        ]) == 0
        records = read_journal(path)
        assert [r["kind"] for r in records] == ["retry_result"]
        assert records[0]["user_class"] == "class A"

    def test_invalid_persistence_is_a_one_line_error(self, capsys):
        assert main(["retries", "--persistence", "1.5"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "Traceback" not in err

    def test_workers_do_not_change_the_simulation(self, capsys):
        args = ["retries", "--simulate", "300", "--seed", "5"]
        assert main(args) == 0
        serial = capsys.readouterr().out
        assert main(args + ["--workers", "2"]) == 0
        assert capsys.readouterr().out == serial  # byte-identical stdout

    def test_invalid_workers_is_a_one_line_error(self, capsys):
        assert main(["retries", "--workers", "-2"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "--workers" in err


class TestSweepCommand:
    def test_default_run_prints_fig11_table(self, capsys):
        assert main(["sweep"]) == 0
        captured = capsys.readouterr()
        assert "Figure 11" in captured.out
        assert "lambda=0.01/h" in captured.out
        assert "engine: workers=1" in captured.err

    def test_figure_12_uses_imperfect_coverage(self, capsys):
        assert main(["sweep", "--figure", "12", "--servers-max", "4"]) == 0
        out = capsys.readouterr().out
        assert "coverage = 0.98" in out

    def test_workers_do_not_change_the_table(self, capsys):
        assert main(["sweep", "--servers-max", "6"]) == 0
        serial = capsys.readouterr().out
        assert main(["sweep", "--servers-max", "6", "--workers", "2"]) == 0
        parallel = capsys.readouterr().out
        assert parallel == serial  # byte-identical stdout

    def test_warm_cache_rerun_recomputes_nothing(self, tmp_path, capsys):
        cache = str(tmp_path / "cache")
        args = ["sweep", "--servers-max", "5", "--cache-dir", cache]
        assert main(args) == 0
        cold = capsys.readouterr()
        assert "misses=15" in cold.err

        assert main(args) == 0
        warm = capsys.readouterr()
        assert warm.out == cold.out
        assert "hits=15" in warm.err
        assert "misses=0" in warm.err
        assert "hit-rate=100.0%" in warm.err

    def test_journaled_sweep_resumes(self, tmp_path, capsys):
        from repro.runtime import read_journal

        path = tmp_path / "sweep.jsonl"
        args = ["sweep", "--servers-max", "4", "--journal", str(path)]
        assert main(args) == 0
        first = capsys.readouterr().out
        records = read_journal(path)
        assert records[0]["kind"] == "batch_start"
        assert [r["kind"] for r in records].count("task_result") == 12

        # Re-running over the same journal restores every cell.
        assert main(args) == 0
        captured = capsys.readouterr()
        assert captured.out == first
        assert "misses=0" in captured.err

    def test_changed_spec_against_old_journal_is_a_one_line_error(
        self, tmp_path, capsys
    ):
        path = tmp_path / "sweep.jsonl"
        assert main(["sweep", "--servers-max", "4",
                     "--journal", str(path)]) == 0
        capsys.readouterr()
        assert main(["sweep", "--servers-max", "4", "--figure", "12",
                     "--journal", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "Traceback" not in err

    def test_invalid_workers_is_a_one_line_error(self, capsys):
        assert main(["sweep", "--workers", "0"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "Traceback" not in err

    def test_invalid_servers_max_is_a_one_line_error(self, capsys):
        assert main(["sweep", "--servers-max", "-1"]) == 2
        assert capsys.readouterr().err.startswith("error:")


class TestPoliciesCommand:
    def test_default_run_prints_ranking_and_cells(self, capsys):
        assert main(["policies"]) == 0
        captured = capsys.readouterr()
        assert "Client-policy ranking" in captured.out
        assert "Policy x scenario cells" in captured.out
        assert "best policy:" in captured.out
        for label in ("retry(", "breaker(", "timeout(", "hedge("):
            assert label in captured.out
        for scenario in ("nominal", "surge", "degraded", "critical"):
            assert scenario in captured.out
        assert "engine: workers=1" in captured.err

    def test_workers_do_not_change_the_output(self, capsys):
        assert main(["policies"]) == 0
        serial = capsys.readouterr().out
        assert main(["policies", "--workers", "2"]) == 0
        parallel = capsys.readouterr().out
        assert parallel == serial  # byte-identical stdout

    def test_warm_cache_rerun_recomputes_nothing(self, tmp_path, capsys):
        cache = str(tmp_path / "cache")
        args = ["policies", "--cache-dir", cache]
        assert main(args) == 0
        cold = capsys.readouterr()
        assert "misses=16" in cold.err
        assert main(args) == 0
        warm = capsys.readouterr()
        assert warm.out == cold.out
        assert "hits=16" in warm.err
        assert "misses=0" in warm.err

    def test_policy_flags_reach_the_labels(self, capsys):
        assert main([
            "policies", "--max-retries", "5", "--persistence", "0.8",
            "--timeout", "0.1", "--hedge-delay", "0.03",
            "--breaker-threshold", "2", "--breaker-reset", "10",
        ]) == 0
        out = capsys.readouterr().out
        assert "retry(k=5, p=0.8)" in out
        assert "breaker(f=2, reset=10)" in out
        assert "timeout(t=0.1)" in out
        assert "hedge(t=0.1, d=0.03)" in out

    def test_invalid_hedge_delay_is_a_one_line_error(self, capsys):
        assert main(["policies", "--hedge-delay", "0.2"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "hedge_delay" in err

    def test_invalid_farm_is_a_one_line_error(self, capsys):
        assert main(["policies", "--servers", "0"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_invalid_workers_is_a_one_line_error(self, capsys):
        assert main(["policies", "--workers", "0"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "--workers" in err

    def test_metrics_and_trace_artifacts(self, tmp_path, capsys):
        metrics = tmp_path / "policies-metrics.json"
        trace = tmp_path / "policies-trace.jsonl"
        assert main([
            "policies", "--metrics", str(metrics), "--trace", str(trace),
        ]) == 0
        instrumented = capsys.readouterr().out
        assert metrics.exists()
        assert trace.exists()
        assert trace.read_text().strip()
        # Instrumentation never changes stdout.
        assert main(["policies"]) == 0
        assert capsys.readouterr().out == instrumented


class TestCloudCommand:
    def test_default_run_prints_ranked_grid(self, capsys):
        assert main(["cloud"]) == 0
        captured = capsys.readouterr()
        assert "Cloud Travel Agency" in captured.out
        assert "best deployment:" in captured.out
        for scenario in (
            "single-zone", "two-zone", "two-zone-overprovisioned",
            "three-zone", "three-zone-strict-quorum",
        ):
            assert scenario in captured.out
        assert "downtime" in captured.out
        assert "engine: workers=1, 5 cells" in captured.err

    def test_workers_do_not_change_the_output(self, capsys):
        assert main(["cloud"]) == 0
        serial = capsys.readouterr().out
        assert main(["cloud", "--workers", "2"]) == 0
        parallel = capsys.readouterr().out
        assert parallel == serial  # byte-identical stdout

    def test_warm_cache_rerun_recomputes_nothing(self, tmp_path, capsys):
        cache = str(tmp_path / "cache")
        args = ["cloud", "--cache-dir", cache]
        assert main(args) == 0
        cold = capsys.readouterr()
        assert "misses=5" in cold.err
        assert main(args) == 0
        warm = capsys.readouterr()
        assert warm.out == cold.out
        assert "hits=5" in warm.err
        assert "misses=0" in warm.err

    def test_zone_availability_moves_the_ranking_inputs(self, capsys):
        assert main(["cloud"]) == 0
        nominal = capsys.readouterr().out
        assert main(["cloud", "--zone-availability", "0.99"]) == 0
        degraded = capsys.readouterr().out
        assert degraded != nominal
        assert "zone availability 0.99" in degraded

    def test_invalid_flags_are_one_line_errors(self, capsys):
        for argv, flag in (
            (["cloud", "--arrival-rate", "0"], "--arrival-rate"),
            (["cloud", "--service-rate", "-1"], "--service-rate"),
            (["cloud", "--zone-availability", "1.5"], "--zone-availability"),
            (["cloud", "--zone-availability", "nan"], "--zone-availability"),
            (["cloud", "--workers", "0"], "--workers"),
        ):
            assert main(argv) == 2
            err = capsys.readouterr().err
            assert err.startswith("error:")
            assert err.count("\n") == 1
            assert flag in err

    def test_metrics_artifact_counts_inference_queries(self, tmp_path, capsys):
        metrics = tmp_path / "cloud-metrics.json"
        assert main(["cloud", "--metrics", str(metrics)]) == 0
        instrumented = capsys.readouterr().out
        payload = json.loads(metrics.read_text())
        names = {metric["name"] for metric in payload["metrics"]}
        assert "bayes_inference_queries" in names
        # Instrumentation never changes stdout.
        assert main(["cloud"]) == 0
        assert capsys.readouterr().out == instrumented


class TestChaosCommand:
    INJECTORS = (
        "kill-worker", "transient", "corrupt-cache", "truncate-journal",
    )

    def test_every_injector_recovers_bit_identically(self, capsys):
        assert main(["sweep", "--servers-max", "3"]) == 0
        clean = capsys.readouterr().out
        for injector in self.INJECTORS:
            assert main([
                "chaos", "--injector", injector, "--servers-max", "3",
            ]) == 0, injector
            captured = capsys.readouterr()
            assert captured.out == clean, injector
            assert "IDENTICAL" in captured.err

    def test_metrics_artifact_counts_the_recovery(self, tmp_path, capsys):
        path = tmp_path / "chaos-metrics.json"
        assert main([
            "chaos", "--injector", "transient", "--servers-max", "3",
            "--metrics", str(path),
        ]) == 0
        capsys.readouterr()
        payload = json.loads(path.read_text())
        series = {
            m["name"]: m["value"] for m in payload["metrics"]
            if not m.get("labels")
        }
        assert series["engine_task_retries"] >= 1

    def test_kill_worker_needs_a_pool(self, capsys):
        assert main([
            "chaos", "--injector", "kill-worker", "--workers", "1",
        ]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "workers" in err

    def test_invalid_workers_is_a_one_line_error(self, capsys):
        assert main([
            "chaos", "--injector", "transient", "--workers", "0",
        ]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "--workers" in err


class TestStatsCommand:
    @pytest.fixture()
    def metrics_files(self, tmp_path):
        from repro.obs import MetricsRegistry

        paths = []
        for index, amount in enumerate((2, 3)):
            registry = MetricsRegistry()
            registry.counter("engine_tasks", phase="sweep").inc(amount)
            registry.histogram("t", bounds=(1.0,)).observe(0.5)
            path = tmp_path / f"worker{index}.json"
            registry.save(path)
            paths.append(str(path))
        return paths

    def test_merges_files_into_table(self, metrics_files, capsys):
        assert main(["stats", *metrics_files]) == 0
        out = capsys.readouterr().out
        assert "2 metrics file(s)" in out
        assert "engine_tasks" in out
        assert "phase=sweep" in out
        assert " 5" in out  # counters summed across files
        assert "count=2" in out  # histogram observations added

    def test_openmetrics_format(self, metrics_files, capsys):
        assert main(["stats", *metrics_files, "--format",
                     "openmetrics"]) == 0
        out = capsys.readouterr().out
        assert 'engine_tasks_total{phase="sweep"} 5' in out
        assert "# EOF" in out

    def test_json_format_round_trips(self, metrics_files, capsys):
        assert main(["stats", metrics_files[0], "--format", "json"]) == 0
        snapshot = json.loads(capsys.readouterr().out)
        assert snapshot["schema"] == "repro.obs.metrics/1"

    def test_corrupt_file_is_a_one_line_error(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("not json")
        assert main(["stats", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "Traceback" not in err

    def test_missing_file_is_a_one_line_error(self, tmp_path, capsys):
        assert main(["stats", str(tmp_path / "ghost.json")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "cannot read" in err

    def test_debug_flag_reraises(self, tmp_path):
        from repro.errors import ObservabilityError

        path = tmp_path / "bad.json"
        path.write_text("not json")
        with pytest.raises(ObservabilityError):
            main(["--debug", "stats", str(path)])

    def test_sweep_metrics_flag_writes_loadable_snapshot(
        self, tmp_path, capsys
    ):
        from repro.obs import MetricsRegistry

        metrics_path = tmp_path / "m.json"
        assert main(["sweep", "--servers-max", "2", "--metrics",
                     str(metrics_path)]) == 0
        capsys.readouterr()
        registry = MetricsRegistry.load(metrics_path)
        assert registry.value(
            "engine_tasks", phase="grid failure rate x NW"
        ) == 6  # three failure-rate curves x two server counts


class TestSloCommand:
    def test_null_scenario_reports_monitor_summary(self, capsys):
        assert main([
            "slo", "--scenario", "null", "--user-class", "A",
            "--horizon", "600", "--replications", "1", "--seed", "3",
        ]) == 0
        out = capsys.readouterr().out
        assert "SLO report" in out
        assert "class A" in out
        assert "objective" in out and "burn" in out

    def test_outage_scenario_logs_fire_and_clear(self, capsys):
        assert main([
            "slo", "--scenario", "net-outage", "--user-class", "A",
            "--horizon", "2500", "--replications", "1", "--seed", "3",
            "--session-rate", "2",
        ]) == 0
        out = capsys.readouterr().out
        assert "alert log:" in out
        assert "FIRE" in out and "CLEAR" in out

    def test_invalid_session_rate_is_a_one_line_error(self, capsys):
        assert main([
            "slo", "--scenario", "null", "--session-rate", "0",
        ]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "Traceback" not in err


class TestDiffCommand:
    def snapshot(self, tmp_path, name, amount):
        from repro.obs import MetricsRegistry

        registry = MetricsRegistry()
        registry.counter("engine_tasks").inc(amount)
        path = tmp_path / name
        registry.save(path)
        return str(path)

    def bench(self, tmp_path, name, overhead):
        record = {
            "benchmark": "bench-x",
            "disabled_overhead": overhead,
            "guard_threshold": 0.03,
            "guarded": ["disabled_overhead"],
        }
        path = tmp_path / name
        path.write_text(json.dumps(record))
        return str(path)

    def test_metrics_diff_prints_changed_series(self, tmp_path, capsys):
        old = self.snapshot(tmp_path, "old.json", 2)
        new = self.snapshot(tmp_path, "new.json", 5)
        assert main(["diff", old, new]) == 0
        out = capsys.readouterr().out
        assert "engine_tasks" in out
        assert "changed" in out

    def test_bench_regression_exits_1(self, tmp_path, capsys):
        old = self.bench(tmp_path, "old.json", 0.01)
        new = self.bench(tmp_path, "new.json", 0.20)
        assert main(["diff", old, new]) == 1
        out = capsys.readouterr().out
        assert "regression" in out
        assert "disabled_overhead" in out

    def test_bench_within_guard_exits_0(self, tmp_path, capsys):
        old = self.bench(tmp_path, "old.json", 0.01)
        new = self.bench(tmp_path, "new.json", 0.02)
        assert main(["diff", old, new]) == 0
        assert "ok" in capsys.readouterr().out

    def test_mixed_artifact_kinds_rejected(self, tmp_path, capsys):
        snap = self.snapshot(tmp_path, "snap.json", 1)
        bench = self.bench(tmp_path, "bench.json", 0.01)
        assert main(["diff", snap, bench]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "different kinds" in err

    def test_missing_file_is_a_one_line_error(self, tmp_path, capsys):
        snap = self.snapshot(tmp_path, "snap.json", 1)
        assert main(["diff", snap, str(tmp_path / "ghost.json")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "cannot read" in err


class TestTraceReportCommand:
    @pytest.fixture()
    def trace_file(self, tmp_path):
        from repro.obs import Tracer

        tracer = Tracer()
        with tracer.span("outer", category="engine"):
            with tracer.span("inner", category="solver"):
                pass
        path = tmp_path / "trace.jsonl"
        tracer.export(path)
        return str(path)

    def test_renders_report_sections(self, trace_file, capsys):
        assert main(["trace-report", trace_file]) == 0
        out = capsys.readouterr().out
        assert "critical path" in out
        assert "outer" in out and "inner" in out

    def test_input_trace_survives_the_report(self, trace_file, capsys):
        # The positional must not collide with the ambient --trace
        # output path, which main's finalizer would write (and truncate
        # the input) on exit.
        before = Path(trace_file).read_text()
        assert main(["trace-report", trace_file]) == 0
        capsys.readouterr()
        assert Path(trace_file).read_text() == before

    def test_top_flag_validated(self, trace_file, capsys):
        assert main(["trace-report", trace_file, "--top", "0"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "Traceback" not in err

    def test_missing_trace_is_a_one_line_error(self, tmp_path, capsys):
        assert main(["trace-report", str(tmp_path / "ghost.jsonl")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "Traceback" not in err


class TestProfileCommand:
    ARTIFACTS = [
        "attribution.json", "attribution.txt",
        "profile.collapsed", "profile.speedscope.json",
    ]

    def test_wraps_sweep_with_identical_stdout(self, tmp_path, capsys):
        assert main(["sweep", "--servers-max", "4"]) == 0
        plain = capsys.readouterr().out
        out = tmp_path / "perf"
        assert main([
            "sweep", "--servers-max", "4", "--profile", str(out),
        ]) == 0
        assert capsys.readouterr().out == plain  # byte-identical
        for name in self.ARTIFACTS:
            assert (out / name).stat().st_size > 0

    def test_profile_flag_writes_artifacts_directly(
        self, tmp_path, capsys
    ):
        out = tmp_path / "direct"
        assert main([
            "sweep", "--servers-max", "4", "--profile", str(out),
        ]) == 0
        capsys.readouterr()
        document = json.loads((out / "attribution.json").read_text())
        (batch,) = document["batches"]
        assert batch["phase"] == "grid failure rate x NW"
        assert batch["coverage"] >= 0.95


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_module_entry_point(self):
        import subprocess
        import sys

        completed = subprocess.run(
            [sys.executable, "-m", "repro", "ta", "--user-class", "A"],
            capture_output=True, text=True, timeout=120,
        )
        assert completed.returncode == 0
        assert "class A" in completed.stdout
