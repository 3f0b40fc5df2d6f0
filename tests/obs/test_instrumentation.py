"""Integration: instrumentation threaded through kernel, solvers, engine,
campaigns, journal, and the CLI.

The overarching contract under test: observability is **additive**.
Every output — sweep stdout, engine results, campaign values — must be
bit-identical with and without ``--metrics``/``--trace``; the registry
and trace are a pure side channel.
"""

from math import sqrt

import numpy as np
import pytest

from repro.cli import main
from repro.engine import EvaluationEngine
from repro.markov.solvers import steady_state
from repro.obs import (
    MetricsRegistry,
    Tracer,
    active_metrics,
    active_tracer,
    instrumented,
    read_trace,
)
from repro.sim import Simulator


class TestAmbientContext:
    def test_default_is_noop(self):
        assert active_metrics() is None
        assert active_tracer() is None

    def test_instrumented_scope_restores_previous(self):
        registry = MetricsRegistry()
        with instrumented(metrics=registry):
            assert active_metrics() is registry
            inner = MetricsRegistry()
            with instrumented(metrics=inner):
                assert active_metrics() is inner
            assert active_metrics() is registry
        assert active_metrics() is None


class TestSimulatorInstrumentation:
    def _drive(self, registry):
        sim = Simulator(metrics=registry)
        for delay in (1.0, 2.0, 3.0):
            sim.schedule(delay, lambda: None)
        sim.run()
        return sim

    def test_event_and_depth_metrics(self):
        registry = MetricsRegistry()
        self._drive(registry)
        assert registry.value("sim_events") == 3
        assert registry.value("sim_queue_depth_max") == 3
        assert registry.get("sim_queue_depth").count == 3

    def test_per_event_type_histograms(self):
        registry = MetricsRegistry()
        self._drive(registry)
        histograms = [
            m for m in registry if m.name == "sim_event_seconds"
        ]
        assert sum(h.count for h in histograms) == 3

    def test_ambient_fallback(self):
        registry = MetricsRegistry()
        with instrumented(metrics=registry):
            sim = Simulator()
            sim.schedule(1.0, lambda: None)
            sim.run()
        assert registry.value("sim_events") == 1

    def test_uninstrumented_simulator_unchanged(self):
        sim = Simulator()
        hits = []
        sim.schedule(2.0, lambda: hits.append(sim.now))
        sim.schedule(1.0, lambda: hits.append(sim.now))
        sim.run()
        assert hits == [1.0, 2.0]
        assert sim.events_processed == 2


class TestSolverInstrumentation:
    Q = np.array([[-1.0, 1.0], [2.0, -2.0]])

    def test_solve_metrics(self):
        registry = MetricsRegistry()
        with instrumented(metrics=registry):
            pi = steady_state(self.Q)
        assert pi == pytest.approx([2 / 3, 1 / 3])
        assert registry.value("ctmc_solves", strategy="GTH elimination") == 1
        assert registry.get("ctmc_steady_state_seconds").count == 1

    def test_solver_outputs_unchanged_by_instrumentation(self):
        bare = steady_state(self.Q)
        with instrumented(metrics=MetricsRegistry()):
            instrumented_pi = steady_state(self.Q)
        assert instrumented_pi.tolist() == bare.tolist()


class TestEngineInstrumentation:
    def test_serial_task_accounting(self):
        registry = MetricsRegistry()
        engine = EvaluationEngine(metrics=registry)
        result = engine.map(sqrt, [1.0, 4.0, 9.0], phase="demo")
        assert result.outputs == (1.0, 2.0, 3.0)
        assert registry.value("engine_tasks", phase="demo") == 3
        assert registry.value("engine_tasks_executed", phase="demo") == 3
        assert registry.get("engine_task_seconds", phase="demo").count == 3

    def test_cache_counters_reconcile_with_result_stats(self):
        from repro.engine import canonical_key

        registry = MetricsRegistry()
        engine = EvaluationEngine(metrics=registry)
        keys = [canonical_key("sqrt", x=x) for x in (1.0, 4.0)]
        first = engine.map(sqrt, [1.0, 4.0], keys=keys)
        second = engine.map(sqrt, [1.0, 4.0], keys=keys)
        stats = [first.cache_stats, second.cache_stats]
        assert registry.value("engine_cache_lookups") == sum(
            s.lookups for s in stats
        )
        assert registry.value("engine_cache_hits") == sum(
            s.hits for s in stats
        )
        assert registry.value("engine_cache_misses") == sum(
            s.misses for s in stats
        )
        cached = len(second.outputs) - second.executed - second.restored
        assert registry.value("engine_tasks_cached", phase="batch") == cached == 2
        # hits + misses must account for every lookup.
        assert registry.value("engine_cache_hits") + registry.value(
            "engine_cache_misses"
        ) == registry.value("engine_cache_lookups")

    def test_parallel_outputs_bit_identical_and_metrics_merged(self):
        bare = EvaluationEngine(workers=2).map(sqrt, [1.0, 4.0, 9.0, 16.0])
        registry = MetricsRegistry()
        tracer = Tracer()
        engine = EvaluationEngine(workers=2, metrics=registry, tracer=tracer)
        result = engine.map(sqrt, [1.0, 4.0, 9.0, 16.0], phase="par")
        assert result.outputs == bare.outputs
        assert registry.value("engine_tasks", phase="par") == 4
        # Worker-side histograms merged back by name.
        assert registry.get("engine_task_seconds", phase="par").count == 4

    def test_parallel_worker_spans_parent_under_submits(self):
        registry = MetricsRegistry()
        tracer = Tracer()
        engine = EvaluationEngine(workers=2, metrics=registry, tracer=tracer)
        engine.map(sqrt, [1.0, 4.0, 9.0], phase="par")
        by_id = {e["args"]["span_id"]: e for e in tracer.events}
        tasks = [e for e in tracer.events if e["name"] == "engine task"]
        assert len(tasks) == 3
        for event in tasks:
            submit = by_id[event["args"]["parent_id"]]
            assert submit["name"] == "engine submit"
            batch = by_id[submit["args"]["parent_id"]]
            assert batch["name"] == "map par"

    def test_grid_runs_as_one_map_batch(self):
        from repro import workloads

        registry = MetricsRegistry()
        tracer = Tracer()
        engine = EvaluationEngine(metrics=registry, tracer=tracer)
        workloads.run_cloud_comparison(engine=engine)
        phase = "cloud-comparison"
        assert registry.value("engine_tasks", phase=phase) == 5
        assert registry.value("engine_tasks_executed", phase=phase) == 5
        (batch,) = [e for e in tracer.events if e["name"] == f"map {phase}"]
        tasks = [e for e in tracer.events if e["name"] == "engine task"]
        assert [e["args"]["index"] for e in tasks] == [0, 1, 2, 3, 4]
        assert {e["args"]["parent_id"] for e in tasks} == {
            batch["args"]["span_id"]
        }


class TestCampaignAndJournalInstrumentation:
    def test_campaign_counters(self):
        from repro.resilience import run_campaign
        from repro.ta import CLASS_A, TravelAgencyModel

        model = TravelAgencyModel()
        registry = MetricsRegistry()
        with instrumented(metrics=registry):
            result = run_campaign(
                model.hierarchical_model, CLASS_A,
                horizon=300.0, replications=2, seed=3,
            )
        labels = {"scenario": "null", "user_class": "class A"}
        assert registry.value("campaign_replications", **labels) == 2
        assert registry.value(
            "campaign_resource_transitions", scenario="null"
        ) == sum(r.resource_transitions for r in result.replications)
        assert registry.value(
            "campaign_fault_events", scenario="null"
        ) == sum(r.fault_events_applied for r in result.replications)

    def test_journal_counters(self, tmp_path):
        from repro.runtime import Journal

        registry = MetricsRegistry()
        with instrumented(metrics=registry):
            with Journal(tmp_path / "j.jsonl") as journal:
                journal.append("a", x=1)
                journal.append("b", y=2)
        assert registry.value("journal_records") == 2
        assert registry.value("journal_fsyncs") == 2
        assert registry.value("journal_bytes") > 0

    def test_journal_fsync_disabled_not_counted(self, tmp_path):
        from repro.runtime import Journal

        registry = MetricsRegistry()
        with instrumented(metrics=registry):
            with Journal(tmp_path / "j.jsonl", fsync=False) as journal:
                journal.append("a")
        assert registry.value("journal_records") == 1
        assert registry.value("journal_fsyncs") == 0


class TestCliAcceptance:
    """The ISSUE acceptance run: sweep with --metrics/--trace."""

    CELLS = 3 * 4  # three failure-rate curves x --servers-max 4

    def _sweep(self, capsys, extra=()):
        code = main([
            "sweep", "--figure", "11", "--workers", "2",
            "--servers-max", "4", *extra,
        ])
        captured = capsys.readouterr()
        assert code == 0
        return captured.out

    def test_stdout_byte_identical_and_artifacts_valid(
        self, tmp_path, capsys
    ):
        metrics_path = tmp_path / "m.json"
        trace_path = tmp_path / "t.jsonl"
        plain = self._sweep(capsys)
        observed = self._sweep(capsys, (
            "--metrics", str(metrics_path), "--trace", str(trace_path),
        ))
        assert observed == plain  # byte-identical stdout

        registry = MetricsRegistry.load(metrics_path)
        phase = "grid failure rate x NW"
        assert registry.value("engine_tasks", phase=phase) == self.CELLS
        # Cache stats reconcile: every task was looked up, none hit.
        assert registry.value("engine_cache_lookups") == self.CELLS
        assert registry.value("engine_cache_hits") + registry.value(
            "engine_cache_misses"
        ) == registry.value("engine_cache_lookups")

        events = read_trace(trace_path)  # schema-validates every line
        by_id = {e["args"]["span_id"]: e for e in events}
        tasks = [e for e in events if e["name"] == "engine task"]
        assert len(tasks) == self.CELLS
        for event in tasks:
            assert by_id[event["args"]["parent_id"]]["name"] == (
                "engine submit"
            )

    def test_metrics_written_even_on_deadline_abort(self, tmp_path, capsys):
        metrics_path = tmp_path / "m.json"
        code = main([
            "inject", "--user-class", "A", "--horizon", "4000",
            "--replications", "50", "--deadline", "0.3",
            "--metrics", str(metrics_path),
        ])
        capsys.readouterr()
        assert code == 2  # deadline exceeded
        assert metrics_path.exists()  # partial metrics still landed
        MetricsRegistry.load(metrics_path)  # and they parse

    def test_cli_leaves_no_ambient_instrumentation(self, tmp_path, capsys):
        self._sweep(capsys, ("--metrics", str(tmp_path / "m.json")))
        assert active_metrics() is None
        assert active_tracer() is None
