"""Tests for engine performance attribution (repro.obs.perf wiring)."""

import math
import os

import pytest

from repro.engine import EvaluationEngine
from repro.obs import MetricsRegistry, PerfRecorder


def _cube(x):
    return x ** 3


def _des_burst(n):
    """A task that runs a DES kernel (ambient perf reaches the worker)."""
    from repro.sim import Simulator

    sim = Simulator()
    state = {"left": int(n)}

    def tick():
        state["left"] -= 1
        if state["left"]:
            sim.schedule(1.0, tick)

    sim.schedule(1.0, tick)
    sim.run()
    return sim.events_processed


def _grid(recorder=None):
    """A three-item batch under its own phase, as the grids run."""
    engine = EvaluationEngine(perf=recorder)
    return engine.map(_cube, [2.0, 3.0, 4.0], phase="test-graph").outputs


class TestSerialAttribution:
    def test_map_produces_one_report(self):
        recorder = PerfRecorder()
        engine = EvaluationEngine(perf=recorder)
        batch = engine.map(_cube, [1.0, 2.0, 3.0], phase="unit-map")
        assert list(batch.outputs) == [1.0, 8.0, 27.0]
        (report,) = recorder.batches
        assert report.phase == "unit-map"
        assert report.tasks == 3
        assert report.slots == 1
        assert report.coverage >= 0.95
        # Serial execution happens in this process.
        assert [w.pid for w in report.per_worker] == [os.getpid()]

    def test_outputs_identical_with_and_without_perf(self):
        items = [1.0, 2.0, 3.0, 4.0]
        plain = list(EvaluationEngine().map(_cube, items).outputs)
        profiled = list(EvaluationEngine(perf=PerfRecorder()).map(
            _cube, items
        ).outputs)
        assert profiled == plain

    def test_graph_produces_report(self):
        recorder = PerfRecorder()
        assert _grid(recorder) == (8.0, 27.0, 64.0)
        (report,) = recorder.batches
        assert report.phase == "test-graph"
        assert report.tasks == 3
        assert report.coverage >= 0.95

    def test_graph_results_identical_with_and_without_perf(self):
        assert _grid(PerfRecorder()) == _grid(None)

    def test_disabled_engine_records_nothing(self):
        engine = EvaluationEngine()
        engine.map(_cube, [1.0])
        assert engine._perf is None

    def test_one_timer_feeds_metrics_and_attribution(self):
        registry = MetricsRegistry()
        recorder = PerfRecorder()
        engine = EvaluationEngine(metrics=registry, perf=recorder)
        engine.map(_cube, [1.0, 2.0, 3.0], phase="timed")
        (report,) = recorder.batches
        histogram = registry.get("engine_task_seconds", phase="timed")
        assert histogram.count == report.tasks == 3
        # Serial windows are disjoint, so compute is the sum of the same
        # durations, up to wall-clock float epsilon per window.
        assert histogram.sum == pytest.approx(report.compute, abs=1e-6)

    def test_in_process_batch_runs_on_one_slot(self):
        recorder = PerfRecorder()
        engine = EvaluationEngine(workers=2, perf=recorder)
        # One pending task takes the in-process branch: no pool starts.
        engine.map(math.sqrt, [4.0], phase="single")
        (report,) = recorder.batches
        assert report.workers == 2
        assert report.slots == 1
        assert report.idle < report.elapsed  # no phantom slot's window

    def test_all_cached_batch_runs_on_one_slot(self, tmp_path):
        recorder = PerfRecorder()
        keys = ["k-1", "k-2"]
        EvaluationEngine(cache_dir=tmp_path).map(_cube, [1.0, 2.0], keys=keys)
        engine = EvaluationEngine(workers=2, cache_dir=tmp_path, perf=recorder)
        engine.map(_cube, [1.0, 2.0], keys=keys, phase="cached")
        (report,) = recorder.batches
        assert report.tasks == 0
        assert report.slots == 1

    def test_task_profiler_ticks(self):
        recorder = PerfRecorder(task_interval=1)
        EvaluationEngine(perf=recorder).map(_cube, [1.0, 2.0], phase="p")
        assert recorder.profiler.task_ticks == 2
        leaves = {stack[-1] for stack in recorder.profiler.samples}
        assert "task:p" in leaves


class TestParallelAttribution:
    def test_workers2_coverage_and_buckets(self):
        recorder = PerfRecorder()
        engine = EvaluationEngine(workers=2, perf=recorder)
        items = list(range(1, 13))
        batch = engine.map(_des_burst, items, phase="parallel-des")
        assert list(batch.outputs) == items
        (report,) = recorder.batches
        assert report.slots >= 2
        assert report.tasks == 12
        assert report.coverage >= 0.95
        # The identity: buckets sum to capacity (slots x elapsed).
        # Tolerance is wall-clock float epsilon (~2e-7 s at the current
        # epoch), not a modelling slack.
        assert report.accounted == pytest.approx(
            report.capacity, abs=1e-5
        )
        assert report.queue_depth_samples  # sampled while waiting

    def test_pool_smaller_than_workers_counts_its_own_slots(self):
        recorder = PerfRecorder()
        engine = EvaluationEngine(workers=3, perf=recorder)
        engine.map(_cube, [1.0, 2.0], phase="two")
        (report,) = recorder.batches
        assert report.workers == 3
        assert report.slots == 2

    def test_worker_kernel_accounting_merges_back(self):
        recorder = PerfRecorder()
        engine = EvaluationEngine(workers=2, perf=recorder)
        engine.map(_des_burst, [50, 60], phase="kernels")
        # 110 DES events ran inside pool workers; their accounting came
        # back through the perf record protocol.
        assert recorder.kernel.total_events == 110
        assert recorder.kernel.counts  # event-type names survived

    def test_parallel_outputs_identical_with_perf(self):
        items = [10, 20, 30]
        plain = list(
            EvaluationEngine(workers=2).map(_des_burst, items).outputs
        )
        profiled = list(EvaluationEngine(
            workers=2, perf=PerfRecorder()
        ).map(_des_burst, items).outputs)
        assert profiled == plain == items

    def test_serialization_bytes_counted(self):
        recorder = PerfRecorder()
        engine = EvaluationEngine(workers=2, perf=recorder)
        engine.map(_cube, [1.0, 2.0], phase="ser")
        (report,) = recorder.batches
        assert report.serialized_bytes > 0
        assert report.serialization_measured >= 0.0


class TestCacheAttribution:
    def test_cache_time_lands_in_cache_bucket(self, tmp_path):
        recorder = PerfRecorder()
        items = [1.0, 2.0, 3.0]
        keys = [f"k-{x}" for x in items]
        engine = EvaluationEngine(cache_dir=tmp_path, perf=recorder)
        engine.map(_cube, items, keys=keys)
        warm = EvaluationEngine(cache_dir=tmp_path, perf=recorder)
        warm.map(_cube, items, keys=keys)
        cold, hot = recorder.batches
        assert cold.cache_measured >= 0.0
        assert hot.cache_measured > 0.0  # lookups were timed
