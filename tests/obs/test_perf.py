"""Tests for repro.obs.perf: kernel accounting, profiler, recorder."""

import json

import pytest

from repro.obs import (
    CounterProfiler,
    KernelAccounting,
    MetricsRegistry,
    PerfRecorder,
    active_perf,
    format_attribution,
    format_kernel_accounting,
    instrumented,
    speedscope_document,
)
from repro.sim import Simulator


class TickA:
    def __init__(self, sim, remaining):
        self.sim = sim
        self.remaining = remaining

    def __call__(self):
        self.remaining -= 1
        if self.remaining:
            self.sim.schedule(1.0, self)


class TickB(TickA):
    pass


def _run_mixed(sim, a=30, b=20):
    sim.schedule(1.0, TickA(sim, a))
    sim.schedule(1.0, TickB(sim, b))
    sim.run()


class TestKernelAccounting:
    def test_simulator_accounts_per_event_type(self):
        recorder = PerfRecorder()
        sim = Simulator(perf=recorder)
        _run_mixed(sim, a=30, b=20)
        assert recorder.kernel.counts == {"TickA": 30, "TickB": 20}
        assert recorder.kernel.total_events == 50
        assert recorder.kernel.total_seconds > 0.0
        assert all(
            seconds >= 0.0 for seconds in recorder.kernel.seconds.values()
        )

    def test_function_events_use_qualname(self):
        recorder = PerfRecorder()
        sim = Simulator(perf=recorder)
        sim.schedule(1.0, lambda: None)
        sim.run()
        (name,) = recorder.kernel.counts
        assert "lambda" in name

    def test_snapshot_merge_round_trip(self):
        left = KernelAccounting()
        left.record("X", 0.5)
        left.record("Y", 0.25)
        right = KernelAccounting()
        right.record("X", 1.0)
        right.merge(left.snapshot())
        assert right.counts == {"X": 2, "Y": 1}
        assert right.seconds["X"] == pytest.approx(1.5)

    def test_to_dict_is_sorted_and_json_safe(self):
        accounting = KernelAccounting()
        accounting.record("b", 0.1)
        accounting.record("a", 0.2)
        document = accounting.to_dict()
        assert list(document["events"]) == ["a", "b"]
        json.dumps(document)


class TestZeroOverheadBinding:
    @pytest.mark.parametrize(
        "metrics, perf, step",
        [
            (False, False, "_step_fast"),
            (True, False, "_step_observed"),
            (False, True, "_step_observed"),
            (True, True, "_step_observed"),
        ],
    )
    def test_step_binding(self, metrics, perf, step):
        sim = Simulator(
            metrics=MetricsRegistry() if metrics else None,
            perf=PerfRecorder() if perf else None,
        )
        assert sim._step.__func__ is getattr(Simulator, step)

    def test_metrics_and_perf_share_one_timer(self):
        registry = MetricsRegistry()
        recorder = PerfRecorder()
        sim = Simulator(metrics=registry, perf=recorder)
        _run_mixed(sim, a=30, b=20)
        accounting = recorder.kernel
        assert registry.value("sim_events") == accounting.total_events == 50
        for name, count in accounting.counts.items():
            histogram = registry.get("sim_event_seconds", event=name)
            assert histogram.count == count
            # One elapsed time per event feeds both: exactly equal sums.
            assert histogram.sum == accounting.seconds[name]

    def test_ambient_recorder_is_picked_up(self):
        recorder = PerfRecorder()
        with instrumented(perf=recorder):
            assert active_perf() is recorder
            sim = Simulator()
            _run_mixed(sim, a=5, b=5)
        assert active_perf() is None
        assert recorder.kernel.total_events == 10

    def test_results_identical_with_and_without_perf(self):
        def _drain(sim):
            hits = []
            sim.schedule(2.0, lambda: hits.append(sim.now))
            sim.schedule(1.0, lambda: hits.append(sim.now))
            sim.run()
            return hits

        assert _drain(Simulator()) == _drain(Simulator(perf=PerfRecorder()))


class TestCounterProfiler:
    def test_intervals_must_be_positive(self):
        with pytest.raises(ValueError):
            CounterProfiler(kernel_interval=0)
        with pytest.raises(ValueError):
            CounterProfiler(task_interval=0)

    def test_kernel_sampling_interval(self):
        profiler = CounterProfiler(kernel_interval=10)
        for _ in range(25):
            profiler.tick_kernel(leaf="event:T")
        assert profiler.kernel_ticks == 25
        assert profiler.sample_count == 2  # ticks 10 and 20

    def test_synthetic_leaf_frame(self):
        profiler = CounterProfiler(task_interval=1)
        profiler.tick_task(leaf="task:phase-x")
        (stack,) = profiler.samples
        assert stack[-1] == "task:phase-x"
        # The captured frames name real modules/functions below the leaf.
        assert any(":" in frame for frame in stack[:-1])

    def test_two_identical_runs_are_byte_identical(self):
        def _profile():
            recorder = PerfRecorder(kernel_interval=7)
            sim = Simulator(perf=recorder)
            _run_mixed(sim, a=40, b=25)
            return recorder.profiler

        first, second = _profile(), _profile()
        assert first.collapsed() == second.collapsed()
        assert json.dumps(first.speedscope()) == json.dumps(
            second.speedscope()
        )

    def test_folded_merge_round_trip(self):
        profiler = CounterProfiler(task_interval=1)
        profiler.tick_task(leaf="task:a")
        profiler.tick_task(leaf="task:a")
        other = CounterProfiler()
        other.merge_folded(profiler.folded())
        assert other.samples == profiler.samples
        assert other.sample_count == 2

    def test_speedscope_document_structure(self):
        document = speedscope_document({("a", "b"): 3, ("a", "c"): 1})
        (profile,) = document["profiles"]
        assert profile["type"] == "sampled"
        assert profile["endValue"] == 4
        assert len(profile["samples"]) == len(profile["weights"]) == 2
        names = [frame["name"] for frame in document["shared"]["frames"]]
        assert set(names) == {"a", "b", "c"}

    def test_collapsed_format(self):
        profiler = CounterProfiler()
        profiler.samples = {("a", "b"): 2}
        assert profiler.collapsed() == "a;b 2\n"
        assert CounterProfiler().collapsed() == ""


class TestPerfRecorder:
    def test_merge_worker_record(self):
        worker = PerfRecorder()
        worker.kernel.record("T", 0.5)
        worker.profiler.tick_task(leaf="task:t")
        from repro.obs.perf import worker_perf_record

        record = worker_perf_record(worker)
        parent = PerfRecorder()
        parent.merge_worker(record)
        parent.merge_worker(None)  # tolerated
        assert parent.kernel.counts == {"T": 1}
        assert parent.profiler.sample_count == 1
        assert record["pid"] > 0

    def test_write_artifacts(self, tmp_path):
        recorder = PerfRecorder(kernel_interval=5)
        sim = Simulator(perf=recorder)
        _run_mixed(sim, a=20, b=15)
        written = recorder.write_artifacts(tmp_path / "out")
        names = sorted(path.name for path in written)
        assert names == [
            "attribution.json",
            "attribution.txt",
            "profile.collapsed",
            "profile.speedscope.json",
        ]
        document = json.loads((tmp_path / "out" / "attribution.json").read_text())
        assert document["kernel"]["total_events"] == 35
        text = (tmp_path / "out" / "attribution.txt").read_text()
        assert "kernel event accounting" in text

    def test_format_attribution_empty(self):
        assert "no engine batches" in format_attribution([])

    def test_format_kernel_accounting_ranks_by_self_time(self):
        accounting = KernelAccounting()
        accounting.record("cheap", 0.001)
        accounting.record("costly", 1.0)
        text = format_kernel_accounting(accounting)
        assert text.index("costly") < text.index("cheap")
        assert "2 event type(s)" in text
        empty = format_kernel_accounting(KernelAccounting())
        assert "no events recorded" in empty
