"""Parallel fault-injection campaigns must be bit-identical to serial.

Replications already draw from per-replication ``SeedSequence`` streams,
so distributing them over worker processes must not change a single
drawn number; the engine assembles results by replication index.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import EvaluationEngine
from repro.errors import CancelledError, ValidationError
from repro.obs import MetricsRegistry, Tracer, instrumented
from repro.resilience import RecurrentOutage, resume_campaign, run_campaign
from repro.runtime import CancellationToken, read_journal
from repro.ta import CLASS_A, CLASS_B, TravelAgencyModel

TA = TravelAgencyModel()


def _campaign(workers, **overrides):
    kwargs = dict(
        horizon=400.0, replications=3, seed=7,
        engine=EvaluationEngine(workers=workers),
    )
    kwargs.update(overrides)
    return run_campaign(TA.hierarchical_model, CLASS_A, **kwargs)


class TestParallelEqualsSerial:
    def test_null_campaign_bit_identical(self):
        serial = _campaign(workers=1)
        parallel = _campaign(workers=2)
        # Tuple equality over floats: bit-identity, not statistics.
        assert parallel.values == serial.values
        assert parallel.replications == serial.replications
        assert parallel.scenario == serial.scenario

    def test_fault_scenario_bit_identical(self):
        scenario = RecurrentOutage(
            frozenset({"lan-segment"}), episode_rate=0.02, mean_duration=5.0
        )
        serial = _campaign(workers=1, scenario=scenario)
        parallel = _campaign(workers=2, scenario=scenario)
        assert parallel.values == serial.values

    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        replications=st.integers(min_value=2, max_value=4),
        user_class=st.sampled_from([CLASS_A, CLASS_B]),
    )
    @settings(max_examples=5, deadline=None)
    def test_property_any_seed_and_size(self, seed, replications, user_class):
        kwargs = dict(horizon=250.0, replications=replications, seed=seed)
        serial = run_campaign(
            TA.hierarchical_model, user_class,
            engine=EvaluationEngine(workers=1), **kwargs
        )
        parallel = run_campaign(
            TA.hierarchical_model, user_class,
            engine=EvaluationEngine(workers=2), **kwargs
        )
        assert parallel.values == serial.values

    def test_more_workers_than_replications(self):
        serial = _campaign(workers=1, replications=2)
        parallel = _campaign(workers=8, replications=2)
        assert parallel.values == serial.values


class TestWorkersParameter:
    def test_invalid_workers_rejected(self):
        with pytest.raises(ValidationError):
            _campaign(workers=0)

    def test_single_replication_stays_serial(self):
        # One replication cannot be parallelized; no pool is paid for.
        serial = _campaign(workers=1, replications=1)
        parallel = _campaign(workers=4, replications=1)
        assert parallel.values == serial.values

    def test_streaming_observer_with_workers_rejected(self):
        # A streaming observer needs replications in timeline order,
        # which a worker pool cannot guarantee; the error says how to
        # fix the call and names the offending worker count.
        class Recorder:
            def interval(self, start, end, availability):
                pass

            def fault(self, time, event):
                pass

        with pytest.raises(ValidationError, match="workers=3") as excinfo:
            _campaign(workers=3, observer=Recorder())
        assert "workers=1" in str(excinfo.value)

    def test_streaming_observer_fine_with_single_worker(self):
        intervals = []

        class Recorder:
            def interval(self, start, end, availability):
                intervals.append((start, end, availability))

            def fault(self, time, event):
                pass

        result = _campaign(workers=1, observer=Recorder())
        assert intervals
        assert len(result.replications) == 3

    def test_parallel_campaign_journals_every_replication(self, tmp_path):
        from repro.runtime import read_journal

        path = tmp_path / "campaign.jsonl"
        result = _campaign(workers=2, journal=path)
        records = read_journal(path)
        kinds = [r["kind"] for r in records]
        assert kinds[0] == "batch_start"
        assert kinds.count("task_result") == len(result.replications)
        assert kinds[-1] == "batch_end"


class TestSerialParallelParity:
    def test_same_metric_series_and_span_names(self):
        def observed(workers):
            registry, tracer = MetricsRegistry(), Tracer()
            with instrumented(metrics=registry, tracer=tracer):
                _campaign(workers=workers)
            series = {
                (m["name"], tuple(sorted(m["labels"].items())))
                for m in registry.to_dict()["metrics"]
            }
            return series, {event["name"] for event in tracer.events}

        serial_series, serial_spans = observed(1)
        parallel_series, parallel_spans = observed(2)
        assert serial_series == parallel_series
        assert any(name.startswith("engine_") for name, _ in serial_series)
        # Only the pool pays a submission, so only it has that span.
        assert parallel_spans - serial_spans == {"engine submit"}
        assert "engine task" in serial_spans

    def test_out_of_order_parallel_journal_resumes_bit_identically(
        self, tmp_path, rewrite_journal
    ):
        kwargs = dict(horizon=400.0, replications=6, seed=7)
        uninterrupted = run_campaign(TA.hierarchical_model, CLASS_A, **kwargs)
        path = tmp_path / "campaign.jsonl"
        token = CancellationToken()

        def assassin(event):
            if event.completed == 2:
                token.cancel("killed after two replications")

        with pytest.raises(CancelledError):
            run_campaign(
                TA.hierarchical_model, CLASS_A, journal=path,
                engine=EvaluationEngine(
                    workers=2, cancellation=token, heartbeat=assassin
                ),
                **kwargs,
            )
        start, *done = read_journal(path)
        assert 2 <= len(done) < 6
        # Completion order is up to the pool; descending indices are out
        # of order whatever order it finished in.
        done.sort(key=lambda record: -record["index"])
        rewrite_journal(path, [start] + done)
        resumed = resume_campaign(path, TA.hierarchical_model, CLASS_A)
        assert resumed == uninterrupted
        indices = [
            r["index"] for r in read_journal(path)
            if r["kind"] == "task_result"
        ]
        assert sorted(indices) == list(range(6))
        assert indices[:len(done)] != sorted(indices[:len(done)])
