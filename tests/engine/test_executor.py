"""Tests for the batch evaluation engine's executor.

The serial backend (``workers=1``) is the reference implementation;
every parallel/cached/resumed path must reproduce it bit for bit.
"""

import functools
import math
import os
import re

import pytest

from repro.chaos import ChaosPlan, plan_transient_faults
from repro.engine import (
    EvaluationEngine,
    MemoCache,
    TaskRetryPolicy,
    canonical_key,
)
from repro.errors import (
    CancelledError,
    ChaosError,
    EngineError,
    ResumeError,
    TransientTaskError,
)
from repro.runtime import read_journal


def _cube(x):
    """Module-level so process-pool workers can unpickle it."""
    return x ** 3


def _die(x):
    """Poison task: kills whichever worker runs it, every time."""
    os._exit(113)


def _die_once(marker, x):
    """Kills its worker on the first call ever (across processes)."""
    try:
        fd = os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        return x * 2
    os.close(fd)
    os._exit(113)


def _boom_on_42(x):
    if x == 42:
        raise ValueError("boom 42")
    return x


def _blocking(spec):
    lam, nw = spec
    from repro.availability import WebServiceModel

    return WebServiceModel(
        servers=int(nw), arrival_rate=100.0, service_rate=100.0,
        buffer_capacity=10, failure_rate=lam, repair_rate=1.0,
    ).unavailability()


def _keys(items):
    return [canonical_key("cube", x=float(x)) for x in items]


class TestSerialMap:
    def test_outputs_follow_input_order(self):
        result = EvaluationEngine().map(_cube, [3.0, 1.0, 2.0])
        assert result.outputs == (27.0, 1.0, 8.0)
        assert result.executed == 3
        assert result.restored == 0
        assert result.workers == 1

    def test_key_count_mismatch_rejected(self):
        with pytest.raises(EngineError, match="cache keys"):
            EvaluationEngine().map(_cube, [1.0, 2.0], keys=["only-one"])

    def test_closures_are_fine_serially(self):
        result = EvaluationEngine().map(lambda x: x + 1, [1, 2])
        assert result.outputs == (2, 3)

    def test_on_result_sees_computed_tasks_only(self):
        engine = EvaluationEngine()
        items = [1.0, 2.0]
        engine.map(_cube, items, keys=_keys(items))
        seen = []
        engine.map(_cube, items, keys=_keys(items),
                   on_result=lambda i, v: seen.append((i, v)))
        assert seen == []  # everything was a cache hit


class TestParallelMap:
    def test_bit_identical_to_serial(self):
        items = [(lam, nw) for lam in (1e-2, 1e-4) for nw in range(1, 5)]
        serial = EvaluationEngine(workers=1).map(_blocking, items)
        parallel = EvaluationEngine(workers=2).map(_blocking, items)
        # == on floats: bit-identity, not approximate agreement.
        assert parallel.outputs == serial.outputs
        assert parallel.workers == 2

    def test_unpicklable_work_function_is_an_engine_error(self):
        with pytest.raises(EngineError, match="worker processes"):
            EvaluationEngine(workers=2).map(lambda x: x, [1, 2, 3])

    def test_single_pending_task_stays_in_process(self):
        # One pending task never pays for a pool — closures still work.
        engine = EvaluationEngine(workers=4)
        assert engine.map(lambda x: -x, [5.0]).outputs == (-5.0,)


class TestCaching:
    def test_warm_rerun_skips_every_solver_call(self):
        engine = EvaluationEngine()
        items = [1.0, 2.0, 3.0, 4.0, 5.0]
        cold = engine.map(_cube, items, keys=_keys(items))
        assert cold.executed == 5
        assert cold.cache_stats.misses == 5

        warm = engine.map(_cube, items, keys=_keys(items))
        assert warm.outputs == cold.outputs
        assert warm.executed == 0              # no solver calls at all
        assert warm.cache_stats.hits == 5
        assert warm.cache_stats.hit_rate == 1.0

    def test_key_change_forces_recomputation(self):
        engine = EvaluationEngine()
        items = [1.0, 2.0]
        engine.map(_cube, items, keys=_keys(items))
        changed = [canonical_key("cube", x=float(x), capacity=11)
                   for x in items]
        again = engine.map(_cube, items, keys=changed)
        assert again.executed == 2
        assert again.cache_stats.hits == 0

    def test_disk_cache_shared_across_engines(self, tmp_path):
        items = [1.0, 2.0, 3.0]
        first = EvaluationEngine(cache_dir=tmp_path)
        cold = first.map(_cube, items, keys=_keys(items))

        second = EvaluationEngine(cache_dir=tmp_path)
        warm = second.map(_cube, items, keys=_keys(items))
        assert warm.outputs == cold.outputs
        assert warm.executed == 0
        assert warm.cache_stats.disk_hits == 3

    def test_cache_stats_are_per_run_deltas(self):
        engine = EvaluationEngine()
        items = [1.0]
        engine.map(_cube, items, keys=_keys(items))
        second = engine.map(_cube, items, keys=_keys(items))
        assert second.cache_stats.lookups == 1  # not cumulative

    def test_prebuilt_cache_and_cache_dir_conflict(self, tmp_path):
        with pytest.raises(EngineError, match="not both"):
            EvaluationEngine(cache=MemoCache(), cache_dir=tmp_path)


class TestCancellation:
    def test_cancelled_before_dispatch(self):
        from repro.runtime import Budget

        budget = Budget(wall_clock=1e-9).start()
        engine = EvaluationEngine(cancellation=budget)
        with pytest.raises(CancelledError):
            engine.map(_cube, [1.0, 2.0])

    @pytest.mark.parametrize("workers", [1, 2])
    def test_deadline_read_at_every_task_boundary(self, workers):
        # A handful of tasks polls far fewer times than the token's clock
        # stride; the engine must still read the deadline at each one.
        from repro.errors import DeadlineExceededError
        from repro.runtime import Budget

        now = [0.0]
        budget = Budget(wall_clock=5.0).start(clock=lambda: now[0])
        completed = []

        def expire(index, value):
            completed.append(index)
            now[0] = 10.0

        engine = EvaluationEngine(workers=workers, cancellation=budget)
        with pytest.raises(DeadlineExceededError):
            engine.map(_cube, [1.0, 2.0, 3.0, 4.0, 5.0, 6.0],
                       on_result=expire)
        assert len(completed) < 6


class TestJournalResume:
    def test_journaled_batch_resumes_bit_identically(self, tmp_path):
        items = [1.0, 2.0, 3.0, 4.0]
        reference = EvaluationEngine().map(_cube, items, keys=_keys(items))

        # Seed a partial journal: the batch header plus two results.
        from repro.runtime import Journal

        path = tmp_path / "batch.jsonl"
        with Journal(path) as journal:
            journal.append("batch_start", phase="batch", total=4)
            for index in (0, 2):
                journal.append("task_result", index=index,
                               key=_keys(items)[index],
                               value=reference.outputs[index])

        resumed = EvaluationEngine().map(
            _cube, items, keys=_keys(items), journal=path
        )
        assert resumed.outputs == reference.outputs
        assert resumed.restored == 2
        assert resumed.executed == 2
        kinds = [r["kind"] for r in read_journal(path)]
        assert kinds.count("task_result") == 4
        assert kinds[-1] == "batch_end"

    def test_completed_journal_recomputes_nothing(self, tmp_path):
        items = [1.0, 2.0]
        path = tmp_path / "batch.jsonl"
        first = EvaluationEngine().map(_cube, items, journal=path)
        replay = EvaluationEngine().map(_cube, items, journal=path)
        assert replay.outputs == first.outputs
        assert replay.restored == 2
        assert replay.executed == 0

    def test_mismatched_journal_rejected(self, tmp_path):
        path = tmp_path / "batch.jsonl"
        EvaluationEngine().map(_cube, [1.0, 2.0], journal=path)
        with pytest.raises(ResumeError, match="not .* of"):
            EvaluationEngine().map(_cube, [1.0, 2.0, 3.0], journal=path)

    @pytest.mark.parametrize("record", [
        {"key": None, "value": 1.0},
        {"index": "abc", "key": None, "value": 1.0},
        {"index": [0], "key": None, "value": 1.0},
        {"index": 0.7, "key": None, "value": 1.0},
        {"index": True, "key": None, "value": 1.0},
        {"index": 2, "key": None, "value": 1.0},
        {"index": 0, "key": None},
    ], ids=[
        "missing-index", "string-index", "list-index", "float-index",
        "bool-index", "out-of-range-index", "missing-value",
    ])
    def test_malformed_task_record_rejected(self, tmp_path, record):
        from repro.runtime import Journal

        path = tmp_path / "batch.jsonl"
        with Journal(path) as journal:
            journal.append("batch_start", phase="batch", total=2)
            journal.append("task_result", **record)
        with pytest.raises(ResumeError, match=re.escape(str(path))) as exc:
            EvaluationEngine().map(_cube, [1.0, 2.0], journal=path)
        assert "\n" not in str(exc.value)

    def test_duplicate_task_record_rejected(self, tmp_path):
        from repro.runtime import Journal

        path = tmp_path / "batch.jsonl"
        with Journal(path) as journal:
            journal.append("batch_start", phase="batch", total=2)
            journal.append("task_result", index=0, key=None, value=1.0)
            journal.append("task_result", index=0, key=None, value=99.0)
        with pytest.raises(
            ResumeError,
            match=re.escape(f"journal {path} holds two task_result records "
                            "for index 0"),
        ) as exc:
            EvaluationEngine().map(math.sqrt, [1.0, 4.0], journal=path)
        assert "\n" not in str(exc.value)

    def test_changed_keys_rejected_on_resume(self, tmp_path):
        path = tmp_path / "batch.jsonl"
        items = [1.0, 2.0]
        EvaluationEngine().map(_cube, items, keys=_keys(items), journal=path)
        changed = [canonical_key("cube", x=float(x), extra=1) for x in items]
        with pytest.raises(ResumeError, match="different cache key"):
            EvaluationEngine().map(_cube, items, keys=changed, journal=path)

    def test_non_json_results_rejected_under_a_journal(self, tmp_path):
        path = tmp_path / "batch.jsonl"
        with pytest.raises(EngineError, match="JSON"):
            EvaluationEngine().map(
                lambda x: {1, 2}, [0], journal=path
            )


class TestSupervision:
    def test_worker_kill_recovers_bit_identically(self, tmp_path):
        items = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
        reference = EvaluationEngine().map(_cube, items)
        plan = ChaosPlan(state_dir=str(tmp_path / "state"), kill_tasks=(2,))
        survived = EvaluationEngine(workers=2, chaos=plan).map(_cube, items)
        assert survived.outputs == reference.outputs
        assert survived.respawns == 1
        assert plan.fired() == 1

    def test_poison_task_exhausts_the_respawn_budget(self):
        engine = EvaluationEngine(workers=2, max_respawns=2)
        with pytest.raises(EngineError, match="died 3 times.*giving up"):
            engine.map(_die, [1, 2, 3, 4])

    def test_kill_reaching_the_serial_backend_is_a_chaos_error(self, tmp_path):
        # A kill can only take down a pool worker; firing it in the
        # supervising process is a harness misconfiguration.
        plan = ChaosPlan(state_dir=str(tmp_path / "state"), kill_tasks=(0,))
        with pytest.raises(ChaosError, match="workers >= 2"):
            EvaluationEngine(chaos=plan).map(_cube, [1.0, 2.0])

    def test_unplanned_worker_death_recovers(self, tmp_path):
        # A worker that really dies (no chaos plan) on the plain submit
        # path costs one respawn and nothing else.
        marker = tmp_path / "die-once"
        items = [0.0, 1.0, 2.0, 3.0]
        survived = EvaluationEngine(workers=2).map(
            functools.partial(_die_once, str(marker)), items
        )
        assert survived.outputs == (0.0, 2.0, 4.0, 6.0)
        assert survived.respawns == 1


class TestTaskRetry:
    def test_transient_faults_retry_to_identical_outputs(self, tmp_path):
        items = [1.0, 2.0, 3.0, 4.0, 5.0]
        reference = EvaluationEngine().map(_cube, items).outputs
        for workers in (1, 2):
            plan = plan_transient_faults(
                len(items), seed=0, count=2,
                state_dir=str(tmp_path / f"state-{workers}"),
            )
            result = EvaluationEngine(
                workers=workers, chaos=plan, retry=TaskRetryPolicy()
            ).map(_cube, items)
            assert result.outputs == reference
            assert result.retries == 2
            assert plan.fired() == 2

    def test_exhausted_retries_reraise_the_original_error(self, tmp_path):
        plan = ChaosPlan(
            state_dir=str(tmp_path / "state"),
            transient_tasks=(0,), transient_failures=5,
        )
        engine = EvaluationEngine(
            chaos=plan, retry=TaskRetryPolicy(max_attempts=2)
        )
        with pytest.raises(TransientTaskError, match="injected transient"):
            engine.map(_cube, [1.0])
        assert plan.fired() == 2  # exactly max_attempts attempts were made

    def test_non_retryable_errors_are_not_retried(self):
        engine = EvaluationEngine(retry=TaskRetryPolicy())
        with pytest.raises(ValueError, match="boom 42"):
            engine.map(_boom_on_42, [41, 42])

    def test_attempt_counts_recorded_in_the_journal(self, tmp_path):
        plan = ChaosPlan(
            state_dir=str(tmp_path / "state"), transient_tasks=(1,)
        )
        path = tmp_path / "batch.jsonl"
        EvaluationEngine(chaos=plan, retry=TaskRetryPolicy()).map(
            _cube, [1.0, 2.0, 3.0], journal=path
        )
        by_index = {
            r["index"]: r for r in read_journal(path)
            if r["kind"] == "task_result"
        }
        assert by_index[0]["attempts"] == 1
        assert by_index[1]["attempts"] == 2
        assert by_index[2]["attempts"] == 1


class TestExceptionPropagation:
    def test_worker_errors_match_serial_type_and_message(self):
        items = [40, 41, 42, 43]
        with pytest.raises(ValueError) as serial_exc:
            EvaluationEngine().map(_boom_on_42, items)
        with pytest.raises(ValueError) as parallel_exc:
            EvaluationEngine(workers=2).map(_boom_on_42, items)
        assert type(parallel_exc.value) is type(serial_exc.value)
        assert str(parallel_exc.value) == str(serial_exc.value) == "boom 42"


class TestHeartbeat:
    def test_one_event_per_completed_task(self):
        events = []
        engine = EvaluationEngine(heartbeat=events.append)
        engine.map(_cube, [1.0, 2.0], phase="demo")
        assert all(event.phase == "demo" for event in events)
        assert events[-1].completed == 2
        assert events[-1].total == 2


class TestReportIntegration:
    def test_report_is_identical_through_the_engine(self):
        from repro.ta import TravelAgencyModel
        from repro.ta.report import availability_report

        model = TravelAgencyModel()
        reference = availability_report(model)
        engine = availability_report(model, engine=EvaluationEngine())
        assert engine == reference

    def test_report_is_identical_under_workers(self):
        from repro.ta import TravelAgencyModel
        from repro.ta.report import availability_report

        model = TravelAgencyModel()
        reference = availability_report(model)
        parallel = availability_report(
            model, engine=EvaluationEngine(workers=2)
        )
        assert parallel == reference
