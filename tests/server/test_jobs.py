"""Job-lifecycle tests: cancellation races and journal integrity."""

import asyncio
import time

import pytest

from repro.obs import MetricsRegistry
from repro.runtime import read_journal
from repro.server import JobManager, TERMINAL_STATUSES
from repro.server.work import execute_job


async def wait_until(predicate, timeout=10.0, message="condition"):
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() >= deadline:
            raise AssertionError(f"timed out waiting for {message}")
        await asyncio.sleep(0.01)


def run(coroutine):
    return asyncio.run(coroutine)


def make_manager(**kwargs):
    kwargs.setdefault("slots", 1)
    kwargs.setdefault("capacity", 4)
    return JobManager(execute_job, **kwargs)


class TestJobDocument:
    def test_profile_swapped_for_link(self):
        from repro.server.jobs import Job

        job = Job(id="job-7", kind="sweep", spec={}, status="done")
        job.result = {"text": "t", "profile": {"attribution": {}}}
        document = job.to_dict()
        assert document["result"]["profile"] == {
            "href": "/v1/jobs/job-7/profile"
        }
        # The stored result keeps the real document (it backs the
        # /profile route and the journal).
        assert job.result["profile"] == {"attribution": {}}

    def test_profile_free_result_passes_through(self):
        from repro.server.jobs import Job

        job = Job(id="job-8", kind="sweep", spec={}, status="done")
        job.result = {"text": "t"}
        assert job.to_dict()["result"] == {"text": "t"}


class TestCancellationRaces:
    def test_cancel_queued_job_never_runs(self):
        async def scenario():
            manager = make_manager()
            await manager.start()
            try:
                blocker = manager.submit("probe", {"hold": 30.0})
                queued = manager.submit("probe", {"hold": 30.0})
                await wait_until(
                    lambda: blocker.status == "running", message="blocker"
                )
                assert queued.status == "queued"
                settled = manager.cancel(queued.id)
                assert settled.status == "cancelled"
                assert settled.started is None  # it never got a slot
                # The freed queue spot is immediately reusable.
                assert manager.admission.in_system == 1
                manager.cancel(blocker.id)
                await wait_until(
                    lambda: blocker.status == "cancelled",
                    message="blocker cancellation",
                )
            finally:
                await manager.stop()

        run(scenario())

    def test_cancel_twice_is_idempotent(self):
        async def scenario():
            manager = make_manager()
            await manager.start()
            try:
                job = manager.submit("probe", {"hold": 30.0})
                await wait_until(lambda: job.status == "running")
                first = manager.cancel(job.id)
                await wait_until(lambda: job.status == "cancelled")
                second = manager.cancel(job.id)
                assert first is second is job
                assert second.status == "cancelled"
            finally:
                await manager.stop()

        run(scenario())

    def test_cancel_after_completion_keeps_done(self):
        async def scenario():
            manager = make_manager()
            await manager.start()
            try:
                job = manager.submit("probe", {"hold": 0.0})
                await wait_until(lambda: job.status in TERMINAL_STATUSES)
                assert job.status == "done"
                settled = manager.cancel(job.id)
                assert settled.status == "done"
                assert settled.result == {"held_seconds": 0.0}
            finally:
                await manager.stop()

        run(scenario())

    def test_cancel_unknown_job_is_a_key_error(self):
        async def scenario():
            manager = make_manager()
            await manager.start()
            try:
                with pytest.raises(KeyError):
                    manager.cancel("job-999999")
            finally:
                await manager.stop()

        run(scenario())

    def test_running_cancel_resolves_cancelled(self):
        async def scenario():
            manager = make_manager()
            await manager.start()
            try:
                job = manager.submit("probe", {"hold": 30.0})
                await wait_until(lambda: job.status == "running")
                manager.cancel(job.id)
                assert job.cancel_requested
                await wait_until(lambda: job.status in TERMINAL_STATUSES)
                assert job.status == "cancelled"
                assert manager.admission.in_system == 0
            finally:
                await manager.stop()

        run(scenario())


class TestJournalIntegrity:
    def journal_records(self, path):
        return list(read_journal(path, missing_ok=True))

    def test_exactly_one_terminal_record_per_job(self, tmp_path):
        path = tmp_path / "jobs.jsonl"

        async def scenario():
            manager = make_manager(journal=path)
            await manager.start()
            try:
                blocker = manager.submit("probe", {"hold": 30.0})
                queued = manager.submit("probe", {"hold": 30.0})
                await wait_until(lambda: blocker.status == "running")
                # Hammer the queued job with repeated cancels.
                for _ in range(3):
                    manager.cancel(queued.id)
                manager.cancel(blocker.id)
                await wait_until(
                    lambda: blocker.status in TERMINAL_STATUSES
                )
                manager.cancel(blocker.id)  # post-terminal no-op
            finally:
                await manager.stop()
            return blocker.id, queued.id

        blocker_id, queued_id = run(scenario())
        records = self.journal_records(path)
        for job_id in (blocker_id, queued_id):
            submitted = [
                r for r in records
                if r["kind"] == "job_submitted" and r["id"] == job_id
            ]
            results = [
                r for r in records
                if r["kind"] == "job_result" and r["id"] == job_id
            ]
            assert len(submitted) == 1
            assert len(results) == 1
            assert results[0]["status"] == "cancelled"

    def test_restart_restores_results_and_reruns_interrupted(self, tmp_path):
        path = tmp_path / "jobs.jsonl"

        async def first_life():
            manager = make_manager(journal=path)
            await manager.start()
            try:
                done = manager.submit("probe", {"hold": 0.0})
                await wait_until(lambda: done.status == "done")
                interrupted = manager.submit("probe", {"hold": 30.0})
                await wait_until(lambda: interrupted.status == "running")
            finally:
                # Shutdown writes no terminal record for the running job.
                await manager.stop()
            return done.id, interrupted.id

        done_id, interrupted_id = run(first_life())

        async def second_life():
            manager = make_manager(journal=path)
            restored_done = manager.get(done_id)
            assert restored_done.status == "done"
            assert restored_done.result == {"held_seconds": 0.0}
            interrupted = manager.get(interrupted_id)
            assert interrupted.status not in TERMINAL_STATUSES
            assert interrupted.restored
            await manager.start()
            try:
                # The interrupted job re-runs; cancel it to settle fast.
                await wait_until(lambda: interrupted.status == "running")
                manager.cancel(interrupted.id)
                await wait_until(
                    lambda: interrupted.status in TERMINAL_STATUSES
                )
            finally:
                await manager.stop()

        run(second_life())
        results = [
            r for r in self.journal_records(path)
            if r["kind"] == "job_result" and r["id"] == interrupted_id
        ]
        assert len(results) == 1
        assert results[0]["status"] == "cancelled"

    def test_ids_continue_after_restart(self, tmp_path):
        path = tmp_path / "jobs.jsonl"

        async def first_life():
            manager = make_manager(journal=path)
            await manager.start()
            try:
                job = manager.submit("probe", {"hold": 0.0})
                await wait_until(lambda: job.status == "done")
            finally:
                await manager.stop()
            return job.id

        first_id = run(first_life())

        async def second_life():
            manager = make_manager(journal=path)
            await manager.start()
            try:
                job = manager.submit("probe", {"hold": 0.0})
                await wait_until(lambda: job.status == "done")
            finally:
                await manager.stop()
            return job.id

        second_id = run(second_life())
        assert first_id == "job-000001"
        assert second_id == "job-000002"


class TestMalformedJournal:
    """A restored journal is outside input: a bad record is a one-line
    :class:`~repro.errors.ResumeError` naming the journal and field."""

    SUBMITTED = {
        "id": "job-000001", "job_kind": "probe", "spec": {"hold": 0.0},
        "submitted": 1.0,
    }

    def write(self, path, *records):
        from repro.runtime import Journal

        with Journal(path) as journal:
            for kind, fields in records:
                journal.append(kind, **fields)
        return path

    def restore_error(self, path):
        from repro.errors import ResumeError

        with pytest.raises(ResumeError) as excinfo:
            make_manager(journal=path)
        message = str(excinfo.value)
        assert str(path) in message and "\n" not in message
        return message

    @pytest.mark.parametrize("field", ["id", "job_kind", "spec", "submitted"])
    def test_missing_submission_field(self, tmp_path, field):
        fields = {k: v for k, v in self.SUBMITTED.items() if k != field}
        path = self.write(tmp_path / "j.jsonl", ("job_submitted", fields))
        assert repr(field) in self.restore_error(path)

    def test_non_object_spec_is_not_restored(self, tmp_path):
        path = self.write(tmp_path / "j.jsonl", (
            "job_submitted", {**self.SUBMITTED, "spec": [1, 2]}
        ))
        assert "'spec'" in self.restore_error(path)

    def test_restored_spec_is_revalidated(self, tmp_path):
        path = self.write(tmp_path / "j.jsonl", (
            "job_submitted",
            {**self.SUBMITTED, "job_kind": "sweep", "spec": {"figure": "13"}},
        ))
        message = self.restore_error(path)
        assert "'spec'" in message and "figure" in message

    def test_non_terminal_result_status(self, tmp_path):
        path = self.write(
            tmp_path / "j.jsonl",
            ("job_submitted", self.SUBMITTED),
            ("job_result", {"id": "job-000001", "status": "queued"}),
        )
        assert "'status'" in self.restore_error(path)

    def test_restored_spec_is_normalized(self, tmp_path):
        path = self.write(tmp_path / "j.jsonl", (
            "job_submitted",
            {**self.SUBMITTED, "job_kind": "sweep", "spec": {}},
        ))
        manager = make_manager(journal=path)
        run(manager.stop())  # closes the journal; no worker ever ran
        assert manager.get("job-000001").spec["figure"] == "11"

    def test_serve_exits_2_with_one_line(self, tmp_path, capsys):
        from repro.cli import main

        fields = {k: v for k, v in self.SUBMITTED.items() if k != "spec"}
        path = self.write(tmp_path / "j.jsonl", ("job_submitted", fields))
        assert main(["serve", "--port", "0", "--journal", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "'spec'" in err
        assert "Traceback" not in err


class TestRejectionAndMetrics:
    def test_rejection_counts_and_metric(self):
        registry = MetricsRegistry()

        async def scenario():
            manager = make_manager(slots=1, capacity=1, metrics=registry)
            await manager.start()
            try:
                accepted = manager.submit("probe", {"hold": 30.0})
                assert accepted is not None
                rejected = manager.submit("probe", {"hold": 30.0})
                assert rejected is None
                manager.cancel(accepted.id)
                await wait_until(
                    lambda: accepted.status in TERMINAL_STATUSES
                )
            finally:
                await manager.stop()

        run(scenario())
        assert registry.value(
            "server_admission_rejections", kind="probe"
        ) == 1.0
        assert registry.value("server_queue_depth") == 0.0
        assert registry.value(
            "server_jobs", kind="probe", status="cancelled"
        ) == 1.0

    def test_failed_job_resolves_failed_with_error(self):
        async def scenario():
            def runner(kind, spec, token, progress, metrics):
                raise RuntimeError("boom")

            manager = JobManager(runner, slots=1, capacity=2)
            await manager.start()
            try:
                job = manager.submit("probe", {"hold": 0.0})
                await wait_until(lambda: job.status in TERMINAL_STATUSES)
                assert job.status == "failed"
                assert "boom" in job.error
            finally:
                await manager.stop()

        run(scenario())
