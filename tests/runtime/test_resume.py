"""Crash/resume bit-identity: the central robustness property.

A campaign killed after any number of completed replications, then
resumed from its journal, must produce a ``CampaignResult`` equal —
float-for-float — to the uninterrupted run with the same seed.  This
holds because replication ``i`` always draws from stream ``i`` of
``SeedSequence(seed).spawn(replications)`` and journal floats round-trip
exactly; the property-based test below checks every kill point the
strategy explores.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import EvaluationEngine
from repro.errors import CancelledError, DeadlineExceededError, ResumeError
from repro.resilience import RecurrentOutage, resume_campaign, run_campaign
from repro.runtime import Budget, CancellationToken, Journal, read_journal
from repro.ta import CLASS_A, CLASS_B, TravelAgencyModel

REPLICATIONS = 5
HORIZON = 300.0


@pytest.fixture(scope="module")
def model():
    return TravelAgencyModel().hierarchical_model


def _interrupted_then_resumed(model, path, kill_after, seed, scenario=None):
    """Run a campaign, kill it after *kill_after* replications, resume."""
    token = CancellationToken()

    def assassin(event):
        # The heartbeat fires after each completed replication; cancel
        # once the target count is durably journaled, exactly as a
        # wall-clock deadline would between replications.
        if event.completed == kill_after:
            token.cancel(f"killed after replication {kill_after}")

    with pytest.raises(CancelledError):
        run_campaign(
            model, CLASS_A, scenario=scenario,
            horizon=HORIZON, replications=REPLICATIONS, seed=seed,
            journal=path,
            engine=EvaluationEngine(cancellation=token, heartbeat=assassin),
        )
    journaled = read_journal(path)
    completed = [r for r in journaled if r["kind"] == "task_result"]
    assert len(completed) == kill_after  # the kill landed where intended
    assert not any(r["kind"] == "batch_end" for r in journaled)
    return resume_campaign(path, model, CLASS_A, scenario=scenario)


class TestBitIdenticalResume:
    @settings(max_examples=8, deadline=None)
    @given(
        kill_after=st.integers(min_value=0, max_value=REPLICATIONS - 1),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_any_kill_point_resumes_bit_identically(
        self, model, tmp_path_factory, kill_after, seed
    ):
        path = tmp_path_factory.mktemp("resume") / "campaign.jsonl"
        uninterrupted = run_campaign(
            model, CLASS_A,
            horizon=HORIZON, replications=REPLICATIONS, seed=seed,
        )
        resumed = _interrupted_then_resumed(model, path, kill_after, seed)
        # Frozen dataclasses of floats: == is exact, not approximate.
        assert resumed == uninterrupted

    def test_resume_under_fault_scenario(self, model, tmp_path):
        scenario = RecurrentOutage(
            frozenset({"lan-segment"}), episode_rate=0.02, mean_duration=5.0
        )
        uninterrupted = run_campaign(
            model, CLASS_A, scenario=scenario,
            horizon=HORIZON, replications=REPLICATIONS, seed=11,
        )
        resumed = _interrupted_then_resumed(
            model, tmp_path / "c.jsonl", 2, 11, scenario=scenario
        )
        assert resumed == uninterrupted

    def test_journal_ends_in_same_state_as_uninterrupted_run(
        self, model, tmp_path
    ):
        full_path = tmp_path / "full.jsonl"
        run_campaign(
            model, CLASS_A,
            horizon=HORIZON, replications=REPLICATIONS, seed=3,
            journal=full_path,
        )
        killed_path = tmp_path / "killed.jsonl"
        _interrupted_then_resumed(model, killed_path, 2, 3)

        def payload(records):
            # Same records modulo the envelope (seq is identical anyway)
            # and batch_end's count of tasks the finishing run executed.
            return [
                {k: v for k, v in r.items() if k not in ("meta", "executed")}
                for r in records
            ]

        assert payload(read_journal(killed_path)) == payload(
            read_journal(full_path)
        )


class TestDeadlineLeavesResumableJournal:
    def test_deadline_partial_journal_resumes(self, model, tmp_path):
        class FakeClock:
            now = 0.0

            def __call__(self):
                return self.now

        clock = FakeClock()
        token = Budget(wall_clock=5.0).start(clock=clock)
        token.clock_stride = 1

        def expire_after_two(event):
            if event.completed == 2:
                clock.now = 10.0

        path = tmp_path / "deadline.jsonl"
        with pytest.raises(DeadlineExceededError):
            run_campaign(
                model, CLASS_A,
                horizon=HORIZON, replications=REPLICATIONS, seed=5,
                journal=path,
                engine=EvaluationEngine(
                    cancellation=token, heartbeat=expire_after_two
                ),
            )
        resumed = resume_campaign(path, model, CLASS_A)
        uninterrupted = run_campaign(
            model, CLASS_A,
            horizon=HORIZON, replications=REPLICATIONS, seed=5,
        )
        assert resumed == uninterrupted


class TestResumeValidation:
    def _killed_journal(self, model, tmp_path, **kwargs):
        path = tmp_path / "campaign.jsonl"
        token = CancellationToken()

        def assassin(event):
            if event.completed == 1:
                token.cancel("kill")

        with pytest.raises(CancelledError):
            run_campaign(
                model, CLASS_A,
                horizon=HORIZON, replications=REPLICATIONS, seed=0,
                journal=path,
                engine=EvaluationEngine(
                    cancellation=token, heartbeat=assassin
                ),
                **kwargs,
            )
        return path

    def test_rerun_over_existing_journal_refused(self, model, tmp_path):
        path = self._killed_journal(model, tmp_path)
        with pytest.raises(ResumeError, match="resume"):
            run_campaign(
                model, CLASS_A,
                horizon=HORIZON, replications=REPLICATIONS, seed=0,
                journal=path,
            )

    def test_wrong_user_class_refused(self, model, tmp_path):
        path = self._killed_journal(model, tmp_path)
        with pytest.raises(ResumeError, match="user class"):
            resume_campaign(path, model, CLASS_B)

    def test_wrong_scenario_refused(self, model, tmp_path):
        path = self._killed_journal(model, tmp_path)
        with pytest.raises(ResumeError, match="scenario"):
            resume_campaign(
                path, model, CLASS_A,
                scenario=RecurrentOutage(
                    frozenset({"lan-segment"}),
                    episode_rate=0.02,
                    mean_duration=5.0,
                ),
            )

    def test_changed_model_refused(self, model, tmp_path):
        path = self._killed_journal(model, tmp_path)
        drifted = (
            TravelAgencyModel()
            .with_params(web_failure_rate=0.05)
            .hierarchical_model
        )
        with pytest.raises(ResumeError, match="model or its parameters"):
            resume_campaign(path, drifted, CLASS_A)

    def test_empty_journal_refused(self, model, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        with pytest.raises(ResumeError, match="empty.jsonl"):
            resume_campaign(path, model, CLASS_A)

    def test_resume_of_completed_campaign_is_a_no_op_rerun(
        self, model, tmp_path
    ):
        path = tmp_path / "done.jsonl"
        done = run_campaign(
            model, CLASS_A,
            horizon=HORIZON, replications=REPLICATIONS, seed=9,
            journal=path,
        )
        before = path.read_bytes()
        again = resume_campaign(path, model, CLASS_A)
        assert again == done
        assert path.read_bytes() == before  # nothing re-simulated


class TestResumeProgress:
    def test_beats_count_completed_replications(
        self, model, tmp_path, rewrite_journal
    ):
        # A journal holding only replication 1 of 3: the beats count
        # what is done (restored plus resumed), not replication indices.
        path = tmp_path / "campaign.jsonl"
        run_campaign(
            model, CLASS_A, horizon=HORIZON, replications=3, seed=2,
            journal=path,
        )
        start, *replications = read_journal(path)[:4]
        rewrite_journal(path, [start, replications[1]])
        beats = []
        resume_campaign(
            path, model, CLASS_A,
            engine=EvaluationEngine(heartbeat=beats.append),
        )
        assert [(e.completed, e.total) for e in beats] == [
            (1, 3), (2, 3), (3, 3)
        ]


def _set(record, **fields):
    return {**record, **fields}


def _drop(record, name):
    return {k: v for k, v in record.items() if k != name}


class TestMalformedJournal:
    """Each malformed journal fails with one line naming the bad field."""

    @pytest.mark.parametrize("mutate, names", [
        (lambda s, r: [s, _set(r, index=0.7)], "index 0.7"),
        (lambda s, r: [s, _set(r, index=True)], "index True"),
        (lambda s, r: [s, _set(r, index="0")], "index '0'"),
        (lambda s, r: [s, _set(r, index=REPLICATIONS)], "index 5"),
        (lambda s, r: [s, r, r], "two task_result records for index 0"),
        (lambda s, r: [_set(s, replications=True), r], "'replications'"),
        (lambda s, r: [_set(s, seed=-1), r], "'seed'"),
        (lambda s, r: [_drop(s, "horizon"), r], "'horizon'"),
        (lambda s, r: [_drop(s, "user_class"), r], "'user_class'"),
        (lambda s, r: [s, _set(r, value=_drop(
            r["value"], "fraction_total_outage"))],
         "'fraction_total_outage'"),
        (lambda s, r: [s, _set(r, value=_set(
            r["value"], resource_transitions="12"))],
         "'resource_transitions'"),
        (lambda s, r: [s, _set(r, value=[1])], "replication 0 as [1]"),
        (lambda s, r: [s, _drop(r, "value")], "task 0 record has no value"),
        (lambda s, r: [_set(s, kind="campaign_start"), r],
         "'campaign_start'"),
        (lambda s, r: [_set(s, total=REPLICATIONS - 1), r], "of 4 tasks"),
    ], ids=[
        "float-index", "bool-index", "string-index", "out-of-range-index",
        "duplicate-index", "bool-replications", "negative-seed",
        "missing-start-field", "missing-user-class", "missing-result-field",
        "string-result-field", "non-object-result", "missing-result",
        "old-layout-header", "wrong-batch-size",
    ])
    def test_rejected_with_one_line(
        self, model, tmp_path, rewrite_journal, mutate, names
    ):
        path = tmp_path / "campaign.jsonl"
        run_campaign(
            model, CLASS_A, horizon=HORIZON, replications=REPLICATIONS,
            seed=0, journal=path,
        )
        start, first = read_journal(path)[:2]
        rewrite_journal(path, mutate(start, first))
        with pytest.raises(ResumeError) as excinfo:
            resume_campaign(path, model, CLASS_A)
        message = str(excinfo.value)
        assert names in message
        assert str(path) in message
        assert "\n" not in message
