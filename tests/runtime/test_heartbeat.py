"""Tests for the progress-heartbeat protocol."""

import io

import pytest

from repro.errors import SimulationError
from repro.runtime import ConsoleHeartbeat, ProgressEvent, Watchdog


class FakeClock:
    def __init__(self, start=0.0):
        self.now = start

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


class TestProgressEvent:
    def test_render_with_total(self):
        event = ProgressEvent(
            phase="campaign A/null", completed=2, total=8, message="A=0.97"
        )
        assert event.render() == "[campaign A/null] 2/8 — A=0.97"

    def test_render_without_total(self):
        assert ProgressEvent(phase="p", completed=3).render() == "[p] 3"


class TestConsoleHeartbeat:
    def test_prints_first_and_final_events_despite_throttle(self):
        stream = io.StringIO()
        clock = FakeClock()
        heartbeat = ConsoleHeartbeat(
            stream=stream, min_interval=60.0, clock=clock
        )
        heartbeat(ProgressEvent(phase="p", completed=0, total=3))
        heartbeat(ProgressEvent(phase="p", completed=1, total=3))  # throttled
        heartbeat(ProgressEvent(phase="p", completed=2, total=3))  # throttled
        heartbeat(ProgressEvent(phase="p", completed=3, total=3))  # boundary
        lines = stream.getvalue().splitlines()
        assert lines == ["[p] 0/3", "[p] 3/3"]

    def test_prints_again_after_interval(self):
        stream = io.StringIO()
        clock = FakeClock()
        heartbeat = ConsoleHeartbeat(
            stream=stream, min_interval=5.0, clock=clock
        )
        heartbeat(ProgressEvent(phase="p", completed=1, total=10))
        clock.advance(6.0)
        heartbeat(ProgressEvent(phase="p", completed=2, total=10))
        assert len(stream.getvalue().splitlines()) == 2


class TestWatchdog:
    def test_records_beats(self):
        watchdog = Watchdog()
        watchdog(ProgressEvent(phase="p", completed=1, total=2))
        assert len(watchdog.beats) == 1
        assert watchdog.last_event.completed == 1

    def test_assert_alive_passes_within_window(self):
        clock = FakeClock()
        watchdog = Watchdog(clock=clock)
        watchdog(ProgressEvent(phase="p", completed=1))
        clock.advance(1.0)
        watchdog.assert_alive(within=5.0)

    def test_assert_alive_raises_when_starved(self):
        clock = FakeClock()
        watchdog = Watchdog(clock=clock)
        watchdog(ProgressEvent(phase="p", completed=1))
        clock.advance(10.0)
        with pytest.raises(SimulationError, match="starved"):
            watchdog.assert_alive(within=5.0)

    def test_assert_alive_raises_with_no_beats_at_all(self):
        with pytest.raises(SimulationError, match="no heartbeat"):
            Watchdog().assert_alive(within=5.0)

    def test_campaign_emits_heartbeats(self):
        from repro.engine import EvaluationEngine
        from repro.resilience import run_campaign
        from repro.ta import CLASS_A, TravelAgencyModel

        watchdog = Watchdog()
        model = TravelAgencyModel()
        run_campaign(
            model.hierarchical_model, CLASS_A,
            horizon=200.0, replications=2, seed=0,
            engine=EvaluationEngine(heartbeat=watchdog),
        )
        # One "starting" beat plus one per replication.
        assert [e.completed for e in watchdog.beats] == [0, 1, 2]
        assert watchdog.last_event.total == 2
        watchdog.assert_alive(within=60.0)
