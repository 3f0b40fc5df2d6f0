"""Tests for the streaming SLO monitor: windows, alerts, budgets, CIs."""

import numpy as np
import pytest

from repro.engine import EvaluationEngine
from repro.errors import ObservabilityError, ValidationError
from repro.obs.slo import (
    BurnRateWindow,
    PoissonSessionSampler,
    SLOMonitor,
    format_slo_report,
)
from repro.resilience import ScheduledOutage, run_campaign
from repro.ta import CLASS_A, CLASS_B, TravelAgencyModel


class TestBurnRateWindow:
    def test_empty_window_is_fully_available(self):
        window = BurnRateWindow(10.0)
        assert window.availability() == 1.0
        assert window.burn_rate(0.99) == 0.0

    def test_availability_is_evidence_ratio(self):
        window = BurnRateWindow(10.0)
        window.add(1.0, good=0.5, total=1.0)
        window.add(2.0, good=1.0, total=1.0)
        assert window.availability() == pytest.approx(0.75)

    def test_eviction_slides_the_window(self):
        window = BurnRateWindow(10.0)
        window.add(0.0, good=0.0, total=5.0)  # old outage evidence
        window.add(20.0, good=1.0, total=1.0)  # slid far past it
        assert window.availability() == 1.0

    def test_burn_rate_measures_budget_spend(self):
        window = BurnRateWindow(10.0)
        window.add(1.0, good=0.95, total=1.0)  # 5% down, 1% budget
        assert window.burn_rate(0.99) == pytest.approx(5.0)

    def test_zero_budget_objective(self):
        window = BurnRateWindow(10.0)
        window.add(1.0, good=1.0, total=1.0)
        assert window.burn_rate(1.0) == 0.0
        window.add(2.0, good=0.0, total=1.0)
        assert window.burn_rate(1.0) == float("inf")

    def test_rejects_non_positive_length(self):
        with pytest.raises(ValidationError):
            BurnRateWindow(0.0)


class TestSLOMonitorValidation:
    def test_rejects_objective_outside_unit_interval(self):
        for objective in (0.0, 1.0, -0.5, 1.5):
            with pytest.raises(ObservabilityError, match="objective"):
                SLOMonitor(objective=objective)

    def test_rejects_empty_windows(self):
        with pytest.raises(ObservabilityError, match="window"):
            SLOMonitor(objective=0.99, windows=())

    def test_rejects_bad_session_batch(self):
        monitor = SLOMonitor(objective=0.99)
        with pytest.raises(ObservabilityError, match="successes"):
            monitor.sessions_at(1.0, successes=3, trials=2)

    def test_windows_sorted_ascending(self):
        monitor = SLOMonitor(objective=0.99, windows=(500.0, 50.0))
        assert [w.length for w in monitor.windows] == [50.0, 500.0]


class TestSLOMonitorAccounting:
    def test_cumulative_availability_is_exact_despite_coalescing(self):
        # Many tiny intervals, far below the evaluation resolution: the
        # coalesced monitor must still report the exact time average.
        monitor = SLOMonitor(objective=0.99, windows=(10.0, 100.0))
        for i in range(1000):
            monitor.interval(i * 0.01, (i + 1) * 0.01, 0.9)
        assert monitor.elapsed == pytest.approx(10.0)
        assert monitor.availability() == pytest.approx(0.9)

    def test_budget_consumed_pro_rated(self):
        monitor = SLOMonitor(objective=0.99, windows=(10.0,))
        monitor.interval(0.0, 100.0, 0.98)  # burning 2x the 1% budget
        assert monitor.budget_consumed() == pytest.approx(2.0)

    def test_session_only_monitor_uses_success_fraction(self):
        monitor = SLOMonitor(objective=0.9, windows=(10.0,))
        for t in range(10):
            monitor.session(float(t), t >= 2)  # 8 of 10 served
        assert monitor.availability() == pytest.approx(0.8)
        assert monitor.sessions == 10
        assert monitor.served == 8

    def test_no_evidence_is_nan_and_zero_budget(self):
        monitor = SLOMonitor(objective=0.99)
        assert monitor.availability() != monitor.availability()
        assert monitor.budget_consumed() == 0.0
        assert monitor.confidence_interval() is None

    def test_confidence_interval_matches_estimator(self):
        from repro.measurement.estimators import (
            availability_confidence_interval,
        )

        monitor = SLOMonitor(objective=0.99)
        monitor.sessions_at(1.0, successes=90, trials=100)
        assert monitor.confidence_interval() == (
            availability_confidence_interval(90, 100, 0.95)
        )

    def test_summary_collects_everything(self):
        monitor = SLOMonitor(objective=0.9, name="test")
        monitor.interval(0.0, 10.0, 1.0)
        monitor.sessions_at(10.0, successes=9, trials=10)
        summary = monitor.summary()
        assert summary.name == "test"
        assert summary.objective == 0.9
        assert summary.elapsed == 10.0
        assert summary.sessions == 10
        assert summary.served == 9
        assert summary.alerts_fired == 0
        assert not summary.alert_active


class TestAlerting:
    def outage_monitor(self):
        monitor = SLOMonitor(
            objective=0.99, windows=(10.0, 100.0), burn_threshold=5.0
        )
        for t in range(200):
            monitor.interval(float(t), float(t + 1), 1.0)
        return monitor

    def test_fire_needs_every_window(self):
        monitor = self.outage_monitor()
        # A 2-unit blip: the short window burns hot, the long one never
        # reaches the threshold, so no alert fires.
        monitor.interval(200.0, 202.0, 0.0)
        monitor.interval(202.0, 250.0, 1.0)
        assert monitor.alerts == []

    def test_sustained_outage_fires_then_clears(self):
        monitor = self.outage_monitor()
        for t in range(200, 240):
            monitor.interval(float(t), float(t + 1), 0.0)
        kinds = [a.kind for a in monitor.alerts]
        assert kinds == ["fire"]
        assert monitor.alert_active
        for t in range(240, 300):
            monitor.interval(float(t), float(t + 1), 1.0)
        kinds = [a.kind for a in monitor.alerts]
        assert kinds == ["fire", "clear"]
        assert not monitor.alert_active

    def test_alert_records_rates_and_threshold(self):
        monitor = self.outage_monitor()
        for t in range(200, 240):
            monitor.interval(float(t), float(t + 1), 0.0)
        (alert,) = monitor.alerts
        assert alert.kind == "fire"
        assert alert.threshold == 5.0
        assert len(alert.burn_rates) == 2
        assert all(rate >= 5.0 for rate in alert.burn_rates)


class TestPoissonSessionSampler:
    def test_sessions_follow_interval_availability(self):
        monitor = SLOMonitor(objective=0.99, windows=(100.0,))
        sampler = PoissonSessionSampler(
            monitor, rate=5.0, rng=np.random.default_rng(0)
        )
        sampler.interval(0.0, 1000.0, 0.9)
        assert monitor.sessions > 0
        assert monitor.served / monitor.sessions == pytest.approx(
            0.9, abs=0.02
        )

    def test_degenerate_availabilities_skip_binomial(self):
        monitor = SLOMonitor(objective=0.99, windows=(100.0,))
        sampler = PoissonSessionSampler(
            monitor, rate=5.0, rng=np.random.default_rng(0)
        )
        sampler.interval(0.0, 100.0, 0.0)
        assert monitor.served == 0
        down_trials = monitor.sessions
        sampler.interval(100.0, 200.0, 1.0)
        assert monitor.served == monitor.sessions - down_trials

    def test_rejects_non_positive_rate(self):
        monitor = SLOMonitor(objective=0.99)
        with pytest.raises(ValidationError):
            PoissonSessionSampler(monitor, rate=0.0, rng=np.random.default_rng(0))


class TestFormatSLOReport:
    def test_renders_summary_and_alert_log(self):
        monitor = SLOMonitor(
            objective=0.99, windows=(10.0, 100.0), burn_threshold=5.0,
            name="class A",
        )
        for t in range(200):
            monitor.interval(float(t), float(t + 1), 1.0)
        for t in range(200, 240):
            monitor.interval(float(t), float(t + 1), 0.0)
        text = format_slo_report(
            [monitor.summary()],
            alerts=[(monitor.name, a) for a in monitor.alerts],
        )
        assert "class A" in text
        assert "FIRE" in text
        assert "0.990000" in text

    def test_report_without_sessions_shows_na(self):
        monitor = SLOMonitor(objective=0.99, name="x")
        monitor.interval(0.0, 10.0, 1.0)
        text = format_slo_report([monitor.summary()])
        assert "n/a" in text


class TestCampaignIntegration:
    """The ISSUE acceptance scenario, end to end."""

    def test_monitored_campaign_agrees_with_eq10_within_ci(self):
        model = TravelAgencyModel().hierarchical_model
        for user_class in (CLASS_A, CLASS_B):
            analytic = model.user_availability(user_class).availability
            monitor = SLOMonitor(objective=analytic, name=user_class.name)
            sampler = PoissonSessionSampler(
                monitor, rate=2.0, rng=np.random.default_rng(42)
            )
            run_campaign(
                model, user_class, horizon=3000.0, replications=4,
                seed=11, observer=sampler,
            )
            low, high = monitor.confidence_interval()
            assert low <= analytic <= high, (
                f"{user_class.name}: eq.-(10) value {analytic} outside "
                f"the monitor's 95% CI [{low}, {high}]"
            )

    def test_alert_fires_during_injected_outage_and_clears_after(self):
        model = TravelAgencyModel().hierarchical_model
        analytic = model.user_availability(CLASS_A).availability
        monitor = SLOMonitor(
            objective=analytic, windows=(50.0, 500.0), burn_threshold=5.0,
            name=CLASS_A.name,
        )
        outage = ScheduledOutage(
            frozenset({"internet-link"}), start=1000.0, duration=60.0
        )
        run_campaign(
            model, CLASS_A, outage, horizon=2500.0, replications=1,
            seed=3, observer=monitor,
        )
        fires = [a for a in monitor.alerts if a.kind == "fire"]
        clears = [a for a in monitor.alerts if a.kind == "clear"]
        assert fires, "no alert fired during the injected outage"
        # Fired while the outage was in force...
        assert any(1000.0 <= a.time <= 1120.0 for a in fires)
        # ...and cleared again after restore.
        assert clears and clears[-1].time > fires[0].time
        assert not monitor.alert_active

    def test_campaign_timeline_spans_replications(self):
        model = TravelAgencyModel().hierarchical_model
        analytic = model.user_availability(CLASS_A).availability
        monitor = SLOMonitor(objective=analytic)
        run_campaign(
            model, CLASS_A, horizon=400.0, replications=3, seed=5,
            observer=monitor,
        )
        assert monitor.elapsed == pytest.approx(1200.0)

    def test_observer_with_workers_rejected(self):
        model = TravelAgencyModel().hierarchical_model
        monitor = SLOMonitor(objective=0.9)
        with pytest.raises(ValidationError, match="workers"):
            run_campaign(
                model, CLASS_A, horizon=100.0, replications=2, seed=1,
                engine=EvaluationEngine(workers=2), observer=monitor,
            )

    def test_observer_does_not_change_results(self):
        model = TravelAgencyModel().hierarchical_model
        monitor = SLOMonitor(objective=0.9)
        watched = run_campaign(
            model, CLASS_A, horizon=500.0, replications=2, seed=9,
            observer=monitor,
        )
        plain = run_campaign(
            model, CLASS_A, horizon=500.0, replications=2, seed=9,
        )
        assert [r.average_user_availability for r in watched.replications] \
            == [r.average_user_availability for r in plain.replications]


class TestSessionHooks:
    def test_monte_carlo_sessions_stream_into_monitor(self):
        model = TravelAgencyModel().hierarchical_model
        from repro.sim import estimate_user_availability

        monitor = SLOMonitor(objective=0.9)
        estimate = estimate_user_availability(
            model, CLASS_A, 400, np.random.default_rng(1),
            on_session=monitor.session,
        )
        assert monitor.sessions == 400
        assert monitor.availability() == pytest.approx(estimate)

    def test_retry_simulation_reports_final_outcomes(self):
        from repro.resilience import RetryPolicy
        from repro.sim import estimate_user_availability_with_retries

        model = TravelAgencyModel().hierarchical_model
        monitor = SLOMonitor(objective=0.9)
        result = estimate_user_availability_with_retries(
            model, CLASS_A, RetryPolicy(max_retries=2, persistence=0.8),
            sessions=300, rng=np.random.default_rng(2),
            on_session=monitor.session,
        )
        assert monitor.sessions == 300
        assert monitor.served == round(result.served_fraction * 300)
