"""Tests for client-side resilience policies (repro.resilience.policies)."""

import math

import numpy as np
import pytest

from repro.engine import EvaluationEngine, TaskGraph, client_policy_task
from repro.errors import ValidationError
from repro.queueing import MMCKQueue
from repro.queueing.responsetime import response_time_survival
from repro.resilience import (
    CircuitBreakerPolicy,
    FarmFaultScenario,
    HedgePolicy,
    RetryPolicy,
    TimeoutPolicy,
    circuit_breaker_availability,
    circuit_breaker_chain,
    compare_client_policies,
    evaluate_policy_cell,
    format_policy_comparison,
    policy_label,
    request_policy_availability,
    session_outcome,
)

FARM = dict(arrival_rate=350.0, service_rate=100.0, servers=4, capacity=10)


class TestCircuitBreakerPolicy:
    def test_defaults_probe_at_request_rate(self):
        policy = CircuitBreakerPolicy(failure_threshold=3, reset_timeout=10.0)
        assert policy.probe_rate == policy.request_rate

    def test_rejects_zero_threshold(self):
        with pytest.raises(ValidationError, match="failure_threshold"):
            CircuitBreakerPolicy(failure_threshold=0, reset_timeout=1.0)

    def test_rejects_nonpositive_reset(self):
        with pytest.raises(ValidationError, match="reset_timeout"):
            CircuitBreakerPolicy(failure_threshold=1, reset_timeout=0.0)

    def test_rejects_probe_rate_above_request_rate(self):
        with pytest.raises(ValidationError, match="probe_rate"):
            CircuitBreakerPolicy(
                failure_threshold=1, reset_timeout=1.0,
                request_rate=1.0, probe_rate=2.0,
            )


class TestCircuitBreakerChain:
    def test_state_space(self):
        chain = circuit_breaker_chain(
            0.5, CircuitBreakerPolicy(failure_threshold=3, reset_timeout=2.0)
        )
        assert len(chain.states) == 5  # 3 closed streaks + open + half-open
        assert "open" in chain.states
        assert "half-open" in chain.states

    def test_boundary_availability_rejected(self):
        policy = CircuitBreakerPolicy(failure_threshold=2, reset_timeout=1.0)
        for a in (0.0, 1.0):
            with pytest.raises(ValidationError, match="availability"):
                circuit_breaker_chain(a, policy)

    def test_matches_hand_derived_threshold_one_closed_form(self):
        # f = 1: three states C, O, H.  Solve the balance equations
        # directly and compare against the CTMC route.
        a, lam, reset, probe = 0.7, 2.0, 5.0, 2.0
        policy = CircuitBreakerPolicy(
            failure_threshold=1, reset_timeout=reset, request_rate=lam,
        )
        q = np.zeros((3, 3))
        q[0, 1] = lam * (1 - a)          # C -> O on a failure
        q[1, 2] = 1.0 / reset            # O -> H on the reset timer
        q[2, 0] = probe * a              # H -> C on a successful probe
        q[2, 1] = probe * (1 - a)        # H -> O on a failed probe
        for i in range(3):
            q[i, i] = -q[i].sum()
        pi = np.linalg.lstsq(
            np.vstack([q.T, np.ones(3)]),
            np.array([0.0, 0.0, 0.0, 1.0]),
            rcond=None,
        )[0]
        expected = a * (pi[0] + (probe / lam) * pi[2])
        result = circuit_breaker_availability(a, policy)
        assert result.availability == pytest.approx(expected, abs=1e-12)
        assert result.open_probability == pytest.approx(pi[1], abs=1e-12)


class TestCircuitBreakerAvailability:
    def test_perfect_service_never_trips(self):
        result = circuit_breaker_availability(
            1.0, CircuitBreakerPolicy(failure_threshold=1, reset_timeout=1.0)
        )
        assert result.availability == 1.0
        assert result.closed_probability == 1.0
        assert result.short_circuit_probability == 0.0

    def test_dead_service_cycles_open_and_half_open(self):
        policy = CircuitBreakerPolicy(
            failure_threshold=3, reset_timeout=4.0, request_rate=1.0
        )
        result = circuit_breaker_availability(0.0, policy)
        assert result.availability == 0.0
        assert result.closed_probability == 0.0
        # Open/half-open occupancy: mean sojourns 4.0 and 1/probe = 1.0.
        assert result.open_probability == pytest.approx(4.0 / 5.0)
        assert result.half_open_probability == pytest.approx(1.0 / 5.0)
        # Full probing: every half-open demand is a probe, so only the
        # open state short-circuits.
        assert result.short_circuit_probability == pytest.approx(4.0 / 5.0)

    def test_healthy_service_costs_little(self):
        result = circuit_breaker_availability(
            0.999,
            CircuitBreakerPolicy(failure_threshold=3, reset_timeout=30.0),
        )
        assert result.availability > 0.998
        assert result.protection_cost >= 0.0

    def test_availability_never_exceeds_attempt_availability(self):
        policy = CircuitBreakerPolicy(failure_threshold=2, reset_timeout=5.0)
        for a in (0.1, 0.4, 0.75, 0.95, 0.999):
            result = circuit_breaker_availability(a, policy)
            assert 0.0 <= result.availability <= a + 1e-12
            assert result.protection_cost >= -1e-12

    def test_occupancies_sum_to_one(self):
        result = circuit_breaker_availability(
            0.6,
            CircuitBreakerPolicy(
                failure_threshold=4, reset_timeout=2.0,
                request_rate=3.0, probe_rate=1.0,
            ),
        )
        total = (
            result.closed_probability
            + result.open_probability
            + result.half_open_probability
        )
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_longer_reset_timeout_hurts_when_service_is_healthy(self):
        # A breaker that stays open longer short-circuits more of the
        # demand that would have succeeded.
        a = 0.9
        quick = circuit_breaker_availability(
            a, CircuitBreakerPolicy(failure_threshold=2, reset_timeout=1.0)
        )
        slow = circuit_breaker_availability(
            a, CircuitBreakerPolicy(failure_threshold=2, reset_timeout=50.0)
        )
        assert quick.availability > slow.availability


class TestRequestPolicyValidation:
    def test_timeout_policy_rejects_nonpositive_timeout(self):
        with pytest.raises(ValidationError, match="timeout"):
            TimeoutPolicy(0.0)

    def test_hedge_rejects_delay_at_or_beyond_timeout(self):
        with pytest.raises(ValidationError, match="hedge_delay"):
            HedgePolicy(timeout=0.05, hedge_delay=0.05)

    def test_rejects_unknown_policy_object(self):
        queue = MMCKQueue(**FARM)
        with pytest.raises(ValidationError, match="policy"):
            request_policy_availability(queue, object())


class TestTimeoutAvailability:
    def test_matches_survival_closed_form(self):
        queue = MMCKQueue(**FARM)
        tau = 0.04
        result = request_policy_availability(queue, TimeoutPolicy(tau))
        expected = (1.0 - queue.blocking_probability()) * (
            1.0 - response_time_survival(queue, tau)
        )
        assert result.availability == pytest.approx(expected, abs=1e-12)
        assert result.hedge_probability == 0.0
        assert result.effective_arrival_rate == queue.arrival_rate

    def test_attempt_availability_scales_linearly(self):
        queue = MMCKQueue(**FARM)
        full = request_policy_availability(queue, TimeoutPolicy(0.05))
        half = request_policy_availability(
            queue, TimeoutPolicy(0.05), attempt_availability=0.5
        )
        assert half.availability == pytest.approx(
            0.5 * full.availability, abs=1e-12
        )

    def test_monotone_in_timeout(self):
        queue = MMCKQueue(**FARM)
        values = [
            request_policy_availability(queue, TimeoutPolicy(t)).availability
            for t in (0.01, 0.02, 0.05, 0.1, 0.5)
        ]
        assert values == sorted(values)
        assert values[-1] <= 1.0 - queue.blocking_probability() + 1e-12


class TestHedgeAvailability:
    def test_hedging_beats_plain_timeout_on_a_provisioned_farm(self):
        queue = MMCKQueue(
            arrival_rate=100.0, service_rate=100.0, servers=4, capacity=10
        )
        plain = request_policy_availability(queue, TimeoutPolicy(0.05))
        hedged = request_policy_availability(queue, HedgePolicy(0.05, 0.01))
        assert hedged.availability > plain.availability

    def test_load_feedback_inflates_the_arrival_rate(self):
        queue = MMCKQueue(**FARM)
        result = request_policy_availability(queue, HedgePolicy(0.05, 0.01))
        assert queue.arrival_rate < result.effective_arrival_rate
        assert result.effective_arrival_rate <= 2.0 * queue.arrival_rate
        assert result.iterations >= 1
        # The fixed point is self-consistent: re-deriving the hedge
        # probability from the effective queue reproduces the rate.
        loaded = result.effective_queue(queue)
        blocking = loaded.blocking_probability()
        w = blocking + (1.0 - blocking) * response_time_survival(
            loaded, 0.01
        )
        assert result.effective_arrival_rate == pytest.approx(
            queue.arrival_rate * (1.0 + w), rel=1e-9
        )

    def test_small_blocking_limit_is_min_of_two_response_times(self):
        # With a huge buffer and light load pK ~ 0 and feedback is
        # negligible, so A -> 1 - S(tau) S(tau - d).
        queue = MMCKQueue(
            arrival_rate=10.0, service_rate=100.0, servers=4, capacity=400
        )
        tau, d = 0.05, 0.02
        result = request_policy_availability(queue, HedgePolicy(tau, d))
        s_tau = response_time_survival(queue, tau)
        s_gap = response_time_survival(queue, tau - d)
        assert result.availability == pytest.approx(
            1.0 - s_tau * s_gap, abs=1e-3
        )

    def test_hedging_backfires_on_a_saturated_single_server(self):
        # The feedback doubles load on an already saturated farm —
        # hedging then *loses* to the plain timeout.
        queue = MMCKQueue(
            arrival_rate=100.0, service_rate=100.0, servers=1, capacity=10
        )
        plain = request_policy_availability(queue, TimeoutPolicy(0.05))
        hedged = request_policy_availability(queue, HedgePolicy(0.05, 0.02))
        assert hedged.availability < plain.availability


class TestPolicyLabel:
    def test_labels_are_distinct_and_stable(self):
        labels = [
            policy_label(RetryPolicy(max_retries=2)),
            policy_label(
                CircuitBreakerPolicy(failure_threshold=3, reset_timeout=30.0)
            ),
            policy_label(TimeoutPolicy(0.05)),
            policy_label(HedgePolicy(0.05, 0.02)),
        ]
        assert len(set(labels)) == 4
        assert labels[0] == "retry(k=2, p=1)"
        assert labels[3] == "hedge(t=0.05, d=0.02)"

    def test_rejects_unsupported_type(self):
        with pytest.raises(ValidationError, match="policy"):
            policy_label("not a policy")


class TestFarmFaultScenario:
    def test_rejects_empty_name(self):
        with pytest.raises(ValidationError):
            FarmFaultScenario("", servers_up=1)

    def test_rejects_fractional_servers(self):
        with pytest.raises(ValidationError, match="servers_up"):
            FarmFaultScenario("x", servers_up=1.5)

    def test_rejects_bad_service_availability(self):
        with pytest.raises(ValidationError, match="service_availability"):
            FarmFaultScenario("x", servers_up=1, service_availability=1.5)


class TestEvaluatePolicyCell:
    def test_total_outage_zeroes_every_policy(self):
        scenario = FarmFaultScenario("outage", servers_up=0)
        for policy in (
            RetryPolicy(max_retries=5),
            CircuitBreakerPolicy(failure_threshold=2, reset_timeout=1.0),
            TimeoutPolicy(0.05),
            HedgePolicy(0.05, 0.01),
        ):
            cell = evaluate_policy_cell(
                policy, scenario, 100.0, 100.0, 10
            )
            assert cell.availability == 0.0
            assert cell.attempt_availability == 0.0

    def test_retry_cell_matches_session_outcome(self):
        scenario = FarmFaultScenario(
            "degraded", servers_up=2, service_availability=0.95
        )
        policy = RetryPolicy(max_retries=2)
        cell = evaluate_policy_cell(policy, scenario, 100.0, 100.0, 10)
        queue = MMCKQueue(
            arrival_rate=100.0, service_rate=100.0, servers=2, capacity=10
        )
        attempt = (1.0 - queue.blocking_probability()) * 0.95
        assert cell.attempt_availability == pytest.approx(attempt)
        assert cell.availability == pytest.approx(
            session_outcome(attempt, policy).served
        )

    def test_capacity_never_shrinks_below_servers(self):
        # servers_up above the nominal capacity must still be a valid
        # M/M/c/K (K >= c).
        cell = evaluate_policy_cell(
            TimeoutPolicy(0.05),
            FarmFaultScenario("big", servers_up=20),
            100.0, 100.0, 10,
        )
        assert 0.0 < cell.availability <= 1.0


class TestCompareClientPolicies:
    POLICIES = [
        RetryPolicy(max_retries=3),
        CircuitBreakerPolicy(failure_threshold=3, reset_timeout=30.0),
        TimeoutPolicy(0.05),
        HedgePolicy(0.05, 0.02),
    ]
    SCENARIOS = [
        FarmFaultScenario("nominal", servers_up=4, weight=0.7),
        FarmFaultScenario(
            "degraded", servers_up=2, service_availability=0.95, weight=0.2
        ),
        FarmFaultScenario(
            "critical", servers_up=1, service_availability=0.9, weight=0.1
        ),
    ]

    def run(self, engine=None):
        return compare_client_policies(
            self.POLICIES, self.SCENARIOS,
            arrival_rate=100.0, service_rate=100.0, capacity=10,
            engine=engine,
        )

    def test_grid_is_complete_and_ranked(self):
        report = self.run()
        assert len(report.cells) == 12
        assert len(report.ranking) == 4
        means = [r.mean_availability for r in report.ranking]
        assert means == sorted(means, reverse=True)
        # Weighted mean recomputes from the cells.
        top = report.ranking[0]
        cells = [c for c in report.cells if c.policy == top.policy]
        weights = {s.name: s.weight for s in self.SCENARIOS}
        expected = sum(
            weights[c.scenario] * c.availability for c in cells
        ) / sum(weights.values())
        assert top.mean_availability == pytest.approx(expected, abs=1e-12)

    def test_persistent_retry_wins_this_grid(self):
        report = self.run()
        assert report.best.policy == "retry(k=3, p=1)"
        assert report.best.worst_scenario == "critical"

    def test_cell_lookup(self):
        report = self.run()
        cell = report.cell("timeout(t=0.05)", "nominal")
        assert cell.scenario == "nominal"
        with pytest.raises(ValidationError, match="no cell"):
            report.cell("timeout(t=0.05)", "nope")

    def test_parallel_engine_is_bit_identical(self):
        serial = self.run()
        parallel = self.run(EvaluationEngine(workers=2))
        assert serial == parallel

    def test_warm_cache_skips_every_cell(self):
        engine = EvaluationEngine()
        first = self.run(engine)
        again = self.run(engine)
        assert first == again
        assert engine.cache.stats.hits >= 12

    def test_rejects_empty_and_duplicate_inputs(self):
        with pytest.raises(ValidationError, match="policy"):
            compare_client_policies(
                [], self.SCENARIOS, arrival_rate=1.0, service_rate=1.0,
                capacity=5,
            )
        with pytest.raises(ValidationError, match="duplicate"):
            compare_client_policies(
                [TimeoutPolicy(0.05), TimeoutPolicy(0.05)],
                self.SCENARIOS,
                arrival_rate=1.0, service_rate=1.0, capacity=5,
            )
        with pytest.raises(ValidationError, match="duplicate"):
            compare_client_policies(
                self.POLICIES,
                [
                    FarmFaultScenario("x", servers_up=1),
                    FarmFaultScenario("x", servers_up=2),
                ],
                arrival_rate=1.0, service_rate=1.0, capacity=5,
            )

    def test_report_renders(self):
        text = format_policy_comparison(self.run())
        assert "Client-policy ranking" in text
        assert "Policy x scenario cells" in text
        assert "retry(k=3, p=1)" in text


class TestClientPolicyTask:
    def test_key_covers_the_full_spec(self):
        graph = TaskGraph()
        scenario = FarmFaultScenario("s", servers_up=2)
        a = client_policy_task(
            graph, "a", TimeoutPolicy(0.05), scenario,
            arrival_rate=100.0, service_rate=100.0, capacity=10,
        )
        b = client_policy_task(
            graph, "b", TimeoutPolicy(0.06), scenario,
            arrival_rate=100.0, service_rate=100.0, capacity=10,
        )
        c = client_policy_task(
            graph, "c", TimeoutPolicy(0.05), scenario,
            arrival_rate=200.0, service_rate=100.0, capacity=10,
        )
        assert a.key is not None
        assert len({a.key, b.key, c.key}) == 3

    def test_identical_specs_share_a_key(self):
        graph = TaskGraph()
        scenario = FarmFaultScenario("s", servers_up=2)
        a = client_policy_task(
            graph, "a", HedgePolicy(0.05, 0.01), scenario,
            arrival_rate=100.0, service_rate=100.0, capacity=10,
        )
        b = client_policy_task(
            graph, "b", HedgePolicy(0.05, 0.01), scenario,
            arrival_rate=100.0, service_rate=100.0, capacity=10,
        )
        assert a.key == b.key


def test_the_largest_accepted_farm_evaluates():
    # buffer at its schema bound with one server: the hedge drives the
    # critical farm far past rho = 1, where rho**K leaves the float range.
    from repro import workloads

    report = workloads.run_policy_comparison(
        servers=1, buffer=workloads.BUFFER.high
    )
    for cell in report.cells:
        assert 0.0 <= cell.availability <= 1.0
        assert all(math.isfinite(value) for _, value in cell.detail)
