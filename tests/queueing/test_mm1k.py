"""Tests for the M/M/1/K queue (paper eq. 1)."""

import numpy as np
import pytest

from repro.errors import ValidationError
from repro.queueing import MM1KQueue, mm1k_blocking_probability


class TestBlockingFormula:
    def test_paper_equation_formula(self):
        # pK = rho^K (1 - rho) / (1 - rho^(K+1))
        rho, k = 0.8, 10
        expected = rho**k * (1 - rho) / (1 - rho ** (k + 1))
        assert mm1k_blocking_probability(rho, k) == pytest.approx(expected)

    def test_overload_past_the_float_range(self):
        # rho**K overflows a float; the limit pK -> 1 - 1/rho holds.
        assert mm1k_blocking_probability(3.0, 1000) == pytest.approx(2.0 / 3.0)
        assert mm1k_blocking_probability(1e4, 100) == pytest.approx(0.9999)

    def test_critical_load_limit(self):
        # At rho = 1 the formula degenerates to 1 / (K + 1) by continuity.
        assert mm1k_blocking_probability(1.0, 10) == pytest.approx(1.0 / 11.0)

    def test_continuity_at_critical_load(self):
        near = mm1k_blocking_probability(1.0 + 1e-9, 10)
        assert near == pytest.approx(1.0 / 11.0, abs=1e-6)

    def test_overload_blocks_heavily(self):
        assert mm1k_blocking_probability(2.0, 5) > 0.5

    def test_light_load_blocks_rarely(self):
        assert mm1k_blocking_probability(0.1, 10) < 1e-10

    def test_monotone_in_load(self):
        values = [mm1k_blocking_probability(rho, 8) for rho in (0.2, 0.5, 0.9, 1.3)]
        assert values == sorted(values)

    def test_monotone_decreasing_in_capacity(self):
        values = [mm1k_blocking_probability(0.9, k) for k in (1, 2, 5, 10, 20)]
        assert values == sorted(values, reverse=True)

    def test_capacity_one_is_erlang_b(self):
        from repro.queueing import erlang_b

        for load in (0.3, 1.0, 2.5):
            assert mm1k_blocking_probability(load, 1) == pytest.approx(
                erlang_b(1, load)
            )

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValidationError):
            mm1k_blocking_probability(-0.5, 10)
        with pytest.raises(ValidationError):
            mm1k_blocking_probability(0.5, 0)


class TestMM1KQueue:
    def test_blocking_matches_formula(self):
        q = MM1KQueue(arrival_rate=80.0, service_rate=100.0, capacity=10)
        assert q.blocking_probability() == pytest.approx(
            mm1k_blocking_probability(0.8, 10)
        )

    def test_paper_configuration(self):
        # alpha = nu = 100/s, K = 10 -> pK = 1/11 (the basic architecture
        # at full load).
        q = MM1KQueue(arrival_rate=100.0, service_rate=100.0, capacity=10)
        assert q.blocking_probability() == pytest.approx(1.0 / 11.0)

    def test_state_distribution_geometric(self):
        q = MM1KQueue(arrival_rate=50.0, service_rate=100.0, capacity=4)
        dist = q.state_distribution()
        # pi_n proportional to rho^n.
        ratios = dist[1:] / dist[:-1]
        assert ratios == pytest.approx([0.5] * 4)

    def test_blocking_equals_full_state_probability(self):
        q = MM1KQueue(arrival_rate=90.0, service_rate=100.0, capacity=7)
        assert q.blocking_probability() == pytest.approx(
            q.state_distribution()[-1]
        )

    def test_metrics_littles_law(self):
        q = MM1KQueue(arrival_rate=90.0, service_rate=100.0, capacity=6)
        m = q.metrics()
        assert m.mean_number_in_system == pytest.approx(
            m.effective_arrival_rate * m.mean_response_time
        )
        assert m.mean_number_in_queue == pytest.approx(
            m.effective_arrival_rate * m.mean_waiting_time
        )

    def test_metrics_throughput_and_loss(self):
        q = MM1KQueue(arrival_rate=100.0, service_rate=100.0, capacity=10)
        m = q.metrics()
        assert m.throughput + m.loss_rate == pytest.approx(100.0)

    def test_metrics_approach_mm1_for_large_capacity(self):
        from repro.queueing import MM1Queue

        finite = MM1KQueue(arrival_rate=50.0, service_rate=100.0, capacity=60)
        infinite = MM1Queue(arrival_rate=50.0, service_rate=100.0)
        assert finite.metrics().mean_number_in_system == pytest.approx(
            infinite.metrics().mean_number_in_system, abs=1e-9
        )

    def test_probability_of(self):
        q = MM1KQueue(arrival_rate=50.0, service_rate=100.0, capacity=3)
        m = q.metrics()
        assert m.probability_of(0) == pytest.approx(q.state_distribution()[0])
        assert m.probability_of(99) == 0.0

    def test_rejects_zero_capacity(self):
        with pytest.raises(ValidationError):
            MM1KQueue(arrival_rate=1.0, service_rate=1.0, capacity=0)
