"""Tests for the M/M/c/K queue (paper eq. 3)."""

import math

import numpy as np
import pytest

from repro.errors import ValidationError
from repro.queueing import (
    MMCKQueue,
    mm1k_blocking_probability,
    mmck_blocking_probability,
)


def paper_equation_3(a, i, k):
    """Literal transcription of eq. (3) for cross-checking."""
    numerator = a**k / (i ** (k - i) * math.factorial(i))
    denominator = sum(a**j / math.factorial(j) for j in range(i)) + sum(
        a**j / (i ** (j - i) * math.factorial(i)) for j in range(i, k + 1)
    )
    return numerator / denominator


class TestBlockingFormula:
    @pytest.mark.parametrize("servers", [2, 3, 4, 7, 10])
    @pytest.mark.parametrize("load", [0.5, 1.0, 1.5])
    def test_matches_literal_paper_equation(self, servers, load):
        k = 10
        assert mmck_blocking_probability(load, servers, k) == pytest.approx(
            paper_equation_3(load, servers, k), rel=1e-12
        )

    def test_single_server_reduces_to_equation_1(self):
        for load in (0.5, 1.0, 1.7):
            assert mmck_blocking_probability(load, 1, 10) == pytest.approx(
                mm1k_blocking_probability(load, 10)
            )

    def test_capacity_equal_servers_is_erlang_b(self):
        from repro.queueing import erlang_b

        assert mmck_blocking_probability(2.0, 3, 3) == pytest.approx(
            erlang_b(3, 2.0)
        )

    def test_more_servers_block_less(self):
        values = [
            mmck_blocking_probability(1.0, i, 10) for i in range(1, 11)
        ]
        assert values == sorted(values, reverse=True)

    def test_matches_birth_death_solution(self):
        # Independent check through the generic birth-death chain.
        from repro.queueing import birth_death_distribution

        alpha, nu, servers, k = 120.0, 100.0, 3, 10
        births = [alpha] * k
        deaths = [nu * min(n + 1, servers) for n in range(k)]
        dist = birth_death_distribution(births, deaths)
        assert mmck_blocking_probability(alpha / nu, servers, k) == pytest.approx(
            float(dist[-1]), rel=1e-12
        )

    def test_rejects_capacity_below_servers(self):
        with pytest.raises(ValidationError, match="capacity"):
            mmck_blocking_probability(1.0, 5, 3)

    @pytest.mark.parametrize(
        "load, servers", [(0.0, 2), (-1.0, 2), (1.0, 0), (1.0, -3)]
    )
    def test_rejects_non_positive_load_or_servers(self, load, servers):
        with pytest.raises(ValidationError):
            mmck_blocking_probability(load, servers, 10)

    def test_numerical_stability_large_capacity(self):
        value = mmck_blocking_probability(0.9, 4, 2000)
        assert 0.0 <= value < 1e-300 or value == 0.0


class TestMMCKQueue:
    def test_paper_footnote_value(self):
        # Four servers at aggregate load 1 barely ever block.
        q = MMCKQueue(arrival_rate=100.0, service_rate=100.0, servers=4,
                      capacity=10)
        assert q.blocking_probability() == pytest.approx(
            mmck_blocking_probability(1.0, 4, 10)
        )
        assert q.blocking_probability() < 1e-3

    def test_state_distribution_sums_to_one(self):
        q = MMCKQueue(arrival_rate=150.0, service_rate=100.0, servers=2,
                      capacity=8)
        assert q.state_distribution().sum() == pytest.approx(1.0)

    def test_metrics_littles_law(self):
        q = MMCKQueue(arrival_rate=150.0, service_rate=100.0, servers=2,
                      capacity=8)
        m = q.metrics()
        assert m.mean_number_in_system == pytest.approx(
            m.effective_arrival_rate * m.mean_response_time
        )
        assert m.mean_number_in_queue == pytest.approx(
            m.effective_arrival_rate * m.mean_waiting_time
        )

    def test_utilization_below_one_even_overloaded(self):
        q = MMCKQueue(arrival_rate=500.0, service_rate=100.0, servers=2,
                      capacity=6)
        assert 0.0 < q.metrics().utilization <= 1.0

    def test_blocking_consistent_with_metrics(self):
        q = MMCKQueue(arrival_rate=100.0, service_rate=100.0, servers=3,
                      capacity=12)
        assert q.metrics().blocking_probability == pytest.approx(
            q.blocking_probability()
        )

    def test_rejects_capacity_below_servers(self):
        with pytest.raises(ValidationError):
            MMCKQueue(arrival_rate=1.0, service_rate=1.0, servers=4, capacity=2)

    @pytest.mark.parametrize("arrival_rate, service_rate", [
        (0.0, 100.0), (100.0, 0.0), (100.0, -1.0),
    ])
    def test_rejects_non_positive_rates(self, arrival_rate, service_rate):
        with pytest.raises(ValidationError):
            MMCKQueue(arrival_rate=arrival_rate, service_rate=service_rate,
                      servers=4, capacity=10)

    def test_offered_load(self):
        q = MMCKQueue(arrival_rate=150.0, service_rate=100.0, servers=2,
                      capacity=8)
        assert q.offered_load == pytest.approx(1.5)


class TestLargeFarms:
    """Regression: the scalar recurrence must survive c=500 farms."""

    def test_500_servers_finite_and_positive(self):
        # (200, 501) is K = c + 1 at a light load: factorial-scale
        # weights force renormalization mid-recurrence.
        for load, capacity in ((490.0, 520), (200.0, 501)):
            value = mmck_blocking_probability(load, 500, capacity)
            assert 0.0 < value < 1.0
            assert math.isfinite(value)

    def test_500_servers_matches_erlang_b_when_k_equals_c(self):
        from repro.queueing import erlang_b

        assert mmck_blocking_probability(480.0, 500, 500) == pytest.approx(
            erlang_b(500, 480.0), rel=1e-9
        )

    def test_large_k_renormalization_stays_stable(self):
        # Long buffer at rho just under 1: thousands of recurrence steps.
        value = mmck_blocking_probability(495.0, 500, 5000)
        assert 0.0 <= value < 1.0
        assert math.isfinite(value)


class TestHugeOfferedLoad:
    """Regression: a huge offered load must not overflow the weights.

    With a fixed 1e250 rescale limit, one more ``weight *= a / divisor``
    step overflowed to ``inf`` once ``a`` exceeded ~1e58, and the
    ``inf / inf`` ratio came out as NaN.
    """

    @pytest.mark.parametrize("servers", [2, 3, 5, 10, 64, 500])
    def test_blocking_stays_a_probability(self, servers):
        for load in (1e58, 1e100, 1e200, 1e300, 9.9e307):
            for capacity in sorted({servers, servers + 1, 20, 1000}):
                if capacity < servers:
                    continue
                value = mmck_blocking_probability(load, servers, capacity)
                assert 0.0 <= value <= 1.0, (load, servers, capacity)

    @pytest.mark.parametrize("load, servers, capacity, expected", [
        (0.5, 2, 10, "0x1.33333ae147df4p-20"),
        (1.0, 4, 10, "0x1.f58d389dd060bp-19"),
        (1.5, 10, 10, "0x1.dbe7082af6e2fp-19"),
        (5.5, 7, 40, "0x1.1efc893c2a57dp-15"),
        (2.5, 2, 1000, "0x1.9999999999999p-3"),
        (3.0, 5, 1000, "0x1.3e7caff38d44fp-737"),
        (60.0, 64, 1000, "0x1.d3a58093a8ed2p-93"),
        (100.0, 170, 400, "0x1.aca2633eda3fep-211"),
        (200.0, 500, 501, "0x1.a3d41449182d3p-236"),
        (480.0, 500, 500, "0x1.d56d5bd8a36dfp-7"),
        (700.0, 500, 600, "0x1.2492492492491p-2"),
        (1e5, 500, 1000, "0x1.fd70a3d70a3d8p-1"),
        (1e-20, 3, 20, "0x0.0p+0"),
        (1e57, 10, 1000, "0x1.0000000000000p+0"),
    ])
    def test_finite_values_are_bit_identical(
        self, load, servers, capacity, expected
    ):
        # The rescale limit is 1e250 for every load below ~9e57, and
        # above it only results that used to overflow change: these
        # bits must never move.
        value = mmck_blocking_probability(load, servers, capacity)
        assert value == float.fromhex(expected)
