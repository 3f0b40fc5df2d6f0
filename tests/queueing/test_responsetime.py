"""Tests for M/M/c/K response-time distributions."""

import math

import numpy as np
import pytest

from repro.errors import ValidationError
from repro.queueing import MMCKQueue
from repro.queueing.responsetime import (
    ResponseTime,
    erlang_cdf,
    erlang_survival,
    hypoexponential_survival,
    mean_conditional_response_time,
    response_time_quantile,
    response_time_survival,
    waiting_time_survival,
)


class TestErlang:
    def test_single_stage_is_exponential(self):
        assert erlang_survival(1, 2.0, 0.5) == pytest.approx(math.exp(-1.0))

    def test_survival_plus_cdf(self):
        assert erlang_survival(3, 1.5, 2.0) + erlang_cdf(3, 1.5, 2.0) == (
            pytest.approx(1.0)
        )

    def test_poisson_sum_identity(self):
        # P(Erlang(m, v) > t) = sum_{j<m} e^{-vt} (vt)^j / j!.
        m, v, t = 4, 2.0, 1.3
        direct = sum(
            math.exp(-v * t) * (v * t) ** j / math.factorial(j)
            for j in range(m)
        )
        assert erlang_survival(m, v, t) == pytest.approx(direct, rel=1e-12)

    def test_at_zero(self):
        assert erlang_survival(5, 1.0, 0.0) == 1.0

    def test_more_stages_longer(self):
        assert erlang_survival(4, 1.0, 2.0) > erlang_survival(2, 1.0, 2.0)


class TestHypoexponential:
    def test_matches_numerical_integration(self):
        # Erlang(2, 3) + Exp(1): integrate the convolution numerically.
        from scipy import integrate

        stages, stage_rate, final_rate, t = 2, 3.0, 1.0, 1.7

        def integrand(u):
            density = (
                stage_rate**stages
                * u ** (stages - 1)
                * math.exp(-stage_rate * u)
                / math.factorial(stages - 1)
            )
            return density * math.exp(-final_rate * (t - u))

        late_service, _ = integrate.quad(integrand, 0.0, t)
        expected = erlang_survival(stages, stage_rate, t) + late_service
        assert hypoexponential_survival(
            stages, stage_rate, final_rate, t
        ) == pytest.approx(expected, rel=1e-9)

    def test_equal_rates_collapse_to_erlang(self):
        assert hypoexponential_survival(2, 1.0, 1.0, 3.0) == pytest.approx(
            erlang_survival(3, 1.0, 3.0)
        )

    def test_final_rate_larger_fallback(self):
        # final_rate > stage_rate exercises the phase-type fallback.
        from scipy import integrate

        stages, stage_rate, final_rate, t = 3, 1.0, 4.0, 2.0

        def integrand(u):
            density = (
                stage_rate**stages
                * u ** (stages - 1)
                * math.exp(-stage_rate * u)
                / math.factorial(stages - 1)
            )
            return density * math.exp(-final_rate * (t - u))

        late_service, _ = integrate.quad(integrand, 0.0, t)
        expected = erlang_survival(stages, stage_rate, t) + late_service
        assert hypoexponential_survival(
            stages, stage_rate, final_rate, t
        ) == pytest.approx(expected, rel=1e-6)

    def test_at_zero(self):
        assert hypoexponential_survival(2, 3.0, 1.0, 0.0) == 1.0


@pytest.fixture
def single_server():
    return MMCKQueue(arrival_rate=80.0, service_rate=100.0, servers=1,
                     capacity=10)


@pytest.fixture
def multi_server():
    return MMCKQueue(arrival_rate=250.0, service_rate=100.0, servers=3,
                     capacity=12)


class TestResponseTimeSurvival:
    def test_monotone_decreasing_in_t(self, multi_server):
        times = [0.0, 0.005, 0.01, 0.02, 0.05, 0.1]
        values = [response_time_survival(multi_server, t) for t in times]
        assert values == sorted(values, reverse=True)
        assert values[0] == 1.0

    def test_bounded_by_service_survival(self, single_server):
        # Response time >= service time, so P(T > t) >= e^{-mu t}.
        for t in (0.001, 0.01, 0.05):
            assert response_time_survival(single_server, t) >= math.exp(
                -100.0 * t
            ) - 1e-12

    def test_idle_queue_is_pure_service(self):
        # Nearly always idle: response time ~ Exp(mu).
        queue = MMCKQueue(arrival_rate=0.001, service_rate=100.0, servers=1,
                          capacity=10)
        t = 0.02
        assert response_time_survival(queue, t) == pytest.approx(
            math.exp(-100.0 * t), rel=1e-3
        )

    def test_mean_matches_littles_law(self, single_server, multi_server):
        for queue in (single_server, multi_server):
            metrics = queue.metrics()
            assert mean_conditional_response_time(queue) == pytest.approx(
                metrics.mean_response_time, rel=1e-10
            )

    def test_saturated_queue_rejected(self):
        # An M/M/1/1 with astronomical load still accepts some requests;
        # validation only trips on pK == 1, which cannot happen for
        # finite rates — so check the validation path directly.
        queue = MMCKQueue(arrival_rate=1.0, service_rate=1.0, servers=1,
                          capacity=1)
        assert 0.0 <= response_time_survival(queue, 1.0) <= 1.0

    def test_matches_simulation_single_server(self, rng):
        from repro.sim import simulate_mm1k_response_times

        queue = MMCKQueue(arrival_rate=80.0, service_rate=100.0, servers=1,
                          capacity=10)
        samples = simulate_mm1k_response_times(
            80.0, 100.0, 10, num_arrivals=120_000, rng=rng
        )
        for t in (0.01, 0.03, 0.06):
            empirical = float(np.mean(samples > t))
            analytic = response_time_survival(queue, t)
            assert empirical == pytest.approx(analytic, abs=0.01)


class TestWaitingTimeSurvival:
    def test_zero_when_servers_idle(self):
        queue = MMCKQueue(arrival_rate=0.001, service_rate=100.0, servers=2,
                          capacity=10)
        assert waiting_time_survival(queue, 0.0) < 1e-4

    def test_atom_at_zero(self, multi_server):
        # P(W > 0) = P(arrive when all servers busy) < 1.
        value = waiting_time_survival(multi_server, 0.0)
        assert 0.0 < value < 1.0

    def test_below_response_survival(self, multi_server):
        for t in (0.0, 0.01, 0.05):
            assert waiting_time_survival(multi_server, t) <= (
                response_time_survival(multi_server, t) + 1e-12
            )


class TestQuantile:
    def test_roundtrip(self, single_server):
        q99 = response_time_quantile(single_server, 0.99)
        assert response_time_survival(single_server, q99) == pytest.approx(
            0.01, abs=1e-9
        )

    def test_monotone_in_probability(self, multi_server):
        q50 = response_time_quantile(multi_server, 0.5)
        q95 = response_time_quantile(multi_server, 0.95)
        q999 = response_time_quantile(multi_server, 0.999)
        assert q50 < q95 < q999

    def test_rejects_probabilities_outside_open_interval(self, single_server):
        # The response time has unbounded support, so only p strictly
        # inside (0, 1) has a meaningful quantile; the error names the
        # offending argument.
        for p in (0.0, 1.0, -0.1, 1.5, float("nan")):
            with pytest.raises(ValidationError, match="probability"):
                response_time_quantile(single_server, p)

    def test_rejects_non_numeric_probability(self, single_server):
        with pytest.raises(ValidationError, match="probability"):
            response_time_quantile(single_server, "0.5")

    def test_survival_rejects_negative_time(self, single_server):
        with pytest.raises(ValidationError, match="t"):
            response_time_survival(single_server, -1e-9)


def _scalar_survival(queue, t):
    """The per-term reference: one validated scalar call per state."""
    dist = queue.state_distribution()
    accepted = 1.0 - float(dist[-1])
    c, mu = queue.servers, queue.service_rate
    total = 0.0
    for n in range(queue.capacity):
        weight = float(dist[n]) / accepted
        if n < c:
            survival = math.exp(-mu * t)
        elif c == 1:
            survival = erlang_survival(n + 1, mu, t)
        else:
            survival = hypoexponential_survival(n - c + 1, c * mu, mu, t)
        total += weight * survival
    return min(1.0, total)


def _scalar_waiting(queue, t):
    dist = queue.state_distribution()
    accepted = 1.0 - float(dist[-1])
    c, mu = queue.servers, queue.service_rate
    total = 0.0
    for n in range(queue.capacity):
        weight = float(dist[n]) / accepted
        survival = 0.0 if n < c else erlang_survival(n - c + 1, c * mu, t)
        total += weight * survival
    return min(1.0, total)


class TestCompiledResponseTime:
    @pytest.mark.parametrize(
        "servers,capacity", [(1, 1), (1, 5), (2, 2), (2, 6), (4, 10), (8, 20)]
    )
    @pytest.mark.parametrize("rate", [0.5, 60.0, 175.0, 900.0])
    def test_equals_the_scalar_terms_bit_for_bit(
        self, servers, capacity, rate
    ):
        queue = MMCKQueue(rate, 100.0, servers, capacity)
        law = ResponseTime(queue)
        for t in (0.0, 1e-7, 0.004, 0.02, 0.05, 0.3, 5.0):
            assert law.survival(t).hex() == _scalar_survival(queue, t).hex()
            assert law.waiting(t).hex() == _scalar_waiting(queue, t).hex()

    def test_equals_the_scalar_terms_on_random_queues(self):
        rng = np.random.default_rng(16)
        for _ in range(300):
            servers = int(rng.integers(1, 12))
            capacity = servers + int(rng.integers(0, 25))
            queue = MMCKQueue(
                float(rng.uniform(1.0, 400.0)), float(rng.uniform(20.0, 200.0)),
                servers, capacity,
            )
            law = ResponseTime(queue)
            t = float(rng.uniform(0.0, 0.2))
            assert law.survival(t).hex() == _scalar_survival(queue, t).hex()
            assert law.waiting(t).hex() == _scalar_waiting(queue, t).hex()

    def test_one_solve_serves_every_t(self, monkeypatch):
        queue = MMCKQueue(90.0, 100.0, 2, 6)
        law = ResponseTime(queue)
        monkeypatch.setattr(
            MMCKQueue, "state_distribution",
            lambda self: pytest.fail("re-solved the state distribution"),
        )
        law.survival(0.01), law.survival(0.05), law.waiting(0.02)
        law.quantile(0.99)

    def test_rejects_negative_and_non_finite_time(self):
        law = ResponseTime(MMCKQueue(50.0, 100.0, 2, 6))
        for t in (-1e-9, float("nan"), float("inf")):
            with pytest.raises(ValidationError, match="t"):
                law.survival(t)
            with pytest.raises(ValidationError, match="t"):
                law.waiting(t)


class TestQueueParametersReachTheKernelChecked:
    """The state distribution is solved without per-element checks, so
    every value it sees must have passed the constructor's."""

    @pytest.mark.parametrize(
        "name,value",
        [("arrival_rate", -1.0), ("service_rate", float("nan")),
         ("servers", 0), ("capacity", 10_000_000)],
    )
    def test_parameters_are_read_only(self, name, value):
        queue = MMCKQueue(50.0, 100.0, 2, 6)
        with pytest.raises(AttributeError):
            setattr(queue, name, value)
        assert (queue.arrival_rate, queue.service_rate, queue.servers,
                queue.capacity) == (50.0, 100.0, 2, 6)

    @pytest.mark.parametrize(
        "kwargs",
        [dict(arrival_rate=float("nan")), dict(arrival_rate=-1.0),
         dict(service_rate=0.0), dict(service_rate=float("inf")),
         dict(servers=0), dict(capacity=1)],
    )
    def test_invalid_rates_fail_before_any_solve(self, monkeypatch, kwargs):
        monkeypatch.setattr(
            "repro.queueing.mmck._product_form",
            lambda births, deaths: pytest.fail("kernel reached"),
        )
        spec = dict(arrival_rate=50.0, service_rate=100.0, servers=2,
                    capacity=6)
        spec.update(kwargs)
        with pytest.raises(ValidationError):
            ResponseTime(MMCKQueue(**spec))

    def test_birth_death_validates_before_the_kernel(self, monkeypatch):
        from repro.queueing import birth_death_distribution

        monkeypatch.setattr(
            "repro.queueing.birthdeath._product_form",
            lambda births, deaths: pytest.fail("kernel reached"),
        )
        with pytest.raises(ValidationError, match=r"death_rates\[1\]"):
            birth_death_distribution([1.0, 1.0], [1.0, float("nan")])
        with pytest.raises(ValidationError, match=r"birth_rates\[0\]"):
            birth_death_distribution([-1.0], [1.0])
