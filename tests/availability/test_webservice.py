"""Tests for the composite web-service model (paper eqs. 2, 5, 9)."""

import pytest

from repro.availability import (
    ImperfectCoverageFarm,
    PerfectCoverageFarm,
    TwoStateAvailability,
    WebServiceLossBreakdown,
    WebServiceModel,
)
from repro.errors import ValidationError
from repro.queueing import mm1k_blocking_probability


def paper_model(**overrides):
    config = dict(
        servers=4,
        arrival_rate=100.0,
        service_rate=100.0,
        buffer_capacity=10,
        failure_rate=1e-4,
        repair_rate=1.0,
        coverage=0.98,
        reconfiguration_rate=12.0,
    )
    config.update(overrides)
    return WebServiceModel(**config)


class TestPaperNumbers:
    def test_table7_quoted_availability(self):
        """The paper's A(WS) = 0.999995587 to all printed digits."""
        assert paper_model().availability() == pytest.approx(
            0.999995587, abs=5e-10
        )

    def test_equation_2_basic_architecture(self):
        """One server: A = A(C_WS) * (1 - pK)."""
        lam, mu, alpha, nu, k = 1e-3, 1.0, 100.0, 100.0, 10
        model = WebServiceModel(
            servers=1, arrival_rate=alpha, service_rate=nu,
            buffer_capacity=k, failure_rate=lam, repair_rate=mu,
        )
        host = TwoStateAvailability(failure_rate=lam, repair_rate=mu)
        expected = host.availability * (
            1.0 - mm1k_blocking_probability(alpha / nu, k)
        )
        assert model.availability() == pytest.approx(expected, rel=1e-12)


class TestCompositeCombination:
    def test_equation_5_manual_expansion(self):
        """Perfect coverage: A = 1 - [sum Pi_i pK(i) + Pi_0]."""
        model = paper_model(coverage=1.0, reconfiguration_rate=None)
        farm = PerfectCoverageFarm(
            servers=4, failure_rate=1e-4, repair_rate=1.0
        )
        probs = farm.state_probabilities()
        loss = probs[0] + sum(
            probs[i] * model.blocking_probability(i) for i in range(1, 5)
        )
        assert model.availability() == pytest.approx(1.0 - loss, rel=1e-12)

    def test_equation_9_manual_expansion(self):
        """Imperfect coverage adds the y_i down states."""
        model = paper_model()
        farm = ImperfectCoverageFarm(
            servers=4, failure_rate=1e-4, repair_rate=1.0,
            coverage=0.98, reconfiguration_rate=12.0,
        )
        operational, down = farm.state_probabilities()
        loss = (
            operational[0]
            + sum(down.values())
            + sum(operational[i] * model.blocking_probability(i)
                  for i in range(1, 5))
        )
        assert model.availability() == pytest.approx(1.0 - loss, rel=1e-12)

    def test_loss_breakdown_sums_to_unavailability(self):
        model = paper_model()
        breakdown = model.loss_breakdown()
        assert breakdown.total_unavailability == pytest.approx(
            model.unavailability()
        )
        assert breakdown.availability == pytest.approx(model.availability())
        assert breakdown.buffer_full >= 0
        assert breakdown.manual_reconfiguration > 0

    def test_availability_of_losses_summing_past_one_is_zero(self):
        # Cloud farms at ~1e24 requests/s reach this: every request is
        # lost, and the loss sum rounds one step above 1.
        over = WebServiceLossBreakdown(1.0, 2.0 ** -52, 0.0)
        assert over.total_unavailability > 1.0
        assert over.availability == 0.0
        within = WebServiceLossBreakdown(0.25, 0.5, 0.125)
        assert within.availability == 1.0 - within.total_unavailability

    def test_perfect_coverage_has_no_reconfiguration_loss(self):
        model = paper_model(coverage=1.0, reconfiguration_rate=None)
        assert model.loss_breakdown().manual_reconfiguration == 0.0

    def test_reward_model_agrees(self):
        model = paper_model()
        assert model.reward_model().steady_state_reward() == pytest.approx(
            model.availability(), abs=1e-14
        )


class TestShapeProperties:
    def test_overload_dominated_by_buffer_loss(self):
        model = paper_model(arrival_rate=150.0, servers=1)
        breakdown = model.loss_breakdown()
        assert breakdown.buffer_full > 0.2
        assert breakdown.buffer_full > 100 * breakdown.all_servers_down

    def test_perfect_coverage_improves_monotonically(self):
        """Fig. 11: unavailability drops as NW grows (perfect coverage)."""
        values = [
            paper_model(
                servers=n, coverage=1.0, reconfiguration_rate=None,
                failure_rate=1e-3,
            ).unavailability()
            for n in range(1, 9)
        ]
        assert values == sorted(values, reverse=True)

    def test_imperfect_coverage_reverses_trend(self):
        """Fig. 12: beyond a few servers, adding more *hurts*."""
        values = {
            n: paper_model(servers=n, failure_rate=1e-3).unavailability()
            for n in range(1, 11)
        }
        best = min(values, key=values.get)
        assert 2 <= best <= 5
        assert values[10] > values[best]

    def test_higher_coverage_always_helps(self):
        a_low = paper_model(coverage=0.9).availability()
        a_high = paper_model(coverage=0.99).availability()
        assert a_high > a_low

    def test_timescale_ratio_small_in_paper_regime(self):
        # Failure/repair per hour vs requests per second: after unit
        # conversion the ratio is tiny, validating the decomposition.
        model = paper_model(
            failure_rate=1e-4 / 3600.0,
            repair_rate=1.0 / 3600.0,
            reconfiguration_rate=12.0 / 3600.0,
        )
        assert model.timescale_ratio() < 1e-4


class TestValidation:
    def test_imperfect_coverage_needs_beta(self):
        with pytest.raises(ValidationError, match="reconfiguration_rate"):
            paper_model(reconfiguration_rate=None)

    def test_buffer_must_fit_servers(self):
        with pytest.raises(ValidationError, match="buffer_capacity"):
            paper_model(servers=12, buffer_capacity=10)

    def test_blocking_probability_validates_servers(self):
        with pytest.raises(ValidationError):
            paper_model().blocking_probability(0)

    def test_repr_mentions_coverage(self):
        assert "c=0.98" in repr(paper_model())
        assert "perfect" in repr(
            paper_model(coverage=1.0, reconfiguration_rate=None)
        )
