"""Tests for the fault-injection campaign engine."""

import math

import pytest

from repro.errors import ValidationError
from repro.resilience import (
    NullScenario,
    RecurrentOutage,
    ScheduledOutage,
    run_campaign,
    run_campaigns,
)
from repro.ta import CLASS_A, CLASS_B, TravelAgencyModel

TA = TravelAgencyModel()


class TestRunCampaign:
    def test_null_campaign_agrees_with_analytic(self):
        result = run_campaign(
            TA.hierarchical_model, CLASS_A,
            horizon=4000.0, replications=4, seed=11,
        )
        assert result.scenario == "null"
        assert result.user_class == CLASS_A.name
        assert len(result.replications) == 4
        assert result.agrees_with_analytic(sigmas=3.0)

    def test_reproducible_from_seed(self):
        kwargs = dict(horizon=1000.0, replications=3, seed=42)
        first = run_campaign(TA.hierarchical_model, CLASS_A, **kwargs)
        second = run_campaign(TA.hierarchical_model, CLASS_A, **kwargs)
        assert first.values == second.values

    def test_different_seeds_give_different_values(self):
        a = run_campaign(TA.hierarchical_model, CLASS_A,
                         horizon=1000.0, replications=2, seed=1)
        b = run_campaign(TA.hierarchical_model, CLASS_A,
                         horizon=1000.0, replications=2, seed=2)
        assert a.values != b.values

    def test_scheduled_total_outage_shows_deterministic_drop(self):
        # internet-link is a common single point of failure: forcing it
        # down for 10% of the horizon costs ~0.1 availability.
        scenario = ScheduledOutage(
            frozenset({"internet-link"}), start=100.0, duration=100.0
        )
        result = run_campaign(
            TA.hierarchical_model, CLASS_A, scenario,
            horizon=1000.0, replications=3, seed=5,
        )
        assert result.availability_drop == pytest.approx(
            0.1 * result.analytic_availability, abs=0.02
        )
        assert result.mean_outage_fraction > 0.09

    def test_correlated_outage_breaks_independence_assumption(self):
        scenario = RecurrentOutage(
            frozenset({"lan-segment", "app-host-1", "app-host-2"}),
            episode_rate=0.02,
            mean_duration=5.0,
        )
        result = run_campaign(
            TA.hierarchical_model, CLASS_A, scenario,
            horizon=4000.0, replications=4, seed=9,
        )
        assert result.availability_drop > 0.02
        assert not result.agrees_with_analytic(sigmas=2.0)

    def test_single_replication_has_nan_stderr(self):
        result = run_campaign(
            TA.hierarchical_model, CLASS_A,
            horizon=500.0, replications=1, seed=0,
        )
        assert math.isnan(result.stderr)
        assert math.isnan(result.z_score)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValidationError):
            run_campaign(TA.hierarchical_model, CLASS_A, horizon=0.0)
        with pytest.raises(ValidationError):
            run_campaign(TA.hierarchical_model, CLASS_A, replications=0)


class TestRunCampaigns:
    def test_grid_covers_every_cell_with_distinct_seeds(self):
        results = run_campaigns(
            TA.hierarchical_model,
            (CLASS_A, CLASS_B),
            (NullScenario(),
             ScheduledOutage(frozenset({"internet-link"}), 10.0, 20.0)),
            horizon=500.0,
            replications=2,
            seed=100,
        )
        assert len(results) == 4
        keys = {(r.user_class, r.scenario) for r in results}
        assert keys == {
            (CLASS_A.name, "null"),
            (CLASS_A.name, "scheduled-outage"),
            (CLASS_B.name, "null"),
            (CLASS_B.name, "scheduled-outage"),
        }
        assert len({r.seed for r in results}) == 4

    def test_one_shot_iterables_give_the_list_results(self):
        grid = dict(horizon=100.0, replications=2, seed=3)
        from_lists = run_campaigns(
            TA.hierarchical_model, [CLASS_A, CLASS_B], [NullScenario()],
            **grid,
        )
        from_generators = run_campaigns(
            TA.hierarchical_model,
            (c for c in [CLASS_A, CLASS_B]),
            (s for s in [NullScenario()]),
            **grid,
        )
        assert len(from_lists) == 2
        assert from_generators == from_lists
