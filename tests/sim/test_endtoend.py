"""Tests for the end-to-end failure/repair simulation."""

import numpy as np
import pytest

from repro.availability import TwoStateAvailability
from repro.core import HierarchicalModel
from repro.profiles import UserClass
from repro.rbd import parallel
from repro.sim import simulate_user_availability_over_time


def small_model(failure_rate=0.2, repair_rate=1.0):
    model = HierarchicalModel()
    model.add_resource(
        "host", TwoStateAvailability(failure_rate=failure_rate,
                                     repair_rate=repair_rate)
    )
    model.add_service("web", "host")
    model.add_function("home", services=["web"])
    return model


def all_users():
    return UserClass.from_probabilities("all", {frozenset({"home"}): 1.0})


class TestConvergence:
    def test_single_component_matches_two_state(self, rng):
        model = small_model()
        result = simulate_user_availability_over_time(
            model, all_users(), horizon=50_000.0, rng=rng
        )
        assert result.average_user_availability == pytest.approx(
            1.0 / 1.2, abs=0.01
        )
        assert result.resource_transitions > 1000

    def test_matches_analytic_user_availability(self, rng):
        """Redundant structure with fast dynamics converges to eq. 10."""
        model = HierarchicalModel()
        for i in (1, 2):
            model.add_resource(
                f"host-{i}",
                TwoStateAvailability(failure_rate=0.5, repair_rate=2.0),
            )
        model.add_resource(
            "lan", TwoStateAvailability(failure_rate=0.1, repair_rate=5.0)
        )
        model.add_service("web", parallel("host-1", "host-2"))
        model.add_service("lan", "lan")
        model.add_function("home", services=["web"])
        model.require_everywhere(["lan"])
        users = all_users()
        analytic = model.user_availability(users).availability
        result = simulate_user_availability_over_time(
            model, users, horizon=30_000.0, rng=rng
        )
        assert result.average_user_availability == pytest.approx(
            analytic, abs=0.01
        )

    def test_ta_model_converges(self, rng):
        """The full TA with all resources mapped to two-state processes."""
        from repro.ta import CLASS_A, TravelAgencyModel

        ta = TravelAgencyModel()
        analytic = ta.user_availability(CLASS_A).availability
        result = simulate_user_availability_over_time(
            ta.hierarchical_model, CLASS_A, horizon=60_000.0, rng=rng
        )
        # The two-state mapping preserves steady-state availabilities, so
        # the time average converges to the same eq.-(10) value.
        assert result.average_user_availability == pytest.approx(
            analytic, abs=0.01
        )


class TestStructure:
    def test_outage_fraction_counts_common_failures(self, rng):
        """When the only common service dies often, outages appear."""
        model = HierarchicalModel()
        model.add_resource(
            "lan", TwoStateAvailability(failure_rate=1.0, repair_rate=4.0)
        )
        model.add_resource("host", 1.0)  # never fails
        model.add_service("lan", "lan")
        model.add_service("web", "host")
        model.add_function("home", services=["web"])
        model.require_everywhere(["lan"])
        result = simulate_user_availability_over_time(
            model, all_users(), horizon=10_000.0, rng=rng
        )
        # LAN is down 20% of the time; sessions then fail together.
        assert result.fraction_total_outage == pytest.approx(0.2, abs=0.02)
        assert result.average_user_availability == pytest.approx(0.8, abs=0.02)

    def test_perfect_resources_never_transition(self, rng):
        model = HierarchicalModel()
        model.add_resource("solid", 1.0)
        model.add_service("web", "solid")
        model.add_function("home", services=["web"])
        result = simulate_user_availability_over_time(
            model, all_users(), horizon=100.0, rng=rng
        )
        assert result.resource_transitions == 0
        assert result.average_user_availability == 1.0
        assert result.fraction_fully_available == 1.0

    def test_fixed_availability_mapped_to_two_state(self, rng):
        model = HierarchicalModel()
        model.add_resource("flaky", 0.9)  # plain number
        model.add_service("web", "flaky")
        model.add_function("home", services=["web"])
        result = simulate_user_availability_over_time(
            model, all_users(), horizon=30_000.0, rng=rng,
            default_repair_rate=2.0,
        )
        assert result.average_user_availability == pytest.approx(0.9, abs=0.01)

    def test_horizon_validation(self, rng):
        from repro.errors import ValidationError

        with pytest.raises(ValidationError):
            simulate_user_availability_over_time(
                small_model(), all_users(), horizon=0.0, rng=rng
            )


class TestCompiledModel:
    def test_compiled_model_runs_like_the_model(self):
        from repro.sim.endtoend import compile_simulation

        model, users = small_model(), all_users()
        compiled = compile_simulation(model, users, default_repair_rate=2.0)
        runs = [
            simulate_user_availability_over_time(
                source, users, horizon=500.0,
                rng=np.random.default_rng(3), default_repair_rate=2.0,
            )
            for source in (model, compiled, compiled)
        ]
        assert runs[0] == runs[1] == runs[2]

    def test_compiled_for_another_class_or_rate_is_refused(self, rng):
        from repro.errors import ValidationError
        from repro.sim.endtoend import compile_simulation

        compiled = compile_simulation(small_model(), all_users())
        others = UserClass.from_probabilities(
            "others", {frozenset({"home"}): 1.0}
        )
        with pytest.raises(ValidationError, match="compiled simulation"):
            simulate_user_availability_over_time(
                compiled, others, horizon=10.0, rng=rng
            )
        with pytest.raises(ValidationError, match="compiled simulation"):
            simulate_user_availability_over_time(
                compiled, all_users(), horizon=10.0, rng=rng,
                default_repair_rate=2.0,
            )
