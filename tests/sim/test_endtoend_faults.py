"""Tests for fault injection in the end-to-end simulator."""

import numpy as np
import pytest

from repro.availability import TwoStateAvailability
from repro.core import HierarchicalModel
from repro.errors import SimulationError, ValidationError
from repro.profiles import UserClass
from repro.rbd import parallel
from repro.sim import FaultEvent, simulate_user_availability_over_time


def small_model(failure_rate=1e-6, repair_rate=1.0):
    model = HierarchicalModel()
    model.add_resource(
        "host",
        TwoStateAvailability(failure_rate=failure_rate, repair_rate=repair_rate),
    )
    model.add_service("web", "host")
    model.add_function("home", services=["web"])
    return model


def redundant_model():
    model = HierarchicalModel()
    for i in (1, 2):
        model.add_resource(
            f"host-{i}",
            TwoStateAvailability(failure_rate=1e-6, repair_rate=1.0),
        )
    model.add_service("web", parallel("host-1", "host-2"))
    model.add_function("home", services=["web"])
    return model


def all_users():
    return UserClass.from_probabilities("all", {frozenset({"home"}): 1.0})


class TestFaultEventValidation:
    def test_rejects_negative_time(self):
        with pytest.raises(ValidationError):
            FaultEvent(time=-1.0, force_down=frozenset({"host"}))

    def test_rejects_empty_event(self):
        with pytest.raises(ValidationError):
            FaultEvent(time=1.0)

    def test_rejects_factor_outside_unit_interval(self):
        with pytest.raises(ValidationError):
            FaultEvent(time=1.0, service_factors={"web": 1.5})

    def test_rejects_unknown_resource_at_simulation_time(self, rng):
        model = small_model()
        with pytest.raises(ValidationError, match="unknown resource"):
            simulate_user_availability_over_time(
                model, all_users(), horizon=10.0, rng=rng,
                faults=[FaultEvent(time=1.0, force_down=frozenset({"nope"}))],
            )

    def test_rejects_unknown_service_at_simulation_time(self, rng):
        model = small_model()
        with pytest.raises(ValidationError, match="unknown service"):
            simulate_user_availability_over_time(
                model, all_users(), horizon=10.0, rng=rng,
                faults=[FaultEvent(time=1.0, service_factors={"nope": 0.5})],
            )

    def test_release_without_force_is_an_error(self, rng):
        model = small_model()
        with pytest.raises(SimulationError, match="not forced down"):
            simulate_user_availability_over_time(
                model, all_users(), horizon=10.0, rng=rng,
                faults=[FaultEvent(time=1.0, release=frozenset({"host"}))],
            )


class TestForcedOutages:
    def test_forced_window_reduces_availability_proportionally(self, rng):
        # A reliable host forced down for 20% of the horizon.
        model = small_model()
        faults = [
            FaultEvent(time=40.0, force_down=frozenset({"host"})),
            FaultEvent(time=60.0, release=frozenset({"host"})),
        ]
        result = simulate_user_availability_over_time(
            model, all_users(), horizon=100.0, rng=rng, faults=faults
        )
        assert result.average_user_availability == pytest.approx(0.8, abs=0.01)
        assert result.fault_events_applied == 2

    def test_correlated_outage_defeats_redundancy(self, rng):
        # Both hosts forced down together: parallel redundancy that makes
        # the analytic availability ~1 cannot mask a correlated fault.
        model = redundant_model()
        faults = [
            FaultEvent(time=10.0, force_down=frozenset({"host-1", "host-2"})),
            FaultEvent(time=20.0, release=frozenset({"host-1", "host-2"})),
        ]
        result = simulate_user_availability_over_time(
            model, all_users(), horizon=100.0, rng=rng, faults=faults
        )
        assert result.average_user_availability == pytest.approx(0.9, abs=0.01)

    def test_single_host_outage_is_masked_by_redundancy(self, rng):
        model = redundant_model()
        faults = [
            FaultEvent(time=10.0, force_down=frozenset({"host-1"})),
            FaultEvent(time=20.0, release=frozenset({"host-1"})),
        ]
        result = simulate_user_availability_over_time(
            model, all_users(), horizon=100.0, rng=rng, faults=faults
        )
        assert result.average_user_availability > 0.999

    def test_stacked_forces_unwind_in_order(self, rng):
        # Two overlapping force windows on the same host: the host stays
        # down until *both* are released.
        model = small_model()
        faults = [
            FaultEvent(time=10.0, force_down=frozenset({"host"})),
            FaultEvent(time=15.0, force_down=frozenset({"host"})),
            FaultEvent(time=20.0, release=frozenset({"host"})),
            FaultEvent(time=30.0, release=frozenset({"host"})),
        ]
        result = simulate_user_availability_over_time(
            model, all_users(), horizon=100.0, rng=rng, faults=faults
        )
        # Down from t=10 to t=30.
        assert result.average_user_availability == pytest.approx(0.8, abs=0.01)

    def test_events_past_horizon_are_ignored(self, rng):
        model = small_model()
        faults = [
            FaultEvent(time=500.0, force_down=frozenset({"host"})),
            FaultEvent(time=600.0, release=frozenset({"host"})),
        ]
        result = simulate_user_availability_over_time(
            model, all_users(), horizon=100.0, rng=rng, faults=faults
        )
        assert result.average_user_availability > 0.999
        assert result.fault_events_applied == 0


class TestServiceDegradation:
    def test_factor_scales_conditional_availability(self, rng):
        model = small_model()
        faults = [
            FaultEvent(time=0.0, service_factors={"web": 0.5}),
        ]
        result = simulate_user_availability_over_time(
            model, all_users(), horizon=100.0, rng=rng, faults=faults
        )
        # The host is essentially always up; sessions succeed at 50%.
        assert result.average_user_availability == pytest.approx(0.5, abs=0.01)

    def test_factor_window_restores_cleanly(self, rng):
        model = small_model()
        faults = [
            FaultEvent(time=25.0, service_factors={"web": 0.0}),
            FaultEvent(time=50.0, service_factors={"web": 1.0}),
        ]
        result = simulate_user_availability_over_time(
            model, all_users(), horizon=100.0, rng=rng, faults=faults
        )
        assert result.average_user_availability == pytest.approx(0.75, abs=0.01)

    def test_factor_change_invalidates_memoized_availability(self, rng):
        # Never-failing resources: the service-up mask never changes, so
        # only a factor change can move the conditional availability.
        # A value memoized under the 0.5 factor would read 0.5 throughout.
        model = HierarchicalModel()
        model.add_resource("host-1", 1.0)
        model.add_resource("host-2", 1.0)
        model.add_service("web", parallel("host-1", "host-2"))
        model.add_function("home", services=["web"])
        faults = [
            FaultEvent(time=0.0, service_factors={"web": 0.5}),
            FaultEvent(time=500.0, service_factors={"web": 1.0}),
        ]
        result = simulate_user_availability_over_time(
            model, all_users(), horizon=1000.0, rng=rng, faults=faults
        )
        assert result.average_user_availability == 0.75
        assert result.fraction_fully_available == 1.0
        assert result.fraction_total_outage == 0.0
        assert result.resource_transitions == 0
        assert result.fault_events_applied == 2

    def test_null_fault_list_matches_no_faults(self, rng):
        model = small_model(failure_rate=0.2)
        seed_state = rng.bit_generator.state
        baseline = simulate_user_availability_over_time(
            model, all_users(), horizon=5000.0, rng=rng
        )
        rng2 = np.random.default_rng()
        rng2.bit_generator.state = seed_state
        faulted = simulate_user_availability_over_time(
            model, all_users(), horizon=5000.0, rng=rng2, faults=[]
        )
        assert faulted.average_user_availability == pytest.approx(
            baseline.average_user_availability, abs=1e-12
        )
