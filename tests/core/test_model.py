"""Tests for the hierarchical model."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core import HierarchicalModel, InteractionDiagram
from repro.errors import ModelStructureError, ValidationError
from repro.profiles import UserClass
from repro.rbd import parallel


@pytest.fixture
def model():
    """A miniature two-function application."""
    m = HierarchicalModel()
    m.add_resource("link", 0.99)
    m.add_resource("host-1", 0.9)
    m.add_resource("host-2", 0.9)
    m.add_resource("db-host", 0.95)
    m.add_service("net", "link")
    m.add_service("web", parallel("host-1", "host-2"))
    m.add_service("database", "db-host")
    m.add_function("home", services=["web"])
    m.add_function("search", services=["web", "database"])
    m.require_everywhere(["net"])
    return m


@pytest.fixture
def users():
    return UserClass.from_probabilities(
        "mixed",
        {
            frozenset({"home"}): 0.6,
            frozenset({"home", "search"}): 0.4,
        },
    )


class TestConstruction:
    def test_duplicate_names_rejected(self, model):
        with pytest.raises(ValidationError):
            model.add_resource("link", 0.5)
        with pytest.raises(ValidationError):
            model.add_service("web", "link")
        with pytest.raises(ValidationError):
            model.add_function("home", services=["web"])

    def test_service_needs_known_resources(self, model):
        with pytest.raises(ModelStructureError, match="undefined resources"):
            model.add_service("bad", "ghost-resource")

    def test_function_needs_known_services(self, model):
        with pytest.raises(ModelStructureError, match="undefined services"):
            model.add_function("bad", services=["ghost-service"])

    def test_require_everywhere_validates(self, model):
        with pytest.raises(ModelStructureError):
            model.require_everywhere(["ghost"])

    def test_introspection(self, model):
        assert set(model.resources) == {"link", "host-1", "host-2", "db-host"}
        assert set(model.services) == {"net", "web", "database"}
        assert set(model.functions) == {"home", "search"}
        assert model.common_services == ("net",)

    def test_function_service_mapping_includes_common(self, model):
        mapping = model.function_service_mapping()
        assert mapping["home"] == frozenset({"web", "net"})
        assert mapping["search"] == frozenset({"web", "database", "net"})


class TestLevelEvaluation:
    def test_resource_availability(self, model):
        assert model.resource_availability("link") == 0.99
        with pytest.raises(ValidationError):
            model.resource_availability("ghost")

    def test_service_availability(self, model):
        assert model.service_availability("web") == pytest.approx(0.99)
        assert model.service_availability("net") == 0.99

    def test_function_availability_includes_common(self, model):
        # home = net * web = 0.99 * 0.99.
        assert model.function_availability("home") == pytest.approx(0.9801)
        assert model.function_availability("search") == pytest.approx(
            0.99 * 0.99 * 0.95
        )

    def test_unknown_function(self, model):
        with pytest.raises(ValidationError):
            model.function_availability("ghost")


class TestUserLevel:
    def test_scenario_availability_unions_services(self, model):
        # {home, search} needs net, web, database once each.
        value = model.scenario_availability(["home", "search"])
        assert value == pytest.approx(0.99 * 0.99 * 0.95)

    def test_scenario_availability_empty_uses_common_only(self, model):
        assert model.scenario_availability([]) == pytest.approx(0.99)

    def test_user_availability_weighted_sum(self, model, users):
        result = model.user_availability(users)
        expected = 0.6 * (0.99 * 0.99) + 0.4 * (0.99 * 0.99 * 0.95)
        assert result.availability == pytest.approx(expected)
        assert result.user_class == "mixed"
        assert len(result.per_scenario) == 2

    def test_unavailability_and_downtime(self, model, users):
        result = model.user_availability(users)
        assert result.unavailability == pytest.approx(1 - result.availability)
        assert result.downtime_hours_per_year == pytest.approx(
            result.unavailability * 8760.0
        )

    def test_contributions_sum_to_unavailability(self, model, users):
        result = model.user_availability(users)
        groups = result.contribution_by(
            lambda s: "deep" if "search" in s.functions else "shallow"
        )
        assert sum(groups.values()) == pytest.approx(result.unavailability)

    def test_shared_service_counted_once(self):
        """A scenario using the same service through two functions must
        not square its availability."""
        m = HierarchicalModel()
        m.add_resource("r", 0.5)
        m.add_service("s", "r")
        m.add_function("f1", services=["s"])
        m.add_function("f2", services=["s"])
        assert m.scenario_availability(["f1", "f2"]) == pytest.approx(0.5)

    def test_probabilistic_usage_unions_correctly(self):
        """Function-scenario mixing follows the paper's Browse algebra."""
        m = HierarchicalModel()
        m.add_resource("w", 0.9)
        m.add_resource("a", 0.8)
        m.add_service("web", "w")
        m.add_service("app", "a")
        d = InteractionDiagram("browse")
        d.add_node("hit", services=["web"])
        d.add_node("miss", services=["web", "app"])
        d.add_edge("Begin", "hit", 0.3)
        d.add_edge("Begin", "miss", 0.7)
        d.add_edge("hit", "End")
        d.add_edge("miss", "End")
        m.add_function("browse", diagram=d)
        # A = 0.3 * 0.9 + 0.7 * 0.9 * 0.8
        assert m.scenario_availability(["browse"]) == pytest.approx(
            0.3 * 0.9 + 0.7 * 0.72
        )

    def test_mutating_a_usage_copy_leaves_the_model_alone(self, model, users):
        d = InteractionDiagram("browse")
        d.add_node("hit", services=["web"])
        d.add_edge("Begin", "hit")
        d.add_edge("hit", "End")
        model.add_function("browse", diagram=d)
        users = UserClass.from_probabilities(
            "mixed", {frozenset({"home", "browse"}): 0.5,
                      frozenset({"search"}): 0.5},
        )
        before = model.user_availability(users).availability
        for name in ("home", "search", "browse"):
            usage = model.function_service_usage(name)
            usage.clear()
            usage[frozenset({"database"})] = 1.0
        assert model.user_availability(users).availability == before

    def test_diagram_is_read_when_its_function_is_added(self):
        m = HierarchicalModel()
        m.add_resource("w", 0.9)
        m.add_service("web", "w")
        d = InteractionDiagram("browse")
        d.add_node("hit", services=["web"])
        d.add_edge("Begin", "hit")
        d.add_edge("hit", "End")
        m.add_function("browse", diagram=d)
        d.add_node("late", services=["web"])  # invalid now: a dead end
        assert m.scenario_availability(["browse"]) == 0.9
        assert m.function_service_usage("browse") == {frozenset({"web"}): 1.0}

    def test_user_availability_under_given_service_availabilities(
        self, model, users
    ):
        services = dict(model.service_availabilities(), web=0.5)
        result = model.user_availability(users, services)
        assert result.availability == sum(
            scenario.probability
            * model.scenario_availability(scenario.functions, services)
            for scenario in users.scenarios
        )
        assert result.availability < model.user_availability(
            users
        ).availability

    def test_missing_service_availability_is_a_validation_error(self, model):
        with pytest.raises(ValidationError, match="'database'"):
            model.scenario_availability(
                ["search"], {"net": 1.0, "web": 1.0}
            )

    def test_service_importance_ranks_common_first(self, model, users):
        importance = model.service_importance(users)
        assert importance["net"] >= importance["database"]
        assert importance["net"] >= importance["web"]
        # database only matters for the search scenarios.
        assert importance["database"] == pytest.approx(
            0.4 * 0.99 * 0.99, rel=1e-12
        )


# Eq. (10) for both architectures and both Table 1 classes, per scenario
# and in total, printed at full precision.
_EQ10_SCRIPT = """
from repro.ta import CLASS_A, CLASS_B, TravelAgencyModel
for architecture in ("basic", "redundant"):
    model = TravelAgencyModel(architecture=architecture).hierarchical_model
    for users in (CLASS_A, CLASS_B):
        result = model.user_availability(users)
        print(architecture, users.name, repr(result.availability))
        for scenario in result.per_scenario:
            print("  ", repr(scenario.availability))
"""


def _outputs_under_hash_seeds(script):
    """stdout of *script* run under PYTHONHASHSEED 0, 1 and 2."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[2] / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    outputs = {}
    for seed in ("0", "1", "2"):
        env["PYTHONHASHSEED"] = seed
        completed = subprocess.run(
            [sys.executable, "-c", script],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert completed.returncode == 0, completed.stderr
        outputs[seed] = completed.stdout
    return outputs


def test_user_availability_is_independent_of_hash_seed():
    """Scenario functions and service sets are frozensets; their iteration
    order follows PYTHONHASHSEED, and float sums and products depend on
    order, so eq. (10) must iterate them sorted."""
    outputs = _outputs_under_hash_seeds(_EQ10_SCRIPT)
    assert "redundant class B" in outputs["0"]
    assert outputs["1"] == outputs["0"]
    assert outputs["2"] == outputs["0"]


# Table 6 function availabilities for both architectures, at full
# precision.
_TABLE6_SCRIPT = """
from repro.ta import TravelAgencyModel
for architecture in ("basic", "redundant"):
    model = TravelAgencyModel(architecture=architecture)
    for name, value in sorted(model.function_availabilities().items()):
        print(architecture, name, repr(value))
"""


def test_function_availability_is_independent_of_hash_seed():
    """A function's service sets are frozensets too; the Table 6
    products must iterate them sorted."""
    outputs = _outputs_under_hash_seeds(_TABLE6_SCRIPT)
    assert "redundant pay" in outputs["0"]
    assert outputs["1"] == outputs["0"]
    assert outputs["2"] == outputs["0"]
