"""The hierarchical model: composing the four levels (paper Fig. 1).

:class:`HierarchicalModel` holds the resource, service and function
definitions and evaluates availability bottom-up.  The user level is
evaluated against a :class:`~repro.profiles.UserClass`: each user
scenario's availability is the expectation of the product of the
availabilities of the *union* of services the scenario's functions touch
— unioning (rather than multiplying function availabilities) is what
implements the shared-service dependency analysis of Section 4.3; it is
exactly how eq. (10) treats, e.g., the web service that every function
needs but that must only be counted once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet, Iterable, Mapping, Optional, Tuple

from ..errors import ModelStructureError, ValidationError
from ..profiles import Scenario, UserClass
from .interaction import InteractionDiagram, expected_product
from .levels import AvailabilitySource, Function, Resource, Service

__all__ = ["HierarchicalModel", "ScenarioAvailability", "UserLevelResult"]

HOURS_PER_YEAR = 8760.0


@dataclass(frozen=True)
class ScenarioAvailability:
    """Availability of one user scenario.

    Attributes
    ----------
    scenario:
        The user scenario (function set + activation probability).
    availability:
        Probability that every invocation in the scenario succeeds.
    """

    scenario: Scenario
    availability: float

    @property
    def unavailability_contribution(self) -> float:
        """This scenario's share of user-perceived unavailability,
        ``pi * (1 - A)``."""
        return self.scenario.probability * (1.0 - self.availability)


@dataclass(frozen=True)
class UserLevelResult:
    """User-perceived availability for one user class.

    Attributes
    ----------
    user_class:
        Name of the evaluated user class.
    availability:
        The headline measure: ``sum_i pi_i A(scenario_i)``.
    per_scenario:
        Detailed per-scenario availabilities.
    """

    user_class: str
    availability: float
    per_scenario: Tuple[ScenarioAvailability, ...]

    @classmethod
    def class_sum(
        cls, user_class: UserClass, availability: Callable[[Scenario], float]
    ) -> "UserLevelResult":
        """Eq. (10): ``sum_i pi_i A(scenario_i)`` over *user_class*.

        *availability* gives each scenario's ``A``; the terms are added
        in scenario order, so every model that sums through here agrees
        to the bit.
        """
        per_scenario = tuple(
            ScenarioAvailability(scenario, availability(scenario))
            for scenario in user_class.scenarios
        )
        total = 0.0
        for item in per_scenario:
            total += item.scenario.probability * item.availability
        return cls(user_class.name, total, per_scenario)

    @property
    def unavailability(self) -> float:
        """``1 - availability``."""
        return 1.0 - self.availability

    @property
    def downtime_hours_per_year(self) -> float:
        """Expected user-perceived downtime, hours per year."""
        return self.unavailability * HOURS_PER_YEAR

    def contribution_by(
        self, classifier: Callable[[Scenario], str]
    ) -> Dict[str, float]:
        """Unavailability contribution per scenario category.

        Categories are assigned by *classifier*; contributions
        ``pi_i (1 - A_i)`` are summed per category and add up to the
        total unavailability.  This is the computation behind the
        paper's Fig. 13 (SC1-SC4 breakdown).
        """
        groups: Dict[str, float] = {}
        for item in self.per_scenario:
            key = classifier(item.scenario)
            groups[key] = groups.get(key, 0.0) + item.unavailability_contribution
        return groups


class HierarchicalModel:
    """A four-level availability model of a web-based application.

    Build the model bottom-up with :meth:`add_resource`,
    :meth:`add_service` and :meth:`add_function`, declare the services
    every function implicitly needs with :meth:`require_everywhere`
    (Internet connectivity and the LAN in the paper), then evaluate with
    :meth:`user_availability`.

    Examples
    --------
    >>> from repro.rbd import parallel
    >>> from repro.profiles import UserClass
    >>> model = HierarchicalModel()
    >>> _ = model.add_resource("host", 0.999)
    >>> _ = model.add_service("web", "host")
    >>> _ = model.add_function("home", services=["web"])
    >>> users = UserClass.from_probabilities(
    ...     "all", {frozenset({"home"}): 1.0})
    >>> round(model.user_availability(users).availability, 4)
    0.999
    """

    def __init__(self):
        self._resources: Dict[str, Resource] = {}
        self._services: Dict[str, Service] = {}
        self._functions: Dict[str, Function] = {}
        self._common_services: Tuple[str, ...] = ()

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_resource(self, name: str, model: AvailabilitySource) -> Resource:
        """Register a resource; returns the created :class:`Resource`."""
        if name in self._resources:
            raise ValidationError(f"resource {name!r} already defined")
        resource = Resource(name, model)
        self._resources[name] = resource
        return resource

    def add_service(self, name: str, structure) -> Service:
        """Register a service built on existing resources."""
        if name in self._services:
            raise ValidationError(f"service {name!r} already defined")
        service = Service(name, structure)
        missing = [
            r for r in service.resource_names() if r not in self._resources
        ]
        if missing:
            raise ModelStructureError(
                f"service {name!r} references undefined resources: {missing}"
            )
        self._services[name] = service
        return service

    def add_function(
        self,
        name: str,
        diagram: Optional[InteractionDiagram] = None,
        services: Iterable[str] = (),
    ) -> Function:
        """Register a function built on existing services.

        The *diagram* is read once, here; later changes to it are not seen.
        """
        if name in self._functions:
            raise ValidationError(f"function {name!r} already defined")
        function = Function(name, diagram=diagram, services=services)
        missing = [
            s for s in sorted(function.service_names()) if s not in self._services
        ]
        if missing:
            raise ModelStructureError(
                f"function {name!r} references undefined services: {missing}"
            )
        self._functions[name] = function
        return function

    def require_everywhere(self, services: Iterable[str]) -> None:
        """Declare services implicitly required by *every* function.

        The paper's ``A_net`` (Internet connectivity) and ``A_LAN`` are of
        this kind: they multiply every function availability.
        """
        services = tuple(services)
        missing = [s for s in services if s not in self._services]
        if missing:
            raise ModelStructureError(
                f"require_everywhere references undefined services: {missing}"
            )
        self._common_services = services

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def resources(self) -> Tuple[str, ...]:
        """Registered resource names."""
        return tuple(self._resources)

    @property
    def services(self) -> Tuple[str, ...]:
        """Registered service names."""
        return tuple(self._services)

    @property
    def functions(self) -> Tuple[str, ...]:
        """Registered function names."""
        return tuple(self._functions)

    @property
    def common_services(self) -> Tuple[str, ...]:
        """Services required by every function."""
        return self._common_services

    def function_service_usage(self, name: str) -> Dict[FrozenSet[str], float]:
        """Distribution of the service set one invocation of a function
        touches (common services not included)."""
        if name not in self._functions:
            raise ValidationError(f"unknown function {name!r}")
        return self._functions[name].service_usage_distribution()

    def function_service_mapping(self) -> Dict[str, FrozenSet[str]]:
        """Function -> services table (the paper's Table 2)."""
        return {
            name: frozenset(fn.service_names()) | set(self._common_services)
            for name, fn in self._functions.items()
        }

    # ------------------------------------------------------------------
    # Level-by-level evaluation
    # ------------------------------------------------------------------
    def resource_availability(self, name: str) -> float:
        """Availability of one resource."""
        if name not in self._resources:
            raise ValidationError(f"unknown resource {name!r}")
        return self._resources[name].availability()

    def resource_availabilities(self) -> Dict[str, float]:
        """All resource availabilities (resolved once)."""
        return {name: r.availability() for name, r in self._resources.items()}

    def resource(self, name: str) -> Resource:
        """The :class:`Resource` object registered under *name*."""
        if name not in self._resources:
            raise ValidationError(f"unknown resource {name!r}")
        return self._resources[name]

    def service_structure(self, name: str):
        """The RBD :class:`~repro.rbd.Block` backing a service."""
        if name not in self._services:
            raise ValidationError(f"unknown service {name!r}")
        return self._services[name].structure

    def service_availability(self, name: str) -> float:
        """Availability of one service."""
        if name not in self._services:
            raise ValidationError(f"unknown service {name!r}")
        return self._services[name].availability(self.resource_availabilities())

    def service_availabilities_given(
        self, resource_availability: Mapping[str, float]
    ) -> Dict[str, float]:
        """Service availabilities under explicit resource availabilities.

        Used for conditional evaluations — e.g. the end-to-end simulator
        passes boolean (0/1) resource states to get the services that are
        up *right now*.
        """
        return {
            name: service.availability(resource_availability)
            for name, service in self._services.items()
        }

    def service_availabilities(self) -> Dict[str, float]:
        """All service availabilities (resources resolved once)."""
        resources = self.resource_availabilities()
        return {
            name: service.availability(resources)
            for name, service in self._services.items()
        }

    def function_availability(self, name: str) -> float:
        """Availability of one function (common services included)."""
        if name not in self._functions:
            raise ValidationError(f"unknown function {name!r}")
        services = self.service_availabilities()
        value = self._functions[name].availability(services)
        for common in self._common_services:
            value *= services[common]
        return value

    # ------------------------------------------------------------------
    # User level
    # ------------------------------------------------------------------
    def scenario_service_usage(
        self, functions: Iterable[str]
    ) -> Dict[FrozenSet[str], float]:
        """Distribution of the union of services a session touches.

        Each of *functions* touches a random service set (its
        interaction-diagram scenarios); the session needs their union
        plus the common services.
        """
        # Sorted: frozenset order varies with PYTHONHASHSEED, and float
        # products and sums depend on order.
        function_names = sorted(functions)
        for name in function_names:
            if name not in self._functions:
                raise ValidationError(f"unknown function {name!r}")
        union_dist: Dict[FrozenSet[str], float] = {
            frozenset(self._common_services): 1.0
        }
        for name in function_names:
            usage = self._functions[name].service_usage_distribution()
            combined: Dict[FrozenSet[str], float] = {}
            for current, p_current in union_dist.items():
                for touched, p_touched in usage.items():
                    key = current | touched
                    combined[key] = combined.get(key, 0.0) + p_current * p_touched
            union_dist = combined
        return union_dist

    def scenario_availability(
        self,
        functions: Iterable[str],
        service_availability: Optional[Mapping[str, float]] = None,
    ) -> float:
        """Availability of a user scenario invoking the given functions.

        The session succeeds when every service of its union set
        (:meth:`scenario_service_usage`) is available, so shared services
        are counted once — the dependency treatment of Section 4.3.
        """
        usage = self.scenario_service_usage(functions)
        if service_availability is None:
            service_availability = self.service_availabilities()
        return expected_product(usage, service_availability, "scenario")

    def user_availability(
        self,
        user_class: UserClass,
        service_availability: Optional[Mapping[str, float]] = None,
    ) -> UserLevelResult:
        """User-perceived availability for a user class (paper eq. 10).

        *service_availability* replaces the model's own service
        availabilities, as in :meth:`scenario_availability`.
        """
        if service_availability is None:
            service_availability = self.service_availabilities()
        return UserLevelResult.class_sum(
            user_class,
            lambda scenario: self.scenario_availability(
                scenario.functions, service_availability
            ),
        )

    def service_importance(self, user_class: UserClass) -> Dict[str, float]:
        """First-order influence of each service on user availability.

        Because user availability is multilinear in service
        availabilities, the partial derivative with respect to service
        ``s`` equals ``A(user | A_s = 1) - A(user | A_s = 0)`` (Birnbaum
        importance at the service level).  The paper's observation that
        the LAN, the Internet connectivity and the web service dominate
        is this measure.
        """
        base_services = self.service_availabilities()
        importance: Dict[str, float] = {}
        for name in self._services:
            up = dict(base_services, **{name: 1.0})
            down = dict(base_services, **{name: 0.0})
            a_up = self.user_availability(user_class, up).availability
            a_down = self.user_availability(user_class, down).availability
            importance[name] = a_up - a_down
        return importance
