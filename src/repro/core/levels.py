"""Entity types of the hierarchical model's three lower levels.

* :class:`Resource` — anything with a steady-state availability: a float,
  a model object exposing ``availability`` (attribute, property or
  zero-argument method, e.g. :class:`~repro.availability.TwoStateAvailability`
  or :class:`~repro.availability.WebServiceModel`), or a callable.
* :class:`Service` — a reliability block diagram over resources (internal
  services), or a single black-box resource (external services).
* :class:`Function` — a site function, with an optional interaction
  diagram describing which services each execution touches; the
  diagram is read once, when the function is built.
"""

from __future__ import annotations

from typing import Callable, Dict, FrozenSet, Iterable, Mapping, Optional, Tuple, Union

from .._validation import check_probability
from ..errors import ValidationError
from ..rbd import Block, Component, system_availability
from .interaction import InteractionDiagram, expected_product

__all__ = ["Resource", "Service", "Function"]

AvailabilitySource = Union[float, int, Callable[[], float], object]


class Resource:
    """A resource-level entity with a resolvable availability.

    Parameters
    ----------
    name:
        Unique resource name.
    model:
        One of: a number in [0, 1]; an object with an ``availability``
        attribute, property or zero-argument method; or a zero-argument
        callable returning the availability.

    Examples
    --------
    >>> Resource("lan", 0.9966).availability()
    0.9966
    """

    def __init__(self, name: str, model: AvailabilitySource):
        if not name:
            raise ValidationError("resource name must be non-empty")
        self.name = name
        self._model = model
        # Fail fast on unusable models.
        self.availability()

    def availability(self) -> float:
        """Resolve the resource's current steady-state availability."""
        model = self._model
        if isinstance(model, (int, float)) and not isinstance(model, bool):
            return check_probability(float(model), f"availability({self.name})")
        attr = getattr(model, "availability", None)
        if attr is not None:
            value = attr() if callable(attr) else attr
            return check_probability(float(value), f"availability({self.name})")
        if callable(model):
            return check_probability(float(model()), f"availability({self.name})")
        raise ValidationError(
            f"resource {self.name!r}: cannot resolve availability from "
            f"{type(model).__name__}"
        )

    @property
    def model(self) -> AvailabilitySource:
        """The wrapped availability source."""
        return self._model

    def __repr__(self) -> str:
        return f"Resource({self.name!r}, availability={self.availability():.6g})"


class Service:
    """A service-level entity: an RBD over resources.

    Parameters
    ----------
    name:
        Unique service name.
    structure:
        A :class:`~repro.rbd.Block` whose component names are resource
        names, or a single resource name (black-box external service).

    Examples
    --------
    >>> from repro.rbd import parallel
    >>> svc = Service("flight", parallel("af", "klm"))
    >>> round(svc.availability({"af": 0.9, "klm": 0.9}), 4)
    0.99
    """

    def __init__(self, name: str, structure: Union[Block, str]):
        if not name:
            raise ValidationError("service name must be non-empty")
        if isinstance(structure, str):
            structure = Component(structure)
        if not isinstance(structure, Block):
            raise ValidationError(
                f"service {name!r}: structure must be an RBD Block or a "
                f"resource name, got {type(structure).__name__}"
            )
        self.name = name
        self.structure = structure

    def resource_names(self) -> Tuple[str, ...]:
        """Distinct resources the service depends on."""
        seen = []
        for name in self.structure.component_names():
            if name not in seen:
                seen.append(name)
        return tuple(seen)

    def availability(self, resource_availability: Mapping[str, float]) -> float:
        """Service availability from resource availabilities (exact RBD)."""
        return system_availability(self.structure, resource_availability)

    def __repr__(self) -> str:
        return f"Service({self.name!r}, resources={list(self.resource_names())})"


class Function:
    """A function-level entity: what one user-visible function needs.

    Parameters
    ----------
    name:
        Unique function name.
    diagram:
        Interaction diagram describing the execution scenarios; mutually
        exclusive with *services*.
    services:
        Shortcut for functions with a single scenario that needs all the
        listed services (a pure series composition) — the paper's Home,
        Search, Book and Pay functions.

    The diagram is validated and walked once, here; later changes to it
    are not seen.

    Examples
    --------
    >>> f = Function("search", services=["web", "application", "database"])
    >>> round(f.availability({"web": 0.99, "application": 0.99,
    ...                       "database": 0.99}), 4)
    0.9703
    """

    def __init__(
        self,
        name: str,
        diagram: Optional[InteractionDiagram] = None,
        services: Iterable[str] = (),
    ):
        if not name:
            raise ValidationError("function name must be non-empty")
        services = tuple(services)
        if diagram is not None and services:
            raise ValidationError(
                f"function {name!r}: give either a diagram or a service list, not both"
            )
        if diagram is None and not services:
            raise ValidationError(
                f"function {name!r}: needs a diagram or at least one service"
            )
        self.name = name
        self.diagram = diagram
        self._services = services
        if diagram is None:
            self._names = frozenset(services)
            self._usage = {self._names: 1.0}
        else:
            self._names = diagram.all_services()
            self._usage = diagram.service_usage_distribution()

    def service_names(self) -> FrozenSet[str]:
        """Every service the function may touch."""
        return self._names

    def service_usage_distribution(self) -> Dict[FrozenSet[str], float]:
        """Distribution of the service set one invocation touches (a copy)."""
        return dict(self._usage)

    def availability(self, service_availability: Mapping[str, float]) -> float:
        """Function availability from service availabilities."""
        if self.diagram is not None:
            return expected_product(
                self._usage, service_availability, self.diagram.name
            )
        # In the given order, not sorted: sorting would change the last
        # bits of every services-list figure.
        product = 1.0
        for service in self._services:
            try:
                product *= service_availability[service]
            except KeyError:
                raise ValidationError(
                    f"function {self.name!r}: no availability for service "
                    f"{service!r}"
                ) from None
        return product

    def __repr__(self) -> str:
        return f"Function({self.name!r}, services={sorted(self.service_names())})"
