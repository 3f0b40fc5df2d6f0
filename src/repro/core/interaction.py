"""Interaction diagrams: per-function service-execution scenarios.

An interaction diagram (Figs. 3-6 of the paper) is a directed acyclic
graph from a reserved ``"Begin"`` node to a reserved ``"End"`` node.
Each node represents a processing step and is tagged with the services
it uses (a node may use several services at once — the AND-split of the
Search diagram submits a request to the flight, hotel and car systems
simultaneously).  Branch probabilities ``q_ij`` select between
alternative executions; each Begin->End path is a *function scenario*.

The function's availability is the expectation, over scenarios, of the
product of the availabilities of the distinct services the scenario
touches — eq. "A(Browse)" of Table 6 is exactly this computation on the
Fig. 3 diagram (:func:`expected_product`).  A diagram is read once,
when its :class:`~repro.core.levels.Function` is built.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Hashable, Iterable, List, Mapping, Tuple

from .._validation import check_probability
from ..errors import ModelStructureError, ValidationError

__all__ = ["InteractionDiagram", "FunctionScenario", "expected_product"]

BEGIN = "Begin"
END = "End"

Node = Hashable


@dataclass(frozen=True)
class FunctionScenario:
    """One execution scenario of a function.

    Attributes
    ----------
    path:
        The node sequence from Begin to End.
    probability:
        Product of the branch probabilities along the path.
    services:
        The distinct services used by the steps of the path.
    """

    path: Tuple[Node, ...]
    probability: float
    services: FrozenSet[str]


class InteractionDiagram:
    """A per-function service interaction diagram.

    Parameters
    ----------
    name:
        The function name the diagram describes.

    Examples
    --------
    The paper's Browse diagram (Fig. 3), condensed to its three scenarios:

    >>> d = InteractionDiagram("browse")
    >>> d.add_node("ws-hit", services=["web"])
    >>> d.add_node("app", services=["web", "application"])
    >>> d.add_node("db", services=["web", "application", "database"])
    >>> d.add_edge("Begin", "ws-hit", 0.2)
    >>> d.add_edge("Begin", "app", 0.32)
    >>> d.add_edge("Begin", "db", 0.48)
    >>> for node in ("ws-hit", "app", "db"):
    ...     d.add_edge(node, "End")
    >>> round(d.availability({"web": 1.0, "application": 1.0,
    ...                       "database": 0.5}), 3)
    0.76
    """

    def __init__(self, name: str):
        if not name:
            raise ValidationError("diagram name must be non-empty")
        self.name = name
        self._services: Dict[Node, FrozenSet[str]] = {BEGIN: frozenset(), END: frozenset()}
        self._edges: Dict[Node, List[Tuple[Node, float]]] = {}
        self._node_order: List[Node] = [BEGIN, END]

    # ------------------------------------------------------------------
    def add_node(self, node: Node, services: Iterable[str] = ()) -> None:
        """Register a processing step and the services it uses."""
        if node in (BEGIN, END):
            raise ValidationError(f"{node!r} is a reserved node name")
        if node in self._services:
            raise ValidationError(f"node {node!r} already exists")
        self._services[node] = frozenset(services)
        self._node_order.append(node)

    def add_edge(self, src: Node, dst: Node, probability: float = 1.0) -> None:
        """Add a transition; unlabeled transitions default to probability 1."""
        probability = check_probability(probability, f"q({src!r}->{dst!r})")
        if src == END:
            raise ModelStructureError("End must have no outgoing edges")
        if dst == BEGIN:
            raise ModelStructureError("Begin must have no incoming edges")
        for node in (src, dst):
            if node not in self._services:
                raise ValidationError(f"unknown node {node!r}; add_node it first")
        self._edges.setdefault(src, []).append((dst, probability))

    # ------------------------------------------------------------------
    @property
    def nodes(self) -> Tuple[Node, ...]:
        """All nodes including Begin and End, in registration order."""
        return tuple(self._node_order)

    def services_of(self, node: Node) -> FrozenSet[str]:
        """Services used by a node."""
        if node not in self._services:
            raise ValidationError(f"unknown node {node!r}")
        return self._services[node]

    def all_services(self) -> FrozenSet[str]:
        """Every service referenced anywhere in the diagram."""
        result: set = set()
        for services in self._services.values():
            result |= services
        return frozenset(result)

    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Check structural soundness.

        * Begin has outgoing edges and every non-End node's outgoing
          probabilities sum to one.
        * The graph is acyclic.
        * Every path reaches End.
        """
        if BEGIN not in self._edges:
            raise ModelStructureError(f"{self.name}: Begin has no outgoing edges")
        for node in self._node_order:
            if node == END:
                continue
            outgoing = self._edges.get(node, [])
            if not outgoing and node != END:
                raise ModelStructureError(
                    f"{self.name}: node {node!r} is a dead end (no path to End)"
                )
            total = sum(p for _, p in outgoing)
            if abs(total - 1.0) > 1e-9:
                raise ModelStructureError(
                    f"{self.name}: outgoing probabilities of {node!r} sum to {total}"
                )
        self._topological_order()  # raises on cycles

    def _topological_order(self) -> List[Node]:
        in_degree: Dict[Node, int] = {n: 0 for n in self._node_order}
        for src, outs in self._edges.items():
            for dst, _ in outs:
                in_degree[dst] += 1
        ready = [n for n, d in in_degree.items() if d == 0]
        order: List[Node] = []
        while ready:
            node = ready.pop()
            order.append(node)
            for dst, _ in self._edges.get(node, []):
                in_degree[dst] -= 1
                if in_degree[dst] == 0:
                    ready.append(dst)
        if len(order) != len(self._node_order):
            cyclic = [n for n, d in in_degree.items() if d > 0]
            raise ModelStructureError(
                f"{self.name}: diagram has a cycle through {cyclic!r}"
            )
        return order

    # ------------------------------------------------------------------
    def scenarios(self) -> Tuple[FunctionScenario, ...]:
        """All Begin->End scenarios with probabilities and service sets."""
        self.validate()
        results: List[FunctionScenario] = []

        def walk(node: Node, path: Tuple[Node, ...], prob: float, used: FrozenSet[str]):
            if node == END:
                results.append(
                    FunctionScenario(path=path, probability=prob, services=used)
                )
                return
            for dst, p in self._edges.get(node, []):
                if p == 0.0:
                    continue
                walk(
                    dst,
                    path + (dst,),
                    prob * p,
                    used | self._services[dst],
                )

        walk(BEGIN, (BEGIN,), 1.0, self._services[BEGIN])
        return tuple(results)

    def service_usage_distribution(self) -> Dict[FrozenSet[str], float]:
        """Distribution of the set of services one execution uses.

        Scenarios touching the same service set are merged.
        """
        usage: Dict[FrozenSet[str], float] = {}
        for scenario in self.scenarios():
            usage[scenario.services] = (
                usage.get(scenario.services, 0.0) + scenario.probability
            )
        return usage

    def availability(self, service_availability: Mapping[str, float]) -> float:
        """Function availability given per-service availabilities.

        ``sum over scenarios of  q_scenario * prod_{s in services} A(s)``
        — the function-level equations of the paper's Table 6.
        """
        return expected_product(
            self.service_usage_distribution(), service_availability, self.name
        )


def expected_product(
    distribution: Mapping[FrozenSet[str], float],
    service_availability: Mapping[str, float],
    owner: str,
) -> float:
    """``sum over sets of  prob(set) * prod_{s in set} A(s)``.

    Each set is multiplied in sorted order: frozenset iteration follows
    ``PYTHONHASHSEED``, and float products depend on order.  *owner*
    names the caller in the error for a service without availability.
    """
    total = 0.0
    for services, prob in distribution.items():
        product = prob
        for service in sorted(services):
            try:
                product *= service_availability[service]
            except KeyError:
                raise ValidationError(
                    f"{owner}: no availability for service {service!r}"
                ) from None
        total += product
    return total
