"""Discrete Bayesian networks of binary availability nodes.

The cloud-era models (multi-zone replica sets, common-cause zonal
failures) need dependence structure the paper's series/parallel
hierarchy cannot express: two replicas in the same zone are *not*
independent — both fail when the zone does.  A Bayesian network over
binary up/down nodes captures exactly that: each node carries a
conditional probability table (CPT) giving its probability of being
*up* for every assignment of its parents, and any joint or conditional
availability is an exact inference query.

Inference is exact variable elimination over factors (small numpy
arrays, one axis per variable), with a deterministic greedy
min-degree elimination order — the networks here are tens of nodes, so
exactness is cheap.  A network is compiled once: the node factors and
topological index are built on the first query, and each distinct
evidence set is solved once and memoized; :meth:`~BayesianNetwork.add_node`
discards both.  :meth:`BayesianNetwork.brute_force_probability`
enumerates the full joint as an independent oracle for tests and for
the ``bench_bayes_inference.py`` speed guard.

Conventions
-----------
* A node state is a boolean: ``True`` = up.
* A CPT row is indexed by the parent assignment with ``parents[0]`` as
  the most significant bit and bit value 1 meaning *up*; the row value
  is ``P(node up | that assignment)``.
* Roots take a single float (their availability).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .._validation import check_probability
from ..errors import ModelStructureError, ValidationError
from ..obs.clock import monotonic
from ..obs.context import active_metrics

__all__ = ["BayesianNetwork", "Node"]

#: Enumeration guard: the brute-force oracle materializes 2^n states.
MAX_ENUMERATION_NODES = 24


@dataclass(frozen=True)
class Node:
    """One binary availability node: name, parents, and its CPT.

    ``table[row]`` is ``P(up | parent assignment)`` where *row* encodes
    the parent states with ``parents[0]`` as the most significant bit
    (bit 1 = up).  Roots hold a one-entry table.
    """

    name: str
    parents: Tuple[str, ...]
    table: Tuple[float, ...]


class BayesianNetwork:
    """A DAG of binary availability nodes with exact inference.

    Examples
    --------
    >>> net = BayesianNetwork()
    >>> _ = net.add_node("zone", cpt=0.99)
    >>> _ = net.add_node("replica", parents=("zone",), cpt=(0.0, 0.95))
    >>> round(net.marginal("replica"), 4)
    0.9405
    """

    def __init__(self) -> None:
        self._nodes: Dict[str, Node] = {}
        self._order: Optional[Tuple[str, ...]] = None
        # Compiled on the first query, cleared by add_node.
        self._index: Dict[str, int] = {}
        self._factors: List["_Factor"] = []
        self._answers: Dict[Tuple[Tuple[str, bool], ...], float] = {}

    # -- construction --------------------------------------------------

    def add_node(
        self,
        name: str,
        parents: Sequence[str] = (),
        cpt=None,
    ) -> Node:
        """Declare one node; parents may be declared later (forward refs).

        *cpt* is a float for roots, a sequence of ``2**len(parents)``
        row probabilities, or a ``{parent-state tuple: probability}``
        mapping covering every row.
        """
        if not isinstance(name, str) or not name:
            raise ValidationError(
                f"node name must be a non-empty string, got {name!r}"
            )
        if name in self._nodes:
            raise ValidationError(f"duplicate node {name!r}")
        parents = tuple(parents)
        for parent in parents:
            if not isinstance(parent, str) or not parent:
                raise ValidationError(
                    f"node {name!r} parent must be a non-empty string, "
                    f"got {parent!r}"
                )
        if len(set(parents)) != len(parents):
            raise ValidationError(
                f"node {name!r} lists a duplicate parent: {list(parents)}"
            )
        if name in parents:
            raise ValidationError(f"node {name!r} cannot be its own parent")
        table = self._normalize_cpt(name, parents, cpt)
        node = Node(name=name, parents=parents, table=table)
        self._nodes[name] = node
        self._order = None
        self._factors = []
        self._answers = {}
        return node

    @staticmethod
    def _normalize_cpt(
        name: str, parents: Tuple[str, ...], cpt
    ) -> Tuple[float, ...]:
        rows = 1 << len(parents)
        if cpt is None:
            raise ValidationError(f"node {name!r} needs a CPT, got None")
        if isinstance(cpt, Mapping):
            table: List[Optional[float]] = [None] * rows
            for key, value in cpt.items():
                if (
                    not isinstance(key, tuple)
                    or len(key) != len(parents)
                    or not all(isinstance(b, (bool, np.bool_)) for b in key)
                ):
                    raise ValidationError(
                        f"node {name!r} CPT key must be a tuple of "
                        f"{len(parents)} booleans (one per parent), "
                        f"got {key!r}"
                    )
                row = 0
                for bit in key:
                    row = (row << 1) | int(bit)
                if table[row] is not None:
                    raise ValidationError(
                        f"node {name!r} CPT repeats row {key!r}"
                    )
                table[row] = check_probability(
                    value, f"node {name!r} CPT row {key!r}"
                )
            missing = [i for i, v in enumerate(table) if v is None]
            if missing:
                raise ValidationError(
                    f"node {name!r} CPT is missing {len(missing)} of "
                    f"{rows} rows (first missing row index: {missing[0]})"
                )
            return tuple(float(v) for v in table)  # type: ignore[arg-type]
        if isinstance(cpt, (int, float)) and not isinstance(cpt, bool):
            values: Sequence[float] = (float(cpt),)
        elif isinstance(cpt, Sequence) and not isinstance(cpt, str):
            values = tuple(cpt)
        else:
            raise ValidationError(
                f"node {name!r} CPT must be a probability, a sequence of "
                f"{rows} row probabilities, or a mapping, got {cpt!r}"
            )
        if len(values) != rows:
            raise ValidationError(
                f"node {name!r} CPT must have {rows} rows "
                f"(2^{len(parents)} parent assignments), got {len(values)}"
            )
        return tuple(
            check_probability(v, f"node {name!r} CPT row {i}")
            for i, v in enumerate(values)
        )

    @classmethod
    def from_spec(cls, spec: Mapping) -> "BayesianNetwork":
        """Build a network from a JSON-style specification.

        ``{"nodes": [{"name": ..., "parents": [...], "cpt": ...}, ...]}``
        — ``parents`` is optional, ``cpt`` is a number (roots) or a list
        of ``2**len(parents)`` row probabilities.  Unknown keys are
        rejected naming the node; the structure is validated eagerly
        (undefined parents, cycles).
        """
        if not isinstance(spec, Mapping):
            raise ValidationError(
                f"network spec must be a mapping, got {type(spec).__name__}"
            )
        unknown = sorted(set(spec) - {"nodes"})
        if unknown:
            raise ValidationError(
                f"unknown network spec key(s) {unknown}; allowed: ['nodes']"
            )
        nodes = spec.get("nodes")
        if not isinstance(nodes, Sequence) or isinstance(nodes, str):
            raise ValidationError(
                "network spec 'nodes' must be a list of node objects, "
                f"got {type(nodes).__name__}"
            )
        network = cls()
        for index, entry in enumerate(nodes):
            if not isinstance(entry, Mapping):
                raise ValidationError(
                    f"node spec #{index} must be a mapping, got "
                    f"{type(entry).__name__}"
                )
            label = entry.get("name", f"#{index}")
            unknown = sorted(set(entry) - {"name", "parents", "cpt"})
            if unknown:
                raise ValidationError(
                    f"node {label!r}: unknown key(s) {unknown}; allowed: "
                    "['cpt', 'name', 'parents']"
                )
            if "name" not in entry:
                raise ValidationError(f"node spec #{index} is missing 'name'")
            if "cpt" not in entry:
                raise ValidationError(f"node {label!r} is missing 'cpt'")
            parents = entry.get("parents", ())
            if isinstance(parents, str) or not isinstance(parents, Sequence):
                raise ValidationError(
                    f"node {label!r} 'parents' must be a list of node "
                    f"names, got {parents!r}"
                )
            network.add_node(
                entry["name"], parents=tuple(parents), cpt=entry["cpt"]
            )
        network.topological_order()  # validate structure eagerly
        return network

    # -- structure -----------------------------------------------------

    @property
    def nodes(self) -> Tuple[str, ...]:
        """Node names in insertion order."""
        return tuple(self._nodes)

    def node(self, name: str) -> Node:
        """The :class:`Node` for *name* (unknown names are an error)."""
        try:
            return self._nodes[name]
        except KeyError:
            raise ValidationError(
                f"unknown node {name!r}; known nodes: {sorted(self._nodes)}"
            ) from None

    def __len__(self) -> int:
        return len(self._nodes)

    def __contains__(self, name: str) -> bool:
        return name in self._nodes

    def __iter__(self) -> Iterator[Node]:
        return iter(self._nodes.values())

    def topological_order(self) -> Tuple[str, ...]:
        """Parents-before-children order; validates the DAG.

        Undefined parents and dependency cycles raise
        :class:`~repro.errors.ModelStructureError`, a cycle naming one
        offending edge.
        """
        if self._order is not None:
            return self._order
        for node in self._nodes.values():
            for parent in node.parents:
                if parent not in self._nodes:
                    raise ModelStructureError(
                        f"node {node.name!r} references undefined parent "
                        f"{parent!r}; defined nodes: {sorted(self._nodes)}"
                    )
        order: List[str] = []
        placed: set = set()
        remaining = list(self._nodes)
        while remaining:
            progressed = False
            for name in list(remaining):
                if all(p in placed for p in self._nodes[name].parents):
                    order.append(name)
                    placed.add(name)
                    remaining.remove(name)
                    progressed = True
            if not progressed:
                raise ModelStructureError(self._describe_cycle(remaining))
        self._order = tuple(order)
        return self._order

    def _describe_cycle(self, stuck: Sequence[str]) -> str:
        # Walk child -> first-stuck-parent until a node repeats; the
        # edge (revisited parent -> current child) lies on the cycle.
        stuck_set = set(stuck)
        current = stuck[0]
        seen = {current}
        while True:
            parent = next(
                p for p in self._nodes[current].parents if p in stuck_set
            )
            if parent in seen:
                return (
                    "dependency cycle through edge "
                    f"{parent!r} -> {current!r}"
                )
            seen.add(parent)
            current = parent

    # -- inference -----------------------------------------------------

    def probability_of(self, assignment: Mapping[str, bool]) -> float:
        """Exact joint probability of a (partial) node-state assignment.

        Unmentioned nodes are marginalized out by variable elimination.
        Each distinct evidence set is eliminated once per network; a
        repeated query returns the memoized answer, and only solves are
        counted in ``bayes_inference_queries``/``bayes_inference_seconds``.
        """
        evidence = self._validate_assignment(assignment, "assignment")
        key = tuple(sorted(evidence.items()))
        if key in self._answers:
            return self._answers[key]
        metrics = active_metrics()
        started = monotonic() if metrics is not None else 0.0
        order = self.topological_order()
        if not self._factors:
            self._index = {name: i for i, name in enumerate(order)}
            self._factors = [self._node_factor(name) for name in order]
        index = self._index
        factors = [_reduce(factor, evidence) for factor in self._factors]
        hidden = [name for name in order if name not in evidence]
        for var in _elimination_order(factors, hidden, index):
            factors = _eliminate(factors, var, index)
        value = 1.0
        for factor in factors:
            value *= float(factor.values)
        if metrics is not None:
            metrics.counter(
                "bayes_inference_queries",
                help="Exact variable-elimination inference queries.",
            ).inc()
            metrics.histogram(
                "bayes_inference_seconds",
                help="Wall-clock time of variable-elimination queries.",
            ).observe(monotonic() - started)
        value = min(max(value, 0.0), 1.0)
        self._answers[key] = value
        return value

    def marginal(
        self,
        name: str,
        evidence: Optional[Mapping[str, bool]] = None,
    ) -> float:
        """``P(name is up | evidence)`` (prior marginal without evidence)."""
        self.node(name)
        if not evidence:
            return self.probability_of({name: True})
        conditions = self._validate_assignment(evidence, "evidence")
        if name in conditions:
            return 1.0 if conditions[name] else 0.0
        denominator = self.probability_of(conditions)
        if denominator <= 0.0:
            raise ValidationError(
                f"evidence {dict(sorted(conditions.items()))} has "
                "probability zero; cannot condition on it"
            )
        return self.probability_of({**conditions, name: True}) / denominator

    def probability_all_up(self, names: Sequence[str]) -> float:
        """Joint probability that every node in *names* is up."""
        if not names:
            raise ValidationError(
                "probability_all_up needs at least one node name"
            )
        return self.probability_of({name: True for name in names})

    def brute_force_probability(self, assignment: Mapping[str, bool]) -> float:
        """The same query as :meth:`probability_of`, by full enumeration.

        Vectorized over all ``2**n`` joint states — an independent
        oracle for tests and the inference speed benchmark, usable up
        to ``MAX_ENUMERATION_NODES`` nodes.
        """
        evidence = self._validate_assignment(assignment, "assignment")
        order = self.topological_order()
        n = len(order)
        if n > MAX_ENUMERATION_NODES:
            raise ValidationError(
                f"brute-force enumeration is capped at "
                f"{MAX_ENUMERATION_NODES} nodes, got {n}"
            )
        column = {name: i for i, name in enumerate(order)}
        # states[s, i] = state of node order[i] in joint state s.
        codes = np.arange(1 << n, dtype=np.int64)
        states = (codes[:, None] >> (n - 1 - np.arange(n))) & 1
        weight = np.ones(1 << n)
        for name in order:
            node = self._nodes[name]
            table = np.asarray(node.table)
            rows = np.zeros(1 << n, dtype=np.int64)
            for parent in node.parents:
                rows = (rows << 1) | states[:, column[parent]]
            up = table[rows]
            weight *= np.where(states[:, column[name]] == 1, up, 1.0 - up)
        mask = np.ones(1 << n, dtype=bool)
        for name, state in evidence.items():
            mask &= states[:, column[name]] == int(state)
        return float(weight[mask].sum())

    # -- internals -----------------------------------------------------

    def _validate_assignment(
        self, assignment: Mapping[str, bool], what: str
    ) -> Dict[str, bool]:
        if not isinstance(assignment, Mapping) or not assignment:
            raise ValidationError(
                f"{what} must be a non-empty mapping of node name to "
                f"boolean state, got {assignment!r}"
            )
        validated: Dict[str, bool] = {}
        for name, state in assignment.items():
            self.node(name)
            if isinstance(state, (bool, np.bool_)):
                validated[name] = bool(state)
            elif isinstance(state, (int, np.integer)) and state in (0, 1):
                validated[name] = bool(state)
            else:
                raise ValidationError(
                    f"{what} state for node {name!r} must be a boolean, "
                    f"got {state!r}"
                )
        return validated

    def _node_factor(self, name: str) -> "_Factor":
        node = self._nodes[name]
        k = len(node.parents)
        up = np.asarray(node.table).reshape((2,) * k)
        values = np.stack([1.0 - up, up], axis=-1)
        values.flags.writeable = False  # shared by every cached query
        return _Factor(node.parents + (name,), values)


class _Factor:
    """A nonnegative table over binary variables (one axis each)."""

    __slots__ = ("vars", "values")

    def __init__(self, vars: Tuple[str, ...], values: np.ndarray) -> None:
        self.vars = vars
        self.values = values


def _reduce(factor: _Factor, evidence: Mapping[str, bool]) -> _Factor:
    """Slice observed variables out of *factor*."""
    values = factor.values
    kept: List[str] = []
    axis = 0
    for var in factor.vars:
        if var in evidence:
            values = np.take(values, int(evidence[var]), axis=axis)
        else:
            kept.append(var)
            axis += 1
    return _Factor(tuple(kept), values)


def _multiply(
    factors: Sequence[_Factor], index: Mapping[str, int]
) -> _Factor:
    """Pointwise product, axes ordered by node insertion index."""
    out_vars = tuple(
        sorted({v for f in factors for v in f.vars}, key=index.__getitem__)
    )
    axis_of = {v: i for i, v in enumerate(out_vars)}
    out = np.ones((2,) * len(out_vars))
    for factor in factors:
        perm = sorted(
            range(len(factor.vars)), key=lambda i: axis_of[factor.vars[i]]
        )
        aligned = np.transpose(factor.values, perm)
        present = set(factor.vars)
        shape = tuple(2 if v in present else 1 for v in out_vars)
        out = out * aligned.reshape(shape)
    return _Factor(out_vars, out)


def _eliminate(
    factors: List[_Factor], var: str, index: Mapping[str, int]
) -> List[_Factor]:
    """Sum *var* out of the factor list."""
    related = [f for f in factors if var in f.vars]
    rest = [f for f in factors if var not in f.vars]
    product = _multiply(related, index)
    axis = product.vars.index(var)
    rest.append(
        _Factor(
            tuple(v for v in product.vars if v != var),
            product.values.sum(axis=axis),
        )
    )
    return rest


def _elimination_order(
    factors: Sequence[_Factor],
    hidden: Sequence[str],
    index: Mapping[str, int],
) -> List[str]:
    """Greedy min-degree order, ties broken by node insertion order.

    Deterministic by construction — candidates are scanned in insertion
    order with a strict comparison — so parallel workers eliminate in
    the same order and produce bit-identical floats.
    """
    clusters = [set(f.vars) for f in factors]
    remaining = sorted(hidden, key=index.__getitem__)
    order: List[str] = []
    while remaining:
        best_var: Optional[str] = None
        best_degree = 0
        best_neighbors: set = set()
        for var in remaining:
            neighbors: set = set()
            for cluster in clusters:
                if var in cluster:
                    neighbors |= cluster
            neighbors.discard(var)
            if best_var is None or len(neighbors) < best_degree:
                best_var, best_degree = var, len(neighbors)
                best_neighbors = neighbors
        assert best_var is not None
        order.append(best_var)
        remaining.remove(best_var)
        clusters = [c for c in clusters if best_var not in c]
        clusters.append(best_neighbors)
    return order
