"""Discrete-time Markov chains over labelled state spaces.

The paper's *user level* is a DTMC: the operational-profile graph of
Fig. 2 is a session chain whose transient states are the site functions
(Home, Browse, Search, Book, Pay) and whose absorbing state is "Exit".
Everything the profile layer needs — absorption analysis, expected visit
counts, visited-set distributions — reduces to the fundamental-matrix
machinery implemented here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .._validation import check_distribution, check_probability
from ..errors import ModelStructureError, ValidationError
from .solvers import _gth, _power, _reachable, _require_irreducible

__all__ = ["DTMC", "AbsorptionAnalysis"]

State = Hashable


@dataclass(frozen=True)
class AbsorptionAnalysis:
    """Results of the absorbing-chain analysis of a DTMC.

    Attributes
    ----------
    transient_states:
        Transient state labels, in the row order of the matrices below.
    absorbing_states:
        Absorbing state labels, in the column order of
        ``absorption_probabilities``.
    fundamental_matrix:
        ``N = (I - T)^-1`` where ``T`` is the transient-to-transient block;
        ``N[i, j]`` is the expected number of visits to transient state j
        when starting from transient state i.
    absorption_probabilities:
        ``B = N @ R``; ``B[i, k]`` is the probability of eventually being
        absorbed in absorbing state k when starting in transient state i.
    expected_steps:
        ``t = N @ 1``; expected number of transitions before absorption
        from each transient state.
    """

    transient_states: Tuple[State, ...]
    absorbing_states: Tuple[State, ...]
    fundamental_matrix: np.ndarray
    absorption_probabilities: np.ndarray
    expected_steps: np.ndarray

    def expected_visits(self, start: State, target: State) -> float:
        """Expected number of visits to *target* starting from *start*."""
        i = self.transient_states.index(start)
        j = self.transient_states.index(target)
        return float(self.fundamental_matrix[i, j])

    def absorption_probability(self, start: State, absorbing: State) -> float:
        """Probability that a walk from *start* is absorbed in *absorbing*."""
        i = self.transient_states.index(start)
        k = self.absorbing_states.index(absorbing)
        return float(self.absorption_probabilities[i, k])


class DTMC:
    """A finite discrete-time Markov chain with hashable state labels.

    Parameters
    ----------
    states:
        Sequence of distinct hashable labels; the order fixes the row and
        column order of the transition matrix.
    transition_matrix:
        Row-stochastic matrix; ``P[i, j]`` is the one-step probability of
        moving from ``states[i]`` to ``states[j]``.

    Examples
    --------
    >>> chain = DTMC(["sunny", "rainy"], [[0.9, 0.1], [0.5, 0.5]])
    >>> round(chain.stationary_distribution()["sunny"], 4)
    0.8333
    """

    def __init__(
        self,
        states: Sequence[State],
        transition_matrix: Sequence[Sequence[float]],
    ):
        self._states: Tuple[State, ...] = tuple(states)
        if len(set(self._states)) != len(self._states):
            raise ValidationError("state labels must be distinct")
        if not self._states:
            raise ValidationError("a DTMC needs at least one state")
        self._index: Dict[State, int] = {s: i for i, s in enumerate(self._states)}
        p = np.asarray(transition_matrix, dtype=float)
        n = len(self._states)
        if p.shape != (n, n):
            raise ValidationError(
                f"transition matrix shape {p.shape} does not match {n} states"
            )
        for row in range(n):
            check_distribution(p[row], name=f"row {row} ({self._states[row]!r})")
        self._p = p

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_edges(
        cls,
        edges: Mapping[Tuple[State, State], float],
        states: Optional[Sequence[State]] = None,
        allow_absorbing: bool = True,
    ) -> "DTMC":
        """Build a chain from an edge-probability mapping.

        Parameters
        ----------
        edges:
            ``{(src, dst): probability}``.  Probabilities out of each state
            must sum to one, except that a state with no outgoing edges is
            made absorbing (a self-loop with probability one) when
            *allow_absorbing* is true.
        states:
            Optional explicit state ordering; defaults to first-seen order
            of the edge endpoints.
        """
        if states is None:
            seen: List[State] = []
            for src, dst in edges:
                for node in (src, dst):
                    if node not in seen:
                        seen.append(node)
            states = seen
        states = tuple(states)
        index = {s: i for i, s in enumerate(states)}
        n = len(states)
        p = np.zeros((n, n))
        for (src, dst), prob in edges.items():
            if src not in index or dst not in index:
                raise ValidationError(f"edge ({src!r}, {dst!r}) references unknown state")
            p[index[src], index[dst]] += check_probability(prob, f"p({src!r}->{dst!r})")
        for row in range(n):
            total = p[row].sum()
            if total == 0.0:
                if not allow_absorbing:
                    raise ModelStructureError(
                        f"state {states[row]!r} has no outgoing probability"
                    )
                p[row, row] = 1.0
        return cls(states, p)

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    @property
    def states(self) -> Tuple[State, ...]:
        """State labels in matrix order."""
        return self._states

    @property
    def transition_matrix(self) -> np.ndarray:
        """A copy of the row-stochastic transition matrix."""
        return self._p.copy()

    def __len__(self) -> int:
        return len(self._states)

    def __repr__(self) -> str:
        return f"DTMC(states={len(self._states)})"

    def index_of(self, state: State) -> int:
        """Matrix index of a state label."""
        try:
            return self._index[state]
        except KeyError:
            raise ValidationError(f"unknown state {state!r}") from None

    def probability(self, src: State, dst: State) -> float:
        """One-step transition probability from *src* to *dst*."""
        return float(self._p[self.index_of(src), self.index_of(dst)])

    def successors(self, state: State) -> Dict[State, float]:
        """Mapping of reachable next states to their probabilities."""
        row = self._p[self.index_of(state)]
        return {
            self._states[j]: float(row[j]) for j in np.nonzero(row)[0]
        }

    # ------------------------------------------------------------------
    # Classification
    # ------------------------------------------------------------------
    def absorbing_states(self) -> Tuple[State, ...]:
        """States with a probability-one self-loop."""
        return tuple(
            s
            for i, s in enumerate(self._states)
            if self._p[i, i] == 1.0
        )

    def is_absorbing_chain(self) -> bool:
        """True when at least one absorbing state is reachable from every state."""
        absorbing = [self.index_of(s) for s in self.absorbing_states()]
        if not absorbing:
            return False
        # One sweep backwards along the edges from the absorbing states.
        return all(_reachable(self._p.T > 0, absorbing))

    # ------------------------------------------------------------------
    # Stationary behaviour
    # ------------------------------------------------------------------
    def stationary_distribution(self, method: str = "direct") -> Dict[State, float]:
        """Stationary distribution of an irreducible chain.

        Parameters
        ----------
        method:
            ``"direct"`` solves ``pi (P - I) = 0`` by GTH elimination;
            ``"power"`` uses power iteration.

        The matrix was validated at construction, so the solvers' kernels
        run without re-checking it.
        """
        if method == "direct":
            q = self._p - np.eye(len(self))
            _require_irreducible(q)
            pi = _gth(q)
        elif method == "power":
            pi, _ = _power(self._p)
        else:
            raise ValidationError(f"unknown method {method!r}")
        return dict(zip(self._states, pi.tolist()))

    def transient_distribution(
        self, initial: Mapping[State, float], steps: int
    ) -> Dict[State, float]:
        """Distribution after *steps* transitions from *initial*."""
        p0 = self._vector(initial)
        if steps < 0:
            raise ValidationError(f"steps must be >= 0, got {steps}")
        result = p0 @ np.linalg.matrix_power(self._p, steps)
        return dict(zip(self._states, result.tolist()))

    # ------------------------------------------------------------------
    # Absorbing analysis (the workhorse of the profile layer)
    # ------------------------------------------------------------------
    def absorption_analysis(self) -> AbsorptionAnalysis:
        """Fundamental-matrix analysis of an absorbing chain.

        Raises
        ------
        ModelStructureError
            If the chain has no absorbing state, or some state cannot
            reach one (the walk could wander forever).
        """
        absorbing = self.absorbing_states()
        if not absorbing:
            raise ModelStructureError("chain has no absorbing state")
        if not self.is_absorbing_chain():
            raise ModelStructureError(
                "some states cannot reach an absorbing state"
            )
        absorbing_idx = [self.index_of(s) for s in absorbing]
        transient_idx = [
            i for i in range(len(self)) if i not in set(absorbing_idx)
        ]
        transient = tuple(self._states[i] for i in transient_idx)
        t_block = self._p[np.ix_(transient_idx, transient_idx)]
        r_block = self._p[np.ix_(transient_idx, absorbing_idx)]
        identity = np.eye(len(transient_idx))
        fundamental = np.linalg.solve(
            identity - t_block, identity
        )
        absorption = fundamental @ r_block
        steps = fundamental.sum(axis=1)
        return AbsorptionAnalysis(
            transient_states=transient,
            absorbing_states=tuple(absorbing),
            fundamental_matrix=fundamental,
            absorption_probabilities=absorption,
            expected_steps=steps,
        )

    def hitting_probability(self, start: State, targets: Iterable[State]) -> float:
        """Probability that a walk from *start* ever visits any of *targets*.

        Computed by making the target states absorbing and solving the
        modified chain's absorption probabilities.
        """
        target_set = {self.index_of(t) for t in targets}
        if self.index_of(start) in target_set:
            return 1.0
        p = self._p.copy()
        for t in target_set:
            p[t, :] = 0.0
            p[t, t] = 1.0
        modified = DTMC(self._states, p)
        analysis = modified.absorption_analysis()
        total = 0.0
        for t in target_set:
            label = self._states[t]
            if label in analysis.absorbing_states:
                total += analysis.absorption_probability(start, label)
        return total

    # ------------------------------------------------------------------
    # Simulation
    # ------------------------------------------------------------------
    def sample_path(
        self,
        start: State,
        rng: np.random.Generator,
        max_steps: int = 1_000_000,
        stop_states: Optional[Iterable[State]] = None,
    ) -> List[State]:
        """Sample one trajectory, stopping at an absorbing/stop state.

        Parameters
        ----------
        start:
            Initial state label (included as the first path element).
        rng:
            A :class:`numpy.random.Generator`; the caller owns seeding.
        max_steps:
            Safety cap on path length.
        stop_states:
            Extra states that terminate the walk (in addition to
            absorbing states).
        """
        stops = {self.index_of(s) for s in (stop_states or ())}
        current = self.index_of(start)
        path = [self._states[current]]
        for _ in range(max_steps):
            if current in stops or self._p[current, current] == 1.0:
                return path
            current = int(rng.choice(len(self), p=self._p[current]))
            path.append(self._states[current])
        raise ModelStructureError(
            f"sample path exceeded {max_steps} steps without stopping"
        )

    def _vector(self, distribution: Mapping[State, float]) -> np.ndarray:
        vec = np.zeros(len(self))
        for state, prob in distribution.items():
            vec[self.index_of(state)] = check_probability(prob, f"p({state!r})")
        check_distribution(vec, name="initial distribution")
        return vec
