"""Continuous-time Markov chains over labelled state spaces.

The availability models of the paper (Figs. 9 and 10) are small CTMCs:
states count operational web servers, transitions carry failure, repair
and reconfiguration rates.  This module provides the generic CTMC type
with steady-state, transient and absorbing analyses; model-specific
closed forms live in :mod:`repro.availability` and are tested against the
numeric solutions produced here.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .._validation import check_distribution, check_positive, check_probability, check_rate
from ..errors import ModelStructureError, ValidationError
from .dtmc import DTMC
from .solvers import (
    _fallback_chain,
    _gth,
    _linear,
    _reachable,
    _require_irreducible,
    _uniformize,
    check_generator,
)
from . import transient as _transient

__all__ = ["CTMC"]

State = Hashable

#: The unchecked solver kernel behind each ``CTMC.steady_state`` method.
_STEADY_STATE_KERNELS = {"auto": _fallback_chain, "gth": _gth, "linear": _linear}


class CTMC:
    """A finite continuous-time Markov chain with hashable state labels.

    Parameters
    ----------
    states:
        Sequence of distinct hashable labels fixing matrix order.
    generator:
        Infinitesimal generator ``Q``: non-negative off-diagonals, rows
        summing to zero.  ``Q[i, j]`` (i != j) is the transition rate from
        ``states[i]`` to ``states[j]``.

    Examples
    --------
    A two-state repairable component with failure rate ``lam`` and repair
    rate ``mu`` has steady-state availability ``mu / (lam + mu)``:

    >>> lam, mu = 1e-3, 1.0
    >>> chain = CTMC(["up", "down"], [[-lam, lam], [mu, -mu]])
    >>> pi = chain.steady_state()
    >>> abs(pi["up"] - mu / (lam + mu)) < 1e-12
    True
    """

    def __init__(
        self,
        states: Sequence[State],
        generator: Sequence[Sequence[float]],
    ):
        self._states: Tuple[State, ...] = tuple(states)
        if len(set(self._states)) != len(self._states):
            raise ValidationError("state labels must be distinct")
        if not self._states:
            raise ValidationError("a CTMC needs at least one state")
        self._index: Dict[State, int] = {s: i for i, s in enumerate(self._states)}
        q = check_generator(np.asarray(generator, dtype=float))
        if q.shape[0] != len(self._states):
            raise ValidationError(
                f"generator shape {q.shape} does not match {len(self._states)} states"
            )
        self._q = q

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_rates(
        cls,
        rates: Mapping[Tuple[State, State], float],
        states: Optional[Sequence[State]] = None,
    ) -> "CTMC":
        """Build a chain from a ``{(src, dst): rate}`` mapping.

        Self-rates are rejected; diagonal entries are derived.  States may
        be given explicitly to fix ordering (and to include states with no
        outgoing transitions, which become absorbing).
        """
        if states is None:
            seen: List[State] = []
            for src, dst in rates:
                for node in (src, dst):
                    if node not in seen:
                        seen.append(node)
            states = seen
        states = tuple(states)
        index = {s: i for i, s in enumerate(states)}
        n = len(states)
        q = np.zeros((n, n))
        for (src, dst), rate in rates.items():
            if src == dst:
                raise ValidationError(f"self-transition on {src!r} is not allowed")
            if src not in index or dst not in index:
                raise ValidationError(f"rate ({src!r}, {dst!r}) references unknown state")
            q[index[src], index[dst]] += check_rate(rate, f"rate({src!r}->{dst!r})")
        np.fill_diagonal(q, -q.sum(axis=1))
        return cls(states, q)

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    @property
    def states(self) -> Tuple[State, ...]:
        """State labels in matrix order."""
        return self._states

    @property
    def generator(self) -> np.ndarray:
        """A copy of the infinitesimal generator matrix."""
        return self._q.copy()

    def __len__(self) -> int:
        return len(self._states)

    def __repr__(self) -> str:
        return f"CTMC(states={len(self._states)})"

    def index_of(self, state: State) -> int:
        """Matrix index of a state label."""
        try:
            return self._index[state]
        except KeyError:
            raise ValidationError(f"unknown state {state!r}") from None

    def rate(self, src: State, dst: State) -> float:
        """Transition rate from *src* to *dst* (0 when absent)."""
        i, j = self.index_of(src), self.index_of(dst)
        if i == j:
            raise ValidationError("diagonal entries are exit rates, not transitions")
        return float(self._q[i, j])

    def exit_rate(self, state: State) -> float:
        """Total rate of leaving *state* (the negated diagonal entry)."""
        i = self.index_of(state)
        return float(-self._q[i, i])

    def holding_time(self, state: State) -> float:
        """Mean sojourn time in *state*; ``inf`` for absorbing states."""
        rate = self.exit_rate(state)
        return float("inf") if rate == 0.0 else 1.0 / rate

    def absorbing_states(self) -> Tuple[State, ...]:
        """States with zero exit rate."""
        return tuple(
            s for i, s in enumerate(self._states) if -self._q[i, i] == 0.0
        )

    # ------------------------------------------------------------------
    # Derived chains
    # ------------------------------------------------------------------
    def embedded_dtmc(self) -> DTMC:
        """The jump chain: transition probabilities at departure instants.

        Absorbing CTMC states become absorbing DTMC states.
        """
        n = len(self)
        p = np.zeros((n, n))
        for i in range(n):
            exit_rate = -self._q[i, i]
            if exit_rate == 0.0:
                p[i, i] = 1.0
            else:
                p[i] = self._q[i] / exit_rate
                p[i, i] = 0.0
        return DTMC(self._states, p)

    def uniformized_dtmc(self, rate: Optional[float] = None) -> Tuple[DTMC, float]:
        """Uniformized chain ``P = I + Q / Lambda`` and the rate used.

        Parameters
        ----------
        rate:
            Uniformization rate ``Lambda``; must be at least the maximum
            exit rate.  Defaults to 1.05x the maximum exit rate (strictly
            above it, which makes the uniformized chain aperiodic).
        """
        if rate is not None:
            rate = check_positive(rate, "uniformization rate")
            max_exit = float(np.max(-np.diag(self._q)))
            if rate < max_exit:
                raise ValidationError(
                    f"uniformization rate {rate} is below the maximum exit rate {max_exit}"
                )
        p, rate = _uniformize(self._q, rate)
        return DTMC(self._states, p), rate

    # ------------------------------------------------------------------
    # Steady-state and transient analysis
    # ------------------------------------------------------------------
    def steady_state(self, method: str = "auto") -> Dict[State, float]:
        """Steady-state distribution of an irreducible chain.

        Parameters
        ----------
        method:
            ``"auto"`` (default; the fallback chain of
            :func:`~repro.markov.solvers.steady_state`: GTH, then the
            linear solve, then power iteration for chains of up to 256
            states; the sparse linear solve, then GTH, then power
            iteration for larger ones; warning which fallback was taken),
            ``"gth"`` (subtraction-free, robust for stiff models) or
            ``"linear"`` (direct solve, faster for large chains).

        The generator was validated at construction, so only the
        irreducibility check runs before the solve.
        """
        kernel = _STEADY_STATE_KERNELS.get(method)
        if kernel is None:
            raise ValidationError(f"unknown method {method!r}")
        _require_irreducible(self._q)
        pi = kernel(self._q)
        return dict(zip(self._states, pi.tolist()))

    def transient_distribution(
        self,
        initial: Mapping[State, float],
        time: float,
        tol: float = 1e-12,
    ) -> Dict[State, float]:
        """State distribution at *time* from *initial*, by uniformization."""
        p0 = self._vector(initial)
        result = _transient.uniformization(self._q, p0, time, tol=tol)
        return dict(zip(self._states, result.tolist()))

    def probability_in(
        self,
        states: Iterable[State],
        distribution: Mapping[State, float],
    ) -> float:
        """Total probability mass of *distribution* on the given states."""
        wanted = {self.index_of(s) for s in states}
        return float(
            sum(p for s, p in distribution.items() if self.index_of(s) in wanted)
        )

    # ------------------------------------------------------------------
    # Absorbing analysis
    # ------------------------------------------------------------------
    def mean_time_to_absorption(self, start: State) -> float:
        """Expected time until the chain hits any absorbing state.

        This is the classic MTTF computation when the absorbing states
        model system failure.  Computed by subtraction-free state
        reduction (censoring), which stays accurate even when the answer
        dwarfs the individual rates by tens of orders of magnitude —
        the regime of highly redundant farms, where a naive linear solve
        loses all precision.

        Raises
        ------
        ModelStructureError
            If the chain has no absorbing state, or the start state can
            reach a region from which absorption is impossible (infinite
            expected time).
        """
        absorbing = {self.index_of(s) for s in self.absorbing_states()}
        if not absorbing:
            raise ModelStructureError("chain has no absorbing state")
        start_idx = self.index_of(start)
        if start_idx in absorbing:
            return 0.0

        # Restrict to transient states reachable from the start.
        reachable = _reachable(self._q > 0, (start_idx,))
        transient = [
            i for i in range(len(self))
            if reachable[i] and i not in absorbing
        ]
        index = {state: k for k, state in enumerate(transient)}
        n = len(transient)

        # Embedded-chain quantities on the transient block:
        #   p[i][j]  transition probability among transient states,
        #   a[i]     probability of jumping straight into absorption,
        #   h[i]     expected time accumulated per visit.
        p = np.zeros((n, n))
        a = np.zeros(n)
        h = np.zeros(n)
        for i_state in transient:
            i = index[i_state]
            exit_rate = -self._q[i_state, i_state]
            if exit_rate == 0.0:
                raise ModelStructureError(
                    f"state {self._states[i_state]!r} is absorbing but was "
                    "classified transient"
                )
            h[i] = 1.0 / exit_rate
            for j_state in range(len(self)):
                if j_state == i_state:
                    continue
                rate = self._q[i_state, j_state]
                if rate <= 0.0:
                    continue
                probability = rate / exit_rate
                if j_state in absorbing:
                    a[i] += probability
                elif j_state in index:
                    p[i, index[j_state]] += probability
                else:
                    # Unreachable from start yet entered from a reachable
                    # state: impossible by construction of `reachable`.
                    raise ModelStructureError("inconsistent reachability")

        start_k = index[start_idx]
        # Eliminate every transient state except the start, folding its
        # time and absorption mass into its predecessors.  All updates
        # are additions of non-negative numbers.
        alive = [k for k in range(n) if k != start_k]
        remaining = set(range(n))
        for k in alive:
            remaining.discard(k)
            denom = a[k] + sum(p[k, j] for j in remaining)
            if denom <= 0.0:
                raise ModelStructureError(
                    f"state {self._states[transient[k]]!r} cannot reach an "
                    "absorbing state: expected absorption time is infinite"
                )
            # tau_k = (h_k + sum_{j in remaining} p_kj tau_j) / denom
            for i in remaining:
                weight = p[i, k]
                if weight == 0.0:
                    continue
                factor = weight / denom
                h[i] += factor * h[k]
                a[i] += factor * a[k]
                for j in remaining:
                    if p[k, j] > 0.0:
                        p[i, j] += factor * p[k, j]
                p[i, k] = 0.0
        denom = a[start_k]
        if denom <= 0.0:
            raise ModelStructureError(
                f"state {start!r} cannot reach an absorbing state: "
                "expected absorption time is infinite"
            )
        return float(h[start_k] / denom)

    # ------------------------------------------------------------------
    # Simulation support
    # ------------------------------------------------------------------
    def sample_sojourn(
        self, state: State, rng: np.random.Generator
    ) -> Tuple[float, Optional[State]]:
        """Sample (holding time, next state) from *state*.

        Returns ``(inf, None)`` for absorbing states.
        """
        i = self.index_of(state)
        exit_rate = -self._q[i, i]
        if exit_rate == 0.0:
            return float("inf"), None
        dwell = rng.exponential(1.0 / exit_rate)
        probs = self._q[i].copy()
        probs[i] = 0.0
        probs /= probs.sum()
        nxt = self._states[int(rng.choice(len(self), p=probs))]
        return float(dwell), nxt

    def _vector(self, distribution: Mapping[State, float]) -> np.ndarray:
        vec = np.zeros(len(self))
        for state, prob in distribution.items():
            vec[self.index_of(state)] = check_probability(prob, f"p({state!r})")
        check_distribution(vec, name="initial distribution")
        return vec
