"""Steady-state solvers for finite Markov chains.

Three solution strategies are provided, trading robustness for speed:

* :func:`steady_state_gth` — the Grassmann-Taksar-Heyman elimination
  algorithm.  Subtraction-free, hence numerically stable even for stiff
  generators (failure rates of 1e-4/h against service rates of 100/s, the
  regime of the paper's web-service model).  O(n^3); the default for the
  modest state spaces produced by availability models.
* :func:`steady_state_linear` — direct sparse/dense linear solve of the
  balance equations with the normalization condition replacing one
  equation.  Faster for large sparse generators.
* :func:`steady_state_power` — power iteration on a DTMC transition
  matrix; useful when only an approximate stationary vector is needed.

:func:`steady_state` chains the three with a componentwise-residual
acceptance check, warning which fallback was taken.  Small dense
generators lead with GTH (no speed penalty, immune to stiffness); large
generators lead with the sparse linear solve.  It is the recommended
entry point when the generator's conditioning is unknown, and the only
strategy chain in the package.

Each public function validates its input once and then runs an
unchecked kernel (``_gth``, ``_linear``, ``_power``).  Callers that
validated their matrix at construction, such as
:class:`~repro.markov.CTMC` and :class:`~repro.markov.DTMC`, run the
kernels directly after the irreducibility check.
"""

from __future__ import annotations

import warnings
from typing import Iterable, List, Optional, Tuple

import numpy as np

from .._validation import check_distribution, check_finite_array
from ..errors import NotIrreducibleError, SolverError, ValidationError
from ..obs.clock import monotonic
from ..obs.context import active_metrics

__all__ = [
    "steady_state",
    "steady_state_gth",
    "steady_state_linear",
    "steady_state_power",
    "strongly_connected_components",
    "check_generator",
]

_ZERO_ROW_TOL = 1e-300


def check_generator(matrix: np.ndarray, tol: float = 1e-8) -> np.ndarray:
    """Validate that *matrix* is a CTMC infinitesimal generator.

    A generator has non-negative off-diagonal entries and rows summing to
    zero.  Returns the matrix as a float array (not a copy when already
    float64).  Raises :class:`ValidationError` otherwise.
    """
    q = np.asarray(matrix, dtype=float)
    if q.ndim != 2 or q.shape[0] != q.shape[1]:
        raise ValidationError(f"generator must be square, got shape {q.shape}")
    # Finiteness first: NaN entries sail through the sign and row-sum
    # comparisons below (every NaN comparison is False) and would only
    # surface as a confusing solver failure much later.
    check_finite_array(q, "generator")
    off_diag = q - np.diag(np.diag(q))
    if np.any(off_diag < -tol):
        raise ValidationError("generator has negative off-diagonal entries")
    row_sums = q.sum(axis=1)
    scale = np.maximum(np.abs(q).max(axis=1), 1.0)
    if np.any(np.abs(row_sums) > tol * scale):
        worst = int(np.argmax(np.abs(row_sums) / scale))
        raise ValidationError(
            f"generator rows must sum to zero; row {worst} sums to {row_sums[worst]!r}"
        )
    return q


def _uniformize(
    q: np.ndarray, rate: Optional[float] = None
) -> Tuple[np.ndarray, float]:
    """The uniformized transition matrix ``P = I + Q / Lambda`` and ``Lambda``.

    *rate* defaults to 1.05x the maximum exit rate (strictly above it,
    which makes ``P`` aperiodic), or 1 when no state can be left.  The
    generator is taken as already validated.
    """
    if rate is None:
        max_exit = float(np.max(-np.diag(q)))
        rate = max_exit * 1.05 if max_exit > 0 else 1.0
    return np.eye(q.shape[0]) + q / rate, rate


def strongly_connected_components(adjacency: np.ndarray) -> List[List[int]]:
    """Strongly connected components of a directed reachability structure.

    Parameters
    ----------
    adjacency:
        Square matrix; entry ``[i, j] != 0`` means an edge ``i -> j``
        (rates and probabilities both qualify).

    Returns
    -------
    list of lists of state indices, one per component, in topological
    order of the component DAG (sources first).
    """
    from scipy.sparse import csgraph, csr_matrix

    a = csr_matrix(np.asarray(adjacency) != 0)
    n_comp, labels = csgraph.connected_components(a, directed=True, connection="strong")
    components: List[List[int]] = [[] for _ in range(n_comp)]
    for state, label in enumerate(labels):
        components[label].append(state)
    # scipy labels components in reverse topological order; flip for readability
    return list(reversed(components))


def _reachable(edges: np.ndarray, roots: Iterable[int]) -> List[bool]:
    """Which states the *roots* reach along the edges of *edges*.

    Entry ``[i, j] != 0`` of the square matrix *edges* is an edge
    ``i -> j``; pass ``edges.T`` to find instead the states from which
    some root is reachable.  The roots reach themselves.  One depth-first
    sweep over the :func:`numpy.nonzero` edges, which come sorted by
    source so that each state's successors form one contiguous slice; it
    stops as soon as every state has been seen.
    """
    n = edges.shape[0]
    sources, targets = np.nonzero(edges)
    offsets = np.searchsorted(sources, np.arange(n + 1)).tolist()
    seen = [False] * n
    stack = []
    for root in roots:
        if not seen[root]:
            seen[root] = True
            stack.append(root)
    unseen = n - len(stack)
    while stack and unseen:
        state = stack.pop()
        for successor in targets[offsets[state]:offsets[state + 1]].tolist():
            if not seen[successor]:
                seen[successor] = True
                unseen -= 1
                stack.append(successor)
    return seen


def _require_irreducible(q: np.ndarray) -> None:
    # Irreducible iff state 0 reaches every state and every state reaches
    # 0 (the predicate "one strongly connected component").  The diagonal
    # only adds self-loops, which reach nothing new.  The component pass
    # runs only to name the transient states of a reducible chain.
    if q.shape[0] == 0:
        return
    if all(_reachable(q, (0,))) and all(_reachable(q.T, (0,))):
        return
    adjacency = q.copy()
    np.fill_diagonal(adjacency, 0.0)
    components = strongly_connected_components(adjacency)
    transient = [s for comp in components[:-1] for s in comp]
    raise NotIrreducibleError(
        "chain is not irreducible: a unique steady-state distribution "
        f"does not exist ({len(components)} strongly connected components)",
        problem_states=tuple(transient),
    )


def steady_state_gth(generator: np.ndarray) -> np.ndarray:
    """Steady-state distribution of an irreducible CTMC via GTH elimination.

    The Grassmann-Taksar-Heyman algorithm performs Gaussian elimination
    using only additions of non-negative numbers, which makes it immune to
    the catastrophic cancellation that plagues naive solves of stiff
    availability models.

    Parameters
    ----------
    generator:
        Square infinitesimal generator matrix ``Q`` (rows sum to zero).

    Returns
    -------
    numpy.ndarray
        The probability vector ``pi`` with ``pi @ Q = 0`` and ``sum(pi) = 1``.
    """
    q = check_generator(generator)
    _require_irreducible(q)
    return _gth(q)


def _gth(q: np.ndarray) -> np.ndarray:
    """The GTH kernel of :func:`steady_state_gth`; checks nothing."""
    n = q.shape[0]
    if n == 1:
        return np.ones(1)

    # Work on the off-diagonal rate matrix; diagonals are implied.
    rates = q.copy()
    np.fill_diagonal(rates, 0.0)

    # Forward elimination: censor states n-1, n-2, ..., 1 one at a time.
    for k in range(n - 1, 0, -1):
        denom = rates[k, :k].sum()
        if denom <= _ZERO_ROW_TOL:
            raise SolverError(
                f"GTH elimination hit a zero pivot at state {k}; "
                "the chain structure does not admit a steady state"
            )
        factor = rates[:k, k] / denom
        rates[:k, :k] += np.outer(factor, rates[k, :k])
        np.fill_diagonal(rates[:k, :k], 0.0)

    # Back substitution.
    pi = np.zeros(n)
    pi[0] = 1.0
    for k in range(1, n):
        denom = rates[k, :k].sum()
        pi[k] = pi[:k] @ rates[:k, k] / denom
    return pi / pi.sum()


def steady_state_linear(generator: np.ndarray, sparse: bool = False) -> np.ndarray:
    """Steady-state distribution via a direct solve of the balance equations.

    Replaces the last balance equation by the normalization constraint and
    solves ``pi @ Q = 0, sum(pi) = 1`` as a single linear system.

    Parameters
    ----------
    generator:
        Square infinitesimal generator matrix.
    sparse:
        Solve with :func:`scipy.sparse.linalg.spsolve`; worthwhile for
        generators with thousands of states.
    """
    q = check_generator(generator)
    _require_irreducible(q)
    return _linear(q, sparse=sparse)


def _linear(q: np.ndarray, sparse: bool = False) -> np.ndarray:
    """The linear-solve kernel of :func:`steady_state_linear`; checks nothing."""
    n = q.shape[0]
    a = q.T.copy()
    a[-1, :] = 1.0
    b = np.zeros(n)
    b[-1] = 1.0
    try:
        if sparse:
            from scipy.sparse import csc_matrix
            from scipy.sparse.linalg import spsolve

            pi = spsolve(csc_matrix(a), b)
        else:
            pi = np.linalg.solve(a, b)
    except (np.linalg.LinAlgError, RuntimeError) as exc:
        raise SolverError(f"linear steady-state solve failed: {exc}") from exc
    if np.any(pi < -1e-8):
        raise SolverError(
            "linear steady-state solve produced negative probabilities; "
            "use steady_state_gth for stiff generators"
        )
    pi = np.clip(pi, 0.0, None)
    return pi / pi.sum()


def steady_state_power(
    transition_matrix: np.ndarray,
    tol: float = 1e-12,
    max_iterations: int = 100_000,
) -> Tuple[np.ndarray, int]:
    """Stationary vector of a DTMC transition matrix by power iteration.

    A damping-free power iteration; for periodic chains the iterate is
    averaged over two successive steps, which converges for any
    irreducible finite chain.

    Returns
    -------
    (pi, iterations):
        The stationary vector and the number of iterations used.

    Raises
    ------
    ValidationError
        If the matrix is empty, not square or not finite, or a row is not
        a probability distribution (the rule :class:`~repro.markov.DTMC`
        applies).
    SolverError
        If convergence is not reached within *max_iterations*.
    """
    # Finiteness first: it names the bad entry in one line, where the
    # row check would print the whole row.
    p = np.asarray(transition_matrix, dtype=float)
    if p.ndim != 2 or p.shape[0] != p.shape[1] or p.shape[0] == 0:
        raise ValidationError(
            f"transition matrix must be non-empty and square, got {p.shape}"
        )
    check_finite_array(p, "transition matrix")
    for row in range(p.shape[0]):
        check_distribution(p[row], name=f"transition matrix row {row}")
    return _power(p, tol, max_iterations)


def _power(
    p: np.ndarray, tol: float = 1e-12, max_iterations: int = 100_000
) -> Tuple[np.ndarray, int]:
    """The power-iteration kernel of :func:`steady_state_power`; checks nothing."""
    n = p.shape[0]
    pi = np.full(n, 1.0 / n)
    for iteration in range(1, max_iterations + 1):
        nxt = pi @ p
        # Average consecutive iterates: handles period-2 chains gracefully.
        smoothed = 0.5 * (nxt + nxt @ p)
        smoothed /= smoothed.sum()
        if np.abs(smoothed - pi).max() < tol:
            metrics = active_metrics()
            if metrics is not None:
                from ..obs.metrics import DEFAULT_ITERATION_BOUNDS

                metrics.histogram(
                    "ctmc_power_iterations",
                    bounds=DEFAULT_ITERATION_BOUNDS,
                    help="Iterations used by converged power-iteration solves.",
                ).observe(iteration)
            return smoothed, iteration
        pi = smoothed
    raise SolverError(
        f"power iteration did not converge within {max_iterations} iterations"
    )


def _residual(q: np.ndarray, pi: np.ndarray) -> float:
    """Componentwise balance-equation residual ``max_j |pi Q|_j / (|pi| |Q|)_j``.

    A max-norm residual (``max|pi Q| / max|Q|``) hides inaccuracy in the
    small components of stiff chains: a direct solve can satisfy it to
    machine precision while the probability of a rare state is off by six
    digits.  Scaling each balance equation by the mass that flows through
    it exposes exactly that loss, so the stiff case falls back to GTH.
    """
    numerator = np.abs(pi @ q)
    denominator = np.abs(pi) @ np.abs(q)
    floor = float(np.abs(q).max()) * np.finfo(float).tiny + np.finfo(float).tiny
    return float(np.max(numerator / np.maximum(denominator, floor)))


#: Below this state count a dense O(n^3) solve is cheap either way, so the
#: subtraction-free GTH elimination leads; above it the linear solve's
#: sparse path is worth trying first.
_SMALL_DENSE_CUTOFF = 256


def steady_state(generator: np.ndarray, residual_tol: float = 1e-9) -> np.ndarray:
    """Steady-state distribution with automatic solver fallback.

    For small dense generators (``n <= 256``, the regime of availability
    models) the strategy order is GTH elimination, then the linear solve,
    then power iteration: at this size a direct solve is no faster than
    GTH, and a direct solve of a stiff chain can lose several digits in
    the rare-state probabilities in ways no cheap residual check can
    certify against.  For larger generators the order is linear solve
    (sparse), then GTH, then power iteration.

    A solution is accepted only when every balance equation is satisfied
    to *residual_tol* relative to the probability mass flowing through it
    (a componentwise residual, so accuracy is demanded even in the tiny
    steady-state components of stiff chains); otherwise the next solver
    is tried and a :class:`UserWarning` names the fallback taken.

    Raises
    ------
    NotIrreducibleError
        Immediately (no fallback can help) when the chain has no unique
        steady state.
    SolverError
        When every strategy fails.
    """
    q = check_generator(generator)
    _require_irreducible(q)
    return _fallback_chain(q, residual_tol)


def _fallback_chain(q: np.ndarray, residual_tol: float = 1e-9) -> np.ndarray:
    """The strategy chain of :func:`steady_state` on a checked, irreducible *q*."""
    n = q.shape[0]
    gth = ("GTH elimination", lambda: _gth(q))
    linear = ("linear solve", lambda: _linear(q, sparse=n > _SMALL_DENSE_CUTOFF))
    power = ("power iteration", lambda: _power(_uniformize(q)[0])[0])
    if n <= _SMALL_DENSE_CUTOFF:
        strategies = [gth, linear, power]
    else:
        strategies = [linear, gth, power]

    metrics = active_metrics()
    started = monotonic() if metrics is not None else 0.0

    failures: List[str] = []
    for index, (name, solve) in enumerate(strategies):
        try:
            pi = solve()
            res = _residual(q, pi)
            if not np.isfinite(res) or res > residual_tol:
                raise SolverError(
                    f"{name} solution has residual {res:.3e} > {residual_tol:.3e}"
                )
            if metrics is not None:
                metrics.histogram(
                    "ctmc_steady_state_seconds",
                    help="Wall-clock time of accepted steady-state solves.",
                ).observe(monotonic() - started)
                metrics.counter(
                    "ctmc_solves",
                    help="Accepted steady-state solves by winning strategy.",
                    strategy=name,
                ).inc()
            return pi
        except SolverError as exc:
            failures.append(f"{name}: {exc}")
            if metrics is not None:
                metrics.counter(
                    "ctmc_solver_fallbacks",
                    help="Steady-state strategies that failed and fell back.",
                    strategy=name,
                ).inc()
            if index + 1 < len(strategies):
                warnings.warn(
                    f"steady_state: {name} failed ({exc}); "
                    f"falling back to {strategies[index + 1][0]}",
                    stacklevel=3,
                )
    raise SolverError(
        "all steady-state strategies failed: " + "; ".join(failures)
    )
