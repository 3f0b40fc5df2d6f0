"""Transient analysis of CTMCs by uniformization.

Uniformization (also called randomization or Jensen's method) expresses
``p(t) = p0 exp(Qt)`` as a Poisson-weighted sum of DTMC powers::

    p(t) = sum_k PoissonPMF(k; Lambda t) * p0 P^k,   P = I + Q / Lambda

The sum is truncated when the accumulated Poisson mass reaches ``1 - tol``;
all terms are non-negative so the method is numerically stable, unlike a
naive matrix exponential of a stiff generator.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Optional

import numpy as np

from .._validation import check_non_negative
from ..errors import SolverError
from .solvers import _uniformize, check_generator

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from ..runtime.budget import CancellationToken

__all__ = ["uniformization", "transient_distribution"]

_MAX_TERMS = 10_000_000
# Above this Poisson rate (Lambda * t) the truncated series needs too many
# terms; uniformization hands over to a matrix exponential.
_SERIES_LIMIT = 1_000_000.0


def uniformization(
    generator: np.ndarray,
    initial: np.ndarray,
    time: float,
    tol: float = 1e-12,
    cancellation: Optional["CancellationToken"] = None,
) -> np.ndarray:
    """Transient distribution ``p0 exp(Qt)`` via uniformization.

    Parameters
    ----------
    generator:
        Infinitesimal generator ``Q``.
    initial:
        Initial probability vector ``p0``.
    time:
        Elapsed time ``t >= 0``.
    tol:
        Truncation tolerance on the neglected Poisson tail mass.
    cancellation:
        Optional :class:`~repro.runtime.CancellationToken` charged one
        iteration per series term, so a stiff solve honours wall-clock
        deadlines and iteration budgets instead of grinding through
        millions of terms.

    Returns
    -------
    numpy.ndarray
        The distribution at time ``t`` (renormalized to absorb the
        truncation error).
    """
    q = check_generator(generator)
    p0 = np.asarray(initial, dtype=float)
    time = check_non_negative(time, "time")
    if time == 0.0:
        return p0.copy()

    if float(np.max(-np.diag(q))) == 0.0:
        # All states absorbing: nothing moves.
        return p0.copy()
    p_matrix, rate = _uniformize(q)

    poisson_rate = rate * time
    if poisson_rate > _SERIES_LIMIT:
        # Term-by-term summation would need ~Lambda*t matrix products;
        # beyond the limit a scaling-and-squaring matrix exponential is
        # both faster and accurate (the generator is well-conditioned
        # after uniformization normalizes the time scale).
        from scipy.linalg import expm

        result = p0 @ expm(q * time)
        result = np.clip(result, 0.0, None)
        total = result.sum()
        if total <= 0.0:
            raise SolverError("matrix-exponential transient solve degenerated")
        return result / total

    # Start the Poisson recursion at k = 0 in log space to avoid underflow
    # for large Lambda*t.
    # Stay in log space until the weight is a *normal* double: exp of
    # anything below ~-700 is denormal, where the multiplicative recurrence
    # below loses all precision (5e-324 * 1.06 rounds back to 5e-324).
    log_weight = -poisson_rate
    weight = math.exp(log_weight) if log_weight > -700 else 0.0
    accumulated = weight
    term = p0.copy()
    result = weight * term

    k = 0
    # For large Lambda*t the initial weights underflow; skip forward using
    # the stable recurrence on log weights until they become representable.
    while weight == 0.0 and k < _MAX_TERMS:
        k += 1
        if cancellation is not None:
            cancellation.count_iteration()
        log_weight += math.log(poisson_rate) - math.log(k)
        term = term @ p_matrix
        if log_weight > -700:
            weight = math.exp(log_weight)
            accumulated = weight
            result = weight * term
            break
    else:
        if weight == 0.0:
            raise SolverError("uniformization failed to find representable weights")

    while accumulated < 1.0 - tol:
        k += 1
        if cancellation is not None:
            cancellation.count_iteration()
        if k > _MAX_TERMS:
            raise SolverError(
                f"uniformization did not converge within {_MAX_TERMS} terms "
                f"(Lambda*t = {poisson_rate:.3g})"
            )
        weight *= poisson_rate / k
        term = term @ p_matrix
        result += weight * term
        accumulated += weight
        # Past the Poisson mode the weights decay geometrically; once they
        # are far below the tolerance the remaining tail cannot matter.
        # (For very large Lambda*t the accumulated mass can plateau a hair
        # below 1 - tol because the first representable weight was
        # subnormal; the final renormalization absorbs the difference.)
        if k > poisson_rate and weight < tol * 1e-4:
            break

    total = result.sum()
    if total <= 0.0:
        raise SolverError("uniformization produced a degenerate distribution")
    return result / total


def transient_distribution(
    generator: np.ndarray,
    initial: np.ndarray,
    times: np.ndarray,
    tol: float = 1e-12,
    cancellation: Optional["CancellationToken"] = None,
) -> np.ndarray:
    """Vectorized transient solve over several time points.

    Returns an array of shape ``(len(times), n_states)``; row ``k`` is the
    distribution at ``times[k]``.  Times need not be sorted.
    """
    times = np.atleast_1d(np.asarray(times, dtype=float))
    return np.vstack(
        [
            uniformization(
                generator, initial, float(t), tol=tol, cancellation=cancellation
            )
            for t in times
        ]
    )
