"""Steady-state distribution of a general finite birth-death process.

Every Markovian queue in this package is a special case of a birth-death
process; this module provides the generic product-form solution used both
directly and as an independent cross-check of the closed-form models.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .._validation import check_finite, check_non_negative
from ..errors import ValidationError

__all__ = ["birth_death_distribution"]

#: Below this peak weight no sum of up to 10**8 weights can overflow.
_SUM_SAFE = 1e300


def birth_death_distribution(
    birth_rates: Sequence[float],
    death_rates: Sequence[float],
) -> np.ndarray:
    """Steady-state distribution over states ``0 .. n``.

    Parameters
    ----------
    birth_rates:
        ``birth_rates[i]`` is the rate ``i -> i+1``; length ``n``.
        A zero entry truncates the reachable state space.
    death_rates:
        ``death_rates[i]`` is the rate ``i+1 -> i``; length ``n``;
        entries must be strictly positive.

    Returns
    -------
    numpy.ndarray
        Probability vector of length ``n + 1``.

    Notes
    -----
    Uses the product form ``pi_k = pi_0 * prod_{i<k} (birth_i / death_i)``
    computed in a running product, which avoids overflow for moderate
    chains; for the state-space sizes of availability models (tens of
    states) this is exact to machine precision.
    """
    if len(birth_rates) != len(death_rates):
        raise ValidationError(
            f"birth_rates (len {len(birth_rates)}) and death_rates "
            f"(len {len(death_rates)}) must have equal length"
        )
    births = []
    deaths = []
    for i in range(len(birth_rates)):
        births.append(check_non_negative(birth_rates[i], f"birth_rates[{i}]"))
        # check_finite first: a NaN death rate passes "death <= 0" (all
        # NaN comparisons are False) and would poison the whole
        # distribution instead of raising here.
        death = check_finite(death_rates[i], f"death_rates[{i}]")
        if death <= 0:
            raise ValidationError(f"death_rates[{i}] must be > 0, got {death!r}")
        deaths.append(death)
    return _product_form(births, deaths)


def _product_form(
    births: Sequence[float], deaths: Sequence[float]
) -> np.ndarray:
    """The product-form kernel of :func:`birth_death_distribution`.

    Takes already-validated rates (finite, ``births >= 0``, ``deaths >
    0``) and checks nothing: callers that validated their rates once at
    construction, such as :class:`repro.queueing.MMCKQueue`, solve
    through it without a per-element check.
    """
    running = 1.0
    weights = [1.0]
    for birth, death in zip(births, deaths):
        running *= birth / death
        weights.append(running)
    peak = max(weights)
    weights = np.array(weights)
    if peak <= _SUM_SAFE:
        return weights / weights.sum()
    with np.errstate(over="ignore"):
        total = weights.sum()
    if not math.isfinite(total):
        # The weights left the float range (a heavily overloaded chain):
        # redo the product in log space, scaled by the largest weight.
        with np.errstate(divide="ignore"):
            logs = np.log(np.divide(births, deaths))
        logs = np.concatenate(([0.0], np.cumsum(logs)))
        weights = np.exp(logs - logs.max())
        total = weights.sum()
    return weights / total
