"""Statistical estimators for dependability parameters."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from .._validation import check_in_range, check_non_negative_int, check_probability
from ..availability import TwoStateAvailability
from ..errors import ValidationError

__all__ = ["TwoStateFit", "fit_two_state", "availability_confidence_interval"]


@dataclass(frozen=True)
class TwoStateFit:
    """Maximum-likelihood fit of a two-state availability model.

    Attributes
    ----------
    model:
        The fitted :class:`TwoStateAvailability` (point estimates).
    failure_rate_interval / repair_rate_interval:
        Exact gamma confidence intervals for the rates (the MLE of an
        exponential rate from ``n`` observed durations totalling ``T``
        is ``n / T``, with ``2 n lambda T ~ chi^2(2n)``).
    availability_interval:
        Interval for the steady-state availability obtained by combining
        the *pessimistic* and *optimistic* rate corners; conservative
        (at least the nominal coverage).
    confidence:
        The confidence level used for all intervals.
    """

    model: TwoStateAvailability
    failure_rate_interval: Tuple[float, float]
    repair_rate_interval: Tuple[float, float]
    availability_interval: Tuple[float, float]
    confidence: float


def _rate_interval(
    count: int, total_time: float, confidence: float
) -> Tuple[float, float]:
    """Exact CI for an exponential rate from *count* complete durations."""
    from scipy.stats import chi2

    alpha = 1.0 - confidence
    lower = chi2.ppf(alpha / 2.0, 2 * count) / (2.0 * total_time)
    upper = chi2.ppf(1.0 - alpha / 2.0, 2 * count) / (2.0 * total_time)
    return float(lower), float(upper)


def fit_two_state(
    up_durations: Sequence[float],
    down_durations: Sequence[float],
    confidence: float = 0.95,
) -> TwoStateFit:
    """Fit failure/repair rates from observed up/down durations.

    Parameters
    ----------
    up_durations:
        Complete time-to-failure observations (same unit throughout).
    down_durations:
        Complete time-to-repair observations.
    confidence:
        Confidence level for the intervals.

    Examples
    --------
    >>> import numpy as np
    >>> rng = np.random.default_rng(1)
    >>> ups = rng.exponential(100.0, size=500)    # MTTF 100 h
    >>> downs = rng.exponential(2.0, size=500)    # MTTR 2 h
    >>> fit = fit_two_state(ups, downs)
    >>> 0.008 < fit.model.failure_rate < 0.012
    True
    """
    confidence = check_in_range(confidence, 0.5, 0.9999, "confidence")
    ups = np.asarray(up_durations, dtype=float)
    downs = np.asarray(down_durations, dtype=float)
    for name, arr in (("up_durations", ups), ("down_durations", downs)):
        if arr.size == 0:
            raise ValidationError(f"{name} must contain at least one duration")
        if np.any(arr <= 0) or not np.all(np.isfinite(arr)):
            raise ValidationError(f"{name} must be positive and finite")

    failure_rate = ups.size / float(ups.sum())
    repair_rate = downs.size / float(downs.sum())
    model = TwoStateAvailability(
        failure_rate=failure_rate, repair_rate=repair_rate
    )

    failure_ci = _rate_interval(ups.size, float(ups.sum()), confidence)
    repair_ci = _rate_interval(downs.size, float(downs.sum()), confidence)
    # Availability is increasing in mu and decreasing in lambda, so the
    # corner combinations bound it (conservatively, by Bonferroni).
    pessimistic = repair_ci[0] / (failure_ci[1] + repair_ci[0])
    optimistic = repair_ci[1] / (failure_ci[0] + repair_ci[1])
    return TwoStateFit(
        model=model,
        failure_rate_interval=failure_ci,
        repair_rate_interval=repair_ci,
        availability_interval=(pessimistic, optimistic),
        confidence=confidence,
    )


def availability_confidence_interval(
    successes: int, trials: int, confidence: float = 0.95
) -> Tuple[float, float]:
    """Wilson score interval for a probe-based availability estimate.

    The natural summary of "we probed the payment gateway 10 000 times
    and 9 920 answered": robust near 0 and 1 where the naive normal
    interval breaks down.

    Examples
    --------
    >>> low, high = availability_confidence_interval(9920, 10000)
    >>> low < 0.992 < high
    True
    """
    trials = check_non_negative_int(trials, "trials")
    successes = check_non_negative_int(successes, "successes")
    if trials == 0:
        raise ValidationError("trials must be >= 1")
    if successes > trials:
        raise ValidationError(
            f"successes ({successes}) cannot exceed trials ({trials})"
        )
    confidence = check_in_range(confidence, 0.5, 0.9999, "confidence")
    from scipy.stats import norm

    z = norm.ppf(0.5 + confidence / 2.0)
    p_hat = successes / trials
    denominator = 1.0 + z**2 / trials
    center = (p_hat + z**2 / (2 * trials)) / denominator
    margin = (
        z
        * math.sqrt(
            p_hat * (1 - p_hat) / trials + z**2 / (4 * trials**2)
        )
        / denominator
    )
    return float(max(0.0, center - margin)), float(min(1.0, center + margin))
