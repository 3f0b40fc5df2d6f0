"""Noise-robust performance-regression statistics.

The repository's overhead guards (``benchmarks/bench_obs_overhead.py``,
``benchmarks/bench_slo_overhead.py``) all reduce to one statistic: how
much slower is a variant than its baseline, measured so that a single
noisy round cannot fail CI while a genuine regression cannot hide.  This
module is that statistic, factored out so every bench shares one
implementation:

* :func:`time_variants` runs the variants in **interleaved rounds**
  (baseline, variant A, variant B, baseline, ...) rather than timing
  each in a block, which cancels slow machine-state drift — CPU
  frequency, cache temperature — that would otherwise masquerade as
  overhead at the few-percent scale the guards operate at;
* :func:`paired_ratio_overhead` is the guarded number: the **minimum
  per-round ratio** of variant over baseline, minus one.  A genuine
  regression slows *every* round, so it survives the minimum; one
  unlucky round cannot fail the guard (and one lucky baseline round can
  push the statistic slightly negative — that is expected and fine).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence, Tuple

from .._validation import check_positive_int
from ..errors import ObservabilityError

__all__ = [
    "VariantTiming",
    "paired_ratio_overhead",
    "time_variants",
]


def paired_ratio_overhead(
    baseline_rounds: Sequence[float], variant_rounds: Sequence[float]
) -> float:
    """Minimum per-round variant/baseline ratio, minus one.

    Rounds must be paired — measured back to back in the same
    interleaved pass — for the pairing to cancel drift.

    Examples
    --------
    >>> round(paired_ratio_overhead([1.0, 1.0, 1.2], [1.05, 1.5, 1.26]), 3)
    0.05
    """
    if len(baseline_rounds) != len(variant_rounds) or not baseline_rounds:
        raise ObservabilityError(
            "paired_ratio_overhead needs equally many (and at least one) "
            f"baseline and variant rounds, got {len(baseline_rounds)} "
            f"vs {len(variant_rounds)}"
        )
    if any(value <= 0.0 for value in baseline_rounds):
        raise ObservabilityError(
            "paired_ratio_overhead needs positive baseline timings"
        )
    return min(
        variant / baseline
        for baseline, variant in zip(baseline_rounds, variant_rounds)
    ) - 1.0


@dataclass(frozen=True)
class VariantTiming:
    """Outcome of :func:`time_variants`.

    Attributes
    ----------
    rounds:
        Raw per-round seconds for every variant, in measurement order.
    best:
        Best-of-rounds seconds per variant (informational).
    overhead:
        The guarded statistic per non-baseline variant:
        :func:`paired_ratio_overhead` against the first variant.
    """

    rounds: Dict[str, Tuple[float, ...]]
    best: Dict[str, float]
    overhead: Dict[str, float]

    def overhead_of_best(self, name: str, baseline: str) -> float:
        """Ratio of best-of-rounds times, minus one (informational)."""
        return self.best[name] / self.best[baseline] - 1.0


def time_variants(
    variants: Sequence[Tuple[str, Callable[[], float]]],
    repeats: int,
) -> VariantTiming:
    """Time variants in interleaved rounds; first variant is baseline.

    Each variant is a ``(name, run)`` pair whose ``run()`` performs one
    full round of work and returns its wall-clock seconds (the caller
    owns the timing boundary, so setup cost can be excluded).  One round
    runs every variant once, in order; *repeats* rounds are taken.
    """
    if len(variants) < 2:
        raise ObservabilityError(
            "time_variants needs a baseline plus at least one variant"
        )
    names = [name for name, _ in variants]
    if len(set(names)) != len(names):
        raise ObservabilityError(
            f"variant names must be unique, got {names}"
        )
    repeats = check_positive_int(repeats, "repeats")
    rounds: Dict[str, List[float]] = {name: [] for name in names}
    for _ in range(repeats):
        for name, run in variants:
            rounds[name].append(run())
    baseline = names[0]
    return VariantTiming(
        rounds={name: tuple(values) for name, values in rounds.items()},
        best={name: min(values) for name, values in rounds.items()},
        overhead={
            name: paired_ratio_overhead(rounds[baseline], rounds[name])
            for name in names[1:]
        },
    )
