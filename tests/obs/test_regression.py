"""Tests for the shared bench overhead statistic."""

import pytest

from repro.errors import ObservabilityError
from repro.obs.regression import paired_ratio_overhead, time_variants


class TestPairedRatioOverhead:
    def test_minimum_per_round_ratio(self):
        # Rounds: ratios 1.05, 1.5, 1.05 -> min is 5% overhead.
        assert paired_ratio_overhead(
            [1.0, 1.0, 2.0], [1.05, 1.5, 2.1]
        ) == pytest.approx(0.05)

    def test_single_noisy_round_cannot_fail_the_guard(self):
        # One slow variant round (3x) amid honest rounds: the statistic
        # stays at the honest 1%.
        overhead = paired_ratio_overhead(
            [1.0, 1.0, 1.0], [1.01, 3.0, 1.01]
        )
        assert overhead == pytest.approx(0.01)

    def test_lucky_baseline_round_can_go_negative(self):
        assert paired_ratio_overhead([1.0, 2.0], [1.1, 1.9]) < 0.0

    def test_rejects_mismatched_or_empty_rounds(self):
        with pytest.raises(ObservabilityError, match="rounds"):
            paired_ratio_overhead([1.0], [1.0, 2.0])
        with pytest.raises(ObservabilityError, match="rounds"):
            paired_ratio_overhead([], [])

    def test_rejects_non_positive_baseline(self):
        with pytest.raises(ObservabilityError, match="positive"):
            paired_ratio_overhead([0.0], [1.0])


class TestTimeVariants:
    def test_interleaves_and_computes_overheads(self):
        calls = []
        clock = iter(
            # round 1: base 1.0, fast 1.0, slow 2.0; round 2 same
            [1.0, 1.0, 2.0, 1.0, 1.0, 2.0]
        )

        def run(name):
            def runner():
                calls.append(name)
                return next(clock)
            return runner

        timing = time_variants(
            [("base", run("base")), ("fast", run("fast")),
             ("slow", run("slow"))],
            repeats=2,
        )
        # Interleaved: every variant once per round, in order.
        assert calls == ["base", "fast", "slow"] * 2
        assert timing.overhead["fast"] == pytest.approx(0.0)
        assert timing.overhead["slow"] == pytest.approx(1.0)
        assert timing.best["base"] == 1.0
        assert timing.overhead_of_best("slow", "base") == pytest.approx(1.0)

    def test_rejects_too_few_variants_and_duplicate_names(self):
        with pytest.raises(ObservabilityError, match="baseline"):
            time_variants([("only", lambda: 1.0)], repeats=2)
        with pytest.raises(ObservabilityError, match="unique"):
            time_variants(
                [("a", lambda: 1.0), ("a", lambda: 1.0)], repeats=2
            )
