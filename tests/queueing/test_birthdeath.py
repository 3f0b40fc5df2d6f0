"""Tests for the generic birth-death steady-state solver."""

import numpy as np
import pytest

from repro.errors import ValidationError
from repro.queueing import birth_death_distribution


class TestBirthDeathDistribution:
    def test_weights_past_the_float_range(self):
        # The running product (2500^100) overflows; the log-space redo
        # keeps the distribution finite and normalized.
        from repro.queueing import MMCKQueue

        queue = MMCKQueue(1e6, 100.0, 4, 100)
        dist = queue.state_distribution()
        assert np.all(np.isfinite(dist))
        assert dist.sum() == pytest.approx(1.0)
        assert dist[-1] == pytest.approx(
            queue.blocking_probability(), rel=1e-12
        )
        # A peak weight past 1e300 whose sum still fits sums as usual.
        near = birth_death_distribution([1e301], [1.0])
        assert near == pytest.approx([1e-301, 1.0])
        extreme = birth_death_distribution(
            [1e200, 1e200, 0.0], [1e-100, 1e-100, 1.0]
        )
        assert extreme == pytest.approx([0.0, 1e-300, 1.0, 0.0])

    def test_two_state_closed_form(self):
        dist = birth_death_distribution([2.0], [3.0])
        assert dist == pytest.approx([0.6, 0.4])

    def test_matches_ctmc_steady_state(self):
        from repro.markov import birth_death_chain

        births = [3.0, 2.0, 1.0]
        deaths = [1.0, 2.0, 3.0]
        dist = birth_death_distribution(births, deaths)
        pi = birth_death_chain(births, deaths).steady_state()
        for i in range(4):
            assert dist[i] == pytest.approx(pi[i], abs=1e-12)

    def test_zero_birth_truncates(self):
        dist = birth_death_distribution([1.0, 0.0, 1.0], [1.0, 1.0, 1.0])
        assert dist[2] == 0.0
        assert dist[3] == 0.0
        assert dist[:2].sum() == pytest.approx(1.0)

    def test_normalization(self):
        rng = np.random.default_rng(2)
        births = rng.uniform(0.1, 5.0, 20)
        deaths = rng.uniform(0.1, 5.0, 20)
        dist = birth_death_distribution(births, deaths)
        assert dist.sum() == pytest.approx(1.0)
        assert np.all(dist >= 0)

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValidationError, match="equal length"):
            birth_death_distribution([1.0], [1.0, 2.0])

    def test_rejects_nonpositive_death(self):
        with pytest.raises(ValidationError):
            birth_death_distribution([1.0], [0.0])

    def test_rejects_negative_birth(self):
        with pytest.raises(ValidationError):
            birth_death_distribution([-1.0], [1.0])

    def test_rejects_nan_death_rate(self):
        # NaN fails "death <= 0" as False and would silently poison the
        # whole distribution; the finiteness check names the NaN instead.
        with pytest.raises(ValidationError, match="NaN"):
            birth_death_distribution([1.0], [float("nan")])

    def test_rejects_nan_birth_rate(self):
        with pytest.raises(ValidationError):
            birth_death_distribution([float("nan")], [1.0])
