"""The end-to-end simulator draws its sojourns in blocks and rewinds.

After its initial draws the loop takes one exponential sojourn per
resource transition.  It draws them ``rng.standard_exponential(n)`` at
a time and, on the way out, gives back the unused tail of the last
block, so the caller's generator must end exactly where one scalar
``rng.exponential(mean)`` per transition would have left it: on a
normal return, on the ``max_transitions`` error and on cancellation.

Two things are pinned here.  The numpy identity the loop relies on (a
scaled block is the scalar draws, bit for bit, from the same bits) is
a canary that fails by name if a numpy upgrade breaks it.  And the
generator state after each way out equals a scalar replay, for
transition counts on both sides of every block boundary.
"""

from __future__ import annotations

import functools

import numpy as np
import pytest

from repro.errors import CancelledError, DeadlineExceededError, SimulationError
from repro.runtime import CancellationToken
from repro.sim import simulate_user_availability_over_time
from repro.sim.endtoend import _resource_rates
from repro.ta import CLASS_A, TravelAgencyModel

SEED = 2024
# Transition counts at 0, at 1, and around the ends of the first blocks
# (16, 32, 64, ... values: boundaries after 16, 48, 112, 240, 496, 1008
# and, once the size stops doubling at 1024, 2032).
COUNTS = (0, 1, 15, 16, 17, 47, 48, 49, 111, 112, 113, 1007, 1008, 1009,
          2031, 2032, 2033)


def _state(rng):
    return rng.bit_generator.state


class TestNumpyBlockIdentity:
    """``scale * standard_exponential(n)`` is ``n`` scalar exponentials."""

    @pytest.mark.parametrize("scale", [1.0, 0.5, 1.0 / 3.0, 7.25, 1e4])
    @pytest.mark.parametrize("n", [1, 2, 15, 16, 17, 1023, 1024, 1025])
    def test_block_equals_scalar_draws(self, scale, n):
        scalar_rng = np.random.default_rng(SEED)
        scalar = [scalar_rng.exponential(scale) for _ in range(n)]

        block_rng = np.random.default_rng(SEED)
        block = block_rng.standard_exponential(n)
        assert [scale * x for x in block.tolist()] == scalar
        assert (scale * block).tolist() == scalar
        assert _state(block_rng) == _state(scalar_rng)


@functools.lru_cache(maxsize=None)
def _model():
    return TravelAgencyModel().hierarchical_model


def _scalar_replay(transitions):
    """The generator state the scalar loop leaves: one ``random()`` and
    one ``exponential()`` per failing resource, then one
    ``exponential()`` per transition (the scale never changes which
    bits are consumed)."""
    rng = np.random.default_rng(SEED)
    for process in _resource_rates(_model(), 1.0).values():
        if process is not None:
            rng.random()
            rng.exponential()
    for _ in range(transitions):
        rng.exponential()
    return _state(rng)


class _TransitionTimes:
    def __init__(self):
        self.ends = []

    def interval(self, start, end, availability):
        self.ends.append(end)

    def fault(self, time, event):  # pragma: no cover - no faults here
        raise AssertionError("no fault events expected")


@functools.lru_cache(maxsize=None)
def _transition_times():
    """Times of the first transitions of the seeded run, from the
    observer's interval ends (each one is the next event's time)."""
    times = _TransitionTimes()
    simulate_user_availability_over_time(
        _model(), CLASS_A, 1000.0, np.random.default_rng(SEED),
        observer=times,
    )
    assert len(times.ends) > max(COUNTS) + 1
    return times.ends[:-1]  # the last interval ends at the horizon


class TestRewind:
    @pytest.mark.parametrize("count", COUNTS)
    def test_return_leaves_the_scalar_state(self, count):
        times = _transition_times()
        horizon = (
            times[0] / 2 if count == 0
            else (times[count - 1] + times[count]) / 2
        )
        rng = np.random.default_rng(SEED)
        result = simulate_user_availability_over_time(
            _model(), CLASS_A, horizon, rng
        )
        assert result.resource_transitions == count
        assert _state(rng) == _scalar_replay(count)

    @pytest.mark.parametrize("cap", [0, 15, 16, 47, 48, 1007])
    def test_max_transitions_error_leaves_the_scalar_state(self, cap):
        rng = np.random.default_rng(SEED)
        with pytest.raises(SimulationError, match=f"max_transitions={cap}"):
            simulate_user_availability_over_time(
                _model(), CLASS_A, 1000.0, rng, max_transitions=cap
            )
        # The transition that broke the cap drew its sojourn first.
        assert _state(rng) == _scalar_replay(cap + 1)

    @pytest.mark.parametrize("count", [0, 1, 16, 17, 48, 113])
    def test_event_budget_leaves_the_scalar_state(self, count):
        # Without faults the loop charges one event per transition, and
        # the budget trips on the event after the last allowed one.
        token = CancellationToken(max_events=count)
        rng = np.random.default_rng(SEED)
        with pytest.raises(DeadlineExceededError):
            simulate_user_availability_over_time(
                _model(), CLASS_A, 1000.0, rng, cancellation=token
            )
        assert _state(rng) == _scalar_replay(count)

    @pytest.mark.parametrize("count", [1, 16, 17, 49])
    def test_cancelled_run_leaves_the_scalar_state(self, count):
        token = CancellationToken()

        class CancelAfter:
            seen = 0

            def interval(self, start, end, availability):
                # Cancelled inside step `count`; that step still makes
                # its transition, the next poll raises.
                self.seen += 1
                if self.seen == count:
                    token.cancel("test")

            def fault(self, time, event):  # pragma: no cover
                raise AssertionError("no fault events expected")

        rng = np.random.default_rng(SEED)
        with pytest.raises(CancelledError):
            simulate_user_availability_over_time(
                _model(), CLASS_A, 1000.0, rng,
                cancellation=token, observer=CancelAfter(),
            )
        assert _state(rng) == _scalar_replay(count)
