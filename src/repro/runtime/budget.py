"""Execution budgets, deadlines, and cooperative cancellation.

Long-running entry points (campaigns, end-to-end simulations, transient
solvers) accept an optional :class:`CancellationToken` and poll it at
their natural progress points.  A token trips for one of two reasons:

* the caller invoked :meth:`CancellationToken.cancel` (interactive
  interrupt, watchdog, test harness) — the next poll raises
  :class:`~repro.errors.CancelledError`;
* a :class:`Budget` bound was exhausted (wall-clock deadline, event
  count, iteration count) — the next poll raises
  :class:`~repro.errors.DeadlineExceededError` naming the bound.

Polling is cheap by construction: the manual-cancel flag and the integer
budget counters are checked on every call, while the wall clock is only
consulted every :attr:`CancellationToken.clock_stride` polls, so a token
can be checked per simulated event without measurable overhead.

Cancellation is *cooperative*: code that never polls is never
interrupted.  In exchange, every interruption point is a place where the
program state is consistent — journals hold only whole records, partial
campaign results are preserved, and a resumed run continues exactly
where the cancelled one stopped.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Optional

from .._validation import check_positive, check_positive_int
from ..errors import CancelledError, DeadlineExceededError

__all__ = ["Budget", "Deadline", "CancellationToken"]

Clock = Callable[[], float]


class Deadline:
    """A fixed point on a monotonic clock.

    Examples
    --------
    >>> deadline = Deadline.after(3600.0)
    >>> deadline.expired
    False
    >>> deadline.remaining() <= 3600.0
    True
    """

    __slots__ = ("_at", "_clock")

    def __init__(self, at: float, clock: Clock = time.monotonic):
        self._at = float(at)
        self._clock = clock

    @classmethod
    def after(cls, seconds: float, clock: Clock = time.monotonic) -> "Deadline":
        """The deadline *seconds* from now on *clock*."""
        seconds = check_positive(seconds, "seconds")
        return cls(clock() + seconds, clock=clock)

    @property
    def at(self) -> float:
        """Absolute expiry instant in the clock's time base."""
        return self._at

    def remaining(self) -> float:
        """Seconds until expiry (negative once expired)."""
        return self._at - self._clock()

    @property
    def expired(self) -> bool:
        return self._clock() >= self._at

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Deadline(remaining={self.remaining():.3f}s)"


@dataclass(frozen=True)
class Budget:
    """Resource bounds for one run; ``None`` leaves a dimension unbounded.

    Attributes
    ----------
    wall_clock:
        Real-time allowance in seconds.
    max_events:
        Cap on simulated events (discrete-event transitions).
    max_iterations:
        Cap on numerical-solver iterations (e.g. uniformization terms).

    Examples
    --------
    >>> token = Budget(max_events=2).start()
    >>> token.count_event()
    >>> token.count_event()
    >>> token.count_event()
    Traceback (most recent call last):
        ...
    repro.errors.DeadlineExceededError: event budget of 2 events exhausted
    """

    wall_clock: Optional[float] = None
    max_events: Optional[int] = None
    max_iterations: Optional[int] = None

    def __post_init__(self):
        if self.wall_clock is not None:
            check_positive(self.wall_clock, "wall_clock")
        if self.max_events is not None:
            check_positive_int(self.max_events, "max_events")
        if self.max_iterations is not None:
            check_positive_int(self.max_iterations, "max_iterations")

    @property
    def unbounded(self) -> bool:
        """True when no dimension is limited."""
        return (
            self.wall_clock is None
            and self.max_events is None
            and self.max_iterations is None
        )

    def start(self, clock: Clock = time.monotonic) -> "CancellationToken":
        """Begin the budget now; returns the token to thread through a run."""
        deadline = (
            Deadline.after(self.wall_clock, clock=clock)
            if self.wall_clock is not None
            else None
        )
        return CancellationToken(
            deadline=deadline,
            max_events=self.max_events,
            max_iterations=self.max_iterations,
        )


class CancellationToken:
    """Cooperative cancellation point threaded through long-running code.

    Parameters
    ----------
    deadline:
        Optional wall-clock bound; polled every *clock_stride* checks.
    max_events / max_iterations:
        Optional integer budgets enforced by :meth:`count_event` and
        :meth:`count_iteration`.
    clock_stride:
        How many polls share one wall-clock reading.  The default keeps
        per-event polling cost at an integer compare; lower it in tests
        that need tight deadline reactions.
    """

    __slots__ = (
        "_cancelled",
        "_reason",
        "deadline",
        "max_events",
        "max_iterations",
        "events",
        "iterations",
        "clock_stride",
        "_until_clock_check",
    )

    def __init__(
        self,
        deadline: Optional[Deadline] = None,
        max_events: Optional[int] = None,
        max_iterations: Optional[int] = None,
        clock_stride: int = 256,
    ):
        self._cancelled = False
        self._reason = ""
        self.deadline = deadline
        self.max_events = max_events
        self.max_iterations = max_iterations
        self.events = 0
        self.iterations = 0
        self.clock_stride = check_positive_int(clock_stride, "clock_stride")
        self._until_clock_check = 0

    @property
    def cancelled(self) -> bool:
        """True once :meth:`cancel` has been called (budgets not included)."""
        return self._cancelled

    @property
    def reason(self) -> str:
        """The reason passed to :meth:`cancel`, or the empty string."""
        return self._reason

    def cancel(self, reason: str = "cancelled by caller") -> None:
        """Trip the token; the next :meth:`check` raises.  Idempotent."""
        if not self._cancelled:
            self._cancelled = True
            self._reason = reason

    def check(self) -> None:
        """Raise if cancelled or past the deadline; otherwise return.

        Raises
        ------
        CancelledError
            After :meth:`cancel` was called.
        DeadlineExceededError
            Once the wall-clock deadline has passed.
        """
        if self._cancelled:
            raise CancelledError(
                f"run was cancelled: {self._reason}", reason=self._reason
            )
        if self.deadline is not None:
            self._until_clock_check -= 1
            if self._until_clock_check <= 0:
                self._until_clock_check = self.clock_stride
                if self.deadline.expired:
                    raise DeadlineExceededError(
                        "wall-clock deadline exceeded "
                        f"({-self.deadline.remaining():.3f}s past the limit)",
                        limit="wall_clock",
                    )

    def check_now(self) -> None:
        """:meth:`check`, reading the wall clock whatever the stride: for
        coarse progress points (one poll per engine task), where
        *clock_stride* polls could outlast the whole run."""
        self._until_clock_check = 0
        self.check()

    def count_event(self, n: int = 1) -> None:
        """Charge *n* simulated events against the budget, then check."""
        self.events += n
        if self.max_events is not None and self.events > self.max_events:
            raise DeadlineExceededError(
                f"event budget of {self.max_events} events exhausted",
                limit="max_events",
            )
        self.check()

    def count_iteration(self, n: int = 1) -> None:
        """Charge *n* solver iterations against the budget, then check."""
        self.iterations += n
        if (
            self.max_iterations is not None
            and self.iterations > self.max_iterations
        ):
            raise DeadlineExceededError(
                f"iteration budget of {self.max_iterations} iterations "
                "exhausted",
                limit="max_iterations",
            )
        self.check()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "cancelled" if self._cancelled else "active"
        return (
            f"CancellationToken({state}, events={self.events}, "
            f"iterations={self.iterations})"
        )
