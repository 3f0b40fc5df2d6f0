"""Progress heartbeats for long-running entry points.

A heartbeat is any callable accepting one :class:`ProgressEvent`;
instrumented code emits an event at every natural progress point (a
campaign replication finished, a resume skipped completed work).  Two
implementations cover the common consumers:

* :class:`ConsoleHeartbeat` — prints throttled liveness lines; the CLI
  attaches one under ``--progress`` so a multi-hour campaign is visibly
  alive.
* :class:`Watchdog` — records every beat and can assert that beats keep
  arriving; tests use it both to observe instrumentation and as a
  liveness check on code that must not silently hang.

The protocol is deliberately one-way: heartbeats observe, they do not
steer.  To *react* to progress (e.g. cancel after N replications), pair
a heartbeat with a :class:`~repro.runtime.budget.CancellationToken` —
the crash/resume tests do exactly that.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from typing import Callable, List, Optional, TextIO

from ..errors import SimulationError
from ..obs.clock import monotonic

__all__ = ["ProgressEvent", "HeartbeatCallback", "ConsoleHeartbeat", "Watchdog"]


@dataclass(frozen=True)
class ProgressEvent:
    """One liveness report from an instrumented run.

    Attributes
    ----------
    phase:
        Which unit of work is reporting (e.g. ``"campaign Class A/null"``).
    completed:
        Work items finished so far within the phase.
    total:
        Total work items in the phase, when known in advance.
    message:
        Free-form detail (latest replication's availability, etc.).
    """

    phase: str
    completed: int
    total: Optional[int] = None
    message: str = ""

    def render(self) -> str:
        """The event as a one-line human-readable string."""
        progress = (
            f"{self.completed}/{self.total}"
            if self.total is not None
            else str(self.completed)
        )
        suffix = f" — {self.message}" if self.message else ""
        return f"[{self.phase}] {progress}{suffix}"


HeartbeatCallback = Callable[[ProgressEvent], None]


def beat(
    heartbeat: Optional[HeartbeatCallback],
    phase: str,
    completed: int,
    total: int,
    message: str = "",
) -> None:
    """Send *heartbeat*, if any, one :class:`ProgressEvent`."""
    if heartbeat is not None:
        heartbeat(ProgressEvent(
            phase=phase, completed=completed, total=total, message=message
        ))


class ConsoleHeartbeat:
    """Prints progress events, throttled to one line per *min_interval*.

    Phase boundaries (first and last event of a phase) always print so
    short runs are not silenced entirely by the throttle.
    """

    def __init__(
        self,
        stream: TextIO = sys.stderr,
        min_interval: float = 5.0,
        clock: Callable[[], float] = monotonic,
    ):
        self._stream = stream
        self._min_interval = float(min_interval)
        self._clock = clock
        self._last_printed: Optional[float] = None

    def __call__(self, event: ProgressEvent) -> None:
        now = self._clock()
        boundary = event.completed == 0 or (
            event.total is not None and event.completed >= event.total
        )
        throttled = (
            self._last_printed is not None
            and now - self._last_printed < self._min_interval
        )
        if throttled and not boundary:
            return
        self._last_printed = now
        print(event.render(), file=self._stream, flush=True)


@dataclass
class Watchdog:
    """Records beats and asserts liveness; the test-suite heartbeat.

    Examples
    --------
    >>> watchdog = Watchdog()
    >>> watchdog.beats
    []
    >>> watchdog(ProgressEvent(phase="demo", completed=1, total=2))
    >>> watchdog.last_event.completed
    1
    """

    clock: Callable[[], float] = monotonic
    beats: List[ProgressEvent] = field(default_factory=list)
    last_beat_at: Optional[float] = None

    def __call__(self, event: ProgressEvent) -> None:
        self.beats.append(event)
        self.last_beat_at = self.clock()

    @property
    def last_event(self) -> Optional[ProgressEvent]:
        return self.beats[-1] if self.beats else None

    def assert_alive(self, within: float) -> None:
        """Raise unless a beat arrived in the last *within* seconds.

        Raises :class:`~repro.errors.SimulationError` so harnesses can
        treat a silent hang like any other simulation fault.
        """
        if self.last_beat_at is None:
            raise SimulationError(
                f"watchdog saw no heartbeat at all (expected one within "
                f"{within:g}s)"
            )
        silence = self.clock() - self.last_beat_at
        if silence > within:
            raise SimulationError(
                f"watchdog starved: last heartbeat {silence:.3f}s ago "
                f"(limit {within:g}s)"
            )
