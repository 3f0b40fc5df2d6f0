"""A minimal event-driven simulation kernel.

Events are callables scheduled at absolute times; ties break in
scheduling order (FIFO), which keeps runs deterministic for a fixed
random seed.  The kernel knows nothing about queues or failures — the
domain simulators in this package build on it.

Runaway protection
------------------
An event that unconditionally reschedules itself turns :meth:`Simulator.run`
into an infinite loop.  Both drivers therefore take guards: ``max_events``
and ``max_time`` raise a :class:`~repro.errors.SimulationError` naming
the guard that tripped, and an optional
:class:`~repro.runtime.CancellationToken` bounds a run by wall-clock
deadline or an externally shared event budget.
"""

from __future__ import annotations

import heapq
import itertools
from typing import TYPE_CHECKING, Callable, List, Optional, Tuple

from .._validation import check_non_negative
from ..errors import SimulationError
from ..obs.clock import monotonic
from ..obs.context import active_metrics, active_perf

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from ..obs.metrics import Histogram, MetricsRegistry
    from ..obs.perf import PerfRecorder
    from ..runtime.budget import CancellationToken

__all__ = ["Simulator"]

Action = Callable[[], None]


def _action_name(action: Action) -> str:
    """A stable per-event-type name (class, or function qualname)."""
    name = getattr(type(action), "__qualname__", "")
    if name in ("function", "method"):
        name = getattr(action, "__qualname__", name)
    return name


class Simulator:
    """An event queue with a simulation clock.

    Parameters
    ----------
    cancellation:
        Optional :class:`~repro.runtime.CancellationToken` polled after
        every executed event; lets a deadline or caller cancel a long
        run at a clean event boundary.
    metrics:
        Optional :class:`~repro.obs.MetricsRegistry`; defaults to the
        ambient one (:func:`repro.obs.active_metrics`).  When present,
        the kernel records events processed, queue depths, and
        per-event-type execution-time histograms.
    perf:
        Optional :class:`~repro.obs.PerfRecorder`; defaults to the
        ambient one (:func:`repro.obs.active_perf`).  When present, the
        kernel accounts per-event-type counts and self-time and ticks
        the deterministic counter profiler.

    The step is bound once at construction.  With neither metrics nor
    perf, it is the untouched fast step, so the uninstrumented kernel
    stays at its original speed.  With either or both, it is one
    observed step that names each event once and times it with one
    clock pair; that one elapsed time feeds ``sim_event_seconds`` and
    the kernel accounting alike.

    Examples
    --------
    >>> sim = Simulator()
    >>> hits = []
    >>> sim.schedule(2.0, lambda: hits.append(sim.now))
    >>> sim.schedule(1.0, lambda: hits.append(sim.now))
    >>> sim.run()
    >>> hits
    [1.0, 2.0]

    A self-rescheduling event trips the ``max_events`` guard with a
    diagnosable error instead of hanging:

    >>> runaway = Simulator()
    >>> def storm():
    ...     runaway.schedule(1.0, storm)
    >>> runaway.schedule(1.0, storm)
    >>> runaway.run(max_events=10)
    Traceback (most recent call last):
        ...
    repro.errors.SimulationError: run() executed max_events=10 events without draining the queue (1 still pending at sim-time 10); an event may be rescheduling itself forever
    """

    def __init__(
        self,
        cancellation: Optional["CancellationToken"] = None,
        metrics: Optional["MetricsRegistry"] = None,
        perf: Optional["PerfRecorder"] = None,
    ):
        self._now = 0.0
        self._sequence = itertools.count()
        self._queue: List[Tuple[float, int, Action]] = []
        self._events_processed = 0
        self._cancellation = cancellation
        self._metrics = metrics if metrics is not None else active_metrics()
        self._perf = perf if perf is not None else active_perf()
        if self._metrics is not None:
            from ..obs.metrics import DEFAULT_DEPTH_BOUNDS

            self._events_counter = self._metrics.counter(
                "sim_events",
                help="Events executed by the DES kernel.",
            )
            self._depth_gauge = self._metrics.gauge(
                "sim_queue_depth_max",
                help="High-water mark of the pending-event queue.",
            )
            self._depth_histogram = self._metrics.histogram(
                "sim_queue_depth",
                bounds=DEFAULT_DEPTH_BOUNDS,
                help="Pending-event queue depth sampled before each event.",
            )
            self._action_histograms: dict = {}
        if self._perf is not None:
            self._accounting = self._perf.kernel
            self._profiler = self._perf.profiler
        # Bound once at construction — the disabled kernel never pays a
        # per-event check for either metrics or perf accounting.
        if self._metrics is None and self._perf is None:
            self._step = self._step_fast
        else:
            self._step = self._step_observed

    def _action_histogram(self, name: str) -> "Histogram":
        """Per-event-type execution-time histogram, cached by type name."""
        histogram = self._action_histograms.get(name)
        if histogram is None:
            histogram = self._metrics.histogram(
                "sim_event_seconds",
                help="Wall-clock execution time per event type.",
                event=name,
            )
            self._action_histograms[name] = histogram
        return histogram

    @property
    def now(self) -> float:
        """Current simulation time."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Number of events executed so far."""
        return self._events_processed

    @property
    def pending(self) -> int:
        """Number of events still queued."""
        return len(self._queue)

    def schedule(self, delay: float, action: Action) -> None:
        """Schedule *action* to run *delay* time units from now."""
        delay = check_non_negative(delay, "delay")
        self.schedule_at(self._now + delay, action)

    def schedule_at(self, time: float, action: Action) -> None:
        """Schedule *action* at absolute *time* (must not be in the past)."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at {time} before current time {self._now}"
            )
        heapq.heappush(self._queue, (time, next(self._sequence), action))

    def step(self) -> bool:
        """Execute the next event; returns False when the queue is empty."""
        return self._step()

    def _step_fast(self) -> bool:
        # The uninstrumented hot path: bound once in __init__ so the
        # metrics check never runs per event.
        if not self._queue:
            return False
        time, _, action = heapq.heappop(self._queue)
        self._now = time
        self._events_processed += 1
        action()
        if self._cancellation is not None:
            self._cancellation.count_event()
        return True

    def _step_observed(self) -> bool:
        # The one observed step, bound whenever metrics or perf is
        # present: one type name and one clock pair per event, whose
        # elapsed time feeds both sim_event_seconds and KernelAccounting.
        if not self._queue:
            return False
        metrics = self._metrics
        if metrics is not None:
            depth = len(self._queue)
            self._events_counter.inc()
            self._depth_gauge.set_max(depth)
            self._depth_histogram.observe(depth)
        time, _, action = heapq.heappop(self._queue)
        self._now = time
        self._events_processed += 1
        name = _action_name(action)
        perf = self._perf
        if perf is not None:
            self._profiler.tick_kernel(leaf=f"event:{name}")
        started = monotonic()
        action()
        elapsed = monotonic() - started
        if perf is not None:
            self._accounting.record(name, elapsed)
        if metrics is not None:
            self._action_histogram(name).observe(elapsed)
        if self._cancellation is not None:
            self._cancellation.count_event()
        return True

    def run(
        self,
        max_events: Optional[int] = None,
        max_time: Optional[float] = None,
    ) -> None:
        """Run until the queue drains.

        Parameters
        ----------
        max_events:
            Guard against runaway event loops: if this many events
            execute and the queue is *still* not empty, a
            :class:`~repro.errors.SimulationError` is raised.  Draining
            exactly at the cap is not an error.
        max_time:
            Guard on simulated time: an event scheduled past *max_time*
            raises instead of executing (the clock stops at the last
            in-bounds event).  Use :meth:`run_until` for the
            non-exceptional "integrate up to a horizon" semantics.
        """
        executed = 0
        step = self._step
        while self._queue:
            if max_time is not None and self._queue[0][0] > max_time:
                raise SimulationError(
                    f"run() reached max_time={max_time:g} with "
                    f"{len(self._queue)} event(s) still pending (next at "
                    f"sim-time {self._queue[0][0]:g}); an event may be "
                    "rescheduling itself forever"
                )
            step()
            executed += 1
            if (
                max_events is not None
                and executed >= max_events
                and self._queue
            ):
                raise SimulationError(
                    f"run() executed max_events={max_events} events without "
                    f"draining the queue ({len(self._queue)} still pending "
                    f"at sim-time {self._now:g}); an event may be "
                    "rescheduling itself forever"
                )

    def run_until(self, horizon: float, max_events: int = 50_000_000) -> None:
        """Run all events with time <= *horizon*; the clock ends at *horizon*.

        Events scheduled beyond the horizon stay queued (useful for
        warm-started continuations).
        """
        horizon = check_non_negative(horizon, "horizon")
        if horizon < self._now:
            raise SimulationError(
                f"horizon {horizon} is before current time {self._now}"
            )
        executed = 0
        step = self._step
        while self._queue and self._queue[0][0] <= horizon:
            step()
            executed += 1
            if executed >= max_events:
                raise SimulationError(
                    f"run_until executed {max_events} events before reaching "
                    f"the horizon; possible event loop"
                )
        self._now = horizon
