"""Observability overhead — the disabled-mode guard.

``repro.obs`` promises that instrumentation is pay-for-use: when no
registry is active, every recording site in the DES kernel reduces to a
single ``is not None`` check.  This bench measures that promise on the
kernel's hottest loop and turns it into a regression guard.

Three variants drain an identical self-rescheduling event chain:

* **bare** — a local replica of the kernel's pre-instrumentation hot
  loop (heap pop, clock advance, action call, cancellation check), the
  reference the disabled mode is held to;
* **disabled** — the real :class:`repro.sim.Simulator` with no ambient
  instrumentation (the default for every user who never asks for
  metrics);
* **enabled** — the real kernel with an active registry recording the
  event counter, queue-depth gauge/histogram, and per-event-type
  timing histogram.

Timings are best-of-``REPEATS`` to shave scheduler noise.  The
disabled-vs-bare overhead is asserted ``<= 3%`` on every run; that
assertion is the guard.  Enabled-mode cost is reported, never asserted
— it is the price of asking for data, not a regression.

Each run writes its measured record to
``benchmarks/artifacts/BENCH_obs.json`` (with the core count).
"""

import heapq
import itertools
import json
import os
import time
from pathlib import Path

from conftest import emit
from repro._validation import check_non_negative
from repro.errors import SimulationError
from repro.obs import MetricsRegistry
from repro.obs.regression import time_variants
from repro.reporting import format_table
from repro.sim import Simulator

EVENTS = 30_000
REPEATS = 15
GUARD_THRESHOLD = 0.03  # disabled-mode regression budget: 3%


class BareKernel:
    """The event loop as it was before instrumentation existed.

    A line-for-line replica of :class:`repro.sim.Simulator` with the
    observability hooks deleted and nothing else changed — scheduling
    validation, the ``step()`` indirection, the per-iteration guard
    checks, and the cancellation poll (all of which predate
    ``repro.obs``) are kept, so the measured delta is attributable to
    observability alone.
    """

    def __init__(self):
        self._now = 0.0
        self._sequence = itertools.count()
        self._queue = []
        self._events_processed = 0
        self._cancellation = None

    def schedule(self, delay, action):
        delay = check_non_negative(delay, "delay")
        self.schedule_at(self._now + delay, action)

    def schedule_at(self, time_, action):
        if time_ < self._now:
            raise SimulationError(
                f"cannot schedule at {time_} before current time {self._now}"
            )
        heapq.heappush(self._queue, (time_, next(self._sequence), action))

    def step(self):
        if not self._queue:
            return False
        time_, _, action = heapq.heappop(self._queue)
        self._now = time_
        self._events_processed += 1
        action()
        if self._cancellation is not None:
            self._cancellation.count_event()
        return True

    def run(self, max_events=None, max_time=None):
        executed = 0
        while self._queue:
            if max_time is not None and self._queue[0][0] > max_time:
                raise SimulationError("max_time exceeded")
            self.step()
            executed += 1
            if (
                max_events is not None
                and executed >= max_events
                and self._queue
            ):
                raise SimulationError("max_events exceeded")


def _chain(sim, remaining):
    """One self-rescheduling event: queue depth stays 1, overhead dominates."""
    state = {"left": remaining}

    def tick():
        state["left"] -= 1
        if state["left"]:
            sim.schedule(1.0, tick)

    sim.schedule(1.0, tick)


def _one_run(make_sim):
    """Wall-clock seconds to drain one event chain."""
    sim = make_sim()
    _chain(sim, EVENTS)
    started = time.perf_counter()
    sim.run()
    elapsed = time.perf_counter() - started
    assert sim._events_processed == EVENTS
    return elapsed


def test_disabled_mode_overhead_within_budget(benchmark):
    registry = MetricsRegistry()
    # The guarded statistic is repro.obs.regression.paired_ratio_overhead
    # computed by time_variants over interleaved rounds — see that module
    # for why interleaving and min-per-round-ratio beat best-of blocks.
    variants = [
        ("bare", lambda: _one_run(BareKernel)),
        ("disabled", lambda: _one_run(Simulator)),
        ("enabled", lambda: _one_run(lambda: Simulator(metrics=registry))),
    ]
    timing = benchmark.pedantic(
        lambda: time_variants(variants, repeats=REPEATS),
        rounds=1,
        warmup_rounds=1,
    )
    bare = timing.best["bare"]
    disabled = timing.best["disabled"]
    enabled = timing.best["enabled"]
    # The enabled runs actually recorded: every event counted and every
    # queue depth sampled (warmup rounds included, hence >=).
    assert registry.value("sim_events") >= EVENTS * REPEATS
    assert registry.value("sim_events") % EVENTS == 0
    assert registry.get("sim_queue_depth").count == registry.value("sim_events")

    disabled_overhead = timing.overhead["disabled"]
    enabled_overhead = timing.overhead["enabled"]

    record = {
        "benchmark": "obs-overhead-des-kernel",
        "events": EVENTS,
        "repeats": REPEATS,
        "seconds": {
            "bare": round(bare, 6),
            "disabled": round(disabled, 6),
            "enabled": round(enabled, 6),
        },
        # Guarded: minimum paired per-round ratio minus one (noise-robust
        # lower bound; can dip negative when a bare round was unlucky).
        "disabled_overhead": round(disabled_overhead, 4),
        "enabled_overhead": round(enabled_overhead, 4),
        # Informational: ratio of the best-of-REPEATS absolute times.
        "disabled_overhead_of_best": round(disabled / bare - 1.0, 4),
        "enabled_overhead_of_best": round(enabled / bare - 1.0, 4),
        "guard_threshold": GUARD_THRESHOLD,
        "nproc": os.cpu_count(),
    }
    out_dir = Path(__file__).parent / "artifacts"
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "BENCH_obs.json").write_text(
        json.dumps(record, indent=2) + "\n"
    )

    rows = [
        ["bare loop", f"{bare * 1e6 / EVENTS:.3f}", "reference"],
        ["disabled", f"{disabled * 1e6 / EVENTS:.3f}",
         f"{disabled / bare - 1.0:+.1%}"],
        ["enabled", f"{enabled * 1e6 / EVENTS:.3f}",
         f"{enabled / bare - 1.0:+.1%}"],
    ]
    emit(format_table(
        ["mode", "us/event", "overhead of best"],
        rows,
        title=(
            f"Observability overhead — {EVENTS} DES events, "
            f"best of {REPEATS}"
        ),
    ))

    # Only the disabled-mode statistic is asserted; enabled-mode cost is
    # the price of asking for data, not a regression.
    assert disabled_overhead <= GUARD_THRESHOLD, (
        f"disabled-mode observability overhead {disabled_overhead:.1%} "
        f"exceeds the {GUARD_THRESHOLD:.0%} budget"
    )
