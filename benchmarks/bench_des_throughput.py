"""DES kernel throughput — the events/sec baseline, attributed by type.

The repo's simulators all drain through :class:`repro.sim.Simulator`;
this bench pins down what the kernel itself delivers so later PRs can
see throughput regressions in one number.  The workload is a mix of
three self-rescheduling event classes of deliberately different cost —
a near-free counter tick, an arithmetic session step, and a small
allocation-heavy report event — approximating the shape of the fault
and session simulators built on the kernel.

Two passes over the identical event mix:

* **disabled** — no instrumentation; its wall time is the
  ``events_per_second`` headline (best of ``REPEATS``);
* **accounted** — the same mix under a
  :class:`~repro.obs.PerfRecorder`, whose per-event-type kernel
  accounting attributes the time: the emitted table shows each type's
  count and self-time share, and the bench asserts the accounting saw
  exactly the events that ran.

Timings are machine-dependent, so nothing here is guarded: each run
writes its measured record, with the core count, to
``benchmarks/artifacts/BENCH_des.json``.
"""

import json
import os
import time
from pathlib import Path

from conftest import emit
from repro.obs import PerfRecorder
from repro.reporting import format_table
from repro.sim import Simulator

EVENTS = 60_000   # total across the three event classes
REPEATS = 10


class CounterTick:
    """The cheapest possible event: one attribute increment."""

    def __init__(self, sim, remaining):
        self.sim = sim
        self.remaining = remaining
        self.count = 0

    def __call__(self):
        self.count += 1
        self.remaining -= 1
        if self.remaining:
            self.sim.schedule(1.0, self)


class SessionStep:
    """An arithmetic event shaped like one session-simulator step."""

    def __init__(self, sim, remaining):
        self.sim = sim
        self.remaining = remaining
        self.availability = 1.0

    def __call__(self):
        # A few floating-point ops per event, like the availability
        # integration the end-to-end simulators do.
        self.availability = 0.5 * (self.availability + 0.97 * 0.999)
        self.remaining -= 1
        if self.remaining:
            self.sim.schedule(1.5, self)


class ReportEvent:
    """An allocation-heavy event: builds a small record per firing."""

    def __init__(self, sim, remaining):
        self.sim = sim
        self.remaining = remaining
        self.records = 0

    def __call__(self):
        record = {"time": self.sim.now, "left": self.remaining}
        self.records += len(record)
        self.remaining -= 1
        if self.remaining:
            self.sim.schedule(2.0, self)


def _load(sim):
    """Schedule the three-class mix; total firings == EVENTS."""
    share = EVENTS // 3
    sim.schedule(1.0, CounterTick(sim, share))
    sim.schedule(1.0, SessionStep(sim, share))
    sim.schedule(1.0, ReportEvent(sim, EVENTS - 2 * share))


def _one_run(make_sim):
    sim = make_sim()
    _load(sim)
    started = time.perf_counter()
    sim.run()
    elapsed = time.perf_counter() - started
    assert sim.events_processed == EVENTS
    return elapsed


def test_des_throughput_baseline(benchmark):
    def _measure():
        return min(_one_run(Simulator) for _ in range(REPEATS))

    best = benchmark.pedantic(_measure, rounds=1, warmup_rounds=1)
    events_per_second = EVENTS / best

    # One accounted pass attributes the same mix by event type.
    recorder = PerfRecorder()
    _one_run(lambda: Simulator(perf=recorder))
    accounting = recorder.kernel.to_dict()
    assert accounting["total_events"] == EVENTS
    assert set(accounting["events"]) == {
        "CounterTick", "SessionStep", "ReportEvent"
    }

    total_seconds = accounting["total_seconds"] or 1.0
    record = {
        "benchmark": "des-throughput",
        "events": EVENTS,
        "repeats": REPEATS,
        "seconds_best": round(best, 6),
        "events_per_second": round(events_per_second, 1),
        "event_types": {
            name: {
                "count": entry["count"],
                "seconds": entry["seconds"],
                "share": round(entry["seconds"] / total_seconds, 4),
            }
            for name, entry in accounting["events"].items()
        },
        "nproc": os.cpu_count(),
    }
    out_dir = Path(__file__).parent / "artifacts"
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "BENCH_des.json").write_text(
        json.dumps(record, indent=2) + "\n"
    )

    rows = [
        [name, str(entry["count"]),
         f"{entry['seconds'] * 1e6 / max(entry['count'], 1):.3f}",
         f"{entry['seconds'] / total_seconds:.1%}"]
        for name, entry in sorted(
            accounting["events"].items(),
            key=lambda item: -item[1]["seconds"],
        )
    ]
    emit(format_table(
        ["event type", "count", "us/event (self)", "share"],
        rows,
        title=(
            f"DES kernel throughput — {events_per_second:,.0f} events/s "
            f"({EVENTS} events, best of {REPEATS})"
        ),
    ))
