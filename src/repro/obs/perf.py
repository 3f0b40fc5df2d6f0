"""Performance attribution: where does batch wall-time actually go?

The metrics layer can say *how many* events and tasks ran; this module
says *where the time went*, in three coordinated pieces:

* :class:`KernelAccounting` — per-event-type counts and self-time,
  recorded by the DES kernel's one observed step, bound at
  construction only when metrics or perf is present, so a disabled
  kernel pays nothing (guarded by
  ``benchmarks/bench_perf_attribution.py``).  The step times each event
  with one clock pair, and the same elapsed time feeds the
  ``sim_event_seconds`` histograms when metrics are also active;
* :class:`BatchPerf` / :class:`AttributionReport` — the evaluation
  engine's per-batch timeline: worker execute windows, parent-side
  serialization and cache timing, queue-depth samples, rolled into an
  exact decomposition of ``workers x elapsed`` capacity into
  compute / serialization / IPC / idle / cache buckets.  The
  decomposition is an identity — per-worker busy + stall + trailing
  idle tiles the batch window — so coverage is ~100% by construction
  and the buckets *explain* results like the 0.06x workers=2 speedup
  that ``benchmarks/bench_engine_scaling.py`` measures instead of
  hand-waving at "overhead";
* :class:`CounterProfiler` — a deterministic sampling profiler that
  captures a stack every N kernel events / engine tasks.  Triggers are
  event *counts*, never wall-clock timers, so two runs of the same
  workload produce byte-identical flamegraphs (collapsed-stack and
  speedscope-JSON export, both stdlib-only).

Everything hangs off a :class:`PerfRecorder`, activated ambiently via
:func:`repro.obs.instrumented` (``perf=``) or passed explicitly to the
kernel/engine.  The engine observes each task at one point (the
executor's ``_timed_call``), whose one duration feeds
``engine_task_seconds`` and the batch's execute window alike.  The
recorder renders itself once, as :meth:`PerfRecorder.document`:
``--profile DIR`` writes it to disk, and
``repro.server`` attaches it to a job, so a job's profile text is the
CLI's ``attribution.txt``.
"""

from __future__ import annotations

import json
import os
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from .clock import monotonic, walltime

__all__ = [
    "KernelAccounting",
    "CounterProfiler",
    "BatchPerf",
    "WorkerTimeline",
    "AttributionReport",
    "PerfRecorder",
    "format_attribution",
    "format_kernel_accounting",
    "speedscope_document",
]

# Bucket names, in presentation order.  The five of them tile the
# capacity window exactly (see AttributionReport).
BUCKETS = ("compute", "serialization", "ipc", "idle", "cache")

_MAX_STACK_DEPTH = 64


class KernelAccounting:
    """Per-event-type counts and self-time from the DES kernel.

    One instance aggregates across every kernel that ran under the same
    :class:`PerfRecorder` — including kernels inside engine worker
    processes, whose snapshots are merged back by event-type name.
    """

    __slots__ = ("counts", "seconds")

    def __init__(self) -> None:
        self.counts: Dict[str, int] = {}
        self.seconds: Dict[str, float] = {}

    def record(self, name: str, elapsed: float) -> None:
        """Account one executed event of type *name*."""
        self.counts[name] = self.counts.get(name, 0) + 1
        self.seconds[name] = self.seconds.get(name, 0.0) + elapsed

    @property
    def total_events(self) -> int:
        return sum(self.counts.values())

    @property
    def total_seconds(self) -> float:
        return sum(self.seconds.values())

    def snapshot(self) -> Dict[str, List[float]]:
        """A mergeable ``{name: [count, seconds]}`` transport form."""
        return {
            name: [self.counts[name], self.seconds.get(name, 0.0)]
            for name in self.counts
        }

    def merge(self, snapshot: Mapping[str, Sequence[float]]) -> None:
        """Fold a :meth:`snapshot` (e.g. from a worker process) in."""
        for name, (count, seconds) in snapshot.items():
            self.counts[name] = self.counts.get(name, 0) + int(count)
            self.seconds[name] = self.seconds.get(name, 0.0) + float(seconds)

    def to_dict(self) -> dict:
        events = {
            name: {
                "count": self.counts[name],
                "seconds": round(self.seconds.get(name, 0.0), 9),
            }
            for name in sorted(self.counts)
        }
        return {
            "total_events": self.total_events,
            "total_seconds": round(self.total_seconds, 9),
            "events": events,
        }


class CounterProfiler:
    """A deterministic counter-triggered sampling profiler.

    Every ``kernel_interval``-th DES event and every ``task_interval``-th
    engine task captures the current Python stack (via ``sys._getframe``,
    no tracing hooks, no signals).  Because the trigger is a counter, a
    repeated run of the same workload samples at the same points and the
    exported flamegraph is byte-identical — the caveat being that sample
    *weights* are trigger counts, not wall-time, so the graph shows where
    trigger points fire in the call graph rather than a statistical time
    profile (the time profile is :class:`KernelAccounting`'s job).

    The capture appends a synthetic leaf frame naming the event type or
    task phase about to run, so flamegraph leaves attribute to workload
    structure, not just the kernel loop.
    """

    __slots__ = (
        "kernel_interval",
        "task_interval",
        "_kernel_ticks",
        "_task_ticks",
        "samples",
    )

    def __init__(
        self, kernel_interval: int = 1000, task_interval: int = 1
    ) -> None:
        if kernel_interval < 1 or task_interval < 1:
            raise ValueError("profiler intervals must be >= 1")
        self.kernel_interval = kernel_interval
        self.task_interval = task_interval
        self._kernel_ticks = 0
        self._task_ticks = 0
        # folded stack (root -> leaf tuple of "module:function") -> count
        self.samples: Dict[Tuple[str, ...], int] = {}

    @property
    def kernel_ticks(self) -> int:
        return self._kernel_ticks

    @property
    def task_ticks(self) -> int:
        return self._task_ticks

    @property
    def sample_count(self) -> int:
        return sum(self.samples.values())

    def tick_kernel(self, leaf: Optional[str] = None) -> None:
        """One DES event executed; maybe capture a stack."""
        self._kernel_ticks += 1
        if self._kernel_ticks % self.kernel_interval == 0:
            self._capture(leaf)

    def tick_task(self, leaf: Optional[str] = None) -> None:
        """One engine task executed; maybe capture a stack."""
        self._task_ticks += 1
        if self._task_ticks % self.task_interval == 0:
            self._capture(leaf)

    def _capture(self, leaf: Optional[str]) -> None:
        # Skip _capture and the tick_* caller; start at the trigger site.
        frame = sys._getframe(2)
        stack: List[str] = []
        depth = 0
        while frame is not None and depth < _MAX_STACK_DEPTH:
            code = frame.f_code
            name = getattr(code, "co_qualname", None) or code.co_name
            module = frame.f_globals.get("__name__", "?")
            stack.append(f"{module}:{name}")
            frame = frame.f_back
            depth += 1
        stack.reverse()
        if leaf:
            stack.append(leaf)
        key = tuple(stack)
        self.samples[key] = self.samples.get(key, 0) + 1

    def folded(self) -> Dict[str, int]:
        """``{"a;b;c": count}`` transport form (worker -> parent)."""
        return {";".join(stack): count for stack, count in self.samples.items()}

    def merge_folded(self, folded: Mapping[str, int]) -> None:
        """Fold a :meth:`folded` mapping (e.g. from a worker) in."""
        for line, count in folded.items():
            key = tuple(line.split(";"))
            self.samples[key] = self.samples.get(key, 0) + int(count)

    def collapsed(self) -> str:
        """Brendan-Gregg collapsed-stack format (``a;b;c 42`` per line)."""
        lines = [
            f"{';'.join(stack)} {count}"
            for stack, count in sorted(self.samples.items())
        ]
        return "\n".join(lines) + ("\n" if lines else "")

    def speedscope(self, name: str = "repro profile") -> dict:
        """A speedscope-JSON document (https://speedscope.app)."""
        return speedscope_document(self.samples, name=name)


def speedscope_document(
    samples: Mapping[Tuple[str, ...], int], name: str = "repro profile"
) -> dict:
    """Build a speedscope "sampled" profile from folded-stack counts.

    Deterministic: frames and samples are emitted in sorted stack order,
    and weights are the integer trigger counts.
    """
    frame_index: Dict[str, int] = {}
    frames: List[dict] = []
    sample_stacks: List[List[int]] = []
    weights: List[int] = []
    for stack, count in sorted(samples.items()):
        indexed = []
        for entry in stack:
            if entry not in frame_index:
                frame_index[entry] = len(frames)
                frames.append({"name": entry})
            indexed.append(frame_index[entry])
        sample_stacks.append(indexed)
        weights.append(int(count))
    total = sum(weights)
    return {
        "$schema": "https://www.speedscope.app/file-format-schema.json",
        "name": name,
        "exporter": "repro.obs.perf",
        "shared": {"frames": frames},
        "profiles": [
            {
                "type": "sampled",
                "name": name,
                "unit": "none",
                "startValue": 0,
                "endValue": total,
                "samples": sample_stacks,
                "weights": weights,
            }
        ],
    }


@dataclass(frozen=True)
class WorkerTimeline:
    """One worker's share of a batch window.

    ``busy + stalled + trailing_idle == elapsed`` for the batch (up to
    float rounding): *busy* is the union of execute windows, *stalled*
    is time before/between executions (the worker existed but had no
    task in hand — dispatch, pickling, and IPC latency land here), and
    *trailing_idle* is the tail after its last task finished while the
    batch was still completing elsewhere.
    """

    pid: int
    tasks: int
    busy: float
    stalled: float
    trailing_idle: float

    def to_dict(self) -> dict:
        return {
            "pid": self.pid,
            "tasks": self.tasks,
            "busy": round(self.busy, 9),
            "stalled": round(self.stalled, 9),
            "trailing_idle": round(self.trailing_idle, 9),
        }


@dataclass(frozen=True)
class AttributionReport:
    """Where one engine batch's capacity (``slots x elapsed``) went.

    The five buckets tile capacity exactly:

    * ``compute`` — union of worker execute windows (the only part that
      scales with more workers);
    * ``serialization`` — parent-side argument pickling and journal
      encoding, carved out of worker stall time;
    * ``ipc`` — the rest of worker stall time: dispatch latency, pipe
      transfer, result unpickling, scheduling;
    * ``idle`` — trailing time after a worker's last task, plus whole
      windows of workers that never received a task;
    * ``cache`` — memo-cache lookups/puts on the parent, carved out of
      stall time like serialization.

    ``coverage`` is the bucket sum over capacity — ~1.0 by construction,
    and asserted >= 0.95 by ``bench_perf_attribution.py``.  The measured
    (unclamped) serialization/cache totals are reported alongside, so
    the carve-out is auditable.
    """

    phase: str
    workers: int
    slots: int
    tasks: int
    elapsed: float
    capacity: float
    compute: float
    serialization: float
    ipc: float
    idle: float
    cache: float
    serialization_measured: float
    cache_measured: float
    serialized_bytes: int
    queue_depth_samples: Tuple[int, ...]
    per_worker: Tuple[WorkerTimeline, ...]

    @property
    def accounted(self) -> float:
        return (
            self.compute + self.serialization + self.ipc
            + self.idle + self.cache
        )

    @property
    def coverage(self) -> float:
        """Fraction of capacity the five buckets account for."""
        if self.capacity <= 0.0:
            return 1.0
        return self.accounted / self.capacity

    @property
    def parallel_efficiency(self) -> float:
        """compute / capacity — the ceiling on parallel speedup."""
        if self.capacity <= 0.0:
            return 0.0
        return self.compute / self.capacity

    def share(self, bucket: str) -> float:
        value = getattr(self, bucket)
        return value / self.capacity if self.capacity > 0.0 else 0.0

    def to_dict(self) -> dict:
        return {
            "phase": self.phase,
            "workers": self.workers,
            "slots": self.slots,
            "tasks": self.tasks,
            "elapsed": round(self.elapsed, 9),
            "capacity": round(self.capacity, 9),
            "buckets": {
                name: round(getattr(self, name), 9) for name in BUCKETS
            },
            "shares": {
                name: round(self.share(name), 6) for name in BUCKETS
            },
            "coverage": round(self.coverage, 6),
            "parallel_efficiency": round(self.parallel_efficiency, 6),
            "serialization_measured": round(self.serialization_measured, 9),
            "cache_measured": round(self.cache_measured, 9),
            "serialized_bytes": self.serialized_bytes,
            "queue_depth": {
                "samples": len(self.queue_depth_samples),
                "max": max(self.queue_depth_samples, default=0),
                "mean": round(
                    sum(self.queue_depth_samples)
                    / len(self.queue_depth_samples),
                    3,
                ) if self.queue_depth_samples else 0.0,
            },
            "per_worker": [worker.to_dict() for worker in self.per_worker],
        }

    def headline(self) -> str:
        """One line: the decomposition as percentages of capacity."""
        shares = "  ".join(
            f"{name} {self.share(name):.1%}" for name in BUCKETS
        )
        return (
            f"{self.phase}: {self.tasks} task(s) on {self.slots} worker(s) "
            f"in {self.elapsed:.4f}s — {shares} "
            f"(coverage {self.coverage:.1%})"
        )


class BatchPerf:
    """Mutable builder for one batch's :class:`AttributionReport`.

    The engine creates one per ``map`` batch, feeds it
    execute windows / serialization / cache timings as they happen, and
    calls :meth:`finish` once at the end.
    """

    def __init__(
        self,
        recorder: Optional["PerfRecorder"],
        phase: str,
        workers: int,
        tasks: int,
    ) -> None:
        self._recorder = recorder
        self.phase = phase
        self.workers = workers
        self.tasks = tasks
        self._wall_start = walltime()
        self._started = monotonic()
        # (pid, wall_start, duration) per executed task
        self._windows: List[Tuple[int, float, float]] = []
        self._task_count = 0
        self._serialization = 0.0
        self._serialized_bytes = 0
        self._cache = 0.0
        self._queue_depths: List[int] = []

    def add_serialization(self, seconds: float, nbytes: int = 0) -> None:
        self._serialization += seconds
        self._serialized_bytes += nbytes

    def add_cache(self, seconds: float) -> None:
        self._cache += seconds

    def sample_queue_depth(self, depth: int) -> None:
        self._queue_depths.append(depth)

    def task_executed(
        self, pid: int, wall_start: float, duration: float
    ) -> None:
        """Record one task's execute window on worker *pid*."""
        self._task_count += 1
        self._windows.append((pid, wall_start, duration))

    def finish(self, slots: Optional[int] = None) -> AttributionReport:
        """Close the batch window and compute the attribution identity.

        *slots* is how many workers the batch actually ran on (one for
        an in-process batch); it defaults to the configured *workers*.
        """
        elapsed = monotonic() - self._started
        window_start = self._wall_start
        window_end = self._wall_start + elapsed

        by_pid: Dict[int, List[Tuple[float, float]]] = {}
        for pid, start, duration in self._windows:
            # Clamp into the batch window: worker wall clocks are the
            # same machine but not the same reading as the parent's.
            start = min(max(start, window_start), window_end)
            end = min(max(start + max(duration, 0.0), window_start),
                      window_end)
            by_pid.setdefault(pid, []).append((start, end))

        timelines: List[WorkerTimeline] = []
        compute = 0.0
        stalled_total = 0.0
        idle = 0.0
        for pid in sorted(by_pid):
            windows = sorted(by_pid[pid])
            busy = 0.0
            stalled = 0.0
            cursor = window_start
            for start, end in windows:
                if start > cursor:
                    stalled += start - cursor
                busy += max(end - max(start, cursor), 0.0)
                cursor = max(cursor, end)
            trailing = max(window_end - cursor, 0.0)
            timelines.append(WorkerTimeline(
                pid=pid,
                tasks=len(windows),
                busy=busy,
                stalled=stalled,
                trailing_idle=trailing,
            ))
            compute += busy
            stalled_total += stalled
            idle += trailing

        # Workers that never executed a task still occupied a slot.
        if slots is None:
            slots = self.workers
        slots = max(slots, len(by_pid), 1)
        idle += (slots - len(by_pid)) * elapsed
        capacity = slots * elapsed

        # Carve measured parent-side serialization and cache work out of
        # worker stall time; whatever stall remains is genuinely IPC /
        # dispatch.  min() keeps the five buckets an exact partition
        # even when parent work overlapped worker compute.
        serialization = min(self._serialization, stalled_total)
        cache = min(self._cache, stalled_total - serialization)
        ipc = stalled_total - serialization - cache

        report = AttributionReport(
            phase=self.phase,
            workers=self.workers,
            slots=slots,
            tasks=self._task_count,
            elapsed=elapsed,
            capacity=capacity,
            compute=compute,
            serialization=serialization,
            ipc=ipc,
            idle=idle,
            cache=cache,
            serialization_measured=self._serialization,
            cache_measured=self._cache,
            serialized_bytes=self._serialized_bytes,
            queue_depth_samples=tuple(self._queue_depths),
            per_worker=tuple(timelines),
        )
        if self._recorder is not None:
            self._recorder.add_report(report)
        return report


class PerfRecorder:
    """The performance-attribution bundle for one run.

    Holds the kernel accounting, the deterministic profiler, and every
    batch :class:`AttributionReport` produced while it was active.
    Activate ambiently (``instrumented(perf=recorder)``) or pass to
    :class:`~repro.sim.Simulator` / the evaluation engine explicitly.
    """

    def __init__(
        self, kernel_interval: int = 1000, task_interval: int = 1
    ) -> None:
        self.kernel = KernelAccounting()
        self.profiler = CounterProfiler(
            kernel_interval=kernel_interval, task_interval=task_interval
        )
        self.batches: List[AttributionReport] = []

    def start_batch(self, phase: str, workers: int, tasks: int) -> BatchPerf:
        """A builder that will append its report here on finish()."""
        return BatchPerf(self, phase, workers, tasks)

    def add_report(self, report: AttributionReport) -> None:
        self.batches.append(report)

    def merge_worker(self, record: Optional[Mapping[str, object]]) -> None:
        """Fold one engine-worker perf record (from ``_worker_call``) in."""
        if not record:
            return
        kernel = record.get("kernel")
        if kernel:
            self.kernel.merge(kernel)  # type: ignore[arg-type]
        samples = record.get("samples")
        if samples:
            self.profiler.merge_folded(samples)  # type: ignore[arg-type]

    def to_dict(self) -> dict:
        return {
            "batches": [report.to_dict() for report in self.batches],
            "kernel": self.kernel.to_dict(),
            "profile_samples": self.profiler.sample_count,
        }

    def document(self) -> dict:
        """The one rendering of this recorder, as a JSON-safe document.

        ``attribution`` (:meth:`to_dict`), ``text`` (the attribution and
        kernel-accounting tables), ``collapsed`` and ``speedscope`` (the
        flamegraph exports).  ``--profile DIR`` writes it to disk with
        :meth:`write_artifacts`; the server attaches it to a job.
        """
        return {
            "attribution": self.to_dict(),
            "text": (
                format_attribution(self.batches)
                + "\n\n"
                + format_kernel_accounting(self.kernel)
            ),
            "collapsed": self.profiler.collapsed(),
            "speedscope": self.profiler.speedscope(),
        }

    def write_artifacts(self, directory: Path) -> List[Path]:
        """Write :meth:`document` as four files; returns the paths written.

        ``attribution.json`` (machine-readable report + kernel
        accounting), ``attribution.txt`` (the human rendering),
        ``profile.collapsed`` (flamegraph.pl / speedscope importable),
        and ``profile.speedscope.json``.
        """
        document = self.document()
        files = {
            "attribution.json": json.dumps(
                document["attribution"], indent=2, sort_keys=True
            ) + "\n",
            "attribution.txt": document["text"] + "\n",
            "profile.collapsed": document["collapsed"],
            "profile.speedscope.json": json.dumps(
                document["speedscope"], indent=2
            ) + "\n",
        }
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        written: List[Path] = []
        for name, text in files.items():
            path = directory / name
            path.write_text(text, encoding="utf-8")
            written.append(path)
        return written


def _seconds(value: float) -> str:
    if value >= 1.0:
        return f"{value:.3f}s"
    if value >= 1e-3:
        return f"{value * 1e3:.3f}ms"
    return f"{value * 1e6:.1f}us"


def format_attribution(reports: Iterable[AttributionReport]) -> str:
    """Render attribution reports as an aligned text table."""
    reports = list(reports)
    if not reports:
        return "performance attribution — no engine batches recorded"
    lines = [f"performance attribution — {len(reports)} batch(es)", ""]
    header = (
        "phase", "workers", "tasks", "elapsed",
        *BUCKETS, "coverage",
    )
    rows = [header]
    for report in reports:
        rows.append((
            report.phase,
            str(report.slots),
            str(report.tasks),
            _seconds(report.elapsed),
            *(f"{report.share(name):.1%}" for name in BUCKETS),
            f"{report.coverage:.1%}",
        ))
    widths = [
        max(len(row[column]) for row in rows)
        for column in range(len(header))
    ]
    for index, row in enumerate(rows):
        lines.append("  ".join(
            cell.ljust(width) for cell, width in zip(row, widths)
        ).rstrip())
        if index == 0:
            lines.append("  ".join("-" * width for width in widths))
    worst = min(reports, key=lambda report: report.parallel_efficiency)
    lines.append("")
    lines.append(
        f"parallel efficiency floor: {worst.parallel_efficiency:.1%} "
        f"({worst.phase}: compute {_seconds(worst.compute)} of "
        f"{_seconds(worst.capacity)} capacity)"
    )
    return "\n".join(lines)


def format_kernel_accounting(accounting: KernelAccounting, top: int = 20) -> str:
    """Render per-event-type kernel accounting as an aligned table."""
    if not accounting.counts:
        return "kernel event accounting — no events recorded"
    total_seconds = accounting.total_seconds
    lines = [
        f"kernel event accounting — {len(accounting.counts)} event type(s), "
        f"{accounting.total_events} event(s), "
        f"{_seconds(total_seconds)} self-time",
        "",
    ]
    ranked = sorted(
        accounting.counts,
        key=lambda name: (-accounting.seconds.get(name, 0.0), name),
    )[:top]
    rows = [("event type", "count", "self-time", "share")]
    for name in ranked:
        seconds = accounting.seconds.get(name, 0.0)
        share = seconds / total_seconds if total_seconds > 0.0 else 0.0
        rows.append((
            name,
            str(accounting.counts[name]),
            _seconds(seconds),
            f"{share:.1%}",
        ))
    widths = [
        max(len(row[column]) for row in rows) for column in range(4)
    ]
    for index, row in enumerate(rows):
        lines.append("  ".join(
            cell.ljust(width) for cell, width in zip(row, widths)
        ).rstrip())
        if index == 0:
            lines.append("  ".join("-" * width for width in widths))
    return "\n".join(lines)


def worker_perf_record(
    recorder: PerfRecorder,
) -> Dict[str, object]:
    """The transport form an engine worker returns to the parent."""
    return {
        "pid": os.getpid(),
        "kernel": recorder.kernel.snapshot(),
        "samples": recorder.profiler.folded(),
    }
