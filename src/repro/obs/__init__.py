"""Observability: metrics, span tracing, and performance attribution.

The evaluation pipeline produces one headline number (the eq.-(10)
user-perceived availability); this package makes the pipeline itself
observable — *why* is a run slow, *where* does a campaign spend its
failures — without changing a single output bit:

* :mod:`~repro.obs.metrics` — :class:`MetricsRegistry` holding
  counters, gauges, and fixed-bucket histograms; lock-free per process,
  mergeable across engine workers by name, exported as OpenMetrics text
  or JSON snapshots (rendered by ``repro stats``);
* :mod:`~repro.obs.tracing` — :class:`Tracer`/:class:`Span` with
  monotonic-clock timing, parent/child nesting, per-span attributes,
  JSONL export in Chrome trace-event format, and
  :class:`SpanContext`-based propagation across the engine's
  process-pool boundary so worker spans reattach under the submitting
  task's span;
* :mod:`~repro.obs.clock` — the one monotonic clock source shared by
  heartbeats and spans;
* :mod:`~repro.obs.context` — ambient activation with a **no-op
  default**: with nothing activated, every instrumentation site in the
  hot layers reduces to one ``is not None`` check
  (``benchmarks/bench_obs_overhead.py`` guards the disabled-mode cost
  at <= 3%);
* :mod:`~repro.obs.perf` — the one answer to "where did the time go":
  per-event-type kernel accounting, engine phase/idle timelines rolled
  into an :class:`AttributionReport` (compute vs serialization vs IPC
  vs idle vs cache), and a deterministic counter-triggered sampling
  profiler with collapsed-stack / speedscope flamegraph export, all
  rendered once by :meth:`PerfRecorder.document` (``--profile DIR``,
  server job profiles; guarded by
  ``benchmarks/bench_perf_attribution.py``).  For line-level profiles
  use the standard library: ``python -m cProfile -o out.pstats -m
  repro ...``;
* :mod:`~repro.obs.slo` — the *consume* side for availability:
  :class:`SLOMonitor`, a streaming multi-window burn-rate monitor of
  the user-perceived availability SLO with error-budget accounting and
  Wilson confidence intervals (rendered by ``repro slo``);
* :mod:`~repro.obs.analysis` — trace analytics over exported Chrome
  traces (:class:`TraceAnalysis`: critical path, per-category self
  time, per-worker utilization; ``repro trace-report``) and
  histogram-aware registry diffing (:func:`diff_registries`;
  ``repro diff``);
* :mod:`~repro.obs.regression` — the noise-robust paired-ratio overhead
  statistic shared by every ``bench_*_overhead`` guard.

Instrumented layers: the DES kernel (events, queue depths, per-event-type
timing), the CTMC steady-state solvers (solve wall-time, strategy
fallbacks, power iterations), the evaluation engine (task latencies,
cache hit/miss/eviction counters), fault-injection campaigns
(per-scenario failure/repair event counts), and the runtime journal
(records/fsyncs).  The CLI wires it up via ``--metrics PATH`` /
``--trace PATH`` on ``sweep``/``inject``/``retries``/``resume`` and
renders metrics files with ``repro stats``.
See ``docs/OBSERVABILITY.md`` for the full model.
"""

from .clock import monotonic, walltime
from .context import (
    Instrumentation,
    activate,
    active,
    active_metrics,
    active_perf,
    active_tracer,
    deactivate,
    instrumented,
)
from .metrics import (
    DEFAULT_DEPTH_BOUNDS,
    DEFAULT_ITERATION_BOUNDS,
    DEFAULT_TIME_BOUNDS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    merge_registries,
)
from .analysis import (
    RegistryDiff,
    SeriesDiff,
    TraceAnalysis,
    diff_registries,
    format_diff_table,
    format_trace_report,
)
from .perf import (
    AttributionReport,
    BatchPerf,
    CounterProfiler,
    KernelAccounting,
    PerfRecorder,
    WorkerTimeline,
    format_attribution,
    format_kernel_accounting,
    speedscope_document,
)
from .regression import paired_ratio_overhead, time_variants
from .slo import (
    PoissonSessionSampler,
    SLOAlert,
    SLOMonitor,
    SLOSummary,
    format_slo_report,
)
from .tracing import (
    Span,
    SpanContext,
    Tracer,
    chrome_trace_document,
    read_trace,
    write_chrome_trace,
)

__all__ = [
    "monotonic",
    "walltime",
    "Instrumentation",
    "activate",
    "active",
    "active_metrics",
    "active_perf",
    "active_tracer",
    "deactivate",
    "instrumented",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "merge_registries",
    "DEFAULT_TIME_BOUNDS",
    "DEFAULT_DEPTH_BOUNDS",
    "DEFAULT_ITERATION_BOUNDS",
    "AttributionReport",
    "BatchPerf",
    "CounterProfiler",
    "KernelAccounting",
    "PerfRecorder",
    "WorkerTimeline",
    "format_attribution",
    "format_kernel_accounting",
    "speedscope_document",
    "Span",
    "SpanContext",
    "Tracer",
    "chrome_trace_document",
    "read_trace",
    "write_chrome_trace",
    "SLOMonitor",
    "SLOAlert",
    "SLOSummary",
    "PoissonSessionSampler",
    "format_slo_report",
    "TraceAnalysis",
    "format_trace_report",
    "SeriesDiff",
    "RegistryDiff",
    "diff_registries",
    "format_diff_table",
    "paired_ratio_overhead",
    "time_variants",
]
