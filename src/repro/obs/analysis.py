"""Analytics over exported observability artifacts.

:mod:`repro.obs.metrics` and :mod:`repro.obs.tracing` are the *emit*
side of observability; this module is the *consume* side, operating on
the files those layers write:

* :class:`TraceAnalysis` reads a Chrome trace-event JSONL file (written
  by :meth:`~repro.obs.tracing.Tracer.export`) back into a span tree —
  via the ``span_id``/``parent_id`` identities every event carries —
  and answers the questions a timeline viewer answers visually:
  the **critical path** (the chain of ever-narrower spans that bounds
  the run's wall time), **per-category self time** (time inside spans
  of a category minus their children — where the time actually went),
  the **top-k spans** by duration, and **per-worker utilization**
  (busy fraction of each process that contributed spans — how well an
  ``--workers N`` engine run kept its pool fed);

* :func:`diff_registries` compares two
  :class:`~repro.obs.metrics.MetricsRegistry` snapshots series by
  series — histogram-aware (count/sum/mean movement, not just scalars)
  — which turns ``--metrics`` files from single-run curiosities into
  regression evidence: did this change do more solver fallbacks, fewer
  cache hits, slower engine tasks than the last run?

Both are pure functions of their inputs (no wall clock, no ambient
state), rendered as text by :func:`format_trace_report` and
:func:`format_diff_table` and surfaced as the ``repro trace-report``
and ``repro diff`` CLI subcommands.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from ..errors import ObservabilityError
from .metrics import Histogram, MetricsRegistry
from .tracing import PathLike, read_trace

__all__ = [
    "SpanNode",
    "WorkerUtilization",
    "TraceAnalysis",
    "format_trace_report",
    "SeriesDiff",
    "RegistryDiff",
    "diff_registries",
    "format_diff_table",
]


# ---------------------------------------------------------------------------
# Trace analytics
# ---------------------------------------------------------------------------

@dataclass
class SpanNode:
    """One span of a reconstructed trace tree.

    Durations and timestamps are microseconds, as exported.
    ``self_time`` is the span's duration minus its children's — the time
    attributable to the span's own code rather than anything it called.
    """

    name: str
    category: str
    span_id: str
    parent_id: Optional[str]
    ts: float
    dur: float
    pid: int
    tid: int
    args: Dict[str, Any]
    children: List["SpanNode"] = field(default_factory=list)
    self_time: float = 0.0

    @property
    def end(self) -> float:
        return self.ts + self.dur


@dataclass(frozen=True)
class WorkerUtilization:
    """Busy summary of one process observed in a trace.

    ``busy`` is the union of the process's top-level span intervals
    (nested spans never double-count), ``utilization`` that busy time
    over the whole trace's wall span.
    """

    pid: int
    spans: int
    busy: float
    utilization: float


def _merged_length(intervals: List[Tuple[float, float]]) -> float:
    """Total length of a union of (start, end) intervals."""
    if not intervals:
        return 0.0
    intervals.sort()
    total = 0.0
    current_start, current_end = intervals[0]
    for start, end in intervals[1:]:
        if start > current_end:
            total += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    return total + (current_end - current_start)


class TraceAnalysis:
    """A span tree reconstructed from exported trace events.

    Build with :meth:`from_file` (validates the JSONL schema via
    :func:`~repro.obs.tracing.read_trace`) or :meth:`from_events` (a
    list already in memory, e.g. ``tracer.events``).

    Examples
    --------
    >>> from repro.obs import Tracer
    >>> tracer = Tracer()
    >>> with tracer.span("outer", category="engine"):
    ...     with tracer.span("inner", category="solver"):
    ...         pass
    >>> analysis = TraceAnalysis.from_events(tracer.events)
    >>> [node.name for node in analysis.critical_path()]
    ['outer', 'inner']
    """

    def __init__(self, spans: List[SpanNode]):
        self.spans = spans
        by_id = {node.span_id: node for node in spans}
        self.roots: List[SpanNode] = []
        for node in spans:
            parent = (
                by_id.get(node.parent_id)
                if node.parent_id is not None
                else None
            )
            if parent is None:
                self.roots.append(node)
            else:
                parent.children.append(node)
        for node in spans:
            child_time = sum(child.dur for child in node.children)
            node.self_time = max(node.dur - child_time, 0.0)

    @classmethod
    def from_events(cls, events: Sequence[Dict[str, Any]]) -> "TraceAnalysis":
        """Build from trace-event dicts (exported or in-memory)."""
        spans = []
        for event in events:
            try:
                args = dict(event.get("args") or {})
                spans.append(SpanNode(
                    name=str(event["name"]),
                    category=str(event.get("cat", "")),
                    span_id=str(args.get("span_id", id(event))),
                    parent_id=(
                        str(args["parent_id"]) if "parent_id" in args else None
                    ),
                    ts=float(event["ts"]),
                    dur=float(event["dur"]),
                    pid=int(event["pid"]),
                    tid=int(event["tid"]),
                    args=args,
                ))
            except (TypeError, KeyError, ValueError) as exc:
                raise ObservabilityError(
                    f"malformed trace event {event!r}: {exc}"
                ) from exc
        return cls(spans)

    @classmethod
    def from_file(cls, path: PathLike) -> "TraceAnalysis":
        """Read and analyze a JSONL trace written by ``Tracer.export``."""
        return cls.from_events(read_trace(path))

    # -- aggregate views -------------------------------------------------
    def __len__(self) -> int:
        return len(self.spans)

    @property
    def wall_span(self) -> Tuple[float, float]:
        """(first start, last end) over all spans; (0, 0) when empty."""
        if not self.spans:
            return (0.0, 0.0)
        return (
            min(node.ts for node in self.spans),
            max(node.end for node in self.spans),
        )

    def category_self_times(self) -> Dict[str, float]:
        """Total self time per category (microseconds), largest first."""
        totals: Dict[str, float] = {}
        for node in self.spans:
            totals[node.category] = (
                totals.get(node.category, 0.0) + node.self_time
            )
        return dict(
            sorted(totals.items(), key=lambda item: (-item[1], item[0]))
        )

    def name_aggregates(self) -> Dict[str, Tuple[int, float, float]]:
        """Per span name: (count, total duration, total self time)."""
        totals: Dict[str, Tuple[int, float, float]] = {}
        for node in self.spans:
            count, dur, self_time = totals.get(node.name, (0, 0.0, 0.0))
            totals[node.name] = (
                count + 1, dur + node.dur, self_time + node.self_time
            )
        return dict(
            sorted(totals.items(), key=lambda item: (-item[1][2], item[0]))
        )

    def top_spans(self, k: int = 10) -> List[SpanNode]:
        """The *k* individually longest spans, longest first."""
        return sorted(
            self.spans, key=lambda node: (-node.dur, node.ts)
        )[:max(k, 0)]

    def critical_path(self) -> List[SpanNode]:
        """The widest root and, level by level, its widest child.

        With nested complete spans, a parent's duration covers its
        children, so the chain of locally-longest spans is the path
        whose leaves bound the run's wall time — the place to look
        first when a run is slow.
        """
        if not self.roots:
            return []
        path = []
        node = max(self.roots, key=lambda n: (n.dur, -n.ts))
        while True:
            path.append(node)
            if not node.children:
                return path
            node = max(node.children, key=lambda n: (n.dur, -n.ts))

    def worker_utilization(self) -> List[WorkerUtilization]:
        """Busy fraction of each process seen in the trace.

        A span is *top-level for its process* when its parent is absent
        or lives in another process; the union of those intervals is the
        process's busy time, divided by the whole trace's wall span.
        Sorted by pid.
        """
        start, end = self.wall_span
        wall = end - start
        by_id = {node.span_id: node for node in self.spans}
        intervals: Dict[int, List[Tuple[float, float]]] = {}
        counts: Dict[int, int] = {}
        for node in self.spans:
            counts[node.pid] = counts.get(node.pid, 0) + 1
            parent = (
                by_id.get(node.parent_id)
                if node.parent_id is not None
                else None
            )
            if parent is None or parent.pid != node.pid:
                intervals.setdefault(node.pid, []).append(
                    (node.ts, node.end)
                )
        summaries = []
        for pid in sorted(counts):
            busy = _merged_length(intervals.get(pid, []))
            summaries.append(WorkerUtilization(
                pid=pid,
                spans=counts[pid],
                busy=busy,
                utilization=busy / wall if wall > 0.0 else 0.0,
            ))
        return summaries

    def wall_attribution(self) -> Dict[str, Any]:
        """Decompose trace capacity (wall x pids) into busy vs idle.

        The trace-side counterpart of the engine's
        :class:`~repro.obs.AttributionReport`, and no second mechanism:
        it only combines :meth:`worker_utilization` (every process
        observed in the trace occupies one slot of the wall span; the
        union of its top-level spans is busy time, the rest idle) with
        :meth:`category_self_times` (busy time by span category).  All
        values in microseconds.
        """
        start, end = self.wall_span
        wall = end - start
        workers = self.worker_utilization()
        slots = len(workers)
        capacity = wall * slots
        busy = sum(worker.busy for worker in workers)
        idle = max(capacity - busy, 0.0)
        return {
            "wall": wall,
            "pids": slots,
            "capacity": capacity,
            "busy": busy,
            "idle": idle,
            "busy_fraction": busy / capacity if capacity > 0.0 else 0.0,
            "categories": self.category_self_times(),
        }


def _us(value: float) -> str:
    """Microseconds rendered at a human scale."""
    if value >= 1e6:
        return f"{value / 1e6:.3f} s"
    if value >= 1e3:
        return f"{value / 1e3:.3f} ms"
    return f"{value:.1f} us"


def format_trace_report(analysis: TraceAnalysis, top: int = 10) -> str:
    """Render a :class:`TraceAnalysis` as a multi-section text report."""
    from ..reporting import format_table

    start, end = analysis.wall_span
    sections = [
        f"{len(analysis)} span(s), wall span {_us(end - start)}"
    ]

    path = analysis.critical_path()
    if path:
        rows = [
            [depth, node.name, node.category, _us(node.dur),
             _us(node.self_time)]
            for depth, node in enumerate(path)
        ]
        sections.append(format_table(
            ["depth", "span", "category", "duration", "self"],
            rows,
            title="critical path",
        ))

    categories = analysis.category_self_times()
    if categories:
        total = sum(categories.values()) or 1.0
        rows = [
            [category or "-", _us(self_time), f"{self_time / total:.1%}"]
            for category, self_time in categories.items()
        ]
        sections.append(format_table(
            ["category", "self time", "share"],
            rows,
            title="self time by category",
        ))

    spans = analysis.top_spans(top)
    if spans:
        rows = [
            [node.name, node.category, _us(node.dur), _us(node.self_time),
             str(node.pid)]
            for node in spans
        ]
        sections.append(format_table(
            ["span", "category", "duration", "self", "pid"],
            rows,
            title=f"top {len(spans)} spans by duration",
        ))

    workers = analysis.worker_utilization()
    if workers:
        rows = [
            [str(w.pid), str(w.spans), _us(w.busy), f"{w.utilization:.1%}"]
            for w in workers
        ]
        sections.append(format_table(
            ["pid", "spans", "busy", "utilization"],
            rows,
            title="per-worker utilization",
        ))

    attribution = analysis.wall_attribution()
    if attribution["capacity"] > 0.0:
        busy_share = attribution["busy_fraction"]
        lines = [
            "attribution",
            f"  wall {_us(attribution['wall'])} across "
            f"{attribution['pids']} pid(s) -> capacity "
            f"{_us(attribution['capacity'])}",
            f"  busy {_us(attribution['busy'])} ({busy_share:.1%}), "
            f"idle {_us(attribution['idle'])} ({1.0 - busy_share:.1%})",
        ]
        total_self = sum(attribution["categories"].values())
        if total_self > 0.0:
            shares = ", ".join(
                f"{category or '-'} {self_time / total_self:.1%}"
                for category, self_time in attribution["categories"].items()
            )
            lines.append(f"  busy self-time by category: {shares}")
        sections.append("\n".join(lines))

    return "\n\n".join(sections)


# ---------------------------------------------------------------------------
# Metrics diffing
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SeriesDiff:
    """One series compared across two registry snapshots.

    ``old``/``new`` are the scalar values for counters and gauges and
    the observation **means** for histograms; ``old_count``/``new_count``
    carry the histogram observation counts (0 for scalars).  ``status``
    is ``"changed"``, ``"unchanged"``, ``"added"``, or ``"removed"``.
    """

    name: str
    labels: Tuple[Tuple[str, str], ...]
    kind: str
    status: str
    old: float
    new: float

    old_count: int = 0
    new_count: int = 0

    @property
    def delta(self) -> float:
        return self.new - self.old

    @property
    def ratio(self) -> float:
        """new / old; ``inf`` from zero, ``nan`` when both sides are 0."""
        if self.old == 0.0:
            return float("nan") if self.new == 0.0 else float("inf")
        return self.new / self.old


@dataclass(frozen=True)
class RegistryDiff:
    """All series of two snapshots, aligned by ``(name, labels)``."""

    entries: Tuple[SeriesDiff, ...]

    @property
    def changed(self) -> Tuple[SeriesDiff, ...]:
        return tuple(e for e in self.entries if e.status == "changed")

    @property
    def added(self) -> Tuple[SeriesDiff, ...]:
        return tuple(e for e in self.entries if e.status == "added")

    @property
    def removed(self) -> Tuple[SeriesDiff, ...]:
        return tuple(e for e in self.entries if e.status == "removed")

    def __len__(self) -> int:
        return len(self.entries)


def _series_values(metric) -> Tuple[float, int]:
    """(comparison value, observation count) of one instrument."""
    if isinstance(metric, Histogram):
        mean = metric.mean if metric.count else 0.0
        return float(mean), int(metric.count)
    return float(metric.value), 0


def diff_registries(
    old: MetricsRegistry, new: MetricsRegistry
) -> RegistryDiff:
    """Compare two registry snapshots series by series.

    Counters and gauges compare their values; histograms compare their
    observation counts and means (a histogram is "changed" when either
    moved).  Series present on only one side are reported as ``added``
    (only in *new*) or ``removed`` (only in *old*).  Two histograms of
    one family declared with different bucket bounds are a hard error —
    the same condition :func:`~repro.obs.metrics.merge_registries`
    rejects — naming the offending family.

    Examples
    --------
    >>> before, after = MetricsRegistry(), MetricsRegistry()
    >>> before.counter("solves").inc(2)
    >>> after.counter("solves").inc(5)
    >>> diff = diff_registries(before, after)
    >>> diff.entries[0].delta
    3.0
    """
    old_series = {(m.name, m.labels): m for m in old}
    new_series = {(m.name, m.labels): m for m in new}
    entries: List[SeriesDiff] = []
    for key in sorted(set(old_series) | set(new_series)):
        name, labels = key
        before = old_series.get(key)
        after = new_series.get(key)
        metric = after if after is not None else before
        if (
            before is not None and after is not None
            and before.kind != after.kind
        ):
            raise ObservabilityError(
                f"cannot diff series {name!r}: it is a {before.kind} in the "
                f"old snapshot but a {after.kind} in the new one"
            )
        if (
            isinstance(before, Histogram) and isinstance(after, Histogram)
            and before.bounds != after.bounds
        ):
            raise ObservabilityError(
                f"cannot diff histogram {name!r}: bucket bounds differ "
                f"between snapshots ({before.bounds} vs {after.bounds})"
            )
        old_value, old_count = (
            _series_values(before) if before is not None else (0.0, 0)
        )
        new_value, new_count = (
            _series_values(after) if after is not None else (0.0, 0)
        )
        if before is None:
            status = "added"
        elif after is None:
            status = "removed"
        elif old_value != new_value or old_count != new_count:
            status = "changed"
        else:
            status = "unchanged"
        entries.append(SeriesDiff(
            name=name,
            labels=labels,
            kind=metric.kind,
            status=status,
            old=old_value,
            new=new_value,
            old_count=old_count,
            new_count=new_count,
        ))
    return RegistryDiff(entries=tuple(entries))


def format_diff_table(
    diff: RegistryDiff, include_unchanged: bool = False
) -> str:
    """Render a :class:`RegistryDiff` as a fixed-width table."""
    from ..reporting import format_table

    rows = []
    for entry in diff.entries:
        if entry.status == "unchanged" and not include_unchanged:
            continue
        labels = ",".join(f"{k}={v}" for k, v in entry.labels)
        if entry.kind == "histogram":
            old = f"n={entry.old_count} mean={entry.old:.6g}"
            new = f"n={entry.new_count} mean={entry.new:.6g}"
            delta = f"{entry.new_count - entry.old_count:+d} obs"
        else:
            old = f"{entry.old:g}"
            new = f"{entry.new:g}"
            delta = f"{entry.delta:+g}"
        ratio = entry.ratio
        ratio_text = "n/a" if ratio != ratio else (
            "inf" if ratio == float("inf") else f"{ratio:.3f}x"
        )
        rows.append([
            entry.name, labels, entry.kind, entry.status,
            old, new, delta, ratio_text,
        ])
    changed = len(diff.changed)
    title = (
        f"{changed} changed, {len(diff.added)} added, "
        f"{len(diff.removed)} removed, "
        f"{len(diff) - changed - len(diff.added) - len(diff.removed)} "
        "unchanged"
    )
    if not rows:
        return title
    return format_table(
        ["metric", "labels", "kind", "status", "old", "new", "delta",
         "ratio"],
        rows,
        title=title,
    )
