"""The batch evaluation engine: parallel, cache-aware, resumable.

:class:`EvaluationEngine` has one entry point,
:meth:`~EvaluationEngine.map`, which evaluates ``fn(item)`` for a list
of independent items.  Every workload runs through it: the Fig. 11/12
sweeps, Table 8, fault-injection campaigns, the client-policy and cloud
comparison grids, and ``retries --simulate``.  One set of rules applies:

* Journal restores come first, then every keyed item is looked up in
  the cache before anything runs.
* With ``workers=1``, or at most one item left to compute, the batch
  runs in-process and no pool is built.
* Otherwise a supervised pool of at least ``min(workers, pending)``
  and at most ``workers`` processes runs the rest, submitted in item
  order.  The work function is checked for picklability once, before
  the pool is used.
* Each thread holds one pool, forked by its first batch that needs
  one, at its engine's ``workers``, on the default start method.  It
  outlives the batch: the thread's later batches borrow it while it is
  wide enough, no wider than their engine's ``workers``, and the
  module bindings of ``repro`` and ``__main__`` are those it was
  forked with; otherwise it is replaced.  A worker death replaces it.
  It is shut down when its thread ends, at interpreter exit, or by
  :func:`shutdown_pool`.
* Chaos injections fire by item index.

Behind the entry point sit these guarantees:

**Determinism.**  Results are assembled by item index, never by
completion order, so a run with ``workers=4`` is bit-identical to
``workers=1``.  Stochastic tasks must draw from per-task
:class:`numpy.random.SeedSequence` streams carried in their arguments
(the campaign replications already do); the engine itself introduces
no randomness.

**Caching.**  Items carrying a content-addressed key
(:func:`~repro.engine.canonical_key`) are memoized in the engine's
:class:`~repro.engine.MemoCache`; per-run hit/miss/eviction deltas are
exposed on every result object.

**Cancellation.**  A :class:`~repro.runtime.CancellationToken` is polled
before every dispatch and between completions.  Cancellation is
cooperative at task granularity: in-flight worker tasks finish, pending
ones are dropped, and already-journaled results survive.

**Resume.**  With a journal attached, every completed task is durably
recorded (key + JSON value); re-running the same batch over the same
journal restores completed tasks and computes only the rest.  Sweeps
and campaign cells resume this way; a campaign writes the opening
``batch_start`` record itself, with its configuration beside the
``phase`` and ``total`` the engine checks.

**Fault tolerance.**  The process-pool backend is *supervised*: a
worker that dies mid-task (OOM kill, segfault, chaos injection) breaks
the pool, and the engine responds by respawning a fresh pool and
re-dispatching only the tasks that had not completed — up to
``max_respawns`` pool generations before giving up with
:class:`~repro.errors.EngineError`.  Attaching a
:class:`~repro.engine.TaskRetryPolicy` additionally retries individual
tasks that fail with *retryable* exceptions (by default
:class:`~repro.errors.TransientTaskError`); exhausted retries re-raise
the last failure.  Both mechanisms preserve determinism — results are
still assembled by index, so a run that survived crashes is
bit-identical to an undisturbed serial run.

The serial backend (``workers=1``, the default) is the reference
implementation: the parallel backend must, and is tested to, reproduce
its outputs bit for bit.
"""

from __future__ import annotations

import json
import os
import pickle
import sys
import threading
import time
import weakref
from concurrent.futures import (
    FIRST_COMPLETED,
    BrokenExecutor,
    ProcessPoolExecutor,
    wait,
)
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, fields
from itertools import chain
from operator import is_
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from .._validation import check_positive_int
from ..errors import EngineError, ResumeError
from ..obs.clock import monotonic, walltime
from ..obs.context import active_metrics, active_perf, active_tracer
from ..runtime.budget import CancellationToken
from ..runtime.heartbeat import HeartbeatCallback, beat
from ..runtime.journal import Journal, JournalLike, read_journal, record_index
from .cache import CacheStats, MemoCache
from .retry import TaskRetryPolicy

if TYPE_CHECKING:  # pragma: no cover - types only
    from ..chaos.plan import ChaosPlan
    from ..obs.metrics import MetricsRegistry
    from ..obs.perf import BatchPerf, PerfRecorder
    from ..obs.tracing import Tracer

__all__ = ["EvaluationEngine", "BatchResult", "shutdown_pool"]

def _bindings() -> Tuple[Any, ...]:
    """What a forked worker inherits that a later pass may have changed.

    The module-level bindings of the ``repro`` package and of
    ``__main__``, in order.  A worker runs the code bound when it was
    forked: a function rebound since (a monkeypatch, a probe, the
    ambient instrumentation) or defined in ``__main__`` since would not
    reach it.
    """
    return tuple(chain.from_iterable([
        # One C-level copy per module: another thread's import may add
        # to a module while this runs.
        tuple(vars(module).values())
        for name, module in list(sys.modules.items())
        if name == "__main__" or name == "repro" or name.startswith("repro.")
    ]))


class _Held:
    """The worker pool one thread holds, and what its workers inherited.

    Its finalizer shuts the pool down, once: when a pass replaces it,
    when the thread ends and takes its thread-local state along, from
    :func:`shutdown_pool`, or at interpreter exit.
    """

    __slots__ = ("pool", "size", "bindings", "shutdown", "__weakref__")

    def __init__(self, workers: int, bindings: Tuple[Any, ...]):
        self.pool = ProcessPoolExecutor(max_workers=workers)
        self.size = workers
        self.bindings = bindings
        self.shutdown = weakref.finalize(self, self.pool.shutdown)

    def inherited(self, bindings: Tuple[Any, ...]) -> bool:
        """Whether the workers were forked with exactly *bindings*.

        Compared by identity: a name rebound to an equal but distinct
        object is a change too.
        """
        return (len(bindings) == len(self.bindings)
                and all(map(is_, bindings, self.bindings)))


# Each thread's held pool, and every live one (for shutdown_pool()).
_local = threading.local()
_every_held: "weakref.WeakSet[_Held]" = weakref.WeakSet()
_every_held_lock = threading.Lock()


@contextmanager
def _pool_for(size: int, workers: int) -> Iterator[ProcessPoolExecutor]:
    """The pool a pass of *size* processes runs on, for an engine of
    *workers*.

    Each thread holds at most one pool, so concurrent batches on
    different threads (server jobs) neither share workers nor break
    each other's pools.  A pass borrows its thread's pool when
    ``size <= held <= workers`` (wide enough, and no wider than its
    engine allows) and the module bindings its workers were forked with
    are still the current ones.  Otherwise the held pool is shut down
    and a new one is forked, at the engine's *workers* rather than at
    *size*, so a short pass (a respawn finishing one task) does not
    leave a pool too narrow for the next full batch.  A worker death
    drops the broken pool, and the supervisor's next pass forks a fresh
    one.
    """
    bindings = _bindings()
    held = getattr(_local, "held", None)
    if held is not None and not (
        held.shutdown.alive and size <= held.size <= workers
        and held.inherited(bindings)
    ):
        held.shutdown()
        held = None
    if held is None:
        held = _Held(workers, bindings)
        _local.held = held
        with _every_held_lock:
            _every_held.add(held)
    try:
        yield held.pool
    except BrokenExecutor:
        held.shutdown()
        raise


def shutdown_pool() -> None:
    """Shut down every worker pool the threads of this process hold.

    Waits for their workers to exit.  Runs at interpreter exit; a server
    calls it when it stops, once its job threads are idle.  The next
    pass that needs a pool forks a new one.
    """
    with _every_held_lock:
        every = list(_every_held)
    for held in every:
        held.shutdown()


#: The :class:`CacheStats` counters, in declaration order.
_CACHE_FIELDS = tuple(f.name for f in fields(CacheStats))


def _stats_delta(before: CacheStats, after: CacheStats) -> CacheStats:
    return CacheStats(**{
        name: getattr(after, name) - getattr(before, name)
        for name in _CACHE_FIELDS
    })


class _RunCounters:
    """Mutable fault-tolerance tallies for one engine run.

    Mutable on purpose: a pool pass that dies mid-flight must not lose
    the retries it already performed, so passes update this in place and
    the supervisor reads whatever survived.
    """

    __slots__ = ("retries", "respawns")

    def __init__(self):
        self.retries = 0
        self.respawns = 0


@dataclass(frozen=True)
class BatchResult:
    """Outcome of one :meth:`EvaluationEngine.map` call.

    Attributes
    ----------
    outputs:
        Task results in input order — independent of worker count and
        completion order.
    cache_stats:
        Hit/miss/eviction counters for *this* run (deltas, not the
        cache's lifetime totals).
    executed:
        Tasks actually computed this run.
    restored:
        Tasks restored from the journal instead of computed.
    workers:
        Worker processes used (1 = the serial reference backend).
    elapsed:
        Wall-clock seconds for the batch.
    retries:
        Task attempts re-run under the engine's
        :class:`~repro.engine.TaskRetryPolicy` after transient failures.
    respawns:
        Worker-pool generations spawned to replace dead workers (0 on an
        undisturbed run).
    """

    outputs: Tuple[Any, ...]
    cache_stats: CacheStats
    executed: int
    restored: int
    workers: int
    elapsed: float
    retries: int = 0
    respawns: int = 0

    def __len__(self) -> int:
        return len(self.outputs)


def _timed_call(
    metrics: Optional["MetricsRegistry"],
    tracer: Optional["Tracer"],
    perf: Optional["PerfRecorder"],
    phase: str,
    fn: Callable[[Any], Any],
    item: Any,
    **attrs: Any,
) -> Tuple[Any, Optional[float], float]:
    """Run one task as an ``engine task``: the one place it is observed.

    Shared by the in-process loop and pool workers.  One clock pair
    times the call; that duration feeds ``engine_task_seconds`` and,
    with a perf recorder, the batch's execute window, whose wall start
    is read only then.  The recorder's profiler ticks once the task has
    returned, so a retried task counts once, for its successful attempt.
    Returns ``(value, wall_start, seconds)``; *wall_start* is None
    without a recorder.
    """
    wall_start = walltime() if perf is not None else None
    started = monotonic()
    if tracer is not None:
        with tracer.span("engine task", category="engine", phase=phase,
                         **attrs):
            value = fn(item)
    else:
        value = fn(item)
    duration = monotonic() - started
    if metrics is not None:
        metrics.histogram(
            "engine_task_seconds",
            help="Wall-clock latency of engine-executed tasks.",
            phase=phase,
        ).observe(duration)
    if perf is not None:
        perf.profiler.tick_task(leaf=f"task:{phase}")
    return value, wall_start, duration


def _worker_call(
    chaos: Optional["ChaosPlan"],
    index: int,
    instrument: bool,
    ctx: Optional[Dict[str, Any]],
    phase: str,
    fn: Callable[[Any], Any],
    item: Any,
    perf: bool = False,
) -> Any:
    """Worker-side task entry point for chaos plans and instrumentation.

    Runs the plan's injection point (which may kill this worker process
    or raise a transient fault), then the task.  With *instrument*, the
    task runs under fresh ambient instrumentation: the worker builds its
    own registry (merged back by name) and, when a
    :class:`~repro.obs.SpanContext` dict is shipped, its own tracer whose
    root span parents under the submitting span.  With *perf*, it also
    builds a worker-local :class:`~repro.obs.PerfRecorder` — DES kernels
    constructed inside the task account per-event-type self-time into it
    — and ships back its execute window (pid + wall start + duration) for
    the parent's :class:`~repro.obs.AttributionReport`.  Instrumented
    calls return ``(value, metrics_snapshot, trace_payload,
    perf_record)``; the parent unwraps the value before assembly, so
    instrumented parallel outputs stay bit-identical to uninstrumented
    ones.  Module-level so it pickles.
    """
    if chaos is not None:
        chaos.before_task(index, in_worker=True)
    if not instrument:
        return fn(item)
    from ..obs.context import instrumented
    from ..obs.metrics import MetricsRegistry
    from ..obs.tracing import SpanContext, Tracer

    registry = MetricsRegistry()
    tracer = (
        Tracer(context=SpanContext.from_dict(ctx)) if ctx is not None else None
    )
    recorder = None
    if perf:
        from ..obs.perf import PerfRecorder

        recorder = PerfRecorder()
    with instrumented(metrics=registry, tracer=tracer, perf=recorder):
        value, wall_start, duration = _timed_call(
            registry, tracer, recorder, phase, fn, item
        )
    payload = tracer.payload() if tracer is not None else None
    record = None
    if recorder is not None:
        from ..obs.perf import worker_perf_record

        record = worker_perf_record(recorder)
        record["wall_start"] = wall_start
        record["duration"] = duration
    return value, registry.to_dict(), payload, record


def _json_safe(value: Any) -> Any:
    """Round-trip *value* through JSON, or raise EngineError."""
    try:
        return json.loads(json.dumps(value))
    except (TypeError, ValueError):
        raise EngineError(
            "journaled batches need JSON-serializable task results; got "
            f"a value of type {type(value).__name__!r} (run without a "
            "journal, or reduce the task output to plain numbers first)"
        ) from None


class EvaluationEngine:
    """Cache-aware batch executor with serial and process-pool backends.

    :meth:`map` is the one entry point (see the module docstring for its
    rules): cache lookups, the in-process loop, the supervised pool with
    its retries and respawns, and the per-task instrumentation all serve
    it.

    Parameters
    ----------
    workers:
        Worker processes; ``1`` (default) runs everything in-process and
        is the reference backend for equality tests.
    cache:
        A shared :class:`~repro.engine.MemoCache`; built internally from
        *cache_dir*/*cache_size* when omitted.
    cache_dir:
        Optional on-disk cache directory (persists across processes and
        runs).
    cache_size:
        In-memory LRU capacity when the engine builds its own cache.
    cancellation:
        Optional :class:`~repro.runtime.CancellationToken`, polled at
        every dispatch and completion boundary.
    heartbeat:
        Optional progress callback (one event per completed task).
    retry:
        Optional :class:`~repro.engine.TaskRetryPolicy`.  Tasks failing
        with one of its retryable exception types are re-run (same
        worker pool, capped backoff) up to ``max_attempts`` times;
        anything else — and the last retryable failure once attempts are
        exhausted — propagates unchanged.
    chaos:
        Optional :class:`~repro.chaos.ChaosPlan` wired into every task
        of :meth:`map` (serial and worker-side), used by the
        deterministic chaos harness to inject worker kills and transient
        faults at planned item indices.  Production runs leave it None.
    max_respawns:
        Worker-pool generations the supervisor may spawn to replace dead
        workers before declaring the batch failed.
    metrics / tracer:
        Optional :class:`~repro.obs.MetricsRegistry` /
        :class:`~repro.obs.Tracer`; each defaults to the ambient one
        (:func:`repro.obs.active_metrics` / :func:`repro.obs.active_tracer`).
        When present, the engine records per-phase task counts and
        latency histograms, re-exposes the memo cache's per-run
        hit/miss/eviction deltas as counters, and wraps every batch and
        task in spans — worker-process spans reattach under the
        submitting task's span, and worker registries merge back by
        name.  Instrumentation never changes outputs: parallel
        instrumented runs stay bit-identical to serial uninstrumented
        ones.  Exported traces keep each worker's pid on its spans,
        which is what ``repro trace-report`` aggregates into the
        per-worker utilization table
        (:meth:`repro.obs.analysis.TraceAnalysis.worker_utilization`).
    perf:
        Optional :class:`~repro.obs.PerfRecorder`; defaults to the
        ambient one (:func:`repro.obs.active_perf`).  When present,
        every batch builds an :class:`~repro.obs.AttributionReport`
        decomposing ``workers x elapsed`` capacity into compute,
        serialization, IPC, idle, and cache time — worker execute
        windows, parent-side pickle/cache timing, and queue-depth
        samples — and worker-side kernel accounting and profiler
        samples merge back like metrics do.  Like the other
        instrumentation, it never changes outputs.

    Examples
    --------
    >>> from math import sqrt
    >>> engine = EvaluationEngine()
    >>> result = engine.map(sqrt, [1.0, 4.0, 9.0])
    >>> result.outputs
    (1.0, 2.0, 3.0)
    """

    def __init__(
        self,
        workers: int = 1,
        cache: Optional[MemoCache] = None,
        cache_dir: Optional[Union[str, Path]] = None,
        cache_size: int = 4096,
        cancellation: Optional[CancellationToken] = None,
        heartbeat: Optional[HeartbeatCallback] = None,
        metrics: Optional["MetricsRegistry"] = None,
        tracer: Optional["Tracer"] = None,
        retry: Optional[TaskRetryPolicy] = None,
        chaos: Optional["ChaosPlan"] = None,
        max_respawns: int = 3,
        perf: Optional["PerfRecorder"] = None,
    ):
        self.workers = check_positive_int(workers, "workers")
        self.retry = retry
        self.chaos = chaos
        self.max_respawns = check_positive_int(max_respawns, "max_respawns")
        if cache is not None and cache_dir is not None:
            raise EngineError(
                "pass either a prebuilt cache or a cache_dir, not both"
            )
        self.cache = (
            cache
            if cache is not None
            else MemoCache(maxsize=cache_size, cache_dir=cache_dir)
        )
        self.cancellation = cancellation
        self.heartbeat = heartbeat
        self._metrics = metrics if metrics is not None else active_metrics()
        self._tracer = tracer if tracer is not None else active_tracer()
        self._perf = perf if perf is not None else active_perf()

    # ------------------------------------------------------------------
    def _check(self) -> None:
        if self.cancellation is not None:
            self.cancellation.check_now()

    @staticmethod
    def _require_picklable(fn: Callable) -> None:
        try:
            pickle.dumps(fn)
        except Exception as exc:
            raise EngineError(
                f"work function {fn!r} cannot be sent to worker processes "
                f"({exc}); use a module-level function, or run with "
                "workers=1"
            ) from exc

    def _span(self, name: str):
        if self._tracer is None:
            return nullcontext()
        return self._tracer.span(name, category="engine")

    @property
    def metrics(self) -> Optional["MetricsRegistry"]:
        """The registry this engine records into, or None (read-only)."""
        return self._metrics

    @property
    def _instrumented(self) -> bool:
        return (
            self._metrics is not None
            or self._tracer is not None
            or self._perf is not None
        )

    # -- fault tolerance helpers ---------------------------------------
    def _retry_or_raise(
        self, exc: BaseException, attempt: int, counters: _RunCounters
    ) -> None:
        """Count one retry of failed *attempt* and back off, or re-raise."""
        if (
            self.retry is None
            or not self.retry.is_retryable(exc)
            or attempt >= self.retry.max_attempts
        ):
            raise exc
        counters.retries += 1
        delay = self.retry.backoff_delay(attempt - 1)
        if delay > 0.0:
            time.sleep(delay)

    def _call_serial(
        self,
        index: int,
        fn: Callable[[Any], Any],
        item: Any,
        phase: str,
        counters: _RunCounters,
    ) -> Tuple[Any, int, Optional[float], float]:
        """Run task *index* in-process under the retry policy.

        Returns ``(value, attempts, wall_start, seconds)``, the last two
        from :func:`_timed_call` for the successful attempt.  Chaos
        injections (when a plan is attached) fire before each attempt,
        exactly as they do inside pool workers.
        """
        attempt = 1
        while True:
            try:
                if self.chaos is not None:
                    self.chaos.before_task(index, in_worker=False)
                value, wall_start, duration = _timed_call(
                    self._metrics, self._tracer, self._perf, phase, fn,
                    item, index=index
                )
                return value, attempt, wall_start, duration
            except BaseException as exc:
                self._retry_or_raise(exc, attempt, counters)
                attempt += 1

    def _unwrap_instrumented(
        self, result: Tuple[Any, ...],
        batch: Optional["BatchPerf"] = None,
    ) -> Any:
        value, snapshot, payload, record = result
        if self._metrics is not None:
            self._metrics.merge_snapshot(snapshot)
        if self._tracer is not None and payload is not None:
            self._tracer.absorb(payload)
        if self._perf is not None and record is not None:
            self._perf.merge_worker(record)
            if batch is not None:
                batch.task_executed(
                    record["pid"], record["wall_start"], record["duration"]
                )
        return value

    def _time_serialization(
        self, batch: Optional["BatchPerf"], fn: Callable[[Any], Any],
        item: Any,
    ) -> None:
        """Measure what shipping this task costs in pickle time/bytes.

        The pool pickles ``(fn, item)`` itself on submit; re-pickling
        here is the measured proxy for that cost (only when a perf
        recorder is attached), credited to the serialization bucket.
        """
        if batch is None:
            return
        started = monotonic()
        try:
            payload = pickle.dumps((fn, item))
        except Exception:
            return
        batch.add_serialization(monotonic() - started, len(payload))

    def _record_run_metrics(
        self, phase: str, total: int, executed: int, restored: int,
        delta: CacheStats, counters: _RunCounters,
    ) -> None:
        if self._metrics is None:
            return
        m = self._metrics
        m.counter(
            "engine_task_retries",
            help="Task attempts re-run after retryable failures.",
        ).inc(counters.retries)
        m.counter(
            "engine_worker_respawns",
            help="Worker pools respawned after a worker death.",
        ).inc(counters.respawns)
        m.counter(
            "engine_tasks", help="Tasks submitted to the engine.", phase=phase,
        ).inc(total)
        m.counter(
            "engine_tasks_executed",
            help="Tasks actually computed (not cached or restored).",
            phase=phase,
        ).inc(executed)
        m.counter(
            "engine_tasks_restored",
            help="Tasks restored from a resume journal.",
            phase=phase,
        ).inc(restored)
        m.counter(
            "engine_tasks_cached",
            help="Tasks satisfied by the memo cache before dispatch.",
            phase=phase,
        ).inc(total - executed - restored)
        for field in _CACHE_FIELDS:
            m.counter(
                f"engine_cache_{field}",
                help=f"Memo-cache {field.replace('_', ' ')} across engine runs.",
            ).inc(getattr(delta, field))

    # ------------------------------------------------------------------
    def map(
        self,
        fn: Callable[[Any], Any],
        items: Iterable[Any],
        keys: Optional[Sequence[Optional[str]]] = None,
        phase: str = "batch",
        journal: Optional[JournalLike] = None,
        on_result: Optional[Callable[[int, Any], None]] = None,
    ) -> BatchResult:
        """Evaluate ``fn(item)`` for every item, in parallel when possible.

        Parameters
        ----------
        fn:
            Work function of one argument.  With ``workers > 1`` it must
            be picklable (module-level); its argument and result must be
            picklable too.  It may then run in workers forked by an
            earlier batch of this thread.  They see a function defined
            or rebound at module level in ``repro`` or ``__main__``
            since (the pool is forked anew), but no other change, such
            as a class attribute patched since or a module outside
            those; :func:`shutdown_pool` makes the next batch fork
            afresh.
        items:
            Task inputs; output order follows input order exactly.
        keys:
            Optional per-item content-addressed cache keys (``None``
            entries bypass the cache).  A key must change whenever the
            item's result could — build them with
            :func:`~repro.engine.canonical_key` from the full spec.
        phase:
            Label for heartbeat events and journal records.
        journal:
            Optional journal (or path).  Completed tasks are appended as
            JSON records; a journal that already holds records for this
            phase/size resumes — restored tasks are not recomputed.  Its
            first record is the ``batch_start``, written here when the
            journal is empty; a caller may write it first with extra
            fields, of which only ``phase`` and ``total`` are read.
        on_result:
            Callback ``on_result(index, value)`` invoked once per task
            computed *this run* (not for cache/journal restores), in
            completion order.  Campaigns use it to count replications
            in their metrics.

        Raises
        ------
        EngineError
            On unpicklable work functions under a process pool, or
            non-JSON-serializable results under a journal.
        ResumeError
            When the journal does not match this batch.
        """
        with self._span(f"map {phase}"):
            items = list(items)
            if keys is None:
                keys = [None] * len(items)
            else:
                keys = list(keys)
                if len(keys) != len(items):
                    raise EngineError(
                        f"got {len(keys)} cache keys for {len(items)} items"
                    )
            return self._execute(fn, items, keys, phase, journal, on_result)

    # The traced ledger runs (perfbench/layers.py) still probe this
    # name; it goes when the benchmark's probe list drops it.
    run_graph = map

    def _execute(
        self,
        fn: Callable[[Any], Any],
        items: List[Any],
        keys: List[Optional[str]],
        phase: str,
        journal: Optional[JournalLike],
        on_result: Optional[Callable[[int, Any], None]],
    ) -> BatchResult:
        """Run one :meth:`map` batch: restore, look up, compute, record."""
        total = len(items)
        before = self.cache.stats
        started = monotonic()
        bperf = (
            self._perf.start_batch(phase, self.workers, total)
            if self._perf is not None
            else None
        )

        owns_journal = journal is not None and not isinstance(journal, Journal)
        restored: Dict[int, Any] = {}
        ended = False
        if journal is not None:
            path = journal.path if isinstance(journal, Journal) else Path(journal)
            restored, ended = self._restore_from_journal(path, phase, keys)
            if owns_journal:
                journal = Journal(path)
            if journal.next_seq == 0:
                journal.append("batch_start", phase=phase, total=total)

        counters = _RunCounters()
        try:
            outputs: List[Any] = [None] * total
            pending: List[int] = []
            for index, key in enumerate(keys):
                if index in restored:
                    outputs[index] = restored[index]
                    continue
                if key is not None:
                    lookup_started = monotonic()
                    hit, value = self.cache.lookup(key)
                    if bperf is not None:
                        bperf.add_cache(monotonic() - lookup_started)
                    if hit:
                        outputs[index] = value
                        continue
                pending.append(index)
            done = total - len(pending)
            beat(
                self.heartbeat, phase, done, total,
                f"{len(restored)} restored, {done - len(restored)} cached",
            )

            def complete(index: int, value: Any, attempts: int) -> None:
                nonlocal done
                outputs[index] = value
                done += 1
                key = keys[index]
                if key is not None:
                    put_started = monotonic()
                    self.cache.put(key, value)
                    if bperf is not None:
                        bperf.add_cache(monotonic() - put_started)
                if journal is not None:
                    append_started = monotonic()
                    journal.append(
                        "task_result",
                        index=index,
                        key=key,
                        value=_json_safe(value),
                        attempts=attempts,
                    )
                    if bperf is not None:
                        bperf.add_serialization(monotonic() - append_started)
                if on_result is not None:
                    on_result(index, value)
                beat(self.heartbeat, phase, done, total)

            # Attribution counts the slots that actually ran: one for the
            # in-process loop, the pool's size otherwise.
            if self.workers == 1 or len(pending) <= 1:
                slots = 1
                for index in pending:
                    self._check()
                    value, attempts, wall_start, duration = (
                        self._call_serial(
                            index, fn, items[index], phase, counters
                        )
                    )
                    if bperf is not None:
                        bperf.task_executed(os.getpid(), wall_start, duration)
                    complete(index, value, attempts)
            else:
                slots = min(self.workers, len(pending))
                self._run_pool(fn, items, pending, complete, phase, counters,
                               bperf)

            if journal is not None and total and done == total and not ended:
                # Idempotent end marker (skipped when resuming past one).
                journal.append("batch_end", executed=len(pending))
        finally:
            if owns_journal and journal is not None:
                journal.close()

        if bperf is not None:
            bperf.finish(slots)
        delta = _stats_delta(before, self.cache.stats)
        self._record_run_metrics(phase, total, len(pending), len(restored),
                                 delta, counters)
        return BatchResult(
            outputs=tuple(outputs),
            cache_stats=delta,
            executed=len(pending),
            restored=len(restored),
            workers=self.workers,
            elapsed=monotonic() - started,
            retries=counters.retries,
            respawns=counters.respawns,
        )

    def _run_pool(
        self,
        fn: Callable[[Any], Any],
        items: Sequence[Any],
        pending: Sequence[int],
        complete: Callable[[int, Any, int], None],
        phase: str,
        counters: _RunCounters,
        bperf: Optional["BatchPerf"],
    ) -> None:
        """Supervised process-pool backend.

        Each *pool pass* drives one ``ProcessPoolExecutor`` (the one its
        thread holds, see :func:`_pool_for`) until every remaining task
        completes or the pool breaks (a worker died).  A
        broken pool costs one respawn from the ``max_respawns`` budget;
        the next pass re-dispatches exactly the tasks that had not
        completed, so supervised output is bit-identical to serial.
        """
        self._require_picklable(fn)
        remaining: Set[int] = set(pending)
        attempts: Dict[int, int] = {}
        while remaining:
            try:
                self._pool_pass(fn, items, remaining, attempts, complete,
                                phase, counters, bperf)
            except BrokenExecutor:
                counters.respawns += 1
                if counters.respawns > self.max_respawns:
                    raise EngineError(
                        f"worker pool for {phase!r} died "
                        f"{counters.respawns} times "
                        f"(max_respawns={self.max_respawns}); giving up "
                        f"with {len(remaining)} tasks incomplete"
                    )

    def _pool_pass(
        self,
        fn: Callable[[Any], Any],
        items: Sequence[Any],
        remaining: Set[int],
        attempts: Dict[int, int],
        complete: Callable[[int, Any, int], None],
        phase: str,
        counters: _RunCounters,
        bperf: Optional["BatchPerf"],
    ) -> None:
        instrument = self._instrumented
        with _pool_for(
            min(self.workers, len(remaining)), self.workers
        ) as pool:
            futures: Dict[Any, int] = {}

            def submit(index: int) -> None:
                # Plain tasks go straight to the pool; chaos plans and
                # instrumentation route through _worker_call.  The
                # submit span's duration is the submission cost; worker
                # spans parent under it and are re-based onto this
                # timeline when the result is unwrapped.
                self._check()
                item = items[index]
                self._time_serialization(bperf, fn, item)
                if self.chaos is None and not instrument:
                    futures[pool.submit(fn, item)] = index
                    return
                ctx = None
                if self._tracer is not None:
                    with self._tracer.span(
                        "engine submit", category="engine", phase=phase,
                        index=index,
                    ):
                        ctx = self._tracer.context().as_dict()
                future = pool.submit(
                    _worker_call, self.chaos, index, instrument, ctx, phase,
                    fn, item, self._perf is not None,
                )
                futures[future] = index

            try:
                # On a respawn pass this re-collects exactly the
                # incomplete tasks.
                for index in sorted(remaining):
                    submit(index)
                while futures:
                    if bperf is not None:
                        bperf.sample_queue_depth(len(futures))
                    finished, _ = wait(
                        set(futures), return_when=FIRST_COMPLETED
                    )
                    for future in finished:
                        # Read the token at every task boundary: one
                        # wait() can return many finished tasks, and
                        # those not yet completed when it fires stay
                        # incomplete, so a resume re-runs them.
                        self._check()
                        index = futures.pop(future)
                        try:
                            value = future.result()
                        except BrokenExecutor:
                            raise  # dead worker: the supervisor respawns
                        except BaseException as exc:
                            attempt = attempts.get(index, 1)
                            self._retry_or_raise(exc, attempt, counters)
                            attempts[index] = attempt + 1
                            submit(index)
                            continue
                        if instrument:
                            value = self._unwrap_instrumented(value, bperf)
                        complete(index, value, attempts.get(index, 1))
                        remaining.discard(index)
            except BaseException:
                for future in futures:
                    future.cancel()
                raise

    @staticmethod
    def _restore_from_journal(
        path: Path, phase: str, keys: Sequence[Optional[str]]
    ) -> Tuple[Dict[int, Any], bool]:
        """``(restored, ended)``: the journal's values by index, and
        whether it already holds a ``batch_end``."""
        total = len(keys)
        records = read_journal(path, missing_ok=True)
        if not records:
            return {}, False
        start = records[0]
        if start.get("kind") != "batch_start":
            raise ResumeError(
                f"journal {path} was not written by the evaluation engine "
                "(first record is not batch_start)"
            )
        if start.get("phase") != phase or start.get("total") != total:
            raise ResumeError(
                f"journal {path} records batch {start.get('phase')!r} of "
                f"{start.get('total')} tasks, not {phase!r} of {total}"
            )
        restored: Dict[int, Any] = {}
        for record in records:
            if record.get("kind") != "task_result":
                continue
            index = record_index(record, total, path)
            if index in restored:
                raise ResumeError(
                    f"journal {path} holds two task_result records for "
                    f"index {index}"
                )
            if "value" not in record:
                raise ResumeError(
                    f"journal {path} task {index} record has no value"
                )
            key = keys[index]
            if key is not None and record.get("key") != key:
                raise ResumeError(
                    f"journal {path} task {index} was computed under a "
                    "different cache key; the batch spec changed"
                )
            restored[index] = record["value"]
        ended = any(record.get("kind") == "batch_end" for record in records)
        return restored, ended
