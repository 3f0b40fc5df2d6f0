"""Parallel, cache-aware batch evaluation of availability models.

Every headline artifact of the paper — the Table 5–8 availability
figures, the Fig. 11–13 sensitivity curves — is the output of many
near-identical model evaluations, and so are the extensions: the
client-policy and cloud-deployment grids and the fault-injection
campaigns.  This package is the execution layer that runs such batches
fast without changing a single digit of their results:

* :mod:`~repro.engine.executor` — :class:`EvaluationEngine`, whose one
  entry point :meth:`~EvaluationEngine.map` evaluates a work function
  over independent keyed items: a serial reference backend and a
  *supervised* process-pool backend producing bit-identical outputs,
  with cooperative cancellation
  (:class:`~repro.runtime.CancellationToken`), heartbeats, journaled
  resume for interrupted parallel runs, worker-crash respawn, and
  per-task retry under a :class:`TaskRetryPolicy`
  (:mod:`~repro.engine.retry`); each thread holds one worker pool that
  its batches borrow, and :func:`shutdown_pool` shuts them down;
* :mod:`~repro.engine.cache` — :class:`MemoCache`: a content-addressed
  memo store (in-memory LRU + optional on-disk level) keyed by
  :func:`canonical_key` hashes of the full evaluation spec, with
  hit/miss/eviction statistics on every result object.

Each workload builds its own items and keys next to its grid:
:func:`repro.sensitivity.sweep` / ``grid_sweep``,
:func:`repro.resilience.run_campaign`,
:func:`repro.ta.report.availability_report`,
:func:`repro.resilience.compare_client_policies` and
:func:`repro.bayes.compare_cloud_scenarios` (``engine=`` parameter).
See ``docs/PERFORMANCE.md`` for the architecture, the determinism
contract, and the cache-key scheme.
"""

from .cache import CacheStats, MemoCache, canonical_key
from .executor import BatchResult, EvaluationEngine, shutdown_pool
from .retry import TaskRetryPolicy

__all__ = [
    "BatchResult",
    "CacheStats",
    "EvaluationEngine",
    "MemoCache",
    "TaskRetryPolicy",
    "canonical_key",
    "shutdown_pool",
]
