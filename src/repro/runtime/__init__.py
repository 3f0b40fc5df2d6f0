"""Fault-tolerant execution runtime for long-running evaluations.

Campaigns and solvers are the longest-running code paths in this
library; this package is the substrate that makes them interruptible,
bounded, and resumable:

* :mod:`~repro.runtime.budget` — :class:`Budget`, :class:`Deadline`,
  and the cooperative :class:`CancellationToken` threaded through the
  simulation kernel, the end-to-end simulator, campaign runners, and
  the uniformization solver;
* :mod:`~repro.runtime.journal` — crash-consistent JSONL journaling
  (atomic append + fsync, schema-versioned, torn-tail tolerant) used to
  persist the task results of engine batches, campaign cells included;
* :mod:`~repro.runtime.heartbeat` — the progress-callback protocol the
  CLI uses for liveness printing and tests use as a watchdog.

Steady-state solver fallback is not a runtime concern: the one strategy
chain is :func:`repro.markov.solvers.steady_state`.

Resume is the batch engine's (:meth:`repro.engine.EvaluationEngine.map`);
:func:`repro.resilience.campaign.resume_campaign` only checks a
campaign journal's header before handing it to the engine.
"""

from .budget import Budget, CancellationToken, Deadline
from .heartbeat import ConsoleHeartbeat, HeartbeatCallback, ProgressEvent, Watchdog
from .journal import SCHEMA_VERSION, Journal, read_journal

__all__ = [
    "Budget",
    "CancellationToken",
    "Deadline",
    "ConsoleHeartbeat",
    "HeartbeatCallback",
    "ProgressEvent",
    "Watchdog",
    "SCHEMA_VERSION",
    "Journal",
    "read_journal",
]
