"""Deterministic fault-injection plans for the evaluation engine.

A :class:`ChaosPlan` names, ahead of time, exactly which item indices
of an engine :meth:`~repro.engine.EvaluationEngine.map` batch get hurt
and how: a *kill* injection terminates the
pool worker running the task (``os._exit``, no cleanup — the closest
portable stand-in for an OOM kill or segfault), a *transient* injection
raises :class:`~repro.errors.TransientTaskError` for the task's first
``transient_failures`` attempts.  Planners
(:func:`plan_worker_kills` / :func:`plan_transient_faults`) draw the
indices from a :class:`numpy.random.SeedSequence`, so a chaos run is
reproducible from ``(seed, n_tasks, count)`` alone.

Injections must fire *once* even though the engine re-runs hurt tasks
(that is the point), and even though the task may re-run in a different
worker process of a respawned pool.  Cross-process once-only semantics
use sentinel files in ``state_dir``: the first process to atomically
create the tag file (``O_CREAT | O_EXCL``) owns the injection; every
later attempt sees the file and leaves the task alone.  The same files
double as the harness's evidence that each planned fault actually fired
(:meth:`ChaosPlan.fired`).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Tuple

import numpy as np

from ..errors import ChaosError, TransientTaskError

__all__ = ["ChaosPlan", "plan_worker_kills", "plan_transient_faults"]

#: Exit status of a chaos-killed worker; distinctive in core-dump-less
#: post-mortems (113 = "kill injected", outside the shell's 1/2/126+ set).
KILL_EXIT_CODE = 113


@dataclass(frozen=True)
class ChaosPlan:
    """Which engine tasks get hurt, and how.

    Parameters
    ----------
    state_dir:
        Directory for the once-only sentinel files.  Must be shared by
        every process of the run (the plan is pickled into pool
        workers); one plan per directory.
    kill_tasks:
        Item indices whose worker is terminated mid-task, once each.
    transient_tasks:
        Item indices that raise
        :class:`~repro.errors.TransientTaskError`, once per attempt for
        the first *transient_failures* attempts.
    transient_failures:
        Failing attempts per transient task before it is allowed to
        succeed.  Keep below the retry policy's ``max_attempts`` when
        the run is expected to recover.

    Examples
    --------
    >>> import tempfile
    >>> plan = ChaosPlan(state_dir=tempfile.mkdtemp(), transient_tasks=(2,))
    >>> plan.before_task(0, in_worker=False)  # unplanned index: no-op
    >>> plan.fired()
    0
    """

    state_dir: str
    kill_tasks: Tuple[int, ...] = ()
    transient_tasks: Tuple[int, ...] = ()
    transient_failures: int = 1
    kill_exit_code: int = KILL_EXIT_CODE

    def __post_init__(self):
        if not self.state_dir:
            raise ChaosError("a chaos plan needs a state_dir")
        object.__setattr__(
            self, "kill_tasks", tuple(int(i) for i in self.kill_tasks)
        )
        object.__setattr__(
            self, "transient_tasks",
            tuple(int(i) for i in self.transient_tasks),
        )
        for index in self.kill_tasks + self.transient_tasks:
            if index < 0:
                raise ChaosError(
                    f"chaos task indices must be >= 0, got {index}"
                )
        if self.transient_failures < 1:
            raise ChaosError(
                f"transient_failures must be >= 1, got "
                f"{self.transient_failures}"
            )
        Path(self.state_dir).mkdir(parents=True, exist_ok=True)

    # -- once-only bookkeeping -----------------------------------------
    def _claim(self, tag: str) -> bool:
        """Atomically claim *tag*; True for exactly one process ever."""
        path = Path(self.state_dir) / tag
        try:
            fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            return False
        os.close(fd)
        return True

    def fired(self) -> int:
        """How many planned injections have fired so far."""
        return sum(
            1 for entry in Path(self.state_dir).iterdir()
            if entry.name.startswith(("kill-", "transient-"))
        )

    # -- the injection point -------------------------------------------
    def before_task(self, index: int, in_worker: bool) -> None:
        """Engine hook, called before each attempt of task *index*.

        Raises
        ------
        TransientTaskError
            For a planned transient fault (retryable by the engine's
            default :class:`~repro.engine.TaskRetryPolicy`).
        ChaosError
            For a kill injection reached outside a pool worker — firing
            it would take down the supervising process itself, which is
            a harness misconfiguration (kills need ``workers >= 2``).
        """
        if index in self.kill_tasks and self._claim(f"kill-{index}"):
            if not in_worker:
                raise ChaosError(
                    f"kill injection for task {index} reached the "
                    "supervising process; worker kills need a process "
                    "pool (workers >= 2)"
                )
            os._exit(self.kill_exit_code)
        if index in self.transient_tasks:
            for attempt in range(self.transient_failures):
                if self._claim(f"transient-{index}-attempt{attempt}"):
                    raise TransientTaskError(
                        f"chaos: injected transient failure for task "
                        f"{index} (attempt {attempt + 1})"
                    )


def _draw_indices(n_tasks: int, seed: int, count: int) -> Tuple[int, ...]:
    if n_tasks < 1:
        raise ChaosError(f"n_tasks must be >= 1, got {n_tasks}")
    if count < 1:
        raise ChaosError(f"count must be >= 1, got {count}")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    chosen = rng.choice(n_tasks, size=min(count, n_tasks), replace=False)
    return tuple(sorted(int(i) for i in chosen))


def plan_worker_kills(
    n_tasks: int, seed: int, count: int, state_dir: str
) -> ChaosPlan:
    """A plan killing the workers of *count* seed-chosen task indices.

    Examples
    --------
    >>> import tempfile
    >>> plan = plan_worker_kills(9, seed=0, count=2,
    ...                          state_dir=tempfile.mkdtemp())
    >>> plan.kill_tasks == plan_worker_kills(
    ...     9, 0, 2, tempfile.mkdtemp()).kill_tasks
    True
    """
    return ChaosPlan(
        state_dir=state_dir,
        kill_tasks=_draw_indices(n_tasks, seed, count),
    )


def plan_transient_faults(
    n_tasks: int, seed: int, count: int, state_dir: str, failures: int = 1
) -> ChaosPlan:
    """A plan raising transient faults at *count* seed-chosen indices."""
    return ChaosPlan(
        state_dir=state_dir,
        transient_tasks=_draw_indices(n_tasks, seed, count),
        transient_failures=failures,
    )
