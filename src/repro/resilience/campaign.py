"""The fault-injection campaign engine.

A *campaign* runs the end-to-end simulator
(:func:`repro.sim.endtoend.simulate_user_availability_over_time`)
``replications`` times against a fault scenario, with independent
streams spawned from one seed, and summarizes the user-perceived
availability across replications: mean, standard error, and the z-score
against the analytic eq.-(10) value.

Two uses:

* **validation** — under the :class:`~repro.resilience.faults.NullScenario`
  (faults only at the model's own rates), the campaign mean must sit
  within ~2 standard errors of the analytic value; the benchmark
  harness asserts this.
* **robustness probing** — scripted/stochastic scenarios (correlated
  LAN+host outages, coverage-mode degradation) violate the independence
  assumptions behind eq. (10) on purpose; the measured availability
  drop quantifies how optimistic the analytic model is for that fault
  class.

Fault tolerance
---------------
Campaigns are the longest-running code path in the library, so the
runner is built on :mod:`repro.runtime`:

* a :class:`~repro.runtime.CancellationToken` is polled between *and
  inside* replications, so deadlines and interactive cancellation take
  effect at a clean boundary;
* with a :class:`~repro.runtime.Journal` attached, the campaign
  configuration and every completed replication are durably recorded
  (fsync per record), and :func:`resume_campaign` reconstructs the
  completed work and re-runs only the missing replications.

Because replication ``i`` always draws from stream ``i`` of
``SeedSequence(seed).spawn(replications)`` — never from a shared
generator — a resumed campaign is **bit-identical** to an uninterrupted
run with the same seed, no matter where the interruption fell.  Fresh
and resumed campaigns run the replications they lack through the same
single :meth:`~repro.engine.EvaluationEngine.map` call, at any worker
count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Tuple, Union

import numpy as np

from .._validation import check_positive, check_positive_int, check_rate
from ..core import HierarchicalModel
from ..errors import ResumeError, ValidationError
from ..obs.context import active_metrics
from ..profiles import UserClass
from ..runtime.budget import CancellationToken
from ..runtime.heartbeat import HeartbeatCallback, ProgressEvent
from ..runtime.journal import (
    Journal,
    read_journal,
    record_field,
    record_index,
)
from ..sim.endtoend import EndToEndResult, simulate_user_availability_over_time
from .faults import FaultScenario, NullScenario

__all__ = [
    "CampaignResult",
    "run_campaign",
    "run_campaigns",
    "resume_campaign",
]

JournalLike = Union[Journal, str, "Path"]


@dataclass(frozen=True)
class CampaignResult:
    """Summary of one (user class, scenario) fault-injection campaign.

    Attributes
    ----------
    user_class:
        Name of the evaluated user class.
    scenario:
        Name of the injected fault scenario.
    analytic_availability:
        The eq.-(10) value of the *unfaulted* model — the reference the
        campaign is compared against.
    replications:
        Per-replication end-to-end results.
    seed:
        Campaign seed (replication streams are spawned from it).
    """

    user_class: str
    scenario: str
    analytic_availability: float
    replications: Tuple[EndToEndResult, ...]
    seed: int

    @property
    def values(self) -> Tuple[float, ...]:
        """Per-replication average user availabilities."""
        return tuple(
            r.average_user_availability for r in self.replications
        )

    @property
    def mean_availability(self) -> float:
        """Mean simulated availability across replications."""
        return float(np.mean(self.values))

    @property
    def stderr(self) -> float:
        """Standard error of the mean across replications."""
        values = self.values
        if len(values) < 2:
            return float("nan")
        return float(np.std(values, ddof=1) / math.sqrt(len(values)))

    @property
    def z_score(self) -> float:
        """Deviation from the analytic value, in standard errors."""
        se = self.stderr
        if not se or math.isnan(se):
            return float("nan")
        return (self.mean_availability - self.analytic_availability) / se

    @property
    def availability_drop(self) -> float:
        """Analytic minus simulated availability (positive = faults hurt)."""
        return self.analytic_availability - self.mean_availability

    @property
    def mean_outage_fraction(self) -> float:
        """Mean fraction of time with a total user-perceived outage."""
        return float(
            np.mean([r.fraction_total_outage for r in self.replications])
        )

    def agrees_with_analytic(self, sigmas: float = 2.0) -> bool:
        """True when the campaign mean is within *sigmas* standard errors."""
        return abs(self.mean_availability - self.analytic_availability) <= (
            sigmas * self.stderr
        )


#: Journal-record fields of one replication and their types, in
#: EndToEndResult order.
_REPLICATION_FIELDS = {
    "horizon": float,
    "average_user_availability": float,
    "fraction_fully_available": float,
    "fraction_total_outage": float,
    "resource_transitions": int,
    "fault_events_applied": int,
}


def _replication(
    model: HierarchicalModel,
    user_class: UserClass,
    scenario: FaultScenario,
    horizon: float,
    default_repair_rate: float,
    item: Tuple[int, np.random.SeedSequence],
    cancellation: Optional[CancellationToken] = None,
    observer=None,
) -> EndToEndResult:
    """Replication ``index`` of ``item = (index, stream)``, resume-stable.

    The engine work function (module-level, so a ``partial`` of it
    pickles).  In-process runs also pass the *cancellation* token,
    polled per simulated transition, and the campaign *observer*,
    re-based onto replication ``index``'s slice of the timeline; pool
    workers get neither, so there cancellation has replication
    granularity.
    """
    index, stream = item
    if observer is not None:
        observer = _ShiftedObserver(observer, index * horizon)
    rng = np.random.default_rng(stream)
    faults = scenario.compile(model, horizon, rng)
    return simulate_user_availability_over_time(
        model,
        user_class,
        horizon=horizon,
        rng=rng,
        default_repair_rate=default_repair_rate,
        faults=faults,
        cancellation=cancellation,
        observer=observer,
    )


class _ShiftedObserver:
    """Re-bases one replication's sim-time onto the campaign timeline.

    Replication *i* simulates ``[0, horizon)``; the campaign observer
    sees it as ``[i * horizon, (i + 1) * horizon)`` so sliding windows
    (e.g. an :class:`repro.obs.slo.SLOMonitor`) span replication
    boundaries instead of restarting at zero every time.
    """

    def __init__(self, observer, offset: float):
        self._observer = observer
        self._offset = offset

    def interval(self, start: float, end: float, availability: float) -> None:
        self._observer.interval(
            start + self._offset, end + self._offset, availability
        )

    def fault(self, time: float, event) -> None:
        self._observer.fault(time + self._offset, event)


def _beat(
    heartbeat: Optional[HeartbeatCallback],
    phase: str,
    completed: int,
    total: int,
    message: str = "",
) -> None:
    if heartbeat is not None:
        heartbeat(ProgressEvent(
            phase=phase, completed=completed, total=total, message=message
        ))


def _run_replications(
    model: HierarchicalModel,
    user_class: UserClass,
    scenario: FaultScenario,
    horizon: float,
    replications: int,
    seed: int,
    default_repair_rate: float,
    analytic: float,
    completed: Dict[int, EndToEndResult],
    phase: str,
    journal: Optional[Journal],
    workers: int = 1,
    cancellation: Optional[CancellationToken] = None,
    heartbeat: Optional[HeartbeatCallback] = None,
    observer=None,
    ended: bool = False,
) -> CampaignResult:
    """Run the replications *completed* lacks; the one dispatch site.

    Fresh runs pass no completed replications, resumed runs the ones
    their journal holds.  Each replication computed here is counted,
    journaled and reported in completion order; the result is assembled
    by replication index, and ``campaign_end`` is journaled unless the
    journal already holds one (*ended*).
    """
    from ..engine import EvaluationEngine

    streams = np.random.SeedSequence(seed).spawn(replications)
    todo = [
        (index, stream)
        for index, stream in enumerate(streams)
        if index not in completed
    ]
    work = partial(
        _replication, model, user_class, scenario, horizon,
        default_repair_rate,
    )
    if workers == 1 or len(todo) <= 1:
        # The engine runs these in-process, so the replication itself
        # can poll the token and stream to the observer.
        work = partial(work, cancellation=cancellation, observer=observer)
    metrics = active_metrics()
    if metrics is not None and completed:
        metrics.counter(
            "campaign_replications_restored",
            help="Replications restored from resume journals.",
            scenario=scenario.name,
            user_class=user_class.name,
        ).inc(len(completed))
    done = len(completed)

    def on_result(position: int, result: EndToEndResult) -> None:
        nonlocal done
        done += 1
        if metrics is not None:
            metrics.counter(
                "campaign_replications",
                help="Fault-injection replications completed.",
                scenario=scenario.name,
                user_class=user_class.name,
            ).inc()
            metrics.counter(
                "campaign_fault_events",
                help="Injected failure/repair events applied, by scenario.",
                scenario=scenario.name,
            ).inc(result.fault_events_applied)
            metrics.counter(
                "campaign_resource_transitions",
                help="Resource up/down transitions simulated, by scenario.",
                scenario=scenario.name,
            ).inc(result.resource_transitions)
        if journal is not None:
            journal.append("replication", index=todo[position][0], **{
                name: getattr(result, name) for name in _REPLICATION_FIELDS
            })
        _beat(
            heartbeat, phase, done, replications,
            f"A={result.average_user_availability:.6f}",
        )

    batch = EvaluationEngine(workers=workers, cancellation=cancellation).map(
        work, todo, phase=phase, on_result=on_result
    )
    results = dict(completed)
    results.update(zip((index for index, _ in todo), batch.outputs))
    campaign = CampaignResult(
        user_class=user_class.name,
        scenario=scenario.name,
        analytic_availability=analytic,
        replications=tuple(results[index] for index in range(replications)),
        seed=seed,
    )
    if journal is not None and not ended:
        journal.append(
            "campaign_end",
            mean_availability=campaign.mean_availability,
            stderr=campaign.stderr,
        )
    return campaign


def run_campaign(
    model: HierarchicalModel,
    user_class: UserClass,
    scenario: Optional[FaultScenario] = None,
    horizon: float = 20_000.0,
    replications: int = 8,
    seed: int = 0,
    default_repair_rate: float = 1.0,
    cancellation: Optional[CancellationToken] = None,
    journal: Optional[JournalLike] = None,
    heartbeat: Optional[HeartbeatCallback] = None,
    journal_meta: Optional[dict] = None,
    workers: int = 1,
    observer=None,
) -> CampaignResult:
    """Run one fault-injection campaign.

    Parameters
    ----------
    model:
        The hierarchical model under test.
    user_class:
        Scenario mix to evaluate.
    scenario:
        Fault scenario to inject; ``None`` or
        :class:`~repro.resilience.faults.NullScenario` runs the
        calibration campaign (faults only at the model's own rates).
    horizon:
        Simulated time span per replication (availability-model unit).
    replications:
        Number of independent replications; streams are spawned from
        *seed* via :class:`numpy.random.SeedSequence`, so a campaign is
        fully reproducible from ``(seed, horizon, replications)``.
    seed:
        Campaign seed.
    default_repair_rate:
        Passed through to the end-to-end simulator for resources that
        only carry an availability number.
    cancellation:
        Optional :class:`~repro.runtime.CancellationToken`; polled per
        simulated transition and between replications.  On cancellation
        or deadline the journal (if any) keeps every completed
        replication, ready for :func:`resume_campaign`.
    journal:
        Optional :class:`~repro.runtime.Journal` (or a path to create
        one).  The file must be empty/absent — resuming an existing
        journal goes through :func:`resume_campaign` instead.
    heartbeat:
        Optional progress callback invoked after every replication.
    journal_meta:
        Free-form JSON-serializable dict stored in the
        ``campaign_start`` record; the CLI stashes what it needs to
        rebuild the model on ``repro resume``.
    workers:
        Worker processes for the replications (default 1 = in-process).
        Because replication ``i`` always draws from its own spawned
        stream, the parallel result is **bit-identical** to the serial
        one; results are assembled by replication index, and the journal
        records each replication as it completes (indices may land out
        of order — resume handles that).  With ``workers > 1``,
        cancellation takes effect between replication completions rather
        than inside a replication.
    observer:
        Optional streaming consumer with ``interval(start, end,
        availability)`` and ``fault(time, event)`` — typically an
        :class:`repro.obs.slo.SLOMonitor` or
        :class:`~repro.obs.slo.PoissonSessionSampler`.  Replication
        ``i``'s events are re-based onto ``[i * horizon, (i + 1) *
        horizon)`` so the observer sees one continuous campaign
        timeline.  Streaming requires an ordered timeline, so it is
        serial-only: combining ``observer`` with ``workers > 1`` raises
        :class:`~repro.errors.ValidationError`.

    Examples
    --------
    >>> from repro.ta import CLASS_A, TravelAgencyModel
    >>> ta = TravelAgencyModel()
    >>> result = run_campaign(ta.hierarchical_model, CLASS_A,
    ...                       horizon=2000.0, replications=3, seed=7)
    >>> len(result.replications)
    3
    """
    horizon = check_positive(horizon, "horizon")
    replications = check_positive_int(replications, "replications")
    workers = check_positive_int(workers, "workers")
    check_rate(default_repair_rate, "default_repair_rate")
    if observer is not None and workers > 1 and replications > 1:
        raise ValidationError(
            "a streaming observer needs the replications in timeline "
            f"order; run with workers=1 (got workers={workers})"
        )
    if scenario is None:
        scenario = NullScenario()

    owns_journal = journal is not None and not isinstance(journal, Journal)
    if owns_journal:
        path = Path(journal)
        if path.exists() and read_journal(path, missing_ok=True):
            raise ResumeError(
                f"journal {path} already holds records; resume it with "
                "resume_campaign() / `repro resume` instead of starting a "
                "new campaign over it"
            )
        journal = Journal(path)
    elif isinstance(journal, Journal) and journal.next_seq:
        raise ResumeError(
            "journal already holds records; resume it with "
            "resume_campaign() / `repro resume` instead"
        )

    analytic = model.user_availability(user_class).availability
    phase = f"campaign {user_class.name}/{scenario.name}"
    try:
        if journal is not None:
            journal.append(
                "campaign_start",
                user_class=user_class.name,
                scenario=scenario.name,
                horizon=horizon,
                replications=replications,
                seed=seed,
                default_repair_rate=default_repair_rate,
                analytic_availability=analytic,
                meta=journal_meta or {},
            )
        _beat(heartbeat, phase, 0, replications, "starting")
        return _run_replications(
            model, user_class, scenario, horizon, replications, seed,
            default_repair_rate, analytic, {}, phase, journal,
            workers=workers, cancellation=cancellation, heartbeat=heartbeat,
            observer=observer,
        )
    finally:
        if owns_journal:
            journal.close()


def resume_campaign(
    journal: JournalLike,
    model: HierarchicalModel,
    user_class: UserClass,
    scenario: Optional[FaultScenario] = None,
    cancellation: Optional[CancellationToken] = None,
    heartbeat: Optional[HeartbeatCallback] = None,
) -> CampaignResult:
    """Resume an interrupted campaign from its journal.

    Completed replications are reconstructed from the journal; only the
    missing ones are simulated, each from the *same* spawned seed stream
    it would have used originally.  The returned
    :class:`CampaignResult` is therefore bit-identical to what the
    uninterrupted run would have produced, and the journal ends up in
    the same state as a never-interrupted journaled run.

    Parameters
    ----------
    journal:
        Journal (or path) written by :func:`run_campaign`; it will be
        appended to.  A journal holding only a torn tail or nothing past
        ``campaign_start`` resumes to a full fresh run.
    model / user_class / scenario:
        Must denote the same campaign the journal was started with;
        names and the recomputed analytic availability are checked and a
        mismatch raises :class:`~repro.errors.ResumeError`.
    cancellation / heartbeat:
        As in :func:`run_campaign`; a resume can itself be interrupted
        and resumed again.

    Raises
    ------
    ResumeError
        On a corrupt journal, a missing ``campaign_start`` record, or a
        model/configuration mismatch.
    """
    if scenario is None:
        scenario = NullScenario()
    owns_journal = not isinstance(journal, Journal)
    path = journal.path if isinstance(journal, Journal) else Path(journal)
    records = read_journal(path)
    start = next(
        (r for r in records if r.get("kind") == "campaign_start"), None
    )
    if start is None:
        raise ResumeError(
            f"journal {path} has no campaign_start record; nothing to resume"
        )
    for name, expected in (
        ("user_class", user_class.name), ("scenario", scenario.name)
    ):
        recorded = record_field(start, name, str, path)
        if recorded != expected:
            raise ResumeError(
                f"journal {path} was recorded for {name.replace('_', ' ')} "
                f"{recorded!r}, not {expected!r}"
            )
    horizon = record_field(start, "horizon", float, path)
    replications = record_field(start, "replications", int, path, low=1)
    seed = record_field(start, "seed", int, path, low=0)
    default_repair_rate = record_field(
        start, "default_repair_rate", float, path
    )
    analytic = record_field(start, "analytic_availability", float, path)
    recomputed = model.user_availability(user_class).availability
    # Tolerate last-ulp noise (float summation order can differ between
    # processes under hash randomization) but catch real model drift.
    # The journaled value is authoritative for the resumed result, which
    # keeps it bit-identical to the uninterrupted run's.
    if not math.isclose(recomputed, analytic, rel_tol=1e-9, abs_tol=1e-12):
        raise ResumeError(
            f"journal {path} was recorded against analytic availability "
            f"{analytic!r}, but this model computes {recomputed!r}; the "
            "model or its parameters changed"
        )

    completed: Dict[int, EndToEndResult] = {}
    for record in records:
        if record.get("kind") != "replication":
            continue
        index = record_index(record, replications, path)
        if index in completed:
            raise ResumeError(
                f"journal {path} holds two replication records for "
                f"index {index}"
            )
        # JSON round-trips Python floats exactly (repr shortest
        # round-trip), so each result is bit-identical to the journaled.
        completed[index] = EndToEndResult(**{
            name: record_field(record, name, kind, path)
            for name, kind in _REPLICATION_FIELDS.items()
        })

    phase = f"resume {user_class.name}/{scenario.name}"
    _beat(
        heartbeat, phase, len(completed), replications,
        f"{len(completed)} replication(s) restored from journal",
    )

    if owns_journal:
        journal = Journal(path)
    try:
        return _run_replications(
            model, user_class, scenario, horizon, replications, seed,
            default_repair_rate, analytic, completed, phase, journal,
            cancellation=cancellation, heartbeat=heartbeat,
            ended=any(r.get("kind") == "campaign_end" for r in records),
        )
    finally:
        if owns_journal:
            journal.close()


def run_campaigns(
    model: HierarchicalModel,
    user_classes: Iterable[UserClass],
    scenarios: Iterable[FaultScenario],
    horizon: float = 20_000.0,
    replications: int = 8,
    seed: int = 0,
    default_repair_rate: float = 1.0,
    cancellation: Optional[CancellationToken] = None,
    heartbeat: Optional[HeartbeatCallback] = None,
    workers: int = 1,
) -> List[CampaignResult]:
    """The full campaign grid: every user class under every scenario.

    Seeds are varied per cell so campaigns never share streams, while
    the grid remains reproducible from the single *seed*.  The
    cancellation token and heartbeat are shared across cells (one
    deadline bounds the whole grid); *workers* parallelizes the
    replications within each cell.
    """
    results: List[CampaignResult] = []
    for c, user_class in enumerate(user_classes):
        for s, scenario in enumerate(scenarios):
            results.append(
                run_campaign(
                    model,
                    user_class,
                    scenario,
                    horizon=horizon,
                    replications=replications,
                    seed=seed + 10_000 * c + 100 * s,
                    default_repair_rate=default_repair_rate,
                    cancellation=cancellation,
                    heartbeat=heartbeat,
                    workers=workers,
                )
            )
    return results
