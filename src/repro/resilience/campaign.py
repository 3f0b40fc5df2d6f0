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
Campaigns are the longest-running code path in the library, so each
campaign cell is one :meth:`~repro.engine.EvaluationEngine.map` batch
on the engine its caller gives it, and the engine's
:mod:`repro.runtime` support applies to it:

* a :class:`~repro.runtime.CancellationToken` is polled between *and
  inside* replications, so deadlines and interactive cancellation take
  effect at a clean boundary;
* with a :class:`~repro.runtime.Journal` attached, the campaign opens it
  with a ``batch_start`` header carrying its configuration, the engine
  durably records every completed replication as a ``task_result``
  (fsync per record), and :func:`resume_campaign` lets the engine
  restore the completed work and re-run only the missing replications.

Because replication ``i`` always draws from stream ``i`` of
``SeedSequence(seed).spawn(replications)`` — never from a shared
generator — a resumed campaign is **bit-identical** to an uninterrupted
run with the same seed, no matter where the interruption fell.  Fresh
and resumed campaigns run through the same single
:meth:`~repro.engine.EvaluationEngine.map` call, at any worker count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Tuple

import numpy as np

from .._validation import check_positive, check_positive_int, check_rate
from ..core import HierarchicalModel
from ..errors import ResumeError, ValidationError
from ..profiles import UserClass
from ..runtime.budget import CancellationToken
from ..runtime.journal import Journal, JournalLike, read_journal, record_field
from ..sim.endtoend import (
    CompiledSimulation,
    EndToEndResult,
    compile_simulation,
    simulate_user_availability_over_time,
)
from .faults import FaultScenario, NullScenario

if TYPE_CHECKING:  # pragma: no cover - types only
    from ..engine import EvaluationEngine

__all__ = [
    "CampaignResult",
    "run_campaign",
    "run_campaigns",
    "resume_campaign",
]

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


#: The fields of one replication's value, the ``task_result`` value the
#: engine journals, and their types, in EndToEndResult order.
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
    compiled: CompiledSimulation,
    scenario: FaultScenario,
    horizon: float,
    item: Tuple[int, np.random.SeedSequence],
    cancellation: Optional[CancellationToken] = None,
    observer=None,
) -> Dict[str, float]:
    """Replication ``index`` of ``item = (index, stream)``, resume-stable.

    The engine work function (module-level, so a ``partial`` of it
    pickles).  *compiled* is *model* compiled once per cell for its
    user class, so no replication recompiles it; the scenario still
    compiles its fault timeline against *model*.  In-process runs also
    pass the *cancellation* token, polled per simulated transition, and
    the campaign *observer*, re-based onto replication ``index``'s slice
    of the timeline; pool workers get neither, so there cancellation has
    replication granularity.  Returns the result's
    :data:`_REPLICATION_FIELDS`, the value the engine journals.
    """
    index, stream = item
    if observer is not None:
        observer = _ShiftedObserver(observer, index * horizon)
    rng = np.random.default_rng(stream)
    faults = scenario.compile(model, horizon, rng)
    result = simulate_user_availability_over_time(
        compiled,
        compiled.user_class,
        horizon=horizon,
        rng=rng,
        default_repair_rate=compiled.default_repair_rate,
        faults=faults,
        cancellation=cancellation,
        observer=observer,
    )
    return {name: getattr(result, name) for name in _REPLICATION_FIELDS}


def _replication_result(index: int, value, path) -> EndToEndResult:
    """Replication *index*'s value as its result, checked field by field.

    A bad field raises a one-line :class:`~repro.errors.ResumeError`
    naming it and journal *path*.  JSON round-trips Python floats
    exactly, so a restored result is bit-identical to the computed one.
    """
    if not isinstance(value, dict):
        raise ResumeError(
            f"journal {path} holds replication {index} as {value!r}, not "
            f"an object of {list(_REPLICATION_FIELDS)}"
        )
    # record_field names the record it reads by its kind.
    record = {**value, "kind": f"replication {index}"}
    return EndToEndResult(**{
        name: record_field(record, name, kind, path)
        for name, kind in _REPLICATION_FIELDS.items()
    })


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


def _phase(user_class: UserClass, scenario: FaultScenario) -> str:
    """The engine phase of one campaign cell, fresh or resumed."""
    return f"campaign {user_class.name}/{scenario.name}"


def _run_replications(
    model: HierarchicalModel,
    user_class: UserClass,
    scenario: FaultScenario,
    horizon: float,
    replications: int,
    seed: int,
    default_repair_rate: float,
    analytic: float,
    journal: Optional[Journal],
    engine: "EvaluationEngine",
    observer=None,
) -> CampaignResult:
    """Map every replication as one *engine* batch; the one dispatch site.

    The engine restores the replications *journal* already holds,
    computes the rest, journals and reports each as it completes, and
    ends the journal with ``batch_end``.  The result is assembled by
    replication index.
    """
    streams = np.random.SeedSequence(seed).spawn(replications)
    # One compile per cell, here in the parent: the serial loop and
    # every pool worker run the same compiled model.
    work = partial(
        _replication, model,
        compile_simulation(model, user_class, default_repair_rate),
        scenario, horizon,
    )
    if engine.workers == 1 or replications == 1:
        # The engine runs these in-process (a resume is serial), so the
        # replication itself can poll the token and stream to the
        # observer.
        work = partial(
            work, cancellation=engine.cancellation, observer=observer
        )
    metrics = engine.metrics

    def on_result(index: int, value: Dict[str, float]) -> None:
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
        ).inc(value["fault_events_applied"])
        metrics.counter(
            "campaign_resource_transitions",
            help="Resource up/down transitions simulated, by scenario.",
            scenario=scenario.name,
        ).inc(value["resource_transitions"])

    batch = engine.map(
        work, enumerate(streams), phase=_phase(user_class, scenario),
        journal=journal, on_result=None if metrics is None else on_result,
    )
    path = None if journal is None else journal.path
    return CampaignResult(
        user_class=user_class.name,
        scenario=scenario.name,
        analytic_availability=analytic,
        replications=tuple(
            _replication_result(index, value, path)
            for index, value in enumerate(batch.outputs)
        ),
        seed=seed,
    )


def _default_engine(engine: Optional["EvaluationEngine"]):
    """*engine*, or a serial one on the ambient instrumentation.

    Imported here: :mod:`repro.engine` imports this package.
    """
    if engine is not None:
        return engine
    from ..engine import EvaluationEngine

    return EvaluationEngine()


def run_campaign(
    model: HierarchicalModel,
    user_class: UserClass,
    scenario: Optional[FaultScenario] = None,
    horizon: float = 20_000.0,
    replications: int = 8,
    seed: int = 0,
    default_repair_rate: float = 1.0,
    journal: Optional[JournalLike] = None,
    journal_meta: Optional[dict] = None,
    observer=None,
    engine: Optional["EvaluationEngine"] = None,
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
    journal:
        Optional :class:`~repro.runtime.Journal` (or a path to create
        one).  The file must be empty/absent — resuming an existing
        journal goes through :func:`resume_campaign` instead.
    journal_meta:
        Free-form JSON-serializable dict stored as the ``meta`` field of
        the journal's ``batch_start`` header; the CLI stashes what it
        needs to rebuild the model on ``repro resume``.
    observer:
        Optional streaming consumer with ``interval(start, end,
        availability)`` and ``fault(time, event)`` — typically an
        :class:`repro.obs.slo.SLOMonitor` or
        :class:`~repro.obs.slo.PoissonSessionSampler`.  Replication
        ``i``'s events are re-based onto ``[i * horizon, (i + 1) *
        horizon)`` so the observer sees one continuous campaign
        timeline.  Streaming requires an ordered timeline, so it is
        serial-only: combining ``observer`` with an engine of
        ``workers > 1`` raises :class:`~repro.errors.ValidationError`.
    engine:
        The :class:`~repro.engine.EvaluationEngine` the replications run
        on (default: a serial one).  Its ``workers`` parallelize them:
        because replication ``i`` always draws from its own spawned
        stream, the parallel result is **bit-identical** to the serial
        one; results are assembled by replication index, and the journal
        records each replication as it completes (indices may land out
        of order — resume handles that).  Its ``cancellation`` token is
        polled per simulated transition in-process and between
        replications, so with ``workers > 1`` cancellation takes effect
        between replication completions; on cancellation or deadline the
        journal (if any) keeps every completed replication, ready for
        :func:`resume_campaign`.  Its ``heartbeat`` gets one event when
        the batch starts and one per completed replication, and its
        metrics registry the ``campaign_*`` and ``engine_*`` series.

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
    check_rate(default_repair_rate, "default_repair_rate")
    engine = _default_engine(engine)
    if observer is not None and engine.workers > 1 and replications > 1:
        raise ValidationError(
            "a streaming observer needs the replications in timeline "
            f"order; run with workers=1 (got workers={engine.workers})"
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
    try:
        if journal is not None:
            journal.append(
                "batch_start",
                phase=_phase(user_class, scenario),
                total=replications,
                user_class=user_class.name,
                scenario=scenario.name,
                horizon=horizon,
                replications=replications,
                seed=seed,
                default_repair_rate=default_repair_rate,
                analytic_availability=analytic,
                meta=journal_meta or {},
            )
        return _run_replications(
            model, user_class, scenario, horizon, replications, seed,
            default_repair_rate, analytic, journal, engine,
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
    engine: Optional["EvaluationEngine"] = None,
) -> CampaignResult:
    """Resume an interrupted campaign from its journal.

    The engine restores the completed replications from the journal;
    only the missing ones are simulated, each from the *same* spawned
    seed stream it would have used originally.  The returned
    :class:`CampaignResult` is therefore bit-identical to what the
    uninterrupted run would have produced, and the journal ends up with
    the same records as a never-interrupted journaled run (only
    ``batch_end``'s count of replications the finishing run executed
    differs).

    Parameters
    ----------
    journal:
        Journal (or path) written by :func:`run_campaign`; it will be
        appended to.  A journal holding nothing past its header resumes
        to a full fresh run.
    model / user_class / scenario:
        Must denote the same campaign the journal was started with;
        names and the recomputed analytic availability are checked and a
        mismatch raises :class:`~repro.errors.ResumeError`.
    engine:
        As in :func:`run_campaign`; a resume can itself be interrupted
        and resumed again.

    Raises
    ------
    ResumeError
        On a corrupt journal, a malformed header or replication, or a
        model/configuration mismatch.
    """
    if scenario is None:
        scenario = NullScenario()
    path = journal.path if isinstance(journal, Journal) else Path(journal)
    records = read_journal(path)
    start = records[0] if records else {}
    if start.get("kind") != "batch_start":
        raise ResumeError(
            f"journal {path} opens with a {start.get('kind')!r} record, "
            "not a campaign's batch_start header; journals of the older "
            "campaign_start layout cannot be resumed"
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
    # Eq. (10) sums in a fixed order, so the two agree to the bit; the
    # tolerance only guards against real model drift.  The journaled
    # value is authoritative for the resumed result, which keeps it
    # bit-identical to the uninterrupted run's.
    if not math.isclose(recomputed, analytic, rel_tol=1e-9, abs_tol=1e-12):
        raise ResumeError(
            f"journal {path} was recorded against analytic availability "
            f"{analytic!r}, but this model computes {recomputed!r}; the "
            "model or its parameters changed"
        )

    owns_journal = not isinstance(journal, Journal)
    if owns_journal:
        journal = Journal(path)
    try:
        return _run_replications(
            model, user_class, scenario, horizon, replications, seed,
            default_repair_rate, analytic, journal, _default_engine(engine),
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
    engine: Optional["EvaluationEngine"] = None,
) -> List[CampaignResult]:
    """The full campaign grid: every user class under every scenario.

    Seeds are varied per cell so campaigns never share streams, while
    the grid remains reproducible from the single *seed*.  Every cell
    is its own :func:`run_campaign` on the one *engine*, so its
    cancellation token, heartbeat and metrics registry span the grid
    (one deadline bounds the whole grid) and its ``workers``
    parallelize the replications within each cell.  All cells borrow
    the worker pool their thread holds (see
    :mod:`repro.engine.executor`), so a grid, and every grid after it on
    the same thread, pays pool start-up once.
    """
    engine = _default_engine(engine)
    # The scenarios are walked once per class: read one-shot iterables
    # once, up front.
    user_classes = tuple(user_classes)
    scenarios = tuple(scenarios)
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
                    engine=engine,
                )
            )
    return results
