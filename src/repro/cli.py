"""Command-line interface.

The subcommands cover the common workflows without writing Python:

``repro ta``
    Evaluate the paper's Travel Agency: user availability per class,
    function availabilities, Table 8 sweeps.

``repro web``
    Evaluate a web-server farm's composite availability (the Table 5
    models), optionally under a latency deadline.

``repro evaluate``
    Evaluate a custom model from a JSON specification file
    (see :mod:`repro.spec`).

``repro inject``
    Run a fault-injection campaign against the Travel Agency: simulated
    user-perceived availability under scripted/stochastic faults,
    compared with the analytic eq.-(10) value.

``repro retries``
    Retry-adjusted user-perceived availability — the closed-form
    extension of eq. (10) with bounded user retries, optionally
    cross-validated by discrete-event simulation.

``repro resume``
    Resume an interrupted ``repro inject --journal`` campaign from its
    journal; completed replications are restored, only missing ones are
    simulated, and the final result is bit-identical to an
    uninterrupted run.

``repro sweep``
    Regenerate a Fig. 11/12 sensitivity grid (unavailability vs number
    of web servers, one curve per failure rate) through the batch
    evaluation engine: ``--workers N`` parallelizes the cells with
    bit-identical output, ``--cache-dir`` memoizes them across runs,
    and ``--journal`` makes an interrupted sweep resumable.

``repro policies``
    Rank client-side resilience policies — retry, circuit breaker,
    request timeout, hedged requests — by user-perceived availability
    across a grid of farm fault scenarios, evaluated through the same
    engine (``--workers``/``--cache-dir``) with bit-identical output.

``repro cloud``
    Rank cloud deployments of the Travel Agency — multi-zone placement
    with common-cause zonal failures, database quorums, and an
    autoscaling M/M/c/K web farm — by user-perceived availability
    (exact Bayesian-network inference, see :mod:`repro.bayes`),
    evaluated through the engine with bit-identical output.

``repro chaos``
    Run a Fig. 11/12 sweep under deterministic fault injection — worker
    kills, transient task faults, cache corruption, or a torn journal —
    and verify the recovery contract: stdout must be byte-identical to
    the undisturbed serial run, with the recovery visible in the
    ``--metrics`` counters (``engine_worker_respawns``,
    ``engine_task_retries``, ``engine_cache_corruptions``).

``repro stats``
    Merge and render metrics snapshots written by ``--metrics`` — as a
    sorted table (default), OpenMetrics text, or JSON.

``repro slo``
    Watch the user-perceived availability as an SLO: stream a simulated
    fault-injection campaign through a multi-window burn-rate monitor
    per user class (objective defaults to the analytic eq.-(10) value)
    and report observed availability, Wilson confidence interval,
    error-budget consumption, and the burn-rate alert log.

``repro diff``
    Compare two ``--metrics`` snapshots series by series: deltas and
    ratios, histogram-aware.

``repro trace-report``
    Analyze a ``--trace`` Chrome trace JSONL: critical path, self time
    by category, top spans, and per-worker utilization.

``repro serve``
    Run the evaluation server (:mod:`repro.server`): an asyncio HTTP
    job API over the same workloads (sweeps, policy comparisons,
    campaigns), with SSE streaming, an OpenMetrics ``/metrics``
    endpoint, and an M/M/c/K admission controller that models the
    server itself (``GET /v1/self``).

Long runs are bounded and interruptible: ``inject``, ``retries``,
``resume``, ``sweep``, ``policies``, ``cloud`` and ``chaos`` take
``--deadline SECONDS`` (wall clock; exceeding it exits with code 2
and, with ``--journal``, leaves a resumable journal) and ``--progress``
(heartbeat lines on stderr).

The same seven commands are also observable: they take ``--metrics
PATH`` (a :mod:`repro.obs` registry snapshot, rendered by ``repro
stats``) and ``--trace PATH`` (a Chrome trace-event JSONL span
timeline), plus ``--profile DIR`` (performance
attribution, :mod:`repro.obs.perf`: per-event-type kernel accounting,
an engine phase/idle :class:`~repro.obs.AttributionReport` and a
deterministic counter-triggered flamegraph); all files are written even
when a deadline aborts the run.
Instrumentation never changes stdout — a ``--metrics``/``--trace``/
``--profile`` run prints byte-identical results.

Every subcommand is declared once, in :data:`COMMANDS`: those of the
workloads shared with the server's job kinds are generated from the
table in :mod:`repro.workloads`, and each CLI-only one is a
:class:`Command` here.  Every flag is a
:class:`repro.workloads.Param`; ``build_parser`` generates each
subcommand's flags from its params (``arrival_rate`` becomes
``--arrival-rate``) and ``main`` checks the parsed values against the
same records before dispatch, so the CLI and the server accept and
reject exactly the same values.

Run ``python -m repro <command> --help`` for the options of each.
Errors are reported as a one-line message with exit code 2; pass
``--debug`` (before the subcommand) to get the full traceback instead.
"""

from __future__ import annotations

import argparse
import contextlib
import sys
from functools import partial
from typing import Callable, List, NamedTuple, Optional, Tuple

from . import workloads
from .reporting import format_downtime, format_table
from .workloads import Param

__all__ = ["main", "build_parser"]


# -- CLI-only parameters (the shared ones live in repro.workloads) ------

DEADLINE = Param(
    "deadline", float, low=0.0, low_open=True, metavar="SECONDS",
    help="wall-clock budget; exceeding it aborts cleanly with exit code 2 "
         "(journaled work is preserved)",
)
#: The fault-tolerant-execution and artifact flags (see repro.runtime).
RUNTIME = (
    DEADLINE,
    Param("progress", bool, False,
          help="print heartbeat/liveness lines to stderr"),
    Param("metrics", str, metavar="PATH",
          help="write a metrics snapshot (JSON) of the run; render it "
               "with `repro stats`"),
    Param("trace", str, metavar="PATH",
          help="write a span timeline as Chrome trace-event JSONL "
               "(chrome://tracing / Perfetto compatible)"),
    Param("profile", str, metavar="DIR",
          help="write performance-attribution artifacts (attribution "
               "report, kernel accounting, flamegraph) to this directory; "
               "stdout stays byte-identical"),
)
JOURNAL = Param("journal", str, metavar="PATH")
CACHE_DIR = Param(
    "cache_dir", str, metavar="DIR",
    help="on-disk memo cache; a warm rerun recomputes nothing",
)


class Command(NamedTuple):
    """One subcommand: its help line, handler and flags.

    ``arguments`` are the ``(name, options)`` of further
    ``add_argument`` calls: positionals and flags no :class:`Param`
    declares.
    """

    name: str
    summary: str
    handler: Callable[[argparse.Namespace], int]
    params: Tuple[Param, ...]
    arguments: Tuple[Tuple[str, dict], ...] = ()


def _cmd_ta(args) -> int:
    from .ta import TAParameters, TravelAgencyModel
    params = TAParameters()
    if args.reservations is not None:
        params = params.with_reservation_systems(args.reservations)
    model = TravelAgencyModel(params, architecture=args.architecture)
    classes = workloads.selected_classes(args.user_class)

    if args.report:
        from .ta.report import availability_report

        print(availability_report(model, classes))
        return 0

    print(f"Travel Agency — {args.architecture} architecture, "
          f"N_F = N_H = N_C = {params.n_flight}")
    print(f"A(Web service) = {model.web_service_availability():.9f}")
    print()

    rows = []
    for users in classes:
        result = model.user_availability(users)
        rows.append([
            users.name,
            f"{result.availability:.5f}",
            format_downtime(result.availability),
        ])
    print(format_table(["user class", "A(user)", "downtime"], rows))

    if args.sweep:
        print()
        counts = (1, 2, 3, 4, 5, 10)
        header = ["N"] + [users.name for users in classes]
        sweeps = [dict(model.reservation_sweep(u, counts)) for u in classes]
        print(format_table(
            header,
            [[n] + [f"{s[n]:.5f}" for s in sweeps] for n in counts],
            title="Table 8 sweep",
        ))

    if args.categories:
        print()
        rows = []
        for users in classes:
            breakdown = model.category_breakdown(users)
            for category in ("SC1", "SC2", "SC3", "SC4"):
                rows.append([
                    users.name, category,
                    f"{breakdown[category] * 8760.0:.1f}",
                ])
        print(format_table(
            ["user class", "category", "hours/year"],
            rows,
            title="Fig. 13 scenario-category breakdown",
        ))
    return 0


def _cmd_web(args) -> int:
    from .availability import WebServiceModel

    model = WebServiceModel(
        servers=args.servers,
        arrival_rate=args.arrival_rate,
        service_rate=args.service_rate,
        buffer_capacity=args.buffer,
        failure_rate=args.failure_rate,
        repair_rate=args.repair_rate,
        coverage=args.coverage,
        reconfiguration_rate=(
            args.reconfiguration_rate
            if args.coverage is not None and args.coverage < 1.0
            else None
        ),
    )
    breakdown = model.loss_breakdown()
    print(f"{model!r}")
    print(f"A(Web service)          = {breakdown.availability:.9f} "
          f"({format_downtime(breakdown.availability)})")
    print(f"  buffer-full loss      = {breakdown.buffer_full:.3e}")
    print(f"  all servers down      = {breakdown.all_servers_down:.3e}")
    print(f"  manual reconfiguration= {breakdown.manual_reconfiguration:.3e}")
    if args.deadline is not None:
        value = model.deadline_availability(args.deadline)
        print(f"A(served within {args.deadline:g}s) = {value:.9f} "
              f"({format_downtime(value)})")
    return 0


def _cmd_evaluate(args) -> int:
    from .spec import load_model

    model, user_classes = load_model(args.spec)

    print("Services:")
    for name, value in sorted(
        model.service_availabilities().items(), key=lambda kv: -kv[1]
    ):
        print(f"  {name:20s} {value:.9f}")
    print("Functions:")
    for name in model.functions:
        value = model.function_availability(name)
        print(f"  {name:20s} {value:.9f}  ({format_downtime(value)})")

    if args.user_class is not None:
        if args.user_class not in user_classes:
            from .errors import ValidationError

            raise ValidationError(
                f"user class {args.user_class!r} is not declared in "
                f"{args.spec} (available: {sorted(user_classes)})"
            )
        selected = {args.user_class: user_classes[args.user_class]}
    else:
        selected = user_classes

    if selected:
        print("User classes:")
        for name, users in selected.items():
            result = model.user_availability(users)
            print(f"  {name:20s} {result.availability:.6f}  "
                  f"({format_downtime(result.availability)})")
    return 0


def _runtime_context(args):
    """(cancellation, heartbeat) from the shared --deadline/--progress flags."""
    from .runtime import Budget, ConsoleHeartbeat

    cancellation = None
    if args.deadline is not None:
        cancellation = Budget(wall_clock=args.deadline).start()
    heartbeat = ConsoleHeartbeat() if args.progress else None
    return cancellation, heartbeat


def _print_result(document: dict) -> int:
    """Print a workload's text; a calibration campaign that disagrees
    with the analytic eq.-(10) value exits 1."""
    print(document["text"])
    return 1 if document.get("calibrated") is False else 0


def _cmd_workload(workload, args) -> int:
    """Run one :mod:`repro.workloads` table entry and print its text.

    The workload evaluates on an engine built from
    ``--workers``/``--deadline``/``--progress`` and, on commands that
    have it, ``--cache-dir``; those commands also report the engine's
    cells, wall time and cache use on stderr.
    """
    import time

    from .engine import EvaluationEngine

    values = vars(args)
    if workload.check is not None:
        workload.check(values)
    cancellation, heartbeat = _runtime_context(args)
    engine = EvaluationEngine(
        workers=args.workers,
        cache_dir=values.get("cache_dir"),
        cancellation=cancellation,
        heartbeat=heartbeat,
    )
    started = time.monotonic()
    output = workload.run(values, engine)
    elapsed = time.monotonic() - started
    document = workload.document(values, output)
    code = _print_result(document)
    if "cache_dir" in values:
        stats = engine.cache.stats
        rate = f"{stats.hit_rate:.1%}" if stats.lookups else "n/a"
        print(
            f"engine: workers={engine.workers}, {document['cells']} cells "
            f"in {elapsed:.2f}s; cache hits={stats.hits} "
            f"misses={stats.misses} hit-rate={rate}",
            file=sys.stderr,
        )
    return code


def _cmd_resume(args) -> int:
    from .engine import EvaluationEngine
    from .errors import ResumeError
    from .resilience import resume_campaign
    from .runtime import read_journal

    cancellation, heartbeat = _runtime_context(args)
    # resume_campaign checks that this is a campaign's batch_start.
    start = (read_journal(args.journal) or [{}])[0]
    meta = start.get("meta")
    if not isinstance(meta, dict) or meta.get("cli") != "inject":
        raise ResumeError(
            f"journal {args.journal!r} was not written by `repro inject "
            "--journal`; resume it with repro.resilience.resume_campaign()"
        )
    for param in (
        workloads.ARCHITECTURE, workloads.SCENARIO, workloads.USER_CLASS
    ):
        if meta.get(param.name) not in param.choices:
            raise ResumeError(
                f"journal {args.journal!r} batch_start meta field "
                f"{param.name!r} must be one of {list(param.choices)}, got "
                f"{meta.get(param.name)!r}"
            )
    model, scenario = workloads.fault_campaign_setup(
        meta["scenario"], meta["architecture"]
    )
    user_class = workloads.selected_classes(meta["user_class"])[0]
    result = resume_campaign(
        args.journal,
        model,
        user_class,
        scenario,
        engine=EvaluationEngine(
            cancellation=cancellation, heartbeat=heartbeat
        ),
    )
    text, calibrated = workloads.campaign_text(
        [result],
        meta["scenario"],
        start["horizon"],
        start["replications"],
        start["seed"],
        title_prefix="Resumed fault-injection campaign",
    )
    return _print_result({"text": text, "calibrated": calibrated})


def _retry_sim_cell(spec, cancellation=None):
    """One retry DES cross-validation cell (module-level: picklable).

    Each cell seeds its own rng, so outputs do not depend on the worker
    count; only in-process cells get the *cancellation* token.
    """
    import numpy as np

    from .sim import estimate_user_availability_with_retries

    model, users, policy, sessions, seed = spec
    sim = estimate_user_availability_with_retries(
        model, users, policy, sessions, np.random.default_rng(seed),
        cancellation=cancellation,
    )
    return sim.served_fraction, sim.mean_attempts


def _cmd_retries(args) -> int:
    from .resilience import RetryPolicy, format_retry_table
    policy = RetryPolicy(
        max_retries=args.max_retries, persistence=args.persistence
    )
    from .ta import TravelAgencyModel

    cancellation, _heartbeat = _runtime_context(args)
    journal = None
    if args.journal is not None:
        from .runtime import Journal

        journal = Journal(args.journal)
    model = TravelAgencyModel(architecture=args.architecture)
    classes = workloads.selected_classes(args.user_class)

    results = [
        model.retry_adjusted_availability(users, policy) for users in classes
    ]
    print(format_retry_table(results))
    if journal is not None:
        for users, result in zip(classes, results):
            journal.append(
                "retry_result",
                user_class=users.name,
                architecture=args.architecture,
                max_retries=args.max_retries,
                persistence=args.persistence,
                base_availability=result.availability,
                adjusted_availability=result.adjusted_availability,
            )

    if args.sweep:
        print()
        counts = (1, 2, 3, 4, 5, 10)
        header = ["N"]
        columns = []
        for users in classes:
            header += [f"{users.name} (eq. 10)", f"{users.name} (retries)"]
            sweep = model.reservation_sweep_with_retries(users, counts, policy)
            columns.append({n: (base, adj) for n, base, adj in sweep})
        rows = []
        for n in counts:
            row = [n]
            for column in columns:
                base, adjusted = column[n]
                row += [f"{base:.5f}", f"{adjusted:.7f}"]
            rows.append(row)
        print(format_table(header, rows, title="Table 8 with retries"))

    if args.simulate is not None:
        from .engine import EvaluationEngine

        print()
        specs = [
            (model.hierarchical_model, users, policy, args.simulate,
             args.seed)
            for users in classes
        ]
        cell = _retry_sim_cell
        if args.workers == 1 or len(specs) == 1:
            # The engine runs these in-process, so the token need not
            # pickle.
            cell = partial(_retry_sim_cell, cancellation=cancellation)
        sims = EvaluationEngine(
            workers=args.workers, cancellation=cancellation
        ).map(cell, specs, phase="retry DES").outputs
        rows = []
        for users, analytic, (served, attempts) in zip(
            classes, results, sims
        ):
            if journal is not None:
                journal.append(
                    "retry_simulation",
                    user_class=users.name,
                    sessions=args.simulate,
                    seed=args.seed,
                    served_fraction=served,
                    mean_attempts=attempts,
                )
            rows.append([
                users.name,
                f"{analytic.adjusted_availability:.6f}",
                f"{served:.6f}",
                f"{attempts:.4f}",
            ])
        print(format_table(
            ["class", "closed form", "simulated", "attempts"],
            rows,
            title=f"DES cross-validation ({args.simulate} sessions)",
        ))
    if journal is not None:
        journal.close()
    return 0


def _cmd_chaos(args) -> int:
    import shutil
    import tempfile
    from pathlib import Path

    from .chaos import (
        corrupt_cache_entries,
        plan_transient_faults,
        plan_worker_kills,
        truncate_journal_tail,
    )
    from .engine import EvaluationEngine, TaskRetryPolicy
    from .errors import ValidationError
    from .obs import MetricsRegistry
    from .obs.context import active_metrics
    from .runtime import read_journal

    if args.injector == "kill-worker" and args.workers < 2:
        raise ValidationError(
            "--injector kill-worker terminates pool workers; it needs "
            f"--workers >= 2, got {args.workers}"
        )

    # Counters land in the ambient --metrics registry when one is
    # active, so the recovery evidence survives in the artifact.
    registry = active_metrics()
    if registry is None:
        registry = MetricsRegistry()

    def engine_for(**extra):
        return EvaluationEngine(
            workers=args.workers, metrics=registry, **extra
        )

    def sweep_text(engine, journal=None) -> str:
        grid = workloads.run_fig_sweep(
            args.figure, args.arrival_rate, args.servers_max,
            engine=engine, journal=journal,
        )
        return workloads.fig_sweep_text(
            args.figure, args.arrival_rate, args.servers_max, grid
        )

    n_tasks = len(workloads.SWEEP_FAILURE_RATES) * args.servers_max
    reference = sweep_text(engine=None)
    workdir = Path(tempfile.mkdtemp(prefix="repro-chaos-"))
    evidence = ""
    try:
        if args.injector == "kill-worker":
            plan = plan_worker_kills(
                n_tasks, args.seed, args.faults, str(workdir / "state")
            )
            disturbed = sweep_text(engine_for(chaos=plan))
            fired = plan.fired()
            respawns = registry.value("engine_worker_respawns")
            recovered = fired >= 1 and respawns >= 1
            evidence = (
                f"killed {fired} worker(s) at task indices "
                f"{plan.kill_tasks}; {respawns:g} pool respawn(s)"
            )
        elif args.injector == "transient":
            plan = plan_transient_faults(
                n_tasks, args.seed, args.faults, str(workdir / "state")
            )
            disturbed = sweep_text(
                engine_for(chaos=plan, retry=TaskRetryPolicy())
            )
            fired = plan.fired()
            retries = registry.value("engine_task_retries")
            recovered = fired >= 1 and retries >= 1
            evidence = (
                f"injected {fired} transient fault(s) at task indices "
                f"{plan.transient_tasks}; {retries:g} task retry(ies)"
            )
        elif args.injector == "corrupt-cache":
            cache_dir = workdir / "cache"
            # Cold run seeds the on-disk cache, then damage it and make
            # a fresh engine read through the corruption.
            sweep_text(engine_for(cache_dir=str(cache_dir)))
            corrupted = corrupt_cache_entries(
                cache_dir, args.seed, args.faults
            )
            disturbed = sweep_text(engine_for(cache_dir=str(cache_dir)))
            corruptions = registry.value("engine_cache_corruptions")
            quarantined = len(list((cache_dir / "quarantine").glob("*.pkl")))
            recovered = corruptions >= len(corrupted) >= 1
            evidence = (
                f"corrupted {len(corrupted)} cache entry(ies); "
                f"{corruptions:g} detected, {quarantined} quarantined, "
                "recomputed"
            )
        else:  # truncate-journal
            journal_path = workdir / "sweep.jsonl"
            sweep_text(engine_for(), journal=str(journal_path))
            # +1: the tear must reach past the batch_end marker to cost
            # actual task results.
            truncate_journal_tail(
                journal_path, args.seed, records=args.faults + 1
            )
            surviving = sum(
                1 for r in read_journal(journal_path, missing_ok=True)
                if r.get("kind") == "task_result"
            )
            disturbed = sweep_text(engine_for(), journal=str(journal_path))
            recomputed = n_tasks - surviving
            recovered = surviving >= 1 and recomputed >= 1
            evidence = (
                f"tore {recomputed} record(s) off the journal; resume "
                f"restored {surviving}, recomputed {recomputed}"
            )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    identical = disturbed == reference
    print(disturbed)
    print(
        f"chaos: injector={args.injector}, seed={args.seed}; {evidence}; "
        f"output {'IDENTICAL' if identical else 'DIFFERS'} vs "
        "undisturbed serial run",
        file=sys.stderr,
    )
    return 0 if identical and recovered else 1


def _cmd_stats(args) -> int:
    import json

    from .obs import MetricsRegistry, merge_registries

    merged = merge_registries(
        MetricsRegistry.load(path) for path in args.files
    )
    if args.format == "openmetrics":
        print(merged.render_openmetrics())
        return 0
    if args.format == "json":
        print(json.dumps(merged.to_dict(), indent=2))
        return 0
    rows = []
    for metric in merged:
        labels = ",".join(f"{k}={v}" for k, v in metric.labels)
        if metric.kind == "histogram":
            mean = f"{metric.mean:.6g}" if metric.count else "n/a"
            value = f"count={metric.count} sum={metric.sum:.6g} mean={mean}"
        else:
            value = f"{metric.value:g}"
        rows.append([metric.name, labels, metric.kind, value])
    print(format_table(
        ["metric", "labels", "kind", "value"],
        rows,
        title=(
            f"{len(args.files)} metrics file(s), {len(merged)} series"
        ),
    ))
    return 0


def _cmd_slo(args) -> int:
    import numpy as np

    from .obs import PoissonSessionSampler, SLOMonitor, format_slo_report
    from .resilience import run_campaign

    model, scenario = workloads.fault_campaign_setup(
        args.scenario, args.architecture
    )

    summaries = []
    alert_log = []
    for user_class in workloads.selected_classes(args.user_class):
        objective = (
            args.objective
            if args.objective is not None
            else model.user_availability(user_class).availability
        )
        monitor = SLOMonitor(
            objective=objective,
            windows=(args.short_window, args.long_window),
            burn_threshold=args.burn_threshold,
            name=user_class.name,
        )
        sampler = PoissonSessionSampler(
            monitor,
            rate=args.session_rate,
            rng=np.random.default_rng(args.seed),
        )
        run_campaign(
            model,
            user_class,
            scenario,
            horizon=args.horizon,
            replications=args.replications,
            seed=args.seed,
            observer=sampler,
        )
        summaries.append(monitor.summary())
        alert_log.extend((monitor.name, alert) for alert in monitor.alerts)

    total = args.replications * args.horizon
    print(format_slo_report(
        summaries,
        alerts=sorted(alert_log, key=lambda pair: pair[1].time),
        title=(
            f"SLO report — scenario {args.scenario!r}, {total:g} h "
            f"simulated, ~{args.session_rate:g} sessions/h, "
            f"windows {args.short_window:g}/{args.long_window:g} h, "
            f"burn threshold {args.burn_threshold:g}x"
        ),
    ))
    return 0


def _cmd_diff(args) -> int:
    import json

    from .errors import ObservabilityError
    from .obs import MetricsRegistry, diff_registries, format_diff_table

    def load(path):
        try:
            with open(path) as handle:
                snapshot = json.load(handle)
        except (OSError, ValueError) as exc:
            raise ObservabilityError(f"cannot read {path!r}: {exc}")
        return MetricsRegistry.from_dict(snapshot)

    diff = diff_registries(load(args.old), load(args.new))
    print(format_diff_table(diff, include_unchanged=args.include_unchanged))
    return 0


def _cmd_trace_report(args) -> int:
    from .obs.analysis import TraceAnalysis, format_trace_report

    analysis = TraceAnalysis.from_file(args.trace_file)
    print(format_trace_report(analysis, top=args.top))
    return 0


def _cmd_serve(args) -> int:
    import asyncio

    from .errors import ValidationError
    from .server import ReproServer

    if args.queue_limit < args.workers:
        raise ValidationError(
            "--queue-limit is the admission capacity K (running + queued "
            f"jobs) and must be >= --workers, got {args.queue_limit} < "
            f"{args.workers}"
        )
    server = ReproServer(
        host=args.host,
        port=args.port,
        slots=args.workers,
        queue_limit=args.queue_limit,
        journal=args.journal,
        slo_objective=args.slo_objective,
    )

    async def _run_server() -> int:
        import signal

        await server.start()
        print(
            f"serving on http://{server.host}:{server.port} "
            f"(c={args.workers} slots, K={args.queue_limit} capacity)",
            file=sys.stderr,
        )
        if args.port_file is not None:
            with open(args.port_file, "w") as handle:
                handle.write(f"{server.port}\n")
        serving = asyncio.ensure_future(server.serve_forever())
        loop = asyncio.get_running_loop()
        try:
            # SIGINT arrives as KeyboardInterrupt; SIGTERM needs an
            # explicit handler for graceful shutdown under supervisors
            # (and shells that start background jobs with SIGINT
            # ignored).
            loop.add_signal_handler(signal.SIGTERM, serving.cancel)
        except (NotImplementedError, RuntimeError):
            pass
        try:
            await serving
        except asyncio.CancelledError:
            pass
        finally:
            with contextlib.suppress(NotImplementedError, RuntimeError):
                loop.remove_signal_handler(signal.SIGTERM)
            await server.stop()
        return 0

    try:
        return asyncio.run(_run_server())
    except KeyboardInterrupt:
        print("interrupted; server stopped", file=sys.stderr)
        return 0


def _setup_instrumentation(args):
    """Activate ambient metrics/tracing/perf per --metrics/--trace/--profile.

    Returns a finalizer that deactivates and writes the requested files.
    ``main`` runs it in a ``finally`` so a deadline abort (exit 2) still
    lands the partial metrics/trace/profile on disk — the observability
    analogue of the journal's crash-consistency contract.
    """
    metrics_path = getattr(args, "metrics", None)
    trace_path = getattr(args, "trace", None)
    profile_dir = getattr(args, "profile", None)
    if metrics_path is None and trace_path is None and profile_dir is None:
        return lambda: None

    from .obs import (
        Instrumentation,
        MetricsRegistry,
        PerfRecorder,
        Tracer,
        activate,
        deactivate,
    )

    registry = MetricsRegistry() if metrics_path is not None else None
    tracer = Tracer() if trace_path is not None else None
    recorder = PerfRecorder() if profile_dir is not None else None
    activate(Instrumentation(metrics=registry, tracer=tracer, perf=recorder))

    def finalize() -> None:
        deactivate()
        if registry is not None:
            registry.save(metrics_path)
        if tracer is not None:
            tracer.export(trace_path)
        if recorder is not None:
            recorder.write_artifacts(profile_dir)

    return finalize


def _workload_command(
    workload, cache: bool = True, journal: Optional[str] = None
) -> Command:
    """The subcommand of a :mod:`repro.workloads` table entry.

    Its flags are the workload's params, then ``--cache-dir`` when
    *cache* is set, the runtime/artifact flags, and ``--journal`` (with
    *journal* as its help) when it takes one.
    """
    params = workload.params
    if cache:
        params += (CACHE_DIR,)
    params += RUNTIME
    if journal is not None:
        params += (JOURNAL._replace(help=journal),)
    return Command(
        workload.command, workload.summary,
        partial(_cmd_workload, workload), params,
    )


#: Every subcommand by name, in ``repro --help`` order.
COMMANDS = {command.name: command for command in (
    Command("ta", "evaluate the paper's Travel Agency case study", _cmd_ta, (
        workloads.ARCHITECTURE,
        workloads.USER_CLASS,
        Param("reservations", int, low=1, metavar="N",
              help="set N_F = N_H = N_C (defaults to the paper's 5)"),
        Param("sweep", bool, False,
              help="print the Table 8 sweep over N in {1,2,3,4,5,10}"),
        Param("categories", bool, False,
              help="print the Fig. 13 SC1-SC4 breakdown"),
        Param("report", bool, False,
              help="print the full five-section availability report"),
    )),
    Command("web", "evaluate a web-server farm (Table 5 models)", _cmd_web, (
        workloads.SERVERS,
        workloads.ARRIVAL_RATE,
        workloads.SERVICE_RATE,
        workloads.BUFFER,
        Param("failure_rate", float, 1e-4, low=0.0, low_open=True,
              help="per-server failures per hour"),
        Param("repair_rate", float, 1.0, low=0.0, low_open=True,
              help="repairs per hour (shared facility)"),
        Param("coverage", float, low=0.0, high=1.0,
              help="failure coverage c (omit for perfect coverage)"),
        Param("reconfiguration_rate", float, 12.0, low=0.0, low_open=True,
              help="manual reconfigurations per hour"),
        DEADLINE._replace(
            help="also report availability under a latency SLO"
        ),
    )),
    Command(
        "evaluate", "evaluate a custom model from a JSON spec file",
        _cmd_evaluate,
        (Param("user_class", str,
               help="evaluate one declared user class (default: all)"),),
        (("spec", dict(help="path to the JSON model specification")),),
    ),
    # Replications have no cache key: a campaign never hits a cache.
    _workload_command(workloads.CAMPAIGN, cache=False, journal=(
        "journal per-replication results to this JSONL file "
        "(crash-consistent; resumable via `repro resume`); "
        "requires --user-class A or B"
    )),
    Command(
        "retries",
        "retry-adjusted user-perceived availability (eq. 10 + retries)",
        _cmd_retries,
        (
            workloads.ARCHITECTURE,
            workloads.USER_CLASS,
            workloads.MAX_RETRIES,
            workloads.PERSISTENCE,
            Param("sweep", bool, False,
                  help="print Table 8 with a retry-adjusted column"),
            Param("simulate", int, low=1, metavar="SESSIONS",
                  help="cross-validate with a discrete-event retry "
                       "simulation"),
            workloads.SEED,
            workloads.WORKERS,
        ) + RUNTIME + (JOURNAL._replace(
            help="append per-class retry results to this JSONL journal"
        ),),
    ),
    Command(
        "resume", "resume an interrupted `repro inject --journal` campaign",
        _cmd_resume, RUNTIME,
        (("journal", dict(help="path to the campaign journal")),),
    ),
    _workload_command(workloads.SWEEP, journal=(
        "journal per-cell results to this JSONL file; re-running the "
        "same sweep over it resumes instead of recomputing"
    )),
    _workload_command(workloads.POLICIES),
    _workload_command(workloads.CLOUD),
    Command(
        "chaos",
        "run a Fig. 11/12 sweep under deterministic fault injection and "
        "verify byte-identical recovery",
        _cmd_chaos,
        (
            workloads.FIGURE,
            workloads.ARRIVAL_RATE,
            workloads.SERVERS_MAX,
            workloads.WORKERS._replace(
                default=2, help="worker processes (kill-worker needs >= 2)"
            ),
            workloads.SEED._replace(help="seed choosing the injection sites"),
            Param("faults", int, 2, low=1,
                  help="planned injections (kills, transient faults, "
                       "corrupted cache entries, or torn journal records)"),
        ) + RUNTIME,
        (("--injector", dict(
            required=True,
            choices=("kill-worker", "transient", "corrupt-cache",
                     "truncate-journal"),
            help=(
                "fault class to inject: kill pool workers mid-task, raise "
                "transient task faults, corrupt on-disk cache entries, or "
                "tear the tail off a resume journal"
            ),
        )),),
    ),
    Command(
        "stats", "merge and render metrics files written by --metrics",
        _cmd_stats,
        (Param("format", str, "table",
               choices=("table", "openmetrics", "json"),
               help="output format (default: a sorted fixed-width table)"),),
        (("files", dict(
            nargs="+", metavar="METRICS",
            help="one or more --metrics JSON snapshots (merged by name)",
        )),),
    ),
    Command(
        "slo",
        "monitor the user-perceived availability SLO over a simulated "
        "campaign (multi-window burn-rate alerting)",
        _cmd_slo,
        (
            workloads.SCENARIO,
            workloads.ARCHITECTURE,
            workloads.USER_CLASS,
            workloads.HORIZON,
            workloads.REPLICATIONS._replace(
                default=4,
                help="replications streamed back to back onto one timeline",
            ),
            workloads.SEED,
            Param("session_rate", float, 1.0, low=0.0, low_open=True,
                  help="user sessions per simulated hour (Poisson sampling)"),
            Param("objective", float, low=0.0, high=1.0, low_open=True,
                  high_open=True,
                  help="availability objective in (0, 1); default is the "
                       "analytic eq.-(10) value of each user class"),
            Param("short_window", float, 50.0, low=0.0, low_open=True,
                  metavar="HOURS",
                  help="short burn-rate window (also clears active alerts)"),
            Param("long_window", float, 500.0, low=0.0, low_open=True,
                  metavar="HOURS",
                  help="long burn-rate window (suppresses blips)"),
            Param("burn_threshold", float, 5.0, low=0.0, low_open=True,
                  help="alert when every window burns at or above this rate"),
        ),
    ),
    Command(
        "diff",
        "diff two metrics snapshots",
        _cmd_diff,
        (
            Param("include_unchanged", bool, False,
                  help="also list series that did not move"),
        ),
        (
            ("old", dict(help="baseline metrics snapshot (JSON)")),
            ("new", dict(help="current metrics snapshot (JSON)")),
        ),
    ),
    Command(
        "trace-report", "analyze a --trace Chrome trace JSONL file",
        _cmd_trace_report,
        (Param("top", int, 10, low=1, metavar="K",
               help="number of spans in the top-spans table"),),
        # dest must not be "trace": _setup_instrumentation reads args.trace
        # as the ambient --trace output path and would truncate the input.
        (("trace_file", dict(
            metavar="trace", help="path to the trace JSONL"
        )),),
    ),
    Command(
        "serve",
        "run the evaluation server (HTTP job API, SSE streaming, "
        "OpenMetrics /metrics, M/M/c/K self-modeling admission)",
        _cmd_serve,
        (
            Param("host", str, "127.0.0.1",
                  help="bind address (default: loopback only)"),
            Param("port", int, 8033, low=0, high=65535,
                  help="TCP port; 0 picks an ephemeral port"),
            workloads.WORKERS._replace(
                default=2,
                help="concurrent evaluation slots c (the M/M/c/K servers)",
            ),
            Param("queue_limit", int, 8, low=1,
                  help="admission capacity K: running + queued jobs; a "
                       "submission finding K jobs in the system is "
                       "rejected with 503"),
            JOURNAL._replace(
                help="journal job submissions/results to this JSONL file; a "
                     "restart restores results and re-runs interrupted jobs"
            ),
            Param("slo_objective", float, 0.999, low=0.0, high=1.0,
                  low_open=True, high_open=True,
                  help="admission availability objective watched by the "
                       "SLO monitor"),
            Param("port_file", str, metavar="PATH",
                  help="write the bound port to this file once listening "
                       "(for scripts using --port 0)"),
        ),
    ),
)}


def build_parser() -> argparse.ArgumentParser:
    """The top-level argument parser (exposed for testing and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "User-perceived availability evaluation of web-based "
            "applications (DSN 2003 travel-agency framework)."
        ),
    )
    parser.add_argument(
        "--debug", action="store_true",
        help="print full tracebacks instead of one-line error messages",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    for command in COMMANDS.values():
        sub = subparsers.add_parser(command.name, help=command.summary)
        for param in command.params:
            if param.type is bool:
                sub.add_argument(
                    param.flag, action="store_true", help=param.help
                )
            else:
                sub.add_argument(
                    param.flag,
                    type=param.type,
                    default=param.default,
                    choices=param.choices,
                    metavar=param.metavar,
                    help=param.help,
                )
        for name, options in command.arguments:
            sub.add_argument(name, **options)
    return parser


def _check_args(command: Command, args) -> None:
    """Validate every schema-declared flag of the parsed subcommand.

    Runs after parsing, not as argparse ``type=`` hooks, so a bad value
    fails like every other :class:`~repro.errors.ReproError`: one line
    naming the flag (``error: --workers must be an integer >= 1, got
    0``), exit code 2, and a traceback under ``--debug``.  ``argparse``
    parses ``nan`` and ``inf`` as floats; both are rejected here.
    """
    for param in command.params:
        workloads.check_param(param, getattr(args, param.name), param.flag)


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    command = COMMANDS[args.command]
    from .errors import ReproError

    finalize = _setup_instrumentation(args)
    try:
        _check_args(command, args)
        return command.handler(args)
    except ReproError as exc:
        if args.debug:
            raise
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        finalize()

if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
