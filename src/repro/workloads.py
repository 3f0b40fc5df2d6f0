"""The canonical workloads, as plain functions.

``repro.cli`` and ``repro.server`` present the same evaluations through
two front ends — a command line and an HTTP job API.  Both must render
byte-identical output for the same inputs (the server's contract is
that a sweep submitted over HTTP returns exactly what ``repro sweep``
prints), so the workload definitions live here, in one place:

* the Fig. 11/12 sensitivity grids (``run_fig_sweep`` /
  ``fig_sweep_text``),
* the named fault scenarios of ``repro inject`` and the campaign
  rendering (``run_fault_campaigns`` / ``campaign_text``),
* the client-policy comparison of ``repro policies``
  (``default_client_policies`` / ``default_farm_scenarios`` /
  ``policy_comparison_text``),
* the cloud deployment comparison of ``repro cloud``
  (``default_cloud_scenarios`` / ``run_cloud_comparison`` /
  ``cloud_comparison_text``).

Each workload both front ends serve is declared here once, as a
:class:`Workload` entry of :data:`WORKLOADS` (``SWEEP``, ``POLICIES``,
``CAMPAIGN``, ``CLOUD``): its job kind, CLI command and HTTP route, its
:class:`Param` schema, its runner and its result document.  The CLI
generates its subcommands and flags (``arrival_rate`` becomes
``--arrival-rate``) from the table, the server its job kinds, spec
validation and routes, and :func:`check_param` enforces the params'
types and bounds for both.

Everything here is importable without side effects and the work
functions are module-level, so they stay picklable for the engine's
process-pool backend.
"""

from __future__ import annotations

import functools
from typing import Callable, List, NamedTuple, Optional, Tuple

__all__ = [
    "SWEEP_FAILURE_RATES",
    "FAULT_SCENARIOS",
    "Param",
    "check_param",
    "Workload",
    "WORKLOADS",
    "SWEEP",
    "CLIENT_POLICY",
    "POLICIES",
    "CAMPAIGN",
    "CLOUD",
    "sweep_point",
    "sweep_cell_keys",
    "run_fig_sweep",
    "fig_sweep_text",
    "fault_scenario_factories",
    "run_fault_campaigns",
    "campaign_text",
    "default_client_policies",
    "client_policies",
    "default_farm_scenarios",
    "run_policy_comparison",
    "policy_comparison_text",
    "default_cloud_scenarios",
    "run_cloud_comparison",
    "cloud_comparison_text",
]

#: The failure-rate curves of Fig. 11/12, per hour.
SWEEP_FAILURE_RATES = (1e-2, 1e-3, 1e-4)

#: Scenario names accepted by ``repro inject --scenario``.
FAULT_SCENARIOS = ("null", "lan-host", "net-outage", "web-degraded")


# -- parameter schemas -------------------------------------------------

class Param(NamedTuple):
    """One workload parameter, declared once for every front end.

    ``name`` is the JSON spec key; the CLI flag is the same name with
    dashes (:attr:`flag`).  ``low``/``high`` bound the value inclusively
    unless ``low_open``/``high_open`` is set; ``None`` leaves a side
    unbounded.  A ``default`` of ``None`` makes the parameter optional:
    ``None`` then means "not given" and is not checked.
    """

    name: str
    type: type
    default: object = None
    low: Optional[float] = None
    high: Optional[float] = None
    low_open: bool = False
    high_open: bool = False
    choices: Optional[Tuple[str, ...]] = None
    help: Optional[str] = None
    metavar: Optional[str] = None

    @property
    def flag(self) -> str:
        return "--" + self.name.replace("_", "-")


def check_param(param: Param, value, label: str):
    """*value* validated against *param*, failing with one line naming *label*.

    The CLI passes the flag (``--workers``) as *label*, the server the
    JSON key (``workers``), so both front ends reject the same values
    with the same message.  Choices are compared as strings (a JSON
    ``"figure": 11`` means ``"11"``); ints accept integral floats
    (JSON ``2.0``); numbers reject booleans, strings, NaN and infinity.
    Returns the value as *param*'s type.
    """
    import math

    from .errors import ValidationError

    if value is None and param.default is None:
        return None
    if param.choices is not None:
        if str(value) not in param.choices:
            raise ValidationError(
                f"{label} must be one of {list(param.choices)}, "
                f"got {value!r}"
            )
        return str(value)
    if param.type not in (int, float):
        return value
    low, high = param.low, param.high
    if param.type is int:
        if isinstance(value, float) and value.is_integer():
            value = int(value)
        valid = isinstance(value, int) and not isinstance(value, bool)
        if high is None:
            expected = f"an integer >= {low}"
        else:
            expected = f"an integer in {low}..{high}"
    else:
        valid = (
            isinstance(value, (int, float))
            and not isinstance(value, bool)
            and math.isfinite(value)
        )
        if low is None and high is None:
            expected = "a finite number"
        elif high is None:
            expected = f"a number {'>' if param.low_open else '>='} {low:g}"
        else:
            expected = (
                f"a number in {'(' if param.low_open else '['}{low:g}, "
                f"{high:g}{')' if param.high_open else ']'}"
            )
    if valid:
        value = param.type(value)
        below = low is not None and (
            value < low or (param.low_open and value == low)
        )
        above = high is not None and (
            value > high or (param.high_open and value == high)
        )
        valid = not (below or above)
    if not valid:
        raise ValidationError(f"{label} must be {expected}, got {value!r}")
    return value


class Workload(NamedTuple):
    """One workload both front ends serve, declared once.

    ``kind`` is the server's job kind, ``command`` the CLI subcommand,
    ``route`` the ``POST /v1/<route>`` segment and ``summary`` the
    subcommand's help line.  ``params`` generate the CLI flags and the
    JSON spec keys; ``server_defaults`` replace some defaults for a
    server job, which should come back in seconds.

    ``run(values, engine)`` — or ``run(values, cancellation,
    heartbeat)`` for a workload that builds its own engines — evaluates
    a mapping of checked values; ``document(values, output)`` turns the
    output into the server's JSON result, whose ``text`` is exactly what
    the CLI prints.  ``check(values)``, when given, enforces the
    cross-field rules a single param cannot.
    """

    kind: str
    command: str
    route: str
    summary: str
    params: Tuple[Param, ...]
    run: Callable
    document: Callable[..., dict]
    server_defaults: Tuple[Tuple[str, object], ...] = ()
    check: Optional[Callable] = None

    @property
    def takes_engine(self) -> bool:
        """Whether :attr:`run` evaluates through the caller's engine.

        Only then can a front end give that engine a cache
        (``--cache-dir``) or a server job's own recorder (``"profile":
        true``).
        """
        import inspect

        return "engine" in inspect.signature(self.run).parameters

    @property
    def server_params(self) -> Tuple[Param, ...]:
        """:attr:`params` with the server's defaults."""
        defaults = dict(self.server_defaults)
        return tuple(
            p._replace(default=defaults.get(p.name, p.default))
            for p in self.params
        )


FIGURE = Param(
    "figure", str, "11", choices=("11", "12"),
    help="11 = perfect coverage, 12 = coverage 0.98 with manual "
         "reconfiguration at 12/h",
)
ARRIVAL_RATE = Param(
    "arrival_rate", float, 100.0, low=0.0, low_open=True,
    help="requests per second offered to the web farm",
)
SERVICE_RATE = Param(
    "service_rate", float, 100.0, low=0.0, low_open=True,
    help="per-server service rate (requests per second)",
)
# Upper bounds on sizes keep one untrusted spec from pinning a server
# worker: each bounds a recurrence length, a generator's dimension or a
# process count (docs/SERVER.md records the worst accepted job's time).
#: The Fig. 11/12 grids fix K = 10, so NW cannot exceed 10.
SERVERS_MAX = Param(
    "servers_max", int, 10, low=1, high=10, metavar="N",
    help="sweep NW over 1..N",
)
SERVERS = Param(
    "servers", int, 4, low=1, high=64,
    help="web servers in the farm (paper: NW = 4)",
)
BUFFER = Param(
    "buffer", int, 10, low=1, high=1000,
    help="total capacity K of the farm queue (in service + waiting)",
)
TIMEOUT = Param(
    "timeout", float, 0.05, low=0.0, low_open=True, metavar="SECONDS",
    help="request timeout of the timeout and hedge policies",
)
HEDGE_DELAY = Param(
    "hedge_delay", float, 0.02, low=0.0, low_open=True, metavar="SECONDS",
    help="delay before the hedge policy issues its spare request",
)
MAX_RETRIES = Param(
    "max_retries", int, 3, low=0,
    help="retry budget k (0 reproduces the paper's measure)",
)
PERSISTENCE = Param(
    "persistence", float, 1.0, low=0.0, high=1.0,
    help="probability the user retries after each failure",
)
BREAKER_THRESHOLD = Param(
    "breaker_threshold", int, 3, low=1, high=100,
    help="consecutive failures that trip the circuit breaker",
)
BREAKER_RESET = Param(
    "breaker_reset", float, 30.0, low=0.0, low_open=True, metavar="SECONDS",
    help="mean open-state dwell before a recovery probe",
)
ZONE_AVAILABILITY = Param(
    "zone_availability", float, 0.9995, low=0.0, high=1.0, low_open=True,
    help="availability of each zone (the common-cause root nodes)",
)
SCENARIO = Param(
    "scenario", str, "null", choices=FAULT_SCENARIOS,
    help="fault scenario to inject (null = calibration campaign)",
)
ARCHITECTURE = Param(
    "architecture", str, "redundant", choices=("basic", "redundant"),
    help="Fig. 7 (basic) or Fig. 8 (redundant) architecture",
)
USER_CLASS = Param(
    "user_class", str, "both", choices=("A", "B", "both"),
    help="which Table 1 user class to evaluate",
)
#: Bounds how long one replication runs, which is how long a parallel
#: campaign may run on after it is cancelled.
HORIZON = Param(
    "horizon", float, 5000.0, low=0.0, low_open=True, high=100_000.0,
    help="simulated hours per replication",
)
#: Bounds the replications' seed streams, spawned before the first
#: cancellation check.
REPLICATIONS = Param(
    "replications", int, 6, low=1, high=10_000,
    help="independent replications per campaign",
)
SEED = Param("seed", int, 0, low=0, help="random seed of the run")
WORKERS = Param(
    "workers", int, 1, low=1, high=32,
    help="worker processes; output is bit-identical for any count",
)

#: The policy knobs of ``default_client_policies`` (its keyword names).
CLIENT_POLICY = (
    TIMEOUT, HEDGE_DELAY, MAX_RETRIES, PERSISTENCE, BREAKER_THRESHOLD,
    BREAKER_RESET,
)


# -- Fig. 11/12 sensitivity grids --------------------------------------

def sweep_point(figure, arrival_rate, failure_rate, servers):
    """One Fig. 11/12 grid cell (module-level: picklable for workers)."""
    from .availability import WebServiceModel

    imperfect = {}
    if figure == "12":
        imperfect = {"coverage": 0.98, "reconfiguration_rate": 12.0}
    return WebServiceModel(
        servers=int(servers),
        arrival_rate=arrival_rate,
        service_rate=100.0,
        buffer_capacity=10,
        failure_rate=failure_rate,
        repair_rate=1.0,
        **imperfect,
    ).unavailability()


def sweep_cell_keys(figure, arrival_rate, servers) -> List[str]:
    """Content-addressed cache keys for every cell of one grid.

    The key is the full cell spec: any parameter change misses.
    """
    from .engine import canonical_key

    return [
        canonical_key(
            "webservice-unavailability",
            figure=figure,
            arrival_rate=float(arrival_rate),
            service_rate=100.0,
            buffer_capacity=10,
            failure_rate=float(lam),
            repair_rate=1.0,
            servers=int(nw),
        )
        for lam in SWEEP_FAILURE_RATES
        for nw in servers
    ]


def run_fig_sweep(
    figure: str,
    arrival_rate: float,
    servers_max: int,
    engine=None,
    journal=None,
):
    """Run the Fig. 11/12 grid, through *engine* or the plain loop.

    Shared by ``repro sweep``, ``repro chaos``, and the server's sweep
    jobs: the chaos harness runs the same grid once undisturbed
    (``engine=None``, the in-process reference loop) and once under
    injection, then compares the rendered output byte for byte.
    """
    from .sensitivity import grid_sweep

    servers = tuple(range(1, servers_max + 1))
    keys = None
    if engine is not None:
        keys = sweep_cell_keys(figure, arrival_rate, servers)
    return grid_sweep(
        functools.partial(sweep_point, figure, arrival_rate),
        "failure rate", SWEEP_FAILURE_RATES,
        "NW", servers,
        engine=engine,
        keys=keys,
        journal=journal,
    )


def fig_sweep_text(figure, arrival_rate, servers_max, grid) -> str:
    """The stdout rendering of one Fig. 11/12 grid (sweep and chaos)."""
    from .reporting import format_series

    servers = tuple(range(1, servers_max + 1))
    series = {
        f"lambda={lam:g}/h": grid.row(lam).outputs
        for lam in SWEEP_FAILURE_RATES
    }
    coverage = "perfect coverage" if figure == "11" else "coverage = 0.98"
    return format_series(
        "NW", servers, series,
        log_bars=True, floor_exponent=-14,
        title=(
            f"Figure {figure} — {coverage}, "
            f"alpha = {arrival_rate:g}/s"
        ),
    )


# -- fault-injection campaigns -----------------------------------------

def fault_scenario_factories():
    """Named fault scenarios for ``repro inject`` (built lazily)."""
    from .resilience import (
        NullScenario,
        RecurrentDegradation,
        RecurrentOutage,
        ScheduledOutage,
    )

    def lan_host(model):
        hosts = frozenset(
            name for name in model.resources if name.startswith("app-host")
        )
        return RecurrentOutage(
            frozenset({"lan-segment"}) | hosts,
            episode_rate=0.01,
            mean_duration=5.0,
        )

    return {
        "null": lambda model: NullScenario(),
        "lan-host": lan_host,
        "net-outage": lambda model: ScheduledOutage(
            frozenset({"internet-link"}), start=1000.0, duration=50.0
        ),
        "web-degraded": lambda model: RecurrentDegradation(
            "web", factor=0.9, episode_rate=0.02, mean_duration=10.0
        ),
    }


def selected_classes(spec: str):
    """Map a ``--user-class`` value to the Table 1 class objects."""
    from .ta import CLASS_A, CLASS_B

    return {"A": [CLASS_A], "B": [CLASS_B], "both": [CLASS_A, CLASS_B]}[spec]


def fault_campaign_setup(scenario: str, architecture: str):
    """``(model, scenario)``: the hierarchical model of *architecture*
    and the named fault scenario built on it, for every campaign."""
    from .ta import TravelAgencyModel

    model = TravelAgencyModel(architecture=architecture).hierarchical_model
    return model, fault_scenario_factories()[scenario](model)


def run_fault_campaigns(
    scenario: str,
    architecture: str = ARCHITECTURE.default,
    user_class: str = USER_CLASS.default,
    horizon: float = HORIZON.default,
    replications: int = REPLICATIONS.default,
    seed: int = SEED.default,
    workers: int = WORKERS.default,
    cancellation=None,
    heartbeat=None,
):
    """The ``repro inject`` campaign grid for one named scenario."""
    from .resilience import run_campaigns

    model, built = fault_campaign_setup(scenario, architecture)
    return run_campaigns(
        model,
        selected_classes(user_class),
        [built],
        horizon=horizon,
        replications=replications,
        seed=seed,
        workers=workers,
        cancellation=cancellation,
        heartbeat=heartbeat,
    )


def campaign_text(
    results,
    scenario: str,
    horizon: float,
    replications: int,
    seed: int,
    title_prefix: str = "Fault-injection campaign",
) -> Tuple[str, Optional[bool]]:
    """The stdout rendering of a campaign, plus the calibration verdict.

    Returns ``(text, calibrated)`` where *calibrated* is None for fault
    scenarios and the eq.-(10) agreement verdict for the null scenario
    (which drives the CLI exit code).
    """
    from .resilience import format_campaign_table

    text = format_campaign_table(
        results,
        title=(
            f"{title_prefix} — scenario {scenario!r}, "
            f"{replications} x {horizon:g} h, seed {seed}"
        ),
    )
    calibrated: Optional[bool] = None
    if scenario == "null":
        calibrated = all(r.agrees_with_analytic() for r in results)
        text += (
            "\n\ncalibration: simulated availability "
            + ("agrees with" if calibrated else "DISAGREES with")
            + " the analytic eq.-(10) value within 2 standard errors"
        )
    return text, calibrated


# -- client-policy comparison ------------------------------------------

def default_client_policies(
    max_retries: int = MAX_RETRIES.default,
    persistence: float = PERSISTENCE.default,
    breaker_threshold: int = BREAKER_THRESHOLD.default,
    breaker_reset: float = BREAKER_RESET.default,
    timeout: float = TIMEOUT.default,
    hedge_delay: float = HEDGE_DELAY.default,
):
    """The four policies ranked by ``repro policies``, CLI defaults."""
    from .resilience import (
        CircuitBreakerPolicy,
        HedgePolicy,
        RetryPolicy,
        TimeoutPolicy,
    )

    return [
        RetryPolicy(max_retries=max_retries, persistence=persistence),
        CircuitBreakerPolicy(
            failure_threshold=breaker_threshold,
            reset_timeout=breaker_reset,
        ),
        TimeoutPolicy(timeout),
        HedgePolicy(timeout, hedge_delay),
    ]


def client_policies(values) -> list:
    """``default_client_policies`` for a checked ``POLICIES`` mapping.

    *values* maps parameter names to values: a server spec, or
    ``vars(args)`` of ``repro policies``.
    """
    return default_client_policies(
        **{p.name: values[p.name] for p in CLIENT_POLICY}
    )


def default_farm_scenarios(servers: int):
    """The default fault axis of ``repro policies``.

    Weights approximate how much steady-state time a lightly-faulted
    farm spends in each regime.
    """
    from .resilience import FarmFaultScenario

    return [
        FarmFaultScenario("nominal", servers_up=servers, weight=0.70),
        FarmFaultScenario(
            "surge", servers_up=servers, arrival_factor=1.5,
            weight=0.15,
        ),
        FarmFaultScenario(
            "degraded", servers_up=max(1, servers // 2),
            service_availability=0.95, weight=0.10,
        ),
        FarmFaultScenario(
            "critical", servers_up=1, service_availability=0.90,
            weight=0.05,
        ),
    ]


def run_policy_comparison(
    arrival_rate: float = ARRIVAL_RATE.default,
    service_rate: float = SERVICE_RATE.default,
    servers: int = SERVERS.default,
    buffer: int = BUFFER.default,
    engine=None,
    policies=None,
    scenarios=None,
):
    """The ``repro policies`` comparison grid with CLI-default axes."""
    from .resilience import compare_client_policies

    if policies is None:
        policies = default_client_policies()
    if scenarios is None:
        scenarios = default_farm_scenarios(servers)
    return compare_client_policies(
        policies,
        scenarios,
        arrival_rate=arrival_rate,
        service_rate=service_rate,
        capacity=buffer,
        engine=engine,
    )


def policy_comparison_text(report) -> str:
    """The stdout rendering of a policy comparison (table + verdict)."""
    from .resilience import format_policy_comparison

    best = report.best
    return (
        format_policy_comparison(report)
        + f"\n\nbest policy: {best.policy} "
        f"(weighted mean {best.mean_availability:.9g})"
    )


# -- cloud deployment comparison ---------------------------------------

def default_cloud_scenarios(
    arrival_rate: float = ARRIVAL_RATE.default,
    service_rate: float = SERVICE_RATE.default,
    zone_availability: float = ZONE_AVAILABILITY.default,
):
    """The deployment alternatives ranked by ``repro cloud``.

    Five placements of the same Travel Agency — one to three zones,
    relaxed vs strict database quorums, and an overprovisioned two-zone
    farm — all serving the same traffic, so the ranking isolates the
    availability effect of the deployment shape.
    """
    from .bayes import CloudDeployment, CloudScenario

    shared = dict(
        arrival_rate=arrival_rate,
        service_rate=service_rate,
        zone_availability=zone_availability,
    )
    return [
        CloudScenario("single-zone", CloudDeployment(
            zones=1, web_servers_per_zone=4, db_replicas=2, db_quorum=1,
            **shared,
        )),
        CloudScenario("two-zone", CloudDeployment(
            zones=2, web_servers_per_zone=2, db_replicas=2, db_quorum=1,
            **shared,
        )),
        CloudScenario("two-zone-overprovisioned", CloudDeployment(
            zones=2, web_servers_per_zone=4, db_replicas=4, db_quorum=2,
            **shared,
        )),
        CloudScenario("three-zone", CloudDeployment(
            zones=3, web_servers_per_zone=2, db_replicas=3, db_quorum=2,
            **shared,
        )),
        CloudScenario("three-zone-strict-quorum", CloudDeployment(
            zones=3, web_servers_per_zone=2, db_replicas=3, db_quorum=3,
            **shared,
        )),
    ]


def run_cloud_comparison(
    arrival_rate: float = ARRIVAL_RATE.default,
    service_rate: float = SERVICE_RATE.default,
    zone_availability: float = ZONE_AVAILABILITY.default,
    engine=None,
    scenarios=None,
):
    """The ``repro cloud`` comparison grid with CLI-default scenarios."""
    from .bayes import compare_cloud_scenarios

    if scenarios is None:
        scenarios = default_cloud_scenarios(
            arrival_rate=arrival_rate,
            service_rate=service_rate,
            zone_availability=zone_availability,
        )
    return compare_cloud_scenarios(scenarios, engine=engine)


def cloud_comparison_text(
    report, arrival_rate: float, zone_availability: float
) -> str:
    """The stdout rendering of a cloud comparison (table + verdict)."""
    from .bayes import format_cloud_comparison
    from .reporting import format_downtime

    best = report.best
    return (
        format_cloud_comparison(
            report,
            title=(
                f"Cloud Travel Agency — alpha = {arrival_rate:g}/s, "
                f"zone availability {zone_availability:g}"
            ),
        )
        + f"\n\nbest deployment: {best.scenario} "
        f"(mean availability {best.mean:.9g}, "
        f"{format_downtime(best.mean)})"
    )


# -- the workload table ------------------------------------------------

def _run_sweep(values, engine):
    return run_fig_sweep(
        values["figure"], values["arrival_rate"], values["servers_max"],
        engine=engine, journal=values.get("journal"),
    )


def _sweep_document(values, grid) -> dict:
    return {
        "text": fig_sweep_text(
            values["figure"], values["arrival_rate"], values["servers_max"],
            grid,
        ),
        "series": {
            f"{lam:g}": list(grid.row(lam).outputs)
            for lam in SWEEP_FAILURE_RATES
        },
        "cells": len(SWEEP_FAILURE_RATES) * values["servers_max"],
    }


def _run_policies(values, engine):
    return run_policy_comparison(
        arrival_rate=values["arrival_rate"],
        service_rate=values["service_rate"],
        servers=values["servers"],
        buffer=values["buffer"],
        engine=engine,
        policies=client_policies(values),
    )


def _policies_document(values, report) -> dict:
    best = report.best
    return {
        "text": policy_comparison_text(report),
        "best": {
            "policy": best.policy,
            "mean_availability": best.mean_availability,
            "worst_availability": best.worst_availability,
            "worst_scenario": best.worst_scenario,
        },
        "cells": len(report.cells),
    }


def _run_cloud(values, engine):
    return run_cloud_comparison(
        arrival_rate=values["arrival_rate"],
        service_rate=values["service_rate"],
        zone_availability=values["zone_availability"],
        engine=engine,
    )


def _cloud_document(values, report) -> dict:
    best = report.best
    return {
        "text": cloud_comparison_text(
            report, values["arrival_rate"], values["zone_availability"]
        ),
        "best": {
            "deployment": best.scenario,
            "zones": best.zones,
            "mean_availability": best.mean,
        },
        "ranking": [cell.scenario for cell in report.ranking],
        "cells": len(report.cells),
    }


def _run_campaigns(values, cancellation=None, heartbeat=None):
    # The campaign params are run_fault_campaigns's keyword names.
    return run_fault_campaigns(
        **{p.name: values[p.name] for p in CAMPAIGN.params},
        cancellation=cancellation,
        heartbeat=heartbeat,
    )


def _campaign_document(values, results) -> dict:
    text, calibrated = campaign_text(
        results, values["scenario"], values["horizon"],
        values["replications"], values["seed"],
    )
    return {
        "text": text,
        "calibrated": calibrated,
        "campaigns": [
            {
                "user_class": r.user_class,
                "scenario": r.scenario,
                "analytic_availability": r.analytic_availability,
                "mean_availability": r.mean_availability,
                "stderr": r.stderr,
            }
            for r in results
        ],
    }


SWEEP = Workload(
    "sweep", "sweep", "sweeps",
    "regenerate a Fig. 11/12 grid through the evaluation engine",
    (FIGURE, ARRIVAL_RATE, SERVERS_MAX, WORKERS),
    _run_sweep, _sweep_document,
)
POLICIES = Workload(
    "policies", "policies", "policies",
    "rank client-side resilience policies (retry, circuit breaker, "
    "timeout, hedge) across farm fault scenarios",
    (ARRIVAL_RATE, SERVICE_RATE, SERVERS, BUFFER) + CLIENT_POLICY
    + (WORKERS,),
    _run_policies, _policies_document,
    # The policies' own cross-field rules (hedge_delay < timeout).
    check=client_policies,
)
CLOUD = Workload(
    "cloud", "cloud", "clouds",
    "rank cloud deployments of the Travel Agency (multi-zone replica "
    "sets, zonal common-cause failures, autoscaling M/M/c/K farm) by "
    "user-perceived availability",
    (ARRIVAL_RATE, SERVICE_RATE, ZONE_AVAILABILITY, WORKERS),
    _run_cloud, _cloud_document,
)
CAMPAIGN = Workload(
    "campaign", "inject", "campaigns",
    "run a fault-injection campaign against the Travel Agency",
    (SCENARIO, ARCHITECTURE, USER_CLASS, HORIZON, REPLICATIONS, SEED,
     WORKERS),
    _run_campaigns, _campaign_document,
    # A server campaign is a short run: a request should come back in
    # seconds, not take the CLI's 6 x 5000 h.
    server_defaults=(("horizon", 100.0), ("replications", 4)),
)

#: Every workload the CLI and the server both serve.
WORKLOADS = (SWEEP, POLICIES, CAMPAIGN, CLOUD)
