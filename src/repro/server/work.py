"""Job kinds: spec validation and execution.

Each job kind maps a JSON spec (the POST body) onto one of the
library's canonical workloads from :mod:`repro.workloads`:

``sweep``
    A Fig. 11/12 sensitivity grid; the result's ``text`` is
    byte-identical to ``repro sweep`` stdout for the same flags.
``policies``
    The client-policy comparison; ``text`` matches ``repro policies``.
``campaign``
    A fault-injection campaign; ``text`` matches ``repro inject``.
``cloud``
    The cloud deployment comparison; ``text`` matches ``repro cloud``.
``probe``
    A synthetic job that holds a worker slot for ``hold`` seconds —
    traffic with *known* (exponential, if the client draws them so)
    service times, used to exercise the admission controller's
    M/M/c/K self-model under saturation.

The engine-backed kinds (``sweep``/``policies``/``cloud``) accept an
optional ``"profile": true`` spec key: the job runs under an explicit
:class:`~repro.obs.PerfRecorder` and the result carries a ``profile``
document (attribution report, kernel accounting, collapsed/speedscope
flamegraph) served at ``GET /v1/jobs/<id>/profile``.

Specs are validated eagerly at submission time against the same
:class:`~repro.workloads.Param` schemas that generate the CLI flags —
a bad spec is a 400 naming the JSON key before the job ever enters the
queue — and execution takes the engine's standard cooperation points:
a :class:`~repro.runtime.CancellationToken` checked between cells and
a heartbeat callback for progress events.
"""

from __future__ import annotations

import time
from typing import Dict, Tuple

from ..errors import ValidationError
from .. import workloads

__all__ = ["JOB_KINDS", "parse_spec", "execute_job"]

#: Longest accepted probe hold, seconds (probes are test traffic).
MAX_PROBE_HOLD = 60.0

#: A server campaign defaults to a short run: a request should come
#: back in seconds, not take the CLI's 6 x 5000 h.
_CAMPAIGN_DEFAULTS = {"horizon": 100.0, "replications": 4}

#: kind -> the parameters its JSON spec accepts.
JOB_KINDS: Dict[str, Tuple[workloads.Param, ...]] = {
    "sweep": workloads.SWEEP,
    "policies": workloads.POLICIES,
    "campaign": tuple(
        p._replace(default=_CAMPAIGN_DEFAULTS.get(p.name, p.default))
        for p in workloads.CAMPAIGN
    ),
    "cloud": workloads.CLOUD,
    "probe": (
        workloads.Param("hold", float, 0.0, low=0.0, high=MAX_PROBE_HOLD),
    ),
}

#: The engine-backed kinds, which also accept ``"profile": true``.
_PROFILED_KINDS = ("sweep", "policies", "cloud")


def parse_spec(kind: str, spec: dict) -> dict:
    """Validate *spec* for *kind*; returns the normalized spec."""
    try:
        params = JOB_KINDS[kind]
    except KeyError:
        raise ValidationError(
            f"unknown job kind {kind!r}; expected one of "
            f"{sorted(JOB_KINDS)}"
        ) from None
    if not isinstance(spec, dict):
        raise ValidationError(
            f"{kind} spec must be a JSON object, got "
            f"{type(spec).__name__}"
        )
    allowed = {p.name for p in params}
    if kind in _PROFILED_KINDS:
        allowed.add("profile")
    unknown = sorted(set(spec) - allowed)
    if unknown:
        raise ValidationError(
            f"unknown {kind} spec key(s) {unknown}; allowed: "
            f"{sorted(allowed)}"
        )
    values = {
        p.name: workloads.check_param(p, spec.get(p.name, p.default), p.name)
        for p in params
    }
    if kind in _PROFILED_KINDS:
        values["profile"] = spec.get("profile", False)
        if not isinstance(values["profile"], bool):
            raise ValidationError(
                f"{kind} spec key 'profile' must be a boolean, got "
                f"{values['profile']!r}"
            )
    if kind == "policies":
        # Cross-field rules (hedge_delay < timeout) are the policies'
        # own; building them here makes a violation a 400 too.
        workloads.client_policies(values)
    return values


def _engine(spec: dict, token, progress, metrics, perf=None):
    from ..engine import EvaluationEngine

    return EvaluationEngine(
        workers=spec["workers"],
        cancellation=token,
        heartbeat=progress,
        metrics=metrics,
        perf=perf,
    )


def _job_recorder(spec: dict):
    """A :class:`~repro.obs.PerfRecorder` when the spec asks for one.

    Server jobs run on concurrent worker threads, so the recorder is
    passed to the engine *explicitly* — the ambient activation used by
    the CLI is process-global and would mix concurrent jobs' timelines.
    A serial job therefore gets engine attribution but no in-process
    kernel accounting (pool workers still activate the recorder
    ambiently inside their own process and ship accounting back).
    """
    if not spec.get("profile"):
        return None
    from ..obs import PerfRecorder

    return PerfRecorder()


def _profile_document(recorder) -> dict:
    """The JSON-safe profile attachment for a job result."""
    from ..obs import format_attribution, format_kernel_accounting

    return {
        "attribution": recorder.to_dict(),
        "text": (
            format_attribution(recorder.batches)
            + "\n\n"
            + format_kernel_accounting(recorder.kernel)
        ),
        "collapsed": recorder.profiler.collapsed(),
        "speedscope": recorder.profiler.speedscope(),
    }


def execute_job(
    kind: str,
    spec: dict,
    token=None,
    progress=None,
    metrics=None,
) -> dict:
    """Run one validated job; returns the JSON-safe result document.

    Runs on a worker thread of the server — everything here is the
    synchronous library underneath, with *token* as the cooperative
    cancellation handle and *progress* a
    :data:`~repro.runtime.heartbeat.HeartbeatCallback`.
    """
    if kind == "probe":
        return _execute_probe(spec, token)
    if kind == "sweep":
        recorder = _job_recorder(spec)
        grid = workloads.run_fig_sweep(
            spec["figure"],
            spec["arrival_rate"],
            spec["servers_max"],
            engine=_engine(spec, token, progress, metrics, perf=recorder),
        )
        text = workloads.fig_sweep_text(
            spec["figure"], spec["arrival_rate"], spec["servers_max"], grid
        )
        result = {
            "text": text,
            "series": {
                f"{lam:g}": list(grid.row(lam).outputs)
                for lam in workloads.SWEEP_FAILURE_RATES
            },
            "cells": len(workloads.SWEEP_FAILURE_RATES) * spec["servers_max"],
        }
        if recorder is not None:
            result["profile"] = _profile_document(recorder)
        return result
    if kind == "policies":
        recorder = _job_recorder(spec)
        report = workloads.run_policy_comparison(
            arrival_rate=spec["arrival_rate"],
            service_rate=spec["service_rate"],
            servers=spec["servers"],
            buffer=spec["buffer"],
            engine=_engine(spec, token, progress, metrics, perf=recorder),
            policies=workloads.client_policies(spec),
        )
        best = report.best
        result = {
            "text": workloads.policy_comparison_text(report),
            "best": {
                "policy": best.policy,
                "mean_availability": best.mean_availability,
                "worst_availability": best.worst_availability,
                "worst_scenario": best.worst_scenario,
            },
            "cells": len(report.cells),
        }
        if recorder is not None:
            result["profile"] = _profile_document(recorder)
        return result
    if kind == "cloud":
        recorder = _job_recorder(spec)
        report = workloads.run_cloud_comparison(
            arrival_rate=spec["arrival_rate"],
            service_rate=spec["service_rate"],
            zone_availability=spec["zone_availability"],
            engine=_engine(spec, token, progress, metrics, perf=recorder),
        )
        best = report.best
        result = {
            "text": workloads.cloud_comparison_text(
                report, spec["arrival_rate"], spec["zone_availability"]
            ),
            "best": {
                "deployment": best.scenario,
                "zones": best.zones,
                "mean_availability": best.mean,
            },
            "ranking": [cell.scenario for cell in report.ranking],
            "cells": len(report.cells),
        }
        if recorder is not None:
            result["profile"] = _profile_document(recorder)
        return result
    if kind == "campaign":
        results = workloads.run_fault_campaigns(
            spec["scenario"],
            architecture=spec["architecture"],
            user_class=spec["user_class"],
            horizon=spec["horizon"],
            replications=spec["replications"],
            seed=spec["seed"],
            workers=spec["workers"],
            cancellation=token,
            heartbeat=progress,
        )
        text, calibrated = workloads.campaign_text(
            results,
            spec["scenario"],
            spec["horizon"],
            spec["replications"],
            spec["seed"],
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
    raise ValidationError(f"unknown job kind {kind!r}")


def _execute_probe(spec: dict, token) -> dict:
    """Hold a worker slot for ``hold`` seconds, cancellably.

    Sleeps in short slices polling the token, so ``DELETE`` on a
    running probe takes effect within ~20 ms rather than after the
    full hold.
    """
    deadline = time.monotonic() + spec["hold"]
    while True:
        if token is not None:
            token.check()
        remaining = deadline - time.monotonic()
        if remaining <= 0.0:
            break
        time.sleep(min(0.02, remaining))
    return {"held_seconds": spec["hold"]}
