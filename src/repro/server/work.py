"""Job kinds: spec validation and execution.

Each job kind but one is a workload of the table in
:mod:`repro.workloads` (:data:`~repro.workloads.WORKLOADS`): the kind,
its ``POST /v1/<route>``, its spec keys, its runner and its result
document all come from its entry, and the result's ``text`` is
byte-identical to what its CLI subcommand prints for the same flags.
The one other kind is ``probe``: a synthetic job that holds a worker
slot for ``hold`` seconds — traffic with *known* (exponential, if the
client draws them so) service times, used to exercise the admission
controller's M/M/c/K self-model under saturation.

Every workload runs on an engine the server builds for the job, so
each also accepts an optional ``"profile": true`` spec key: that engine
gets an explicit :class:`~repro.obs.PerfRecorder` and the result
carries a ``profile`` document (attribution report, kernel accounting,
collapsed/speedscope flamegraph) served at ``GET /v1/jobs/<id>/profile``.

Specs are validated eagerly at submission time against the same
:class:`~repro.workloads.Param` schemas that generate the CLI flags —
a bad spec is a 400 naming the JSON key before the job ever enters the
queue — and execution takes the engine's standard cooperation points:
a :class:`~repro.runtime.CancellationToken` checked between cells and
a heartbeat callback for progress events.
"""

from __future__ import annotations

import time

from ..errors import ValidationError
from .. import workloads

__all__ = ["ROUTES", "parse_spec", "execute_job"]

#: Longest accepted probe hold, seconds (probes are test traffic).
MAX_PROBE_HOLD = 60.0

#: The probe's spec: it is server-only test traffic, not a workload.
_PROBE = (workloads.Param("hold", float, 0.0, low=0.0, high=MAX_PROBE_HOLD),)

_WORKLOADS = {w.kind: w for w in workloads.WORKLOADS}

#: job kind -> its ``POST /v1/<route>`` segment.
ROUTES = {**{w.kind: w.route for w in workloads.WORKLOADS}, "probe": "probes"}


def parse_spec(kind: str, spec: dict) -> dict:
    """Validate *spec* for *kind*; returns the normalized spec."""
    if kind not in ROUTES:
        raise ValidationError(
            f"unknown job kind {kind!r}; expected one of {sorted(ROUTES)}"
        )
    if not isinstance(spec, dict):
        raise ValidationError(
            f"{kind} spec must be a JSON object, got "
            f"{type(spec).__name__}"
        )
    workload = _WORKLOADS.get(kind)
    params = _PROBE if workload is None else workload.server_params
    allowed = {p.name for p in params}
    if workload is not None:
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
    if workload is not None:
        values["profile"] = spec.get("profile", False)
        if not isinstance(values["profile"], bool):
            raise ValidationError(
                f"{kind} spec key 'profile' must be a boolean, got "
                f"{values['profile']!r}"
            )
    if workload is not None and workload.check is not None:
        workload.check(values)
    return values


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
    try:
        workload = _WORKLOADS[kind]
    except KeyError:
        raise ValidationError(f"unknown job kind {kind!r}") from None
    from ..engine import EvaluationEngine

    recorder = _job_recorder(spec)
    engine = EvaluationEngine(
        workers=spec["workers"],
        cancellation=token,
        heartbeat=progress,
        metrics=metrics,
        perf=recorder,
    )
    result = workload.document(spec, workload.run(spec, engine))
    if recorder is not None:
        result["profile"] = recorder.document()
    return result


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
