"""The repository's end-to-end benchmark, split by layer.

Usage (from the repository root)::

    python3 perfbench/run.py --workload campaign --seed 1 --seconds 30 --trace 0

Workloads (see perfbench/README.md for why each exists):

``campaign``  fault-injection campaigns at ``workers=2``, as ``repro inject``
``analytic``  a serial stream of Table 8 / Fig. 11-12 / policies / cloud
              evaluations sharing one memo-cached engine
``server``    ``repro serve`` under an open-loop Poisson job stream

With ``--trace 0`` the run is untraced and reports the end-to-end
metrics; with ``--trace 1`` it runs each operation of a fixed list
untraced and traced, and reports the per-layer metrics plus the tracing
overhead; the server has no traced run of its own, because the traced
``analytic`` run serves a stream for the server's layers.  Every
operation's output is checked.  The last stdout line
is the JSON result; the line before it records the machine and the
inputs.  A run that cannot find ``src/repro`` exits 2 without a result.
"""

from __future__ import annotations

import argparse
import http.client
import json
import math
import os
import platform
import resource
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from time import perf_counter

import checks
import plan
from layers import LayerProbes

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

WORKLOADS = ("campaign", "analytic", "server")

#: Fresh-interpreter set-ups per run; ``setup_s`` is their median.  An
#: untraced run spreads them evenly over its window, between operations,
#: so the median samples the whole window, not its first seconds.
SETUP_REPEATS = 11
#: Server boots per ``server`` run; its ``setup_s`` is their median.
SERVER_BOOTS = 5

#: Server latency limit, from the first baseline (2 cores): a job slower
#: than this, failed, or rejected misses the SLO.
SLO_LIMIT_MS = 1000.0

#: Offered job rate, about half the server's measured capacity on the
#: same 2-core machine (see README).
SERVER_RATE = 10.0
SERVER_SLOTS = 2
SERVER_QUEUE_LIMIT = 16
#: Longest wait for the jobs still in flight when the schedule ends.
SERVER_DRAIN_S = 60.0
SERVER_ROUTES = {
    "sweep": "/v1/sweeps",
    "policies": "/v1/policies",
    "cloud": "/v1/clouds",
    "campaign": "/v1/campaigns",
}
#: One server job in this many has its text compared with the
#: in-process rendering of the same spec.
SERVER_REFERENCE_EVERY = 5
#: One small job per kind, run before the stream so the server's lazy
#: imports (paid once per boot) do not land on the first timed jobs.
SERVER_WARM_UP = (
    ("sweep", {"servers_max": 2}),
    ("policies", {}),
    ("cloud", {}),
    ("campaign", {"horizon": 10.0, "replications": 2}),
)

#: Operations per second at the baseline, used only to size the fixed
#: operation list of a traced run to about half of ``--seconds``.
TRACE_RATE = {"campaign": 3.0, "analytic": 50.0}
#: Window operations re-run after the window as byte-identity references.
REFERENCE_SAMPLES = {"campaign": 2, "analytic": 12}

#: Canonical prefix whose digest identifies a seed's operation list.
PLAN_PREFIX = 120


# -- measurement helpers ---------------------------------------------------

def quantile(values, q):
    """The *q*-quantile (0 < q < 1) by linear interpolation."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    position = q * (len(ordered) - 1)
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def peak_rss_mb(extra_kb=0):
    own_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return (own_kb + extra_kb) / 1024.0


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


def machine():
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
    }


class Tally:
    """Per-operation latencies and failures of one pass."""

    def __init__(self):
        self.latencies_ms = []
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def record(self, seconds, problems):
        self.attempted += 1
        if seconds is not None:
            self.latencies_ms.append(seconds * 1000.0)
        if problems:
            self.failed += 1
            self.problems.extend(problems[:3])


class Outcome:
    """What a workload run reports: metrics, counts, inputs."""

    def __init__(self, canonical_ops):
        self.metrics = {}
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.ran = []
        self.meta = {"plan_digest": plan.digest(canonical_ops),
                     "plan_mix": plan.mix(canonical_ops)}

    def add(self, tally):
        self.attempted += tally.attempted
        self.failed += tally.failed
        self.problems += tally.problems

    def wrong(self, problems):
        """Operations that passed their checks but failed a reference."""
        self.failed += len(problems)
        self.problems += problems


def chunked_rate(finished, started, chunk):
    """Median throughput over consecutive runs of *chunk* operations.

    *finished* holds each operation's completion time.  A chunk is one
    whole block of the operation mix, so every chunk carries the same
    work; the median over chunks discounts the seconds in which another
    tenant of the machine slowed everything down.
    """
    rates = []
    previous = started
    for end in range(chunk, len(finished) + 1, chunk):
        rates.append(chunk / (finished[end - 1] - previous))
        previous = finished[end - 1]
    if not rates:
        return len(finished) / (finished[-1] - started) if finished else 0.0
    return statistics.median(rates)


def end_to_end(setup_s, tally, ops_per_s, rss_mb, slo_missed=None):
    """The end-to-end metrics; ``slo_met_rate`` only for the server."""
    latencies = tally.latencies_ms
    metrics = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (ops_per_s, "1/s"),
        "op_p50_ms": (quantile(latencies, 0.50), "ms"),
        "op_p95_ms": (quantile(latencies, 0.95), "ms"),
        "success_rate": (1.0 - tally.failed / tally.attempted, "ratio"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    if slo_missed is not None:
        metrics["slo_met_rate"] = (1.0 - slo_missed / tally.attempted,
                                   "ratio")
    return metrics


# -- set-up in fresh interpreters ------------------------------------------

def fresh_setups(workload, repeats):
    """Spawn-to-ready wall time and its parts, *repeats* times."""
    runs = []
    for _ in range(repeats):
        started = perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "setup_probe.py"), workload],
            stdout=subprocess.PIPE, env=child_env(), cwd=ROOT,
        )
        try:
            line = proc.stdout.readline()
            total = perf_counter() - started
            proc.stdout.read()
        finally:
            proc.stdout.close()
            code = proc.wait(timeout=60)
        if code != 0 or not line:
            raise RuntimeError(f"setup probe for {workload} exited {code}")
        parts = json.loads(line)
        parts["total_s"] = total
        runs.append(parts)
    return runs


def setup_parts(runs, key):
    return statistics.median(run[key] for run in runs)


# -- the in-process workloads ----------------------------------------------

def campaign_op(op, workers):
    from repro import workloads

    results = workloads.run_fault_campaigns(
        op["scenario"],
        architecture=op["architecture"],
        user_class="both",
        horizon=plan.CAMPAIGN_HORIZON,
        replications=plan.CAMPAIGN_REPLICATIONS,
        seed=op["seed"],
        workers=workers,
    )
    text, _ = workloads.campaign_text(
        results, op["scenario"], plan.CAMPAIGN_HORIZON,
        plan.CAMPAIGN_REPLICATIONS, op["seed"],
    )
    return results, text


def table8_text(rows):
    from repro import reporting

    return reporting.format_table(
        ["N_F = N_H = N_C", "A(class A)", "A(class B)"],
        [[n, f"{rows['A'][n]:.5f}", f"{rows['B'][n]:.5f}"]
         for n in checks.TABLE8_COUNTS],
        title="Table 8 — user availability vs reservation-system count",
    )


def analytic_op(op, engine, model):
    """One planner evaluation, rendered to text as the CLI prints it."""
    from repro import workloads
    from repro.ta import CLASS_A, CLASS_B

    kind = op["kind"]
    if kind == "table8":
        rows = {
            name: dict(model.reservation_sweep(users, checks.TABLE8_COUNTS))
            for name, users in (("A", CLASS_A), ("B", CLASS_B))
        }
        return rows, table8_text(rows)
    rate = op["arrival_rate"]
    if kind == "sweep":
        grid = workloads.run_fig_sweep(
            op["figure"], rate, op["servers_max"], engine=engine
        )
        return grid, workloads.fig_sweep_text(
            op["figure"], rate, op["servers_max"], grid
        )
    if kind == "policies":
        report = workloads.run_policy_comparison(
            arrival_rate=rate, engine=engine
        )
        return report, workloads.policy_comparison_text(report)
    report = workloads.run_cloud_comparison(arrival_rate=rate, engine=engine)
    return report, workloads.cloud_comparison_text(report, rate, 0.9995)


ANALYTIC_CHECKS = {
    "table8": checks.table8,
    "sweep": checks.sweep,
    "policies": checks.policies,
    "cloud": checks.cloud,
}

#: Operation source and block length of each in-process workload.
SOURCES = {
    "campaign": (plan.campaign_ops, len(plan.CAMPAIGN_BLOCK)),
    "analytic": (plan.analytic_ops, len(plan.ANALYTIC_BLOCK)),
}


class Runner:
    """Runs and checks operations of one in-process workload.

    An analytic runner owns one serial engine, so its memo cache is
    shared by every operation it runs, as a planner's session would.
    """

    def __init__(self, workload):
        from repro.engine import EvaluationEngine
        from repro.ta import TravelAgencyModel

        self.workload = workload
        self.engine = EvaluationEngine(workers=1)
        self.model = TravelAgencyModel()

    def run(self, op):
        """``(seconds or None, problems, text)`` for one operation."""
        started = perf_counter()
        try:
            if self.workload == "campaign":
                value, text = campaign_op(op, plan.CAMPAIGN_WORKERS)
            else:
                value, text = analytic_op(op, self.engine, self.model)
        except Exception as exc:  # a crashing operation is a failure
            return None, [f"{op}: {type(exc).__name__}: {exc}"], None
        seconds = perf_counter() - started
        if self.workload == "campaign":
            problems = checks.campaigns(value, text)
        else:
            problems = ANALYTIC_CHECKS[op["kind"]](value, text)
        return seconds, problems, text


def sampled(ops, texts, count):
    """Up to *count* operations spread over *texts*, with their text."""
    if not texts or count <= 0:
        return []
    step = max(1, len(texts) // count)
    return [(ops[i], texts[i]) for i in range(0, len(texts), step)][:count]


def reference_problems(workload, pairs):
    """Re-run sampled operations on the reference path; compare bytes.

    Campaigns re-run serially (``workers=1``); analytic operations
    re-run without an engine, so without the memo cache.
    """
    from repro.ta import TravelAgencyModel

    model = TravelAgencyModel()
    problems = []
    for op, text in pairs:
        if workload == "campaign":
            _, reference = campaign_op(op, 1)
        else:
            _, reference = analytic_op(op, None, model)
        if reference != text:
            problems.append(f"{op}: text differs from its reference")
    return problems


def warm_up(workload):
    """Finish lazy imports in this process before anything is timed."""
    if workload == "campaign":
        campaign_op({"scenario": "null", "architecture": "basic",
                     "seed": 0}, 1)
        return
    runner = Runner(workload)
    for op in ({"kind": "table8"},
               {"kind": "sweep", "figure": "12", "arrival_rate": 75.0,
                "servers_max": 2},
               {"kind": "policies", "arrival_rate": 75.0},
               {"kind": "cloud", "arrival_rate": 75.0}):
        runner.run(op)


# -- per-layer metrics -------------------------------------------------------

#: Every per-layer metric and its unit; a layer a workload does not
#: exercise reports 0.
PER_LAYER = {
    "sim.calls": "count",
    "sim.transitions": "count",
    "sim.busy_s": "s",
    "sim.transitions_per_s": "1/s",
    "sim.share": "ratio",
    "campaign.self_s": "s",
    "engine.tasks": "count",
    "engine.compute_share": "ratio",
    "engine.ipc_share": "ratio",
    "engine.serialization_share": "ratio",
    "engine.idle_share": "ratio",
    "cache.lookups": "count",
    "cache.hits": "count",
    "cache.hit_ratio": "ratio",
    "webservice.calls": "count",
    "webservice.busy_s": "s",
    "policies.busy_s": "s",
    "bayes.busy_s": "s",
    "render.busy_s": "s",
    "setup.import_s": "s",
    "setup.model_s": "s",
    "setup.pool_s": "s",
    "setup.server_ready_s": "s",
    "http.submit_p50_ms": "ms",
    "admission.rejected": "count",
    "admission.reject_share": "ratio",
    "jobs.queue_wait_p50_ms": "ms",
    "jobs.queue_wait_p95_ms": "ms",
    "jobs.exec_p50_ms": "ms",
    "jobs.exec_p95_ms": "ms",
    "jobs.notify_p50_ms": "ms",
    "loadgen.lateness_p95_ms": "ms",
    "loadgen.lateness_max_ms": "ms",
    "trace.overhead": "ratio",
}


def layer_metrics(totals, wall_s, workers, overhead, batches=(),
                  cache=None, extra=None):
    """The per-layer table from probe totals and program counters.

    ``*.busy_s`` is self time: a layer's probed time minus the probed
    layers it called (engine dispatch stays with its caller, see
    layers.py).  ``sim.share`` is the simulator's busy time over
    the workload's worker capacity (workers x traced wall time).
    """
    values = dict.fromkeys(PER_LAYER, 0)
    sim = totals["sim"]
    values["sim.calls"] = sim["calls"]
    values["sim.transitions"] = sim["count"]
    values["sim.busy_s"] = sim["self_s"]
    if sim["self_s"]:
        values["sim.transitions_per_s"] = sim["count"] / sim["self_s"]
    values["sim.share"] = sim["self_s"] / (workers * wall_s)
    values["campaign.self_s"] = totals["campaign"]["own_s"]
    capacity = sum(batch.capacity for batch in batches)
    values["engine.tasks"] = sum(batch.tasks for batch in batches)
    for bucket in ("compute", "ipc", "serialization", "idle"):
        if capacity:
            values[f"engine.{bucket}_share"] = sum(
                getattr(batch, bucket) for batch in batches
            ) / capacity
    if cache is not None:
        values["cache.lookups"] = cache.lookups
        values["cache.hits"] = cache.hits
        if cache.lookups:
            values["cache.hit_ratio"] = cache.hits / cache.lookups
    values["webservice.calls"] = totals["webservice"]["calls"]
    for layer in ("webservice", "policies", "bayes", "render"):
        values[f"{layer}.busy_s"] = totals[layer]["self_s"]
    values.update(extra or {})
    values["trace.overhead"] = overhead
    return {name: (values[name], unit) for name, unit in PER_LAYER.items()}


def inprocess_workload(workload, seed, seconds, trace):
    source, block = SOURCES[workload]
    outcome = Outcome(plan.take(source(seed), PLAN_PREFIX))
    if trace:
        runs = fresh_setups(workload, SETUP_REPEATS)
        warm_up(workload)
        traced_workload(workload, seed, seconds, runs, outcome)
        return outcome

    warm_up(workload)
    runner = Runner(workload)
    tally = Tally()
    texts = []
    finished = []
    runs = []
    # The window holds the operations and the set-up probes; the
    # operations' clock stops while a probe runs.
    probe_every = seconds / SETUP_REPEATS
    paused = 0.0
    started = perf_counter()
    for op in source(seed):
        now = perf_counter()
        if now - started >= seconds:
            break
        if len(runs) < SETUP_REPEATS and (
                now - started >= len(runs) * probe_every):
            runs += fresh_setups(workload, 1)
            paused += perf_counter() - now
        elapsed, problems, text = runner.run(op)
        finished.append(perf_counter() - paused)
        tally.record(elapsed, problems)
        outcome.ran.append(op)
        texts.append(text)
    runs += fresh_setups(workload, SETUP_REPEATS - len(runs))
    setup_s = setup_parts(runs, "total_s")
    outcome.add(tally)
    outcome.wrong(reference_problems(workload, sampled(
        outcome.ran, texts, REFERENCE_SAMPLES[workload]
    )))
    outcome.metrics = end_to_end(
        setup_s, tally, chunked_rate(finished, started, block),
        peak_rss_mb(),
    )
    cache = runner.engine.cache.stats
    if workload == "analytic" and cache.lookups:
        outcome.meta["cache_hit_ratio"] = cache.hits / cache.lookups
    return outcome


def traced_workload(workload, seed, seconds, runs, outcome):
    """Each operation of a fixed list runs untraced and traced.

    The two runs of one operation are adjacent and alternate in order,
    so drift over the run and warm-up favour neither side of
    ``trace.overhead``.  Each side has its own runner, so both see the
    same memo-cache history.  The analytic run then serves the same
    kinds of evaluation over HTTP (see ``served_pass``) for the server's
    own layers.
    """
    from repro.obs import PerfRecorder, instrumented

    source, block = SOURCES[workload]
    count = block * max(1, math.ceil(
        TRACE_RATE[workload] * seconds / 2.0 / block
    ))
    ops = plan.take(source(seed), count)
    probes = LayerProbes()
    recorder = PerfRecorder()
    plain = Runner(workload)
    with instrumented(perf=recorder):
        traced = Runner(workload)
    tally = Tally()
    plain_s = traced_s = 0.0

    def run_traced(op):
        with probes, instrumented(perf=recorder):
            return traced.run(op)

    for index, op in enumerate(ops):
        if index % 2:
            traced_result = run_traced(op)
            plain_result = plain.run(op)
        else:
            plain_result = plain.run(op)
            traced_result = run_traced(op)
        for elapsed, problems, _ in (plain_result, traced_result):
            tally.record(elapsed, problems)
        if plain_result[2] != traced_result[2]:
            outcome.wrong([f"{op}: traced text differs from untraced"])
        plain_s += plain_result[0] or 0.0
        traced_s += traced_result[0] or 0.0
    outcome.add(tally)
    outcome.ran = ops
    extra = {
        "setup.import_s": setup_parts(runs, "import_s"),
        "setup.model_s": setup_parts(runs, "model_s"),
        "setup.pool_s": setup_parts(runs, "pool_s"),
    }
    if workload == "analytic":
        extra.update(served_layers(*served_pass(seed, seconds / 2.0,
                                                outcome)))
    outcome.metrics = layer_metrics(
        probes.totals(), traced_s,
        plan.CAMPAIGN_WORKERS if workload == "campaign" else 1,
        overhead=traced_s / plain_s,
        batches=recorder.batches,
        cache=traced.engine.cache.stats,
        extra=extra,
    )


# -- the server workload -----------------------------------------------------

class EventStream(threading.Thread):
    """Reads ``/v1/events`` and stamps each job's terminal event."""

    def __init__(self, port):
        super().__init__(daemon=True)
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=10)
        self.sock.settimeout(None)
        self.sock.sendall(
            b"GET /v1/events HTTP/1.1\r\nhost: perfbench\r\n"
            b"accept: text/event-stream\r\n\r\n"
        )
        self.hello = threading.Event()
        self.terminal = {}
        self.changed = threading.Condition()

    def run(self):
        handle = self.sock.makefile("rb")
        try:
            for line in handle:
                if line in (b"\r\n", b"\n"):
                    break  # end of the response head
            event = None
            for line in handle:
                if line.startswith(b"event: "):
                    event = line[7:].strip()
                elif line.startswith(b"data: ") and event is not None:
                    received = (perf_counter(), time.time())
                    if event == b"hello":
                        self.hello.set()
                    elif event == b"job":
                        doc = json.loads(line[6:])
                        if doc.get("status") in ("done", "failed",
                                                 "cancelled"):
                            with self.changed:
                                self.terminal.setdefault(
                                    doc["id"], received + (doc,)
                                )
                                self.changed.notify_all()
                    event = None
        except (OSError, ValueError):
            pass
        finally:
            handle.close()

    def wait_for(self, ids, timeout):
        deadline = perf_counter() + timeout
        with self.changed:
            while not ids <= self.terminal.keys():
                remaining = deadline - perf_counter()
                if remaining <= 0:
                    return
                self.changed.wait(remaining)

    def close(self):
        try:
            self.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self.sock.close()
        self.join(timeout=10)


class ServerProcess:
    """``repro serve`` as a child process, booted until ``/readyz``."""

    _count = 0

    def __init__(self):
        ServerProcess._count += 1
        tag = f"{os.getpid()}-{ServerProcess._count}"
        self.port_file = WORK / f"port-{tag}"
        self.log_path = WORK / f"server-{tag}.log"
        command = [sys.executable, "-m", "repro", "serve", "--port", "0",
                   "--port-file", str(self.port_file),
                   "--workers", str(SERVER_SLOTS),
                   "--queue-limit", str(SERVER_QUEUE_LIMIT)]
        self._log = open(self.log_path, "wb")
        started = perf_counter()
        self.proc = subprocess.Popen(
            command, cwd=ROOT, env=child_env(),
            stdout=self._log, stderr=subprocess.STDOUT,
        )
        try:
            deadline = started + 60.0
            self.port = self._wait_port(deadline)
            self._wait_ready(deadline)
        except BaseException:
            self.stop()
            raise
        self.ready_s = perf_counter() - started

    def _alive(self, deadline):
        if self.proc.poll() is not None:
            raise RuntimeError(
                f"server exited {self.proc.returncode}; see {self.log_path}"
            )
        if perf_counter() > deadline:
            raise RuntimeError("server did not become ready in 60 s")

    def _wait_port(self, deadline):
        while True:
            self._alive(deadline)
            try:
                text = self.port_file.read_text()
            except FileNotFoundError:
                text = ""
            if text.endswith("\n"):
                return int(text)
            time.sleep(0.002)

    def _wait_ready(self, deadline):
        while True:
            self._alive(deadline)
            connection = http.client.HTTPConnection(
                "127.0.0.1", self.port, timeout=5
            )
            try:
                connection.request("GET", "/readyz")
                if connection.getresponse().status == 200:
                    return
            except OSError:
                pass
            finally:
                connection.close()
            time.sleep(0.002)

    def peak_kb(self):
        """The server's peak resident set (VmHWM), in KiB."""
        try:
            status = Path(f"/proc/{self.proc.pid}/status").read_text()
        except OSError:
            return 0
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
        return 0

    def stop(self):
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._log.close()
        self.port_file.unlink(missing_ok=True)
        if self.proc.returncode == 0:
            self.log_path.unlink(missing_ok=True)


class Stream:
    """One open-loop pass: every offered job and what became of it."""

    def __init__(self):
        self.offered = []       # (op, due, status, job id or None)
        self.lateness_s = []
        self.submit_ms = []
        self.window_s = 0.0
        self.terminal = {}
        self.documents = {}
        self.server_kb = 0


def post(connection, path, spec):
    connection.request(
        "POST", path, body=json.dumps(spec).encode("utf-8"),
        headers={"Content-Type": "application/json"},
    )
    response = connection.getresponse()
    return response.status, response.read()


def offer(server, ops):
    """Send *ops* on schedule over one connection; collect the results."""
    events = EventStream(server.port)
    events.start()
    stream = Stream()
    connection = http.client.HTTPConnection("127.0.0.1", server.port,
                                            timeout=60)
    try:
        if not events.hello.wait(10):
            raise RuntimeError("no hello event on /v1/events")
        warm = set()
        for kind, spec in SERVER_WARM_UP:
            status, body = post(connection, SERVER_ROUTES[kind], spec)
            if status != 202:
                raise RuntimeError(f"warm-up {kind} job answered {status}")
            warm.add(json.loads(body)["id"])
        events.wait_for(warm, SERVER_DRAIN_S)
        start = perf_counter() + 0.05
        for op in ops:
            due = start + op["at"]
            pause = due - perf_counter()
            if pause > 0:
                time.sleep(pause)
            sent = perf_counter()
            stream.lateness_s.append(sent - due)
            status, body = post(connection, SERVER_ROUTES[op["kind"]],
                                op["spec"])
            stream.submit_ms.append((perf_counter() - sent) * 1000.0)
            job_id = json.loads(body)["id"] if status == 202 else None
            stream.offered.append((op, due, status, job_id))
        ids = {job for _, _, _, job in stream.offered if job is not None}
        events.wait_for(ids, SERVER_DRAIN_S)
        with events.changed:
            stream.terminal = dict(events.terminal)
        last = max((stream.terminal[job][0] for job in ids
                    if job in stream.terminal), default=perf_counter())
        stream.window_s = last - start
        for job in sorted(ids):
            connection.request("GET", f"/v1/jobs/{job}")
            response = connection.getresponse()
            body = response.read()
            if response.status == 200:
                stream.documents[job] = json.loads(body)
    finally:
        connection.close()
        events.close()
    return stream


def judge(stream):
    """Latencies, failures and SLO misses of one stream.

    Returns ``(tally, slo_missed, references)`` where *references* lists
    sampled ``(kind, spec, text)`` of finished jobs.
    """
    tally = Tally()
    slo_missed = 0
    references = []
    for index, (op, due, status, job) in enumerate(stream.offered):
        if job is None:
            problem = ("rejected (503)" if status == 503
                       else f"POST answered {status}")
            tally.record(None, [f"{op['kind']} job {problem}"])
            slo_missed += 1
            continue
        if job not in stream.terminal:
            tally.record(None, [f"{job} did not finish within the drain"])
            slo_missed += 1
            continue
        received, _, event = stream.terminal[job]
        document = stream.documents.get(job, {})
        if event["status"] != "done":
            problems = [f"{job} {event['status']}: {document.get('error')}"]
        else:
            problems = checks.server_job(op["kind"], document.get("result"))
        latency = received - due
        tally.record(latency, problems)
        if problems or latency * 1000.0 > SLO_LIMIT_MS:
            slo_missed += 1
        if not problems and index % SERVER_REFERENCE_EVERY == 0:
            references.append(
                (op["kind"], op["spec"], document["result"]["text"])
            )
    return tally, slo_missed, references


def server_reference(kind, spec):
    """The in-process ``repro.workloads`` rendering of one job spec."""
    from repro import workloads

    if kind == "sweep":
        grid = workloads.run_fig_sweep(
            spec["figure"], spec["arrival_rate"], spec["servers_max"]
        )
        return workloads.fig_sweep_text(
            spec["figure"], spec["arrival_rate"], spec["servers_max"], grid
        )
    if kind == "policies":
        return workloads.policy_comparison_text(
            workloads.run_policy_comparison(arrival_rate=spec["arrival_rate"])
        )
    if kind == "cloud":
        report = workloads.run_cloud_comparison(
            arrival_rate=spec["arrival_rate"]
        )
        return workloads.cloud_comparison_text(
            report, spec["arrival_rate"], 0.9995
        )
    results = workloads.run_fault_campaigns(
        spec["scenario"], horizon=spec["horizon"],
        replications=spec["replications"], seed=spec["seed"],
    )
    text, _ = workloads.campaign_text(
        results, spec["scenario"], spec["horizon"], spec["replications"],
        spec["seed"],
    )
    return text


def server_problems(references):
    return [
        f"{kind} {spec}: server text differs from the in-process rendering"
        for kind, spec, text in references
        if server_reference(kind, spec) != text
    ]


def job_timings(stream):
    """Server-side phases from the job documents' wall-clock stamps."""
    waits, execs, notifies = [], [], []
    for job, (_, received_wall, event) in stream.terminal.items():
        if event.get("started") is None or event.get("finished") is None:
            continue
        waits.append((event["started"] - event["submitted"]) * 1000.0)
        execs.append((event["finished"] - event["started"]) * 1000.0)
        notifies.append((received_wall - event["finished"]) * 1000.0)
    return waits, execs, notifies


def serve(ops, boots=1):
    """Boot the server *boots* times, keep the last, and offer *ops*.

    Returns the stream and each boot's spawn-to-ready time.
    """
    ready = []
    server = None
    try:
        for _ in range(boots):
            if server is not None:
                server.stop()
            server = ServerProcess()
            ready.append(server.ready_s)
        stream = offer(server, ops)
        stream.server_kb = server.peak_kb()
    finally:
        if server is not None:
            server.stop()
    return stream, ready


def served_layers(stream, ready):
    """Per-layer values of the server's own layers, from one stream."""
    waits, execs, notifies = job_timings(stream)
    rejected = sum(status == 503 for _, _, status, _ in stream.offered)
    return {
        "setup.server_ready_s": statistics.median(ready),
        "http.submit_p50_ms": quantile(stream.submit_ms, 0.5),
        "admission.rejected": rejected,
        "admission.reject_share": rejected / len(stream.offered),
        "jobs.queue_wait_p50_ms": quantile(waits, 0.5),
        "jobs.queue_wait_p95_ms": quantile(waits, 0.95),
        "jobs.exec_p50_ms": quantile(execs, 0.5),
        "jobs.exec_p95_ms": quantile(execs, 0.95),
        "jobs.notify_p50_ms": quantile(notifies, 0.5),
        "loadgen.lateness_p95_ms": quantile(stream.lateness_s, 0.95) * 1e3,
        "loadgen.lateness_max_ms": max(stream.lateness_s) * 1e3,
    }


def served_pass(seed, seconds, outcome):
    """The server stream of a traced run: checked, and its layer values."""
    ops = plan.server_ops(seed, SERVER_RATE, seconds)
    stream, ready = serve(ops)
    tally, _, references = judge(stream)
    outcome.add(tally)
    outcome.wrong(server_problems(references))
    outcome.meta["served_digest"] = plan.digest(ops)
    return stream, ready


def server_workload(seed, seconds):
    """The untraced server workload; its layers are measured by the
    served pass of the traced ``analytic`` run."""
    ops = plan.server_ops(seed, SERVER_RATE, seconds)
    outcome = Outcome(ops)
    outcome.ran = ops
    outcome.meta["offered_rate"] = SERVER_RATE
    outcome.meta["slo_limit_ms"] = SLO_LIMIT_MS
    stream, ready = serve(ops, boots=SERVER_BOOTS)
    tally, slo_missed, references = judge(stream)
    outcome.add(tally)
    outcome.wrong(server_problems(references))
    outcome.metrics = end_to_end(
        statistics.median(ready), tally,
        len(tally.latencies_ms) / stream.window_s,
        peak_rss_mb(stream.server_kb), slo_missed,
    )
    return outcome


# -- entry point -------------------------------------------------------------

def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.workload == "server" and args.trace:
        parser.error("the server has no traced run; the traced analytic "
                     "run measures the server's layers")
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: {SRC / 'repro'} not found; run from a checkout of "
              "the repository", file=sys.stderr)
        return 2

    import compileall

    compileall.compile_dir(str(SRC), quiet=1)
    WORK.mkdir(exist_ok=True)
    sys.path.insert(0, str(SRC))
    if args.workload == "server":
        outcome = server_workload(args.seed, args.seconds)
    else:
        outcome = inprocess_workload(args.workload, args.seed, args.seconds,
                                     bool(args.trace))

    ran = outcome.ran
    meta = dict(outcome.meta)
    meta.update({
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine(),
        "ops_run": len(ran),
        "ops_digest": plan.digest(ran),
        "ops_mix": plan.mix(ran) if ran else {},
        "problems": outcome.problems[:10],
    })
    print(json.dumps({"meta": meta}, sort_keys=True))
    print(json.dumps({
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in outcome.metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
