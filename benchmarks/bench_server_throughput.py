"""Server throughput — HTTP dispatch cost and the job-pipeline guard.

Boots a real :class:`repro.server.ReproServer` on an ephemeral port and
measures two things a regression would hide in:

* **dispatch** — ``GET /healthz`` round-trips (connect, parse, route,
  respond): the floor every endpoint pays;
* **job pipeline** — a ``hold=0`` probe submitted, queued, run on a
  worker thread, and polled to completion: the full admission → queue
  → ``asyncio.to_thread`` → journal-less finalization path.

The guarded statistic is ``dispatch_overhead``: the minimum paired
per-round ratio of one probe-job completion against one ``/healthz``
round-trip, minus one.  It asserts the job pipeline stays within a
generous multiple of raw dispatch — a runaway (a blocking call on the
event loop, an accidental extra poll interval, a lock on the job
table) shows up as an order-of-magnitude jump, while machine speed
cancels out of the ratio.  Absolute seconds and latency percentiles
are reported for humans, never judged.

Each run writes its measured record to
``benchmarks/artifacts/BENCH_server.json``.
"""

import json
import time
from pathlib import Path

import numpy as np

from conftest import emit
from repro.obs.regression import time_variants
from repro.reporting import format_table
from repro.server import ServerClient, ServerThread

REQUESTS = 150  # dispatch round-trips per timed round
JOBS = 15  # probe jobs per timed round
REPEATS = 5
GUARD_THRESHOLD = 40.0  # job pipeline <= 41x a /healthz round-trip


def _healthz_round(client: ServerClient) -> list:
    """Latencies (seconds) of REQUESTS sequential /healthz round-trips."""
    latencies = []
    for _ in range(REQUESTS):
        started = time.perf_counter()
        client.healthz()
        latencies.append(time.perf_counter() - started)
    return latencies


def _probe_round(client: ServerClient) -> list:
    """Latencies of JOBS submit-to-done probe pipelines."""
    latencies = []
    for _ in range(JOBS):
        started = time.perf_counter()
        job = client.submit_probe(hold=0.0)
        done = client.wait(job["id"], timeout=30.0, poll=0.002)
        latencies.append(time.perf_counter() - started)
        assert done["status"] == "done"
    return latencies


def test_server_dispatch_and_job_pipeline(benchmark):
    with ServerThread(slots=2, queue_limit=64) as handle:
        client = ServerClient(port=handle.port)
        client.healthz()  # warm the import path before timing
        healthz_latencies: list = []
        probe_latencies: list = []

        def healthz_variant():
            latencies = _healthz_round(client)
            healthz_latencies.extend(latencies)
            return sum(latencies) / len(latencies)

        def probe_variant():
            latencies = _probe_round(client)
            probe_latencies.extend(latencies)
            return sum(latencies) / len(latencies)

        # Each round reports the MEAN seconds per operation, so the two
        # variants are directly comparable per-unit despite different
        # batch sizes; rounds are interleaved so drift cancels.
        timing = benchmark.pedantic(
            lambda: time_variants(
                [
                    ("dispatch", healthz_variant),
                    ("job_pipeline", probe_variant),
                ],
                repeats=REPEATS,
            ),
            rounds=1,
            warmup_rounds=1,
        )

    dispatch = timing.best["dispatch"]
    pipeline = timing.best["job_pipeline"]
    overhead = timing.overhead["job_pipeline"]
    healthz_ms = np.asarray(healthz_latencies) * 1e3
    probe_ms = np.asarray(probe_latencies) * 1e3

    record = {
        "benchmark": "server-throughput",
        "requests_per_round": REQUESTS,
        "jobs_per_round": JOBS,
        "repeats": REPEATS,
        "seconds": {
            "dispatch": round(dispatch, 6),
            "job_pipeline": round(pipeline, 6),
        },
        "dispatch_rps": round(1.0 / dispatch, 1),
        "dispatch_p50_ms": round(float(np.percentile(healthz_ms, 50)), 3),
        "dispatch_p95_ms": round(float(np.percentile(healthz_ms, 95)), 3),
        "job_p50_ms": round(float(np.percentile(probe_ms, 50)), 3),
        "job_p95_ms": round(float(np.percentile(probe_ms, 95)), 3),
        # Guarded: minimum paired per-round (pipeline / dispatch) - 1.
        "dispatch_overhead": round(overhead, 4),
        "guard_threshold": GUARD_THRESHOLD,
    }
    out_dir = Path(__file__).parent / "artifacts"
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "BENCH_server.json").write_text(
        json.dumps(record, indent=2) + "\n"
    )

    emit(format_table(
        ["path", "mean ms", "p50 ms", "p95 ms"],
        [
            ["GET /healthz", f"{dispatch * 1e3:.3f}",
             f"{record['dispatch_p50_ms']:.3f}",
             f"{record['dispatch_p95_ms']:.3f}"],
            ["probe job (submit->done)", f"{pipeline * 1e3:.3f}",
             f"{record['job_p50_ms']:.3f}",
             f"{record['job_p95_ms']:.3f}"],
        ],
        title=(
            f"Server throughput — {record['dispatch_rps']:g} dispatch/s, "
            f"pipeline overhead {overhead:+.1f}x "
            f"(guard {GUARD_THRESHOLD:g}x)"
        ),
    ))

    assert overhead <= GUARD_THRESHOLD, (
        f"job pipeline is {overhead + 1.0:.1f}x a dispatch round-trip "
        f"(budget {GUARD_THRESHOLD + 1.0:g}x)"
    )
