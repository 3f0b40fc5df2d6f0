"""Engine scaling — the Fig. 11 sweep, serial vs parallel vs cached.

Runs the full Fig. 11 grid (3 failure-rate curves x 10 farm sizes, all
three arrival rates = 90 cells) through the batch evaluation engine with
1, 2 and 4 workers, asserting that every configuration reproduces the
serial reference *bit for bit* — the engine's core contract.  A second
pass re-runs the sweep against a warm memo cache and asserts that no
cell is recomputed.

Wall-clock numbers land in ``benchmarks/artifacts/BENCH_engine.json``
(with the core count) and the emitted table.  Speedup is
machine-dependent — a single-core container measured 0.06x at
``workers=2`` — so only equality, cache behaviour and the outputs
digest are asserted here.
"""

import hashlib
import json
import os
import time
from pathlib import Path

from conftest import emit
from repro.availability import WebServiceModel
from repro.engine import EvaluationEngine, canonical_key
from repro.reporting import format_table
from repro.sensitivity import grid_sweep

SERVER_RANGE = tuple(range(1, 11))
FAILURE_RATES = (1e-2, 1e-3, 1e-4)
ARRIVAL_RATES = (50.0, 100.0, 150.0)
WORKER_COUNTS = (1, 2, 4)

# sha256 of repr(outputs) for the 90-cell grid: guards against silent
# numeric drift in the web-service model on any machine.
OUTPUTS_SHA256 = (
    "95a27ad3cefa8de05ca6b8e25d02f9eea0f859b6267660900ff614cb7a519923"
)


def unavailability(spec):
    """One grid cell; module-level so worker processes can unpickle it."""
    arrival_rate, failure_rate, servers = spec
    return WebServiceModel(
        servers=int(servers),
        arrival_rate=arrival_rate,
        service_rate=100.0,
        buffer_capacity=10,
        failure_rate=failure_rate,
        repair_rate=1.0,
    ).unavailability()


def _cells():
    return [
        (alpha, lam, nw)
        for alpha in ARRIVAL_RATES
        for lam in FAILURE_RATES
        for nw in SERVER_RANGE
    ]


def _keys(cells):
    return [
        canonical_key(
            "webservice-unavailability",
            arrival_rate=alpha, failure_rate=lam, servers=nw,
            service_rate=100.0, buffer_capacity=10, repair_rate=1.0,
        )
        for alpha, lam, nw in cells
    ]


def _run(workers, cache=False):
    engine = EvaluationEngine(workers=workers)
    cells = _cells()
    keys = _keys(cells) if cache else None
    started = time.perf_counter()
    batch = engine.map(unavailability, cells, keys=keys)
    elapsed = time.perf_counter() - started
    if cache:
        rerun_started = time.perf_counter()
        rerun = engine.map(unavailability, cells, keys=keys)
        rerun_elapsed = time.perf_counter() - rerun_started
        return batch, elapsed, rerun, rerun_elapsed
    return batch, elapsed


def test_engine_scaling_bit_identical_across_workers(benchmark):
    reference, _ = benchmark.pedantic(
        lambda: _run(1), rounds=3, warmup_rounds=1
    )

    timings = {}
    for workers in WORKER_COUNTS:
        batch, elapsed = _run(workers)
        # Bit-identity, the assertion the whole engine design serves:
        # float tuple equality, no tolerances.
        assert batch.outputs == reference.outputs
        timings[workers] = elapsed

    _, cold_elapsed, warm, warm_elapsed = _run(1, cache=True)
    assert warm.outputs == reference.outputs
    assert warm.executed == 0                      # no solver calls
    assert warm.cache_stats.hit_rate == 1.0

    digest = hashlib.sha256(
        repr(reference.outputs).encode("ascii")
    ).hexdigest()
    record = {
        "benchmark": "engine-scaling-fig11",
        "cells": len(reference.outputs),
        "grid": {
            "arrival_rates": list(ARRIVAL_RATES),
            "failure_rates": list(FAILURE_RATES),
            "servers": [SERVER_RANGE[0], SERVER_RANGE[-1]],
        },
        "seconds": {str(w): round(timings[w], 4) for w in WORKER_COUNTS},
        "speedup": {
            str(w): round(timings[1] / timings[w], 2)
            for w in WORKER_COUNTS
        },
        "warm_cache_seconds": round(warm_elapsed, 4),
        "warm_cache_hit_rate": warm.cache_stats.hit_rate,
        "bit_identical": True,
        "outputs_sha256": digest,
        "nproc": os.cpu_count(),
    }
    BENCH_OUT = Path(__file__).parent / "artifacts"
    BENCH_OUT.mkdir(parents=True, exist_ok=True)
    (BENCH_OUT / "BENCH_engine.json").write_text(
        json.dumps(record, indent=2) + "\n"
    )

    rows = [
        [f"{w} worker(s)", f"{timings[w]:.3f}",
         f"{timings[1] / timings[w]:.2f}x", "yes"]
        for w in WORKER_COUNTS
    ]
    rows.append([
        "warm cache", f"{warm_elapsed:.3f}",
        f"{cold_elapsed / warm_elapsed:.2f}x" if warm_elapsed else "inf",
        "yes",
    ])
    emit(format_table(
        ["backend", "seconds", "speedup", "bit-identical"],
        rows,
        title=f"Engine scaling — Fig. 11 grid, {len(reference.outputs)} cells",
    ))

    assert digest == OUTPUTS_SHA256
