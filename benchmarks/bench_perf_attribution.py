"""Performance attribution — the disabled-mode guard and the coverage claim.

:mod:`repro.obs.perf` makes two promises this bench turns into numbers:

1. **Pay-for-use.**  :class:`~repro.sim.Simulator` binds its step at
   construction: a run with neither a registry nor a
   :class:`~repro.obs.PerfRecorder` active executes the untouched
   ``_step_fast``, and any instrumentation binds the one
   ``_step_observed`` (one clock pair per event, shared by metrics and
   kernel accounting).  The bench measures the real disabled kernel
   against a bare pre-instrumentation replica (imported from
   ``bench_obs_overhead``) and guards the paired-ratio overhead at
   ``<= 3%`` when ``REPRO_OBS_GUARD`` is set.  The ``profiled``
   variant times ``_step_observed`` under a recorder; it is reported,
   never asserted.

2. **Coverage.**  An :class:`~repro.obs.AttributionReport` decomposes a
   batch's capacity (``slots x elapsed``) into compute, serialization,
   IPC, idle, and cache — and the five buckets must account for
   ``>= 95%`` of measured wall-time.  The bench runs the Fig. 11 grid
   through the engine serially and with ``workers=2`` (the
   configuration whose 0.06x "speedup" in ``BENCH_engine.json``
   motivated attribution in the first place) and asserts coverage on
   both, recording the parallel run's bucket shares — the numeric
   explanation of where the speedup went.

Results land in ``benchmarks/artifacts/BENCH_perf.json``; the committed
``benchmarks/BENCH_perf.json`` is the CI baseline ``repro diff`` gates
against.
"""

import json
import os
import time
from pathlib import Path

from bench_obs_overhead import BareKernel, _one_run
from conftest import emit
from repro.availability import WebServiceModel
from repro.engine import EvaluationEngine
from repro.obs import PerfRecorder
from repro.obs.regression import time_variants
from repro.reporting import format_table
from repro.sim import Simulator

EVENTS = 30_000
REPEATS = 15
GUARD_THRESHOLD = 0.03  # disabled-mode regression budget: 3%
COVERAGE_FLOOR = 0.95   # the attribution buckets must explain >= 95%

SERVER_RANGE = tuple(range(1, 11))
FAILURE_RATES = (1e-2, 1e-3, 1e-4)
ARRIVAL_RATES = (50.0, 100.0, 150.0)

BASELINE = Path(__file__).parent / "BENCH_perf.json"


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


def _attributed_run(workers):
    """Run the grid under a fresh recorder; returns (report, outputs)."""
    recorder = PerfRecorder()
    engine = EvaluationEngine(workers=workers, perf=recorder)
    batch = engine.map(unavailability, _cells(), phase="fig11-grid")
    assert len(recorder.batches) == 1
    return recorder.batches[0], list(batch.outputs)


def test_perf_attribution_overhead_and_coverage(benchmark):
    # -- 1. pay-for-use: the guarded disabled-mode statistic ------------
    def _profiled_sim():
        # A fresh recorder per run keeps sample dictionaries small and
        # runs comparable.
        return Simulator(perf=PerfRecorder(kernel_interval=1000))

    variants = [
        ("bare", lambda: _one_run(BareKernel)),
        ("disabled", lambda: _one_run(Simulator)),
        ("profiled", lambda: _one_run(_profiled_sim)),
    ]
    timing = benchmark.pedantic(
        lambda: time_variants(variants, repeats=REPEATS),
        rounds=1,
        warmup_rounds=1,
    )
    bare = timing.best["bare"]
    disabled = timing.best["disabled"]
    profiled = timing.best["profiled"]
    disabled_overhead = timing.overhead["disabled"]
    profiled_overhead = timing.overhead["profiled"]

    # -- 2. coverage: the attribution identity on real engine runs ------
    started = time.perf_counter()
    serial_report, serial_outputs = _attributed_run(workers=1)
    serial_seconds = time.perf_counter() - started
    started = time.perf_counter()
    parallel_report, parallel_outputs = _attributed_run(workers=2)
    parallel_seconds = time.perf_counter() - started

    # Attribution never touches results: parallel == serial, bit for bit.
    assert parallel_outputs == serial_outputs
    assert serial_report.coverage >= COVERAGE_FLOOR
    assert parallel_report.coverage >= COVERAGE_FLOOR

    record = {
        "benchmark": "perf-attribution",
        "events": EVENTS,
        "repeats": REPEATS,
        "seconds": {
            "bare": round(bare, 6),
            "disabled": round(disabled, 6),
            "profiled": round(profiled, 6),
            "grid_serial": round(serial_seconds, 6),
            "grid_workers2": round(parallel_seconds, 6),
        },
        # Guarded: minimum paired per-round ratio minus one (see
        # repro.obs.regression.paired_ratio_overhead).
        "disabled_overhead": round(disabled_overhead, 4),
        # Informational: the price of asking for attribution.
        "profiled_overhead": round(profiled_overhead, 4),
        "cells": len(_cells()),
        "attribution_coverage_serial": round(serial_report.coverage, 4),
        "attribution_coverage_workers2": round(parallel_report.coverage, 4),
        "parallel_efficiency_workers2": round(
            parallel_report.parallel_efficiency, 4
        ),
        "compute_share_workers2": round(parallel_report.share("compute"), 4),
        "ipc_share_workers2": round(parallel_report.share("ipc"), 4),
        "idle_share_workers2": round(parallel_report.share("idle"), 4),
        "guard_threshold": GUARD_THRESHOLD,
        # Only the disabled-mode statistic is a regression; everything
        # else (including the machine-dependent shares) is evidence.
        "guarded": ["disabled_overhead"],
        "guard_enforced": bool(os.environ.get("REPRO_OBS_GUARD")),
        "nproc": os.cpu_count(),
    }
    out_dir = Path(__file__).parent / "artifacts"
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "BENCH_perf.json").write_text(
        json.dumps(record, indent=2) + "\n"
    )

    rows = [
        ["bare loop", f"{bare * 1e6 / EVENTS:.3f}", "reference"],
        ["disabled", f"{disabled * 1e6 / EVENTS:.3f}",
         f"{disabled / bare - 1.0:+.1%}"],
        ["profiled", f"{profiled * 1e6 / EVENTS:.3f}",
         f"{profiled / bare - 1.0:+.1%}"],
    ]
    emit(format_table(
        ["mode", "us/event", "overhead of best"],
        rows,
        title=(
            f"Perf-attribution overhead — {EVENTS} DES events, "
            f"best of {REPEATS}"
        ),
    ))
    for label, report in (
        ("serial", serial_report), ("workers=2", parallel_report)
    ):
        emit(format_table(
            ["bucket", "seconds", "share"],
            [
                [name, f"{getattr(report, name):.6f}",
                 f"{report.share(name):.1%}"]
                for name in ("compute", "serialization", "ipc", "idle",
                             "cache")
            ],
            title=(
                f"Fig. 11 grid attribution ({label}) — coverage "
                f"{report.coverage:.1%}"
            ),
        ))

    if BASELINE.exists():
        baseline = json.loads(BASELINE.read_text())
        assert baseline["benchmark"] == record["benchmark"]
        assert baseline["guard_threshold"] == GUARD_THRESHOLD

    if os.environ.get("REPRO_OBS_GUARD"):
        assert disabled_overhead <= GUARD_THRESHOLD, (
            f"disabled-mode perf-attribution overhead "
            f"{disabled_overhead:.1%} exceeds the "
            f"{GUARD_THRESHOLD:.0%} budget"
        )
