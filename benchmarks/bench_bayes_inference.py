"""Bayesian-network inference speed — the variable-elimination guard.

``repro.bayes`` keeps two inference paths: exact variable elimination
(the production path behind every ``repro cloud`` cell) and full joint
enumeration (:meth:`~repro.bayes.BayesianNetwork.brute_force_probability`,
the independent test oracle).  Elimination only earns its complexity if
it is decisively faster on the networks the subsystem actually builds —
otherwise the oracle could *be* the implementation.

One round evaluates every distinct user-scenario service-set query of
the default three-zone :class:`~repro.bayes.CloudTravelAgency` (the
queries behind one ``repro cloud`` cell), through both paths.  The
guarded statistic is the minimum paired per-round ratio minus one
(:func:`~repro.obs.regression.paired_ratio_overhead`), asserted against
a *negative* threshold: variable elimination must stay at least twice
as fast as enumeration (``inference_overhead <= -0.5``).  Each run
writes its measured record to ``benchmarks/artifacts/BENCH_bayes.json``.

Both paths must also agree to 1e-9 on every query — a speed win at the
wrong answer is no win.

A network memoizes each distinct query, so every elimination round
builds a fresh network outside its timed region: the guard times
compiling and solving the queries, never a memo lookup.
"""

import json
import time
from pathlib import Path

from conftest import emit
from repro.bayes import CLOUD_CHAINS, CloudTravelAgency
from repro.obs.regression import time_variants
from repro.reporting import format_table
from repro.ta import CLASS_A, CLASS_B

REPEATS = 7
GUARD_THRESHOLD = -0.5  # elimination must stay >= 2x faster


def _scenario_queries(network):
    """The distinct all-up query sets behind one ``repro cloud`` cell."""
    queries = set()
    for user_class in (CLASS_A, CLASS_B):
        for scenario in user_class.scenarios:
            services = set()
            for function in sorted(scenario.functions):
                services.update(CLOUD_CHAINS[function].services)
            queries.add(tuple(sorted(services)))
    for services in queries:
        for service in services:
            network.node(service)
    return sorted(queries)


def test_variable_elimination_outpaces_enumeration(benchmark):
    agency = CloudTravelAgency()
    network = agency.network
    queries = _scenario_queries(network)
    assert len(network.nodes) <= 24  # enumeration stays usable as oracle

    def run_elimination():
        fresh = CloudTravelAgency().network
        started = time.perf_counter()
        values = [fresh.probability_all_up(q) for q in queries]
        elapsed = time.perf_counter() - started
        run_elimination.values = values
        return elapsed

    def run_enumeration():
        started = time.perf_counter()
        values = [
            network.brute_force_probability({name: True for name in q})
            for q in queries
        ]
        elapsed = time.perf_counter() - started
        run_enumeration.values = values
        return elapsed

    timing = benchmark.pedantic(
        lambda: time_variants(
            [
                ("enumeration", run_enumeration),
                ("elimination", run_elimination),
            ],
            repeats=REPEATS,
        ),
        rounds=1,
        warmup_rounds=1,
    )

    # Correctness first: the two paths agree on every query.
    for exact, oracle in zip(run_elimination.values, run_enumeration.values):
        assert abs(exact - oracle) <= 1e-9, (exact, oracle)

    enumeration = timing.best["enumeration"]
    elimination = timing.best["elimination"]
    overhead = timing.overhead["elimination"]

    record = {
        "benchmark": "bayes-inference-variable-elimination",
        "nodes": len(network.nodes),
        "queries": len(queries),
        "repeats": REPEATS,
        "seconds": {
            "enumeration": round(enumeration, 6),
            "elimination": round(elimination, 6),
        },
        # Guarded: minimum paired elimination/enumeration ratio minus
        # one.  Negative threshold = a required speedup; breaching
        # -0.5 means elimination fell under 2x faster.
        "inference_overhead": round(overhead, 4),
        "inference_overhead_of_best": round(
            elimination / enumeration - 1.0, 4
        ),
        "guard_threshold": GUARD_THRESHOLD,
    }
    out_dir = Path(__file__).parent / "artifacts"
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "BENCH_bayes.json").write_text(
        json.dumps(record, indent=2) + "\n"
    )

    per_query = 1e3 / len(queries)
    emit(format_table(
        ["path", "ms/query", "vs enumeration"],
        [
            ["enumeration", f"{enumeration * per_query:.3f}", "reference"],
            ["elimination", f"{elimination * per_query:.3f}",
             f"{elimination / enumeration - 1.0:+.1%}"],
        ],
        title=(
            f"Exact inference on the {len(network.nodes)}-node cloud "
            f"Travel Agency — {len(queries)} queries, best of {REPEATS}"
        ),
    ))

    # overhead = elimination / enumeration - 1 (minimum paired ratio).
    share = 1.0 + overhead
    required = 1.0 + GUARD_THRESHOLD
    assert overhead <= GUARD_THRESHOLD, (
        f"variable elimination takes {share * 100:.3g}% of enumeration's "
        f"time (×{1.0 / share:.1f} faster); the subsystem requires at most "
        f"{required * 100:.3g}% (at least ×{1.0 / required:.1f} faster)"
    )
