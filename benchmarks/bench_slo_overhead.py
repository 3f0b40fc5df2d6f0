"""Streaming SLO-monitor overhead on the end-to-end DES hot path.

``repro.obs.slo`` hangs off the end-to-end simulator's observer hook:
every piecewise-constant availability segment becomes one
``observer.interval(...)`` call.  This bench measures what that costs on
the paper's own workload and turns it into a regression guard.

Three variants simulate an identical Travel Agency timeline (same model,
same seed, so the same trajectory event for event):

* **plain** — ``simulate_user_availability_over_time`` with no
  observer, the reference (its own ``observer is None`` check is part
  of the disabled-mode cost guarded by ``bench_obs_overhead.py``);
* **monitored** — the same run streaming into an
  :class:`~repro.obs.slo.SLOMonitor` (two sliding burn-rate windows,
  alert evaluation per segment): the **guarded** variant, held to
  <= 3% because a monitor that slows the simulation it watches would
  never be left on;
* **sampled** — monitored plus a :class:`~repro.obs.slo.PoissonSessionSampler`
  drawing Poisson/Binomial session counts per segment from its own rng:
  reported, never asserted — sampling cost is the price of wanting
  session-level confidence intervals, not a regression.

The statistic and interleaving come from :mod:`repro.obs.regression`
(minimum paired per-round ratio minus one; see that module).  The
guard asserts on every run, as in ``bench_obs_overhead.py``.  Each run
writes its measured record to ``benchmarks/artifacts/BENCH_slo.json``.
"""

import json
import time
from pathlib import Path

import numpy as np

from conftest import emit
from repro.obs.regression import time_variants
from repro.obs.slo import PoissonSessionSampler, SLOMonitor
from repro.reporting import format_table
from repro.sim import simulate_user_availability_over_time
from repro.ta import CLASS_A, TravelAgencyModel

HORIZON = 2000.0
SEED = 20030622  # DSN 2003; any fixed seed works, all variants share it
REPEATS = 10
GUARD_THRESHOLD = 0.03  # monitored-mode regression budget: 3%

MODEL = TravelAgencyModel().hierarchical_model
OBJECTIVE = MODEL.user_availability(CLASS_A).availability


def _one_run(make_observer):
    """Wall-clock seconds for one end-to-end run with the given observer."""
    observer = make_observer()
    rng = np.random.default_rng(SEED)
    started = time.perf_counter()
    result = simulate_user_availability_over_time(
        MODEL, CLASS_A, horizon=HORIZON, rng=rng, observer=observer
    )
    elapsed = time.perf_counter() - started
    assert result.horizon == HORIZON
    return elapsed


def _monitor():
    return SLOMonitor(objective=OBJECTIVE, windows=(50.0, 500.0))


def _sampler():
    return PoissonSessionSampler(
        _monitor(), rate=1.0, rng=np.random.default_rng(SEED + 1)
    )


def test_slo_monitor_overhead_within_budget(benchmark):
    variants = [
        ("plain", lambda: _one_run(lambda: None)),
        ("monitored", lambda: _one_run(_monitor)),
        ("sampled", lambda: _one_run(_sampler)),
    ]
    timing = benchmark.pedantic(
        lambda: time_variants(variants, repeats=REPEATS),
        rounds=1,
        warmup_rounds=1,
    )
    plain = timing.best["plain"]
    monitored = timing.best["monitored"]
    sampled = timing.best["sampled"]

    monitored_overhead = timing.overhead["monitored"]
    sampled_overhead = timing.overhead["sampled"]

    record = {
        "benchmark": "slo-overhead-endtoend",
        "horizon": HORIZON,
        "repeats": REPEATS,
        "seconds": {
            "plain": round(plain, 6),
            "monitored": round(monitored, 6),
            "sampled": round(sampled, 6),
        },
        # Guarded: minimum paired per-round ratio minus one (noise-robust
        # lower bound; can dip negative when a plain round was unlucky).
        "monitored_overhead": round(monitored_overhead, 4),
        "sampled_overhead": round(sampled_overhead, 4),
        # Informational: ratio of the best-of-REPEATS absolute times.
        "monitored_overhead_of_best": round(
            timing.overhead_of_best("monitored", "plain"), 4
        ),
        "sampled_overhead_of_best": round(
            timing.overhead_of_best("sampled", "plain"), 4
        ),
        "guard_threshold": GUARD_THRESHOLD,
    }
    out_dir = Path(__file__).parent / "artifacts"
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "BENCH_slo.json").write_text(
        json.dumps(record, indent=2) + "\n"
    )

    rows = [
        ["plain", f"{plain * 1e3:.2f}", "reference"],
        ["monitored", f"{monitored * 1e3:.2f}",
         f"{monitored / plain - 1.0:+.1%}"],
        ["sampled", f"{sampled * 1e3:.2f}",
         f"{sampled / plain - 1.0:+.1%}"],
    ]
    emit(format_table(
        ["observer", "ms/run", "overhead of best"],
        rows,
        title=(
            f"SLO monitor overhead — {HORIZON:g} h end-to-end run, "
            f"best of {REPEATS}"
        ),
    ))

    assert monitored_overhead <= GUARD_THRESHOLD, (
        f"SLO-monitor overhead {monitored_overhead:.1%} exceeds the "
        f"{GUARD_THRESHOLD:.0%} budget on the end-to-end hot path"
    )
