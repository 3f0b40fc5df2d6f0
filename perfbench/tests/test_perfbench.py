"""Self-test of the benchmark at tiny sizes.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
Every workload runs for one second, untraced and traced; the test
checks the result against the metric names and units declared in
``BENCHMARK.json``, and that corrupted outputs count as failures.
"""

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checks  # noqa: E402
import plan  # noqa: E402
import run  # noqa: E402

CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())

#: Per-layer metrics that a one-second run of each workload must move.
EXERCISED = {
    "campaign": ("sim.calls", "sim.transitions", "sim.busy_s",
                 "sim.transitions_per_s", "sim.share", "campaign.self_s",
                 "engine.tasks", "engine.compute_share", "setup.import_s",
                 "setup.model_s", "setup.pool_s", "trace.overhead"),
    "analytic": ("engine.tasks", "cache.lookups", "cache.hits",
                 "cache.hit_ratio", "webservice.calls", "webservice.busy_s",
                 "policies.busy_s", "bayes.busy_s", "render.busy_s",
                 "setup.import_s", "setup.model_s", "trace.overhead",
                 # the served pass: the server's own layers
                 "setup.server_ready_s", "http.submit_p50_ms",
                 "jobs.exec_p50_ms", "jobs.notify_p50_ms"),
}


def bench(*args):
    return subprocess.run(
        [sys.executable, str(BENCH / "run.py"), *args],
        capture_output=True, text=True, cwd=ROOT, timeout=600,
    )


@pytest.mark.parametrize("workload,trace", [
    (workload, trace) for workload in run.WORKLOADS for trace in (0, 1)
    if (workload, trace) != ("server", 1)
])
def test_every_named_metric_with_its_unit(workload, trace):
    proc = bench("--workload", workload, "--seed", "1", "--seconds", "1",
                 "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    meta = json.loads(lines[-2])["meta"]
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], meta["problems"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = CONTRACT["per_layer" if trace else "end_to_end"]
    expected = {metric["name"] for metric in declared}
    if workload == "server" and not trace:
        expected.add("slo_met_rate")  # the unguarded server's SLO figure
    assert set(result["metrics"]) == expected
    for metric in declared:
        reported = result["metrics"][metric["name"]]
        assert reported["unit"] == metric["unit"], metric["name"]
        assert isinstance(reported["value"], (int, float))
    if trace:
        for name in EXERCISED[workload]:
            assert result["metrics"][name]["value"] > 0, name
    else:
        for metric in declared:
            assert result["metrics"][metric["name"]]["value"] > 0
    machine = meta["machine"]
    assert machine["nproc"] >= 1
    for key in ("cpu_model", "python", "numpy", "scipy"):
        assert machine[key]
    assert meta["seed"] == 1 and len(meta["ops_digest"]) == 16


def test_server_has_no_traced_run():
    proc = bench("--workload", "server", "--seed", "1", "--seconds", "1",
                 "--trace", "1")
    assert proc.returncode == 2 and proc.stdout == ""


def test_corrupted_outputs_count_as_failures(monkeypatch):
    from repro import workloads
    from repro.ta import TravelAgencyModel

    runner = run.Runner("analytic")
    table8 = {"kind": "table8"}
    sweep = {"kind": "sweep", "figure": "11", "arrival_rate": 80.0,
             "servers_max": 3}
    assert runner.run(table8)[1] == [] and runner.run(sweep)[1] == []

    real_sweep = TravelAgencyModel.reservation_sweep
    monkeypatch.setattr(
        TravelAgencyModel, "reservation_sweep",
        lambda self, users, counts: [
            (n, a - 0.05) for n, a in real_sweep(self, users, counts)
        ],
    )
    monkeypatch.setattr(workloads, "fig_sweep_text", lambda *args: "")
    tally = run.Tally()
    for op in (table8, sweep):
        elapsed, problems, _ = runner.run(op)
        assert problems, op
        tally.record(elapsed, problems)
    monkeypatch.undo()

    tally.record(0.001, [])
    metrics = run.end_to_end(1.0, tally, 1.0, tally.failed, 1.0)
    assert (tally.attempted, tally.failed) == (3, 2)
    assert metrics["success_rate"][0] == pytest.approx(1 / 3)

    # A byte-identity reference that disagrees is a wrong output too.
    assert run.reference_problems("analytic", [(sweep, "corrupted")])
    assert run.server_problems(
        [("policies", {"arrival_rate": 80.0}, "corrupted")]
    )
    outcome = run.Outcome([sweep])
    outcome.wrong(["corrupted"])
    assert outcome.failed == 1


def test_checks_reject_out_of_range_availabilities():
    assert checks.probability(1.5, "x") and checks.probability(float("nan"),
                                                              "x")
    assert checks.server_job("cloud", {"text": "t", "best": {
        "mean_availability": -0.1}})
    assert checks.server_job("sweep", {"text": ""})
    assert checks.server_job("campaign", None)


def test_null_campaign_far_from_eq_10_is_wrong():
    from types import SimpleNamespace

    def null(mean):
        return SimpleNamespace(user_class="B", scenario="null",
                               mean_availability=mean, values=(mean,) * 4,
                               analytic_availability=0.8047)

    assert checks.campaigns([null(0.8221)], "text") == []
    assert checks.campaigns([null(0.70)], "text")


def test_seed_gives_inputs_and_held_out_seed_keeps_the_mix():
    """Same seed, same operations; the held-out seed changes the
    operations but not the mix shares over whole blocks."""
    for ops in (
        lambda seed: plan.take(plan.campaign_ops(seed), 120),
        lambda seed: plan.take(plan.analytic_ops(seed), 120),
        lambda seed: plan.server_ops(seed, run.SERVER_RATE, 20.0),
    ):
        built, again, held_out = ops(1), ops(1), ops(plan.HELD_OUT_SEED)
        assert plan.digest(built) == plan.digest(again)
        assert plan.digest(built) != plan.digest(held_out)
        assert plan.mix(built) == plan.mix(held_out)


def test_refuses_to_run_without_the_program():
    """Only BENCHMARK.json and the benchmark's files: exit non-zero."""
    run.WORK.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(dir=run.WORK))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "analytic",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            capture_output=True, text=True, cwd=bare, timeout=180,
        )
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0
    assert proc.stdout == ""
