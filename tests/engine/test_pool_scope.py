"""Each thread holds one worker pool, and its engine batches borrow it.

The thread's first pool pass forks it at its engine's ``workers``; the
thread's later passes borrow it while it fits and the module bindings
its workers inherited are current.  Holding the pool must change
neither outputs nor fault tolerance, threads must not share one, and no
worker may outlive its thread, interpreter exit or a server's stop.
The autouse fixture in ``tests/conftest.py`` shuts the pools down after
every test, so each test here starts without one.
"""

import multiprocessing
import os
import subprocess
import sys
import textwrap
import threading
from pathlib import Path

import pytest

from repro import _validation, workloads
from repro.chaos import ChaosPlan
from repro.core.interaction import InteractionDiagram
from repro.engine import EvaluationEngine, executor, shutdown_pool
from repro.errors import CancelledError
from repro.resilience import (
    NullScenario,
    RecurrentOutage,
    campaign,
    run_campaign,
    run_campaigns,
)
from repro.runtime import CancellationToken
from repro.server import ServerClient, ServerThread
from repro.sim import endtoend
from repro.sim.endtoend import compile_simulation
from repro.ta import CLASS_A, CLASS_B, TravelAgencyModel

TA = TravelAgencyModel()
SCENARIOS = (
    NullScenario(),
    RecurrentOutage(
        frozenset({"lan-segment"}), episode_rate=0.02, mean_duration=5.0
    ),
)
GRID = dict(horizon=300.0, replications=3, seed=5)
SRC = Path(__file__).resolve().parents[2] / "src"


def _cube(x):
    """Module-level so process-pool workers can unpickle it."""
    return x ** 3


def _checked(x):
    """Reads a ``repro`` module binding at call time, in the worker."""
    return _validation.check_positive(x, "x")


@pytest.fixture
def pools(monkeypatch):
    """Record every pool the engine builds: its creating thread, the
    threads that submitted to it, and whether it was shut down."""
    built = []

    class CountingPool(executor.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.creator = threading.get_ident()
            self.submitters = set()
            self.shut_down = False
            built.append(self)

        def submit(self, *args, **kwargs):
            self.submitters.add(threading.get_ident())
            return super().submit(*args, **kwargs)

        def shutdown(self, *args, **kwargs):
            self.shut_down = True
            super().shutdown(*args, **kwargs)

    monkeypatch.setattr(executor, "ProcessPoolExecutor", CountingPool)
    return built


def _stopped(pools):
    """Shut the held pools down; every pool built is then shut down and
    no worker process is left."""
    shutdown_pool()
    return (
        all(pool.shut_down for pool in pools)
        and multiprocessing.active_children() == []
    )


class TestCampaignGridSharesOnePool:
    def test_two_by_two_grid_builds_one_pool(self, pools):
        grid = (TA.hierarchical_model, (CLASS_A, CLASS_B), SCENARIOS)
        parallel = run_campaigns(
            *grid, engine=EvaluationEngine(workers=2), **GRID
        )
        assert len(pools) == 1
        assert not pools[0].shut_down  # held for the next grid

        assert run_campaigns(
            *grid, engine=EvaluationEngine(workers=1), **GRID
        ) == parallel
        separate = [
            run_campaign(
                TA.hierarchical_model, user_class, scenario,
                horizon=GRID["horizon"], replications=GRID["replications"],
                seed=GRID["seed"] + 10_000 * c + 100 * s,
            )
            for c, user_class in enumerate((CLASS_A, CLASS_B))
            for s, scenario in enumerate(SCENARIOS)
        ]
        assert separate == parallel
        assert _stopped(pools)

    def test_two_fault_campaign_calls_build_one_pool(self, pools):
        args = dict(user_class="both", horizon=200.0, replications=4,
                    seed=11)
        first = workloads.run_fault_campaigns("null", workers=2, **args)
        second = workloads.run_fault_campaigns("lan-host", workers=2, **args)
        assert len(pools) == 1
        assert pools[0].creator == threading.get_ident()
        assert first == workloads.run_fault_campaigns(
            "null", workers=1, **args
        )
        assert second == workloads.run_fault_campaigns(
            "lan-host", workers=1, **args
        )
        assert _stopped(pools)

    def test_maps_borrow_the_held_pool(self, pools):
        items = [1.0, 2.0, 3.0]
        for _ in range(2):
            outputs = EvaluationEngine(workers=2).map(_cube, items).outputs
            assert outputs == (1.0, 8.0, 27.0)
        assert len(pools) == 1 and not pools[0].shut_down
        assert _stopped(pools)


class TestScopeRobustness:
    def test_worker_kill_gets_a_fresh_pool(self, pools, tmp_path):
        items = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
        reference = EvaluationEngine().map(_cube, items).outputs
        plan = ChaosPlan(state_dir=str(tmp_path / "state"), kill_tasks=(1,))
        survived = EvaluationEngine(workers=2, chaos=plan).map(_cube, items)
        assert survived.outputs == reference
        assert survived.respawns == 1
        # The broken pool was dropped; the respawn pass built another.
        assert len(pools) == 2 and pools[0].shut_down
        again = EvaluationEngine(workers=2).map(_cube, items)
        assert again.outputs == reference
        assert again.respawns == 0
        # The second map borrowed the respawn pass's live pool.
        assert len(pools) == 2 and not pools[-1].shut_down
        assert pools[-1].submitters
        assert _stopped(pools)

    def test_respawn_pool_serves_the_next_full_batch(self, pools, tmp_path):
        # However few tasks the respawn pass has left, it builds the
        # held pool at the engine's workers, so the next full batch
        # borrows it instead of starting a third pool.
        items = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
        reference = EvaluationEngine().map(_cube, items).outputs
        for repetition in range(20):
            pools.clear()
            plan = ChaosPlan(
                state_dir=str(tmp_path / f"state-{repetition}"),
                kill_tasks=(1,),
            )
            engine = EvaluationEngine(workers=2, chaos=plan)
            assert engine.map(_cube, items).outputs == reference
            full = EvaluationEngine(workers=2).map(_cube, items)
            assert full.outputs == reference
            assert len(pools) == 2, repetition
            assert _stopped(pools), repetition

    def test_pool_is_never_wider_than_the_engine(self, pools):
        items = [1.0, 2.0, 3.0, 4.0]
        for workers in (3, 2, 2):
            outputs = EvaluationEngine(workers=workers).map(_cube, items)
            assert outputs.outputs == (1.0, 8.0, 27.0, 64.0)
        # The 3-wide pool is replaced for the 2-worker engine, whose
        # second map borrows the 2-wide one.
        assert [pool._max_workers for pool in pools] == [3, 2]
        assert [pool.shut_down for pool in pools] == [True, False]
        assert _stopped(pools)

    def test_cancelled_grid_leaves_no_worker(self, pools):
        token = CancellationToken()

        def cancel_after_first(event):
            if event.completed >= 1:
                token.cancel("cancelled after one replication")

        with pytest.raises(CancelledError):
            run_campaigns(
                TA.hierarchical_model, (CLASS_A, CLASS_B), SCENARIOS,
                engine=EvaluationEngine(
                    workers=2, cancellation=token,
                    heartbeat=cancel_after_first,
                ),
                horizon=300.0, replications=4, seed=5,
            )
        # The grid started no pool of its own, and the held one still
        # serves the next batch.
        assert len(pools) == 1
        outputs = EvaluationEngine(workers=2).map(_cube, [1.0, 2.0]).outputs
        assert outputs == (1.0, 8.0)
        assert len(pools) == 1
        assert _stopped(pools)

    def test_threads_never_share_a_pool(self, pools, tmp_path):
        # Two threads map at once, each on a pool of its own.  A worker
        # killed in one thread's batch breaks only that thread's pool:
        # the other batch spends no respawn and keeps its pool.
        items = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
        reference = EvaluationEngine().map(_cube, items).outputs
        plan = ChaosPlan(state_dir=str(tmp_path / "state"), kill_tasks=(1,))
        engines = (
            EvaluationEngine(workers=2, chaos=plan),
            EvaluationEngine(workers=2, max_respawns=1),
        )
        start = threading.Barrier(2)
        results = {}
        errors = []

        def run(me):
            try:
                start.wait(timeout=60)
                results[me] = [engines[me].map(_cube, items)]
                start.wait(timeout=60)
                results[me].append(engines[me].map(_cube, items))
            except Exception as exc:  # surfaced in the main thread
                errors.append(exc)
                start.abort()

        threads = [threading.Thread(target=run, args=(me,)) for me in (0, 1)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
            assert not thread.is_alive()
        assert errors == []
        for me in (0, 1):
            assert [r.outputs for r in results[me]] == [reference] * 2
        assert [r.respawns for r in results[0]] == [1, 0]
        assert [r.respawns for r in results[1]] == [0, 0]
        # Three pools: one per thread, and the killed one's replacement,
        # each used by its own thread only.
        assert len(pools) == 3
        for pool in pools:
            assert pool.submitters == {pool.creator}
        assert {pool.creator for pool in pools} == {
            thread.ident for thread in threads
        }
        # A thread's pool goes with the thread.
        assert all(pool.shut_down for pool in pools)
        assert multiprocessing.active_children() == []


class TestStaleWorkers:
    def test_a_rebinding_reaches_the_workers(self, pools, monkeypatch):
        # Workers forked before a module-level function is rebound would
        # run the old one; the pool is forked anew instead.
        items = [1.0, 2.0]
        engine = EvaluationEngine(workers=2)
        check_positive = _validation.check_positive
        assert engine.map(_checked, items).outputs == (1.0, 2.0)
        monkeypatch.setattr(_validation, "check_positive",
                            lambda value, name: -value)
        assert engine.map(_checked, items).outputs == (-1.0, -2.0)
        assert engine.map(_checked, items).outputs == (-1.0, -2.0)
        assert len(pools) == 2 and pools[0].shut_down
        monkeypatch.setattr(_validation, "check_positive", check_positive)
        assert engine.map(_checked, items).outputs == (1.0, 2.0)
        assert len(pools) == 3
        assert _stopped(pools)

    def test_a_main_function_defined_after_the_first_batch(self):
        # The script defines a work function in __main__ after its
        # first pool batch; workers forked before would not find it.
        script = textwrap.dedent("""
            from repro.engine import EvaluationEngine

            def square(x):
                return x * x

            engine = EvaluationEngine(workers=2)
            result = engine.map(square, [1, 2, 3])
            print(result.outputs, result.respawns)

            def cube(x):
                return x ** 3

            result = engine.map(cube, [1, 2, 3])
            print(result.outputs, result.respawns)
        """)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(SRC), env.get("PYTHONPATH")])
        )
        done = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True,
            text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines() == ["(1, 4, 9) 0", "(1, 8, 27) 0"]


class TestNoWorkerOutlives:
    def test_interpreter_exit(self):
        script = textwrap.dedent("""
            import multiprocessing
            from repro import workloads

            workloads.run_fault_campaigns(
                "null", user_class="A", horizon=10.0, replications=2,
                seed=0, workers=2,
            )
            print(*sorted(p.pid for p in multiprocessing.active_children()))
        """)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(SRC), env.get("PYTHONPATH")])
        )
        done = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True,
            text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        pids = [int(pid) for pid in done.stdout.split()]
        assert len(pids) == 2
        for pid in pids:
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)

    def test_server_stop(self):
        with ServerThread(slots=1, queue_limit=4) as handle:
            client = ServerClient(port=handle.port)
            client.run("campaign", {
                "scenario": "null", "user_class": "A", "horizon": 50.0,
                "replications": 2, "workers": 2,
            })
            # The job's pool outlives the job ...
            assert multiprocessing.active_children() != []
        # ... but not the server.
        assert multiprocessing.active_children() == []


class TestCompileOnce:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_one_compile_per_cell_and_no_diagram_walk_per_query(
        self, workers, monkeypatch
    ):
        # A cell compiles its model once, in the parent; neither the
        # serial loop nor a pool worker compiles per replication.  A
        # diagram is validated once, when its function is added, and no
        # query (compile or eq.-(10) reference) validates it again.  The
        # counters live in shared memory so the forked workers' calls
        # count too.
        context = multiprocessing.get_context("fork")
        validations = context.Value("i", 0)
        compiles = context.Value("i", 0)

        def counting(counter, fn):
            def counted(*args, **kwargs):
                with counter.get_lock():
                    counter.value += 1
                return fn(*args, **kwargs)
            return counted

        monkeypatch.setattr(InteractionDiagram, "validate", counting(
            validations, InteractionDiagram.validate
        ))
        for module in (endtoend, campaign):
            monkeypatch.setattr(module, "compile_simulation", counting(
                compiles, compile_simulation
            ))

        def count(fn, *args):
            validations.value = 0
            fn(*args)
            return validations.value

        # One validation per diagram (Figs. 3-6), at model build.
        assert count(workloads.fault_campaign_setup, "null", "basic") == 4
        model, _ = workloads.fault_campaign_setup("null", "basic")
        for user_class in workloads.selected_classes("both"):
            assert count(compile_simulation, model, user_class) == 0
            assert count(model.user_availability, user_class) == 0

        total = count(
            lambda: workloads.run_fault_campaigns(
                "null", architecture="basic", user_class="both",
                horizon=1000.0, replications=4, seed=3, workers=workers,
            )
        )
        assert total == 4
        assert compiles.value == 2  # one per cell, both classes
