"""A pool scope shares one worker pool among the batches run inside it.

``run_campaigns`` opens one around its grid, so every cell borrows the
same ``ProcessPoolExecutor``.  Sharing the pool must change neither
outputs nor fault tolerance, and must never leave a worker behind.
"""

import multiprocessing
import threading

import pytest

from repro.chaos import ChaosPlan
from repro.engine import EvaluationEngine, pool_scope
from repro.engine import executor
from repro.errors import CancelledError
from repro.resilience import (
    NullScenario,
    RecurrentOutage,
    run_campaign,
    run_campaigns,
)
from repro.runtime import CancellationToken
from repro.ta import CLASS_A, CLASS_B, TravelAgencyModel

TA = TravelAgencyModel()
SCENARIOS = (
    NullScenario(),
    RecurrentOutage(
        frozenset({"lan-segment"}), episode_rate=0.02, mean_duration=5.0
    ),
)
GRID = dict(horizon=300.0, replications=3, seed=5)


def _cube(x):
    """Module-level so process-pool workers can unpickle it."""
    return x ** 3


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


class TestCampaignGridSharesOnePool:
    def test_two_by_two_grid_builds_one_pool(self, pools):
        grid = (TA.hierarchical_model, (CLASS_A, CLASS_B), SCENARIOS)
        parallel = run_campaigns(*grid, workers=2, **GRID)
        assert len(pools) == 1
        assert pools[0].shut_down
        assert multiprocessing.active_children() == []

        assert run_campaigns(*grid, workers=1, **GRID) == parallel
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

    def test_map_outside_a_scope_owns_its_pool(self, pools):
        items = [1.0, 2.0, 3.0]
        engine = EvaluationEngine(workers=2)
        for _ in range(2):
            assert engine.map(_cube, items).outputs == (1.0, 8.0, 27.0)
        assert len(pools) == 2
        assert all(pool.shut_down for pool in pools)
        assert multiprocessing.active_children() == []


class TestScopeRobustness:
    def test_worker_kill_gets_a_fresh_pool(self, pools, tmp_path):
        items = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
        reference = EvaluationEngine().map(_cube, items).outputs
        plan = ChaosPlan(state_dir=str(tmp_path / "state"), kill_tasks=(1,))
        with pool_scope():
            survived = EvaluationEngine(workers=2, chaos=plan).map(
                _cube, items
            )
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
        assert all(pool.shut_down for pool in pools)
        assert multiprocessing.active_children() == []

    def test_respawn_pool_serves_the_next_full_batch(self, pools, tmp_path):
        # However few tasks the respawn pass has left, the scope builds
        # its pool at the engine's workers, so the next full batch
        # borrows it instead of starting a third pool.
        items = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
        reference = EvaluationEngine().map(_cube, items).outputs
        for repetition in range(20):
            pools.clear()
            plan = ChaosPlan(
                state_dir=str(tmp_path / f"state-{repetition}"),
                kill_tasks=(1,),
            )
            with pool_scope():
                engine = EvaluationEngine(workers=2, chaos=plan)
                assert engine.map(_cube, items).outputs == reference
                full = EvaluationEngine(workers=2).map(_cube, items)
                assert full.outputs == reference
            assert len(pools) == 2, repetition
            assert all(pool.shut_down for pool in pools)
        assert multiprocessing.active_children() == []

    def test_pool_is_never_wider_than_the_engine(self, pools):
        items = [1.0, 2.0, 3.0, 4.0]
        with pool_scope():
            for workers in (3, 2, 2):
                outputs = EvaluationEngine(workers=workers).map(_cube, items)
                assert outputs.outputs == (1.0, 8.0, 27.0, 64.0)
            # The 3-wide pool is replaced for the 2-worker engine, whose
            # second map borrows the 2-wide one.
            assert [pool._max_workers for pool in pools] == [3, 2]
        assert multiprocessing.active_children() == []

    def test_cancelled_grid_leaves_no_worker(self, pools):
        token = CancellationToken()

        def cancel_after_first(event):
            if event.completed >= 1:
                token.cancel("cancelled after one replication")

        with pytest.raises(CancelledError):
            run_campaigns(
                TA.hierarchical_model, (CLASS_A, CLASS_B), SCENARIOS,
                workers=2, cancellation=token, heartbeat=cancel_after_first,
                horizon=300.0, replications=4, seed=5,
            )
        assert len(pools) == 1 and pools[0].shut_down
        assert multiprocessing.active_children() == []

    def test_threads_never_share_a_pool(self, pools):
        items = [1.0, 2.0, 3.0]
        opened = [threading.Event(), threading.Event()]
        outputs = {}
        errors = []

        def run(me):
            try:
                with pool_scope():
                    engine = EvaluationEngine(workers=2)
                    outputs[me] = [engine.map(_cube, items).outputs]
                    opened[me].set()
                    # Both scopes hold a pool before either runs again.
                    assert opened[1 - me].wait(timeout=60)
                    outputs[me].append(engine.map(_cube, items).outputs)
            except Exception as exc:  # surfaced in the main thread
                errors.append(exc)
                opened[me].set()

        threads = [threading.Thread(target=run, args=(me,)) for me in (0, 1)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
            assert not thread.is_alive()
        assert errors == []
        for me in (0, 1):
            assert outputs[me] == [(1.0, 8.0, 27.0)] * 2
        # One pool per thread, used by its own thread only.
        assert len(pools) == 2
        for pool in pools:
            assert pool.submitters == {pool.creator}
            assert pool.shut_down
        assert {pool.creator for pool in pools} == {
            thread.ident for thread in threads
        }
        assert multiprocessing.active_children() == []
