"""Tests for repro.markov.solvers."""

import warnings

import numpy as np
import pytest

from repro.errors import NotIrreducibleError, SolverError, ValidationError
from repro.markov.solvers import (
    check_generator,
    steady_state,
    steady_state_gth,
    steady_state_linear,
    steady_state_power,
    strongly_connected_components,
)


def two_state_generator(lam=0.2, mu=1.0):
    return np.array([[-lam, lam], [mu, -mu]])


class TestCheckGenerator:
    def test_accepts_valid_generator(self):
        q = check_generator(two_state_generator())
        assert q.shape == (2, 2)

    def test_rejects_non_square(self):
        with pytest.raises(ValidationError, match="square"):
            check_generator(np.zeros((2, 3)))

    def test_rejects_negative_off_diagonal(self):
        with pytest.raises(ValidationError, match="negative off-diagonal"):
            check_generator(np.array([[0.5, -0.5], [1.0, -1.0]]))

    def test_rejects_nonzero_row_sums(self):
        with pytest.raises(ValidationError, match="sum to zero"):
            check_generator(np.array([[-1.0, 2.0], [1.0, -1.0]]))

    def test_accepts_all_absorbing(self):
        q = check_generator(np.zeros((3, 3)))
        assert np.all(q == 0.0)

    def test_rejects_nan_explicitly(self):
        # A NaN entry passes the sign and row-sum comparisons (every NaN
        # comparison is False), so without a dedicated finiteness check
        # it would only surface as a confusing solver failure later.
        q = np.array([[-1.0, 1.0], [np.nan, -1.0]])
        with pytest.raises(ValidationError, match="NaN"):
            check_generator(q)

    def test_rejects_inf_explicitly(self):
        q = np.array([[-np.inf, np.inf], [1.0, -1.0]])
        with pytest.raises(ValidationError, match="finite"):
            check_generator(q)


class TestGTH:
    def test_two_state_closed_form(self):
        lam, mu = 0.2, 1.0
        pi = steady_state_gth(two_state_generator(lam, mu))
        assert pi[0] == pytest.approx(mu / (lam + mu), abs=1e-14)
        assert pi[1] == pytest.approx(lam / (lam + mu), abs=1e-14)

    def test_single_state(self):
        pi = steady_state_gth(np.zeros((1, 1)))
        assert pi.tolist() == [1.0]

    def test_balance_and_normalization(self):
        rng = np.random.default_rng(3)
        n = 8
        q = rng.uniform(0.1, 2.0, size=(n, n))
        np.fill_diagonal(q, 0.0)
        np.fill_diagonal(q, -q.sum(axis=1))
        pi = steady_state_gth(q)
        assert pi.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.abs(pi @ q).max() < 1e-12
        assert np.all(pi >= 0)

    def test_stiff_generator_stays_positive(self):
        # Rates spanning nine orders of magnitude: the regime where naive
        # elimination loses positivity.
        q = np.array(
            [
                [-1e-9, 1e-9, 0.0],
                [1.0, -1.0 - 1e-9, 1e-9],
                [0.0, 1.0, -1.0],
            ]
        )
        pi = steady_state_gth(q)
        assert np.all(pi > 0)
        assert np.abs(pi @ q).max() < 1e-18

    def test_reducible_chain_rejected(self):
        q = np.array([[-1.0, 1.0], [0.0, 0.0]])  # absorbing second state
        with pytest.raises(NotIrreducibleError):
            steady_state_gth(q)

    def test_disconnected_chain_rejected(self):
        q = np.zeros((4, 4))
        q[0, 1] = q[1, 0] = 1.0
        q[2, 3] = q[3, 2] = 1.0
        np.fill_diagonal(q, -q.sum(axis=1))
        with pytest.raises(NotIrreducibleError):
            steady_state_gth(q)


class TestLinear:
    def test_matches_gth(self):
        rng = np.random.default_rng(11)
        n = 10
        q = rng.uniform(0.0, 1.0, size=(n, n))
        np.fill_diagonal(q, 0.0)
        np.fill_diagonal(q, -q.sum(axis=1))
        assert steady_state_linear(q) == pytest.approx(
            steady_state_gth(q), abs=1e-10
        )

    def test_sparse_path_matches_dense(self):
        q = two_state_generator()
        assert steady_state_linear(q, sparse=True) == pytest.approx(
            steady_state_linear(q, sparse=False), abs=1e-12
        )

    def test_reducible_chain_rejected(self):
        q = np.array([[-1.0, 1.0], [0.0, 0.0]])
        with pytest.raises(NotIrreducibleError):
            steady_state_linear(q)


class TestPower:
    def test_matches_direct_on_random_chain(self):
        rng = np.random.default_rng(5)
        p = rng.uniform(0.05, 1.0, size=(6, 6))
        p /= p.sum(axis=1, keepdims=True)
        pi, iterations = steady_state_power(p)
        assert iterations > 0
        direct = steady_state_gth(p - np.eye(6))
        assert pi == pytest.approx(direct, abs=1e-9)

    def test_periodic_chain_converges(self):
        # A two-cycle: plain power iteration oscillates; ours averages.
        p = np.array([[0.0, 1.0], [1.0, 0.0]])
        pi, _ = steady_state_power(p)
        assert pi == pytest.approx([0.5, 0.5], abs=1e-9)

    def test_iteration_cap(self):
        p = np.array([[0.5, 0.5], [0.5, 0.5]])
        with pytest.raises(SolverError):
            steady_state_power(p, tol=0.0, max_iterations=3)

    def test_rejects_non_square(self):
        with pytest.raises(ValidationError):
            steady_state_power(np.zeros((2, 3)))

    def test_rejects_rows_that_do_not_sum_to_one(self):
        # Rows summing to 0.7 and 1.0 used to yield a "stationary vector".
        with pytest.raises(ValidationError, match="row 0") as excinfo:
            steady_state_power(np.array([[0.5, 0.2], [0.5, 0.5]]))
        assert "\n" not in str(excinfo.value)

    def test_rejects_nan_at_once(self, monkeypatch):
        # A NaN entry used to run every iteration before failing to
        # converge; it is now rejected before the first one.
        monkeypatch.setattr(
            "repro.markov.solvers._power",
            lambda *args: pytest.fail("kernel ran on an invalid matrix"),
        )
        with pytest.raises(ValidationError, match="NaN") as excinfo:
            steady_state_power(np.array([[0.5, np.nan], [0.5, 0.5]]))
        assert "\n" not in str(excinfo.value)

    def test_rejects_negative_entries(self):
        with pytest.raises(ValidationError, match="non-negative"):
            steady_state_power(np.array([[1.5, -0.5], [0.5, 0.5]]))

    def test_rejects_empty_matrix(self):
        with pytest.raises(ValidationError, match="non-empty"):
            steady_state_power(np.zeros((0, 0)))

    def test_large_row_error_is_one_line(self):
        p = np.full((200, 200), 1.0 / 200)
        p[7, 3] = np.inf
        with pytest.raises(ValidationError) as excinfo:
            steady_state_power(p)
        assert "\n" not in str(excinfo.value)


class TestSteadyStateFallback:
    def test_healthy_generator_solves_silently(self):
        q = two_state_generator()
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # any fallback warning fails
            pi = steady_state(q)
        assert pi == pytest.approx(steady_state_gth(q), abs=1e-12)

    def test_falls_back_to_linear_with_warning(self, monkeypatch):
        q = two_state_generator()

        def broken_gth(generator):
            raise SolverError("synthetic GTH failure")

        monkeypatch.setattr(
            "repro.markov.solvers._gth", broken_gth
        )
        with pytest.warns(UserWarning, match="falling back to linear"):
            pi = steady_state(q)
        assert pi == pytest.approx([1.0 / 1.2, 0.2 / 1.2], abs=1e-12)

    def test_falls_back_to_power_iteration(self, monkeypatch):
        q = two_state_generator()

        def broken_linear(generator, sparse=None):
            raise SolverError("synthetic failure")

        def broken_gth(generator):
            raise SolverError("synthetic failure")

        monkeypatch.setattr(
            "repro.markov.solvers._linear", broken_linear
        )
        monkeypatch.setattr(
            "repro.markov.solvers._gth", broken_gth
        )
        with pytest.warns(UserWarning, match="falling back to power iteration"):
            pi = steady_state(q)
        assert pi == pytest.approx([1.0 / 1.2, 0.2 / 1.2], abs=1e-8)

    def test_rejects_inaccurate_solution(self, monkeypatch):
        q = two_state_generator()
        expected = np.array([1.0 / 1.2, 0.2 / 1.2])

        def sloppy_gth(generator):
            return np.array([0.9, 0.1])  # wrong: fails the residual check

        monkeypatch.setattr(
            "repro.markov.solvers._gth", sloppy_gth
        )
        with pytest.warns(UserWarning, match="residual"):
            pi = steady_state(q)
        assert pi == pytest.approx(expected, abs=1e-12)

    def test_all_strategies_failing_raises_solver_error(self, monkeypatch):
        q = two_state_generator()

        def broken(generator, sparse=None):
            raise SolverError("synthetic failure")

        def broken_power(p, tol=1e-12, max_iterations=200_000):
            raise SolverError("synthetic power failure")

        monkeypatch.setattr(
            "repro.markov.solvers._linear", broken
        )
        monkeypatch.setattr("repro.markov.solvers._gth", broken)
        monkeypatch.setattr(
            "repro.markov.solvers._power", broken_power
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with pytest.raises(
                SolverError, match="all steady-state strategies failed"
            ):
                steady_state(q)

    def test_reducible_chain_raises_immediately(self):
        q = np.array([[-1.0, 1.0], [0.0, 0.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no fallback warnings expected
            with pytest.raises(NotIrreducibleError):
                steady_state(q)

    def test_stiff_availability_generator(self):
        # The paper's regime: per-hour repairs against 1e-4/h failures
        # across several orders of magnitude.
        q = np.array(
            [
                [-1e-9, 1e-9, 0.0],
                [1.0, -1.0 - 1e-9, 1e-9],
                [0.0, 1.0, -1.0],
            ]
        )
        pi = steady_state(q)
        assert np.all(pi > 0)
        assert np.abs(pi @ q).max() / np.abs(q).max() < 1e-9

    def test_ctmc_auto_method_routes_through_robust_solver(self):
        from repro.markov import CTMC

        chain = CTMC.from_rates({("up", "down"): 0.2, ("down", "up"): 1.0})
        auto = chain.steady_state()
        gth = chain.steady_state(method="gth")
        assert auto["up"] == pytest.approx(gth["up"], abs=1e-12)


class TestValidatesOnce:
    """Each solve checks its generator once and its irreducibility once."""

    @pytest.fixture
    def calls(self, monkeypatch):
        from repro.markov import ctmc, dtmc, solvers

        counts = {"check_generator": 0, "_require_irreducible": 0}
        for name in counts:
            original = getattr(solvers, name)

            def spy(*args, _name=name, _original=original, **kwargs):
                counts[_name] += 1
                return _original(*args, **kwargs)

            for module in (solvers, ctmc, dtmc):
                monkeypatch.setattr(module, name, spy, raising=False)
        return counts

    @pytest.mark.parametrize(
        "solve", [steady_state, steady_state_gth, steady_state_linear]
    )
    def test_public_solve_checks_once(self, calls, solve):
        pi = solve(two_state_generator())
        assert pi == pytest.approx([1.0 / 1.2, 0.2 / 1.2], abs=1e-12)
        assert calls == {"check_generator": 1, "_require_irreducible": 1}

    @pytest.mark.parametrize("method", ["auto", "gth", "linear"])
    def test_ctmc_checks_its_generator_only_at_construction(self, calls, method):
        from repro.markov import CTMC

        chain = CTMC(["up", "down"], two_state_generator())
        assert calls == {"check_generator": 1, "_require_irreducible": 0}
        pi = chain.steady_state(method=method)
        assert pi["up"] == pytest.approx(1.0 / 1.2, abs=1e-12)
        assert calls == {"check_generator": 1, "_require_irreducible": 1}

    def test_dtmc_direct_solve_checks_irreducibility_only(self, calls):
        from repro.markov import DTMC

        chain = DTMC(["sunny", "rainy"], [[0.9, 0.1], [0.5, 0.5]])
        assert chain.stationary_distribution()["sunny"] == pytest.approx(
            5.0 / 6.0, abs=1e-12
        )
        assert calls == {"check_generator": 0, "_require_irreducible": 1}

    def test_ctmc_solves_are_the_public_solves_bit_for_bit(self):
        from repro.markov import CTMC

        rng = np.random.default_rng(18)
        for _ in range(50):
            n = int(rng.integers(1, 12))
            q = rng.uniform(0.1, 2.0, (n, n))
            np.fill_diagonal(q, 0.0)
            np.fill_diagonal(q, -q.sum(axis=1))
            chain = CTMC(range(n), q)
            for method, solve in (
                ("auto", steady_state),
                ("gth", steady_state_gth),
                ("linear", steady_state_linear),
            ):
                assert list(chain.steady_state(method).values()) == (
                    solve(q).tolist()
                )


class TestSCC:
    def test_identifies_components_in_topological_order(self):
        # 0 <-> 1 form a transient class draining into absorbing 2.
        adjacency = np.array(
            [[0, 1, 0], [1, 0, 1], [0, 0, 0]], dtype=float
        )
        components = strongly_connected_components(adjacency)
        assert sorted(components[0]) == [0, 1]
        assert components[-1] == [2]

    def test_single_component(self):
        adjacency = np.array([[0, 1], [1, 0]], dtype=float)
        assert len(strongly_connected_components(adjacency)) == 1


class TestIrreducibilityCheck:
    """The reachability sweep decides exactly what the component pass does."""

    @staticmethod
    def random_generator(rng, n, density, absorbing=()):
        """A random generator whose *absorbing* states have no exits."""
        rates = rng.uniform(0.1, 2.0, (n, n)) * (rng.random((n, n)) < density)
        rates[list(absorbing)] = 0.0
        np.fill_diagonal(rates, 0.0)
        np.fill_diagonal(rates, -rates.sum(axis=1))
        return rates

    @staticmethod
    def closure(edges):
        """Reference reachability: ``reach[i, j]`` iff i reaches j (Warshall)."""
        reach = np.asarray(edges) != 0
        np.fill_diagonal(reach, True)
        for k in range(reach.shape[0]):
            reach |= reach[:, k:k + 1] & reach[k:k + 1, :]
        return reach

    def random_absorbing_chains(self, seed, count):
        rng = np.random.default_rng(seed)
        for _ in range(count):
            n = int(rng.integers(1, 11))
            k = int(rng.integers(0, min(n, 3) + 1))
            absorbing = rng.choice(n, size=k, replace=False).tolist()
            q = self.random_generator(
                rng, n, rng.uniform(0.05, 0.6), absorbing
            )
            # Sparse rows can leave further states without exits.
            yield q, np.flatnonzero(np.diag(q) == 0.0).tolist()

    def test_agrees_with_the_components_on_random_chains(self):
        from repro.markov.solvers import _require_irreducible

        rng = np.random.default_rng(16)
        verdicts = set()
        for _ in range(400):
            n = int(rng.integers(1, 13))
            q = self.random_generator(rng, n, rng.uniform(0.05, 0.6))
            off = q.copy()
            np.fill_diagonal(off, 0.0)
            components = strongly_connected_components(off)
            try:
                _require_irreducible(q)
                verdict = True
            except NotIrreducibleError as exc:
                verdict = False
                assert exc.problem_states == tuple(
                    s for comp in components[:-1] for s in comp
                )
            assert verdict == (len(components) == 1)
            verdicts.add(verdict)
        assert verdicts == {True, False}

    def test_a_state_that_cannot_return_is_reducible(self):
        # 0 reaches every state, but 2 is absorbing.
        q = np.array([[-2.0, 1.0, 1.0], [1.0, -1.0, 0.0], [0.0, 0.0, 0.0]])
        with pytest.raises(NotIrreducibleError) as excinfo:
            steady_state(q)
        assert excinfo.value.problem_states == (0, 1)

    def test_components_run_only_on_the_failure_path(self, monkeypatch):
        monkeypatch.setattr(
            "repro.markov.solvers.strongly_connected_components",
            lambda adjacency: pytest.fail("component pass on a good chain"),
        )
        pi = steady_state(two_state_generator(0.2, 1.0))
        assert pi == pytest.approx([1.0 / 1.2, 0.2 / 1.2])

    def test_is_absorbing_chain_matches_the_closure(self):
        from repro.markov import CTMC

        verdicts = set()
        for q, absorbing in self.random_absorbing_chains(seed=180, count=400):
            chain = CTMC(range(q.shape[0]), q).embedded_dtmc()
            reach = self.closure(q > 0)
            expected = bool(absorbing) and bool(
                reach[:, absorbing].any(axis=1).all()
            )
            assert chain.is_absorbing_chain() == expected
            verdicts.add(expected)
        assert verdicts == {True, False}

    def test_mean_time_to_absorption_restricts_to_the_reachable_set(self):
        from repro.errors import ModelStructureError
        from repro.markov import CTMC

        outcomes = set()
        for q, absorbing in self.random_absorbing_chains(seed=181, count=300):
            if not absorbing:
                continue
            n = q.shape[0]
            chain = CTMC(range(n), q)
            reach = self.closure(q > 0)
            for start in range(n):
                if start in absorbing:
                    assert chain.mean_time_to_absorption(start) == 0.0
                    continue
                region = [
                    s for s in range(n)
                    if reach[start, s] and s not in absorbing
                ]
                if not all(reach[s, absorbing].any() for s in region):
                    with pytest.raises(ModelStructureError, match="infinite"):
                        chain.mean_time_to_absorption(start)
                    outcomes.add("infinite")
                    continue
                # Expected times on the reachable transient block:
                # -Q_RR tau = 1.
                block = q[np.ix_(region, region)]
                tau = np.linalg.solve(-block, np.ones(len(region)))
                assert chain.mean_time_to_absorption(start) == pytest.approx(
                    tau[region.index(start)], rel=1e-9
                )
                outcomes.add("finite")
        assert outcomes == {"finite", "infinite"}
