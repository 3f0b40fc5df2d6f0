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
            "repro.markov.solvers.steady_state_gth", broken_gth
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
            "repro.markov.solvers.steady_state_linear", broken_linear
        )
        monkeypatch.setattr(
            "repro.markov.solvers.steady_state_gth", broken_gth
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
            "repro.markov.solvers.steady_state_gth", sloppy_gth
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
            "repro.markov.solvers.steady_state_linear", broken
        )
        monkeypatch.setattr("repro.markov.solvers.steady_state_gth", broken)
        monkeypatch.setattr(
            "repro.markov.solvers.steady_state_power", broken_power
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
    def random_generator(rng, n, density):
        rates = rng.uniform(0.1, 2.0, (n, n)) * (rng.random((n, n)) < density)
        np.fill_diagonal(rates, 0.0)
        np.fill_diagonal(rates, -rates.sum(axis=1))
        return rates

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
