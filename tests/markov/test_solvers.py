"""Tests for the stationary-distribution solvers."""

import numpy as np
import pytest
from scipy import sparse

from repro.exceptions import AnalysisError
from repro.markov import steady_state


def two_state_generator(failure_rate=0.01, repair_rate=1.0):
    return np.array(
        [[-failure_rate, failure_rate], [repair_rate, -repair_rate]], dtype=float
    )


def random_generator(n, seed):
    rng = np.random.default_rng(seed)
    rates = rng.uniform(0.1, 2.0, size=(n, n))
    np.fill_diagonal(rates, 0.0)
    q = rates.copy()
    np.fill_diagonal(q, -rates.sum(axis=1))
    return q


ALL_METHODS = ["direct", "gth"]


class TestSteadyState:
    @pytest.mark.parametrize("method", ALL_METHODS + ["auto"])
    def test_two_state_chain(self, method):
        pi = steady_state(two_state_generator(0.01, 1.0), method=method)
        assert pi[0] == pytest.approx(1.0 / 1.01, rel=1e-8)
        assert pi.sum() == pytest.approx(1.0)

    @pytest.mark.parametrize("method", ALL_METHODS)
    def test_methods_agree_on_random_chain(self, method):
        q = random_generator(12, seed=7)
        reference = steady_state(q, method="gth")
        candidate = steady_state(q, method=method, tolerance=1e-13)
        assert np.allclose(candidate, reference, atol=1e-7)

    def test_sparse_input_accepted(self):
        q = sparse.csr_matrix(two_state_generator())
        pi = steady_state(q)
        assert pi.shape == (2,)

    def test_single_state_chain(self):
        assert steady_state(np.zeros((1, 1)))[0] == 1.0

    def test_empty_chain_rejected(self):
        with pytest.raises(AnalysisError):
            steady_state(np.zeros((0, 0)))

    def test_unknown_method_rejected(self):
        with pytest.raises(AnalysisError):
            steady_state(two_state_generator(), method="mystery")

    @pytest.mark.parametrize("method", ALL_METHODS)
    def test_birth_death_chain_matches_closed_form(self, method):
        # M/M/1-like chain truncated at 3 customers, lambda=1, mu=2.
        q = np.zeros((4, 4))
        for n in range(3):
            q[n, n + 1] = 1.0
            q[n + 1, n] = 2.0
        np.fill_diagonal(q, -q.sum(axis=1))
        rho = 0.5
        expected = rho ** np.arange(4) / sum(rho**n for n in range(4))
        np.testing.assert_allclose(steady_state(q, method=method), expected, rtol=1e-9)

    @pytest.mark.parametrize("method", ALL_METHODS)
    def test_stiff_disaster_chain(self, method):
        # Disaster every 100 years (876,000 h) against a one-year recovery.
        pi = steady_state(two_state_generator(1.0 / 876000.0, 1.0 / 8760.0), method=method)
        assert pi[0] == pytest.approx(876000.0 / (876000.0 + 8760.0), rel=1e-9)

    def test_stiff_chain_gth_accuracy(self):
        # Rates spanning 9 orders of magnitude (disaster vs. VM restart).
        q = np.array(
            [
                [-1.1415525e-6, 1.1415525e-6, 0.0],
                [0.0, -12.0, 12.0],
                [1.0e-1, 0.0, -1.0e-1],
            ]
        )
        pi_gth = steady_state(q, method="gth")
        pi_direct = steady_state(q, method="direct")
        assert np.allclose(pi_gth, pi_direct, rtol=1e-6)
        assert pi_gth.sum() == pytest.approx(1.0)
