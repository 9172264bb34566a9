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
