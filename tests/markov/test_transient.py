"""Tests for the batched uniformization kernel on hand-built generators.

Every chain here is written as a dense generator ``Q`` and handed to
:func:`repro.markov.transient.transient_reward_block` as the edge list of its
off-diagonal entries, one scenario per call; the references are closed forms
and dense matrix exponentials.
"""

import numpy as np
import pytest
from scipy.linalg import expm

from repro.exceptions import AnalysisError
from repro.markov.transient import (
    DEFAULT_REGIME_FACTOR,
    MAX_GROUP_ENTRIES,
    _rate_regime_groups,
    transient_reward_block,
)


def generator(failure_rate=0.1, repair_rate=1.0):
    return np.array(
        [[-failure_rate, failure_rate], [repair_rate, -repair_rate]], dtype=float
    )


def random_generator(n, seed):
    rng = np.random.default_rng(seed)
    rates = rng.uniform(0.0, 1.5, size=(n, n))
    np.fill_diagonal(rates, 0.0)
    q = rates.copy()
    np.fill_diagonal(q, -rates.sum(axis=1))
    return q


def run_kernel(q, pi0, times, rewards=None):
    """Point and interval values of one chain: per state, or of ``rewards``."""
    q = np.asarray(q, dtype=float)
    n = q.shape[0]
    sources, targets = np.nonzero(q - np.diag(np.diag(q)))
    if rewards is None:
        evaluate, measures = (lambda block, group: block), n
    else:
        column = np.asarray(rewards, dtype=float)[:, None]
        evaluate, measures = (lambda block, group: block @ column), 1
    point, interval, _ = transient_reward_block(
        sources, targets, n, q[sources, targets][None, :], pi0, times, evaluate, measures
    )
    return point[0], interval[0]


def distribution(q, pi0, time):
    """State-probability vector at ``time``."""
    return run_kernel(q, pi0, [time])[0][0]


class TestTransientDistribution:
    def test_time_zero_returns_initial(self):
        pi = distribution(generator(), [1.0, 0.0], 0.0)
        assert np.allclose(pi, [1.0, 0.0])

    def test_matches_matrix_exponential(self):
        q = random_generator(5, seed=42)
        pi0 = np.zeros(5)
        pi0[0] = 1.0
        times = [0.1, 1.0, 4.0]
        point, _ = run_kernel(q, pi0, times)
        for computed, t in zip(point, times):
            assert np.allclose(computed, pi0 @ expm(q * t), atol=1e-9)

    def test_long_horizon_reaches_steady_state(self):
        q = generator(0.2, 2.0)
        pi = distribution(q, [0.0, 1.0], 500.0)
        assert pi[0] == pytest.approx(2.0 / 2.2, rel=1e-6)

    def test_probability_conserved(self):
        q = random_generator(8, seed=1)
        pi = distribution(q, np.full(8, 1.0 / 8.0), 3.0)
        assert pi.sum() == pytest.approx(1.0)
        assert np.all(pi >= 0.0)

    def test_zero_generator_is_identity(self):
        pi = distribution(np.zeros((3, 3)), [0.2, 0.3, 0.5], 10.0)
        assert np.allclose(pi, [0.2, 0.3, 0.5])

    def test_invalid_initial_distribution_rejected(self):
        with pytest.raises(AnalysisError, match="probability vector"):
            distribution(generator(), [0.7, 0.7], 1.0)

    def test_wrong_shape_rejected(self):
        with pytest.raises(AnalysisError, match="shape"):
            distribution(generator(), [1.0, 0.0, 0.0], 1.0)

    def test_negative_time_rejected(self):
        with pytest.raises(AnalysisError):
            distribution(generator(), [1.0, 0.0], -1.0)


def stiff_generator(scale=1e4):
    """Three-state chain with rates spanning eight orders of magnitude.

    A fast failure/repair pair (rates ~scale) coexists with a slow disaster
    path (rates ~1/scale): the uniformization rate is driven by the fast
    pair, so accuracy on the slow dynamics is exactly what Jensen's method
    must not lose.
    """
    q = np.array(
        [
            [0.0, scale, 1.0 / scale],
            [scale, 0.0, 0.0],
            [1.0 / scale, 0.0, 0.0],
        ]
    )
    np.fill_diagonal(q, -q.sum(axis=1))
    return q


class TestStiffChainsAgainstExpm:
    """Uniformization vs a dense matrix-exponential reference."""

    @pytest.mark.parametrize("scale", [1e2, 1e3, 1e4])
    @pytest.mark.parametrize("time", [1e-3, 0.1, 1.0])
    def test_stiff_three_state_chain(self, scale, time):
        q = stiff_generator(scale)
        pi0 = np.array([1.0, 0.0, 0.0])
        expected = pi0 @ expm(q * time)
        assert np.allclose(distribution(q, pi0, time), expected, atol=1e-9)

    def test_random_stiff_generator(self):
        rng = np.random.default_rng(7)
        n = 6
        rates = rng.uniform(0.5, 1.5, size=(n, n))
        # Stretch the rows across five orders of magnitude to make the
        # chain stiff while keeping a valid generator.
        rates *= np.logspace(-2, 3, n)[:, np.newaxis]
        np.fill_diagonal(rates, 0.0)
        q = rates.copy()
        np.fill_diagonal(q, -rates.sum(axis=1))
        pi0 = np.full(n, 1.0 / n)
        times = [0.01, 0.5, 2.0]
        point, _ = run_kernel(q, pi0, times)
        for computed, time in zip(point, times):
            assert np.allclose(computed, pi0 @ expm(q * time), atol=1e-9)

    def test_stiff_rewards_match_expm_reference(self):
        q = stiff_generator(1e3)
        pi0 = np.array([1.0, 0.0, 0.0])
        rewards = np.array([1.0, 0.25, 0.0])
        times = [1e-3, 0.1, 1.0, 10.0]
        expected = [float((pi0 @ expm(q * t)) @ rewards) for t in times]
        point, _ = run_kernel(q, pi0, times, rewards)
        assert np.allclose(point[:, 0], expected, atol=1e-9)


class TestTransientRewards:
    """The two-state availability chain against its closed forms."""

    FAILURE, REPAIR = 1.0 / 10.0, 1.0 / 2.0
    TIMES = np.array([0.0, 0.5, 1.0, 5.0, 20.0, 100.0])

    def availability(self):
        q = generator(self.FAILURE, self.REPAIR)
        point, interval = run_kernel(q, [1.0, 0.0], self.TIMES, [1.0, 0.0])
        return point[:, 0], interval[:, 0]

    def test_instantaneous_availability_curve(self):
        lam, mu = self.FAILURE, self.REPAIR
        expected = mu / (lam + mu) + lam / (lam + mu) * np.exp(-(lam + mu) * self.TIMES)
        point, _ = self.availability()
        np.testing.assert_allclose(point, expected, rtol=1e-10)
        # Starts at 1 and decreases monotonically towards mu / (lam + mu).
        assert point[0] == 1.0
        assert np.all(np.diff(point) <= 1e-12)

    def test_interval_availability_closed_form(self):
        lam, mu = self.FAILURE, self.REPAIR
        t = self.TIMES[1:]
        expected = mu / (lam + mu) + lam / ((lam + mu) ** 2 * t) * (
            1.0 - np.exp(-(lam + mu) * t)
        )
        _, interval = self.availability()
        assert interval[0] == 1.0
        np.testing.assert_allclose(interval[1:], expected, rtol=1e-10)


class TestRegimeGroups:
    def test_splits_a_regime_at_the_entry_bound(self):
        # Five scenarios of one regime at 10 entries each; a bound of 25
        # entries holds two of them per group.
        groups = _rate_regime_groups(np.ones(5), 10, DEFAULT_REGIME_FACTOR, 25)
        assert [group.tolist() for group in groups] == [[0, 1], [2, 3], [4]]


class TestWindowBound:
    def test_window_just_past_the_table_bound_is_refused(self):
        # Λ = 1.02 here: a window of 3.91e6 needs 4,002,258 Poisson terms,
        # so two time points need 8,004,516 weight-table entries, just past
        # the 8,000,000-entry bound.
        assert MAX_GROUP_ENTRIES == 8_000_000
        with pytest.raises(AnalysisError, match="4,002,258 Poisson terms"):
            run_kernel(generator(1.0, 1.0), [1.0, 0.0], [0.0, 3.91e6])
