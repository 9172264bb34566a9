"""Closed-form checks of the CTMC numerics on hand-built chains.

Each chain is a dense generator ``Q``. Stationary distributions come from
:func:`repro.markov.steady_state` with its default method; transient ones
from :func:`repro.markov.transient_reward_block`, given the edge list of
``Q``'s off-diagonal entries as a one-scenario block.
"""

import numpy as np
import pytest

from repro.markov import steady_state, transient_reward_block

UP, DOWN = 0, 1


def two_state_availability_chain(mttf, mttr):
    """Generator of the canonical UP/DOWN availability chain."""
    return np.array([[-1.0 / mttf, 1.0 / mttf], [1.0 / mttr, -1.0 / mttr]])


def transient(q, pi0, times, rewards=None):
    """Point values at ``times``: per state, or the expected ``rewards``."""
    n = q.shape[0]
    sources, targets = np.nonzero(q - np.diag(np.diag(q)))
    if rewards is None:
        evaluate, measures = (lambda block, group: block), n
    else:
        column = np.asarray(rewards, dtype=float)[:, None]
        evaluate, measures = (lambda block, group: block @ column), 1
    point, _, _ = transient_reward_block(
        sources, targets, n, q[sources, targets][None, :], pi0,
        np.atleast_1d(times), evaluate, measures,
    )
    return point[0]


class TestSteadyState:
    def test_two_state_availability(self):
        pi = steady_state(two_state_availability_chain(mttf=99.0, mttr=1.0))
        assert pi[UP] == pytest.approx(0.99)
        assert pi[DOWN] == pytest.approx(0.01)

    def test_distribution_sums_to_one(self):
        pi = steady_state(two_state_availability_chain(mttf=4000.0, mttr=1.0))
        assert pi.sum() == pytest.approx(1.0)

    def test_birth_death_chain_matches_closed_form(self):
        # M/M/1-like chain truncated at 3 customers, lambda=1, mu=2.
        q = np.zeros((4, 4))
        for n in range(3):
            q[n, n + 1] = 1.0
            q[n + 1, n] = 2.0
        np.fill_diagonal(q, -q.sum(axis=1))
        pi = steady_state(q)
        rho = 0.5
        normalisation = sum(rho**n for n in range(4))
        for n in range(4):
            assert pi[n] == pytest.approx(rho**n / normalisation)

    def test_stiff_disaster_chain(self):
        # Disaster rates (1/876000 h) against repairs of minutes: stiff system.
        pi = steady_state(two_state_availability_chain(mttf=876000.0, mttr=8760.0))
        assert pi[UP] == pytest.approx(876000.0 / (876000.0 + 8760.0), rel=1e-9)


class TestTransient:
    def test_transient_starts_at_initial_state(self):
        q = two_state_availability_chain(mttf=10.0, mttr=1.0)
        pi = transient(q, [1.0, 0.0], 0.0)[0]
        assert pi[UP] == pytest.approx(1.0)

    def test_transient_matches_closed_form_two_state(self):
        mttf, mttr = 10.0, 2.0
        lam, mu = 1.0 / mttf, 1.0 / mttr
        times = [0.5, 1.0, 5.0, 20.0]
        point = transient(two_state_availability_chain(mttf, mttr), [1.0, 0.0], times)
        for pi, t in zip(point, times):
            expected = mu / (lam + mu) + lam / (lam + mu) * np.exp(-(lam + mu) * t)
            assert pi[UP] == pytest.approx(expected, rel=1e-6)

    def test_transient_converges_to_steady_state(self):
        q = two_state_availability_chain(mttf=10.0, mttr=1.0)
        pi = transient(q, [0.0, 1.0], 1e4)[0]
        assert pi[UP] == pytest.approx(steady_state(q)[UP], rel=1e-6)

    def test_transient_from_distribution(self):
        q = two_state_availability_chain(mttf=10.0, mttr=1.0)
        pi = transient(q, [0.5, 0.5], 1.0)[0]
        assert pi.sum() == pytest.approx(1.0)

    def test_expected_transient_reward(self):
        q = two_state_availability_chain(mttf=10.0, mttr=1.0)
        values = transient(q, [1.0, 0.0], [0.0, 1.0, 10.0], rewards=[1.0, 0.0])[:, 0]
        assert values[0] == pytest.approx(1.0)
        assert np.all(np.diff(values) <= 1e-9)
