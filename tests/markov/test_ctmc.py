"""Tests for the CTMC model."""

import numpy as np
import pytest

from repro.exceptions import AnalysisError, ModelError
from repro.markov import ContinuousTimeMarkovChain


def two_state_availability_chain(mttf, mttr):
    """The canonical UP/DOWN availability chain."""
    chain = ContinuousTimeMarkovChain(["UP", "DOWN"])
    chain.add_transition("UP", "DOWN", 1.0 / mttf)
    chain.add_transition("DOWN", "UP", 1.0 / mttr)
    return chain


class TestConstruction:
    def test_states_and_indices(self):
        chain = ContinuousTimeMarkovChain(["A", "B", "C"])
        assert chain.number_of_states == 3
        assert chain.index_of("B") == 1
        assert chain.states == ["A", "B", "C"]

    def test_duplicate_states_rejected(self):
        with pytest.raises(ModelError):
            ContinuousTimeMarkovChain(["A", "A"])

    def test_empty_chain_rejected(self):
        with pytest.raises(ModelError):
            ContinuousTimeMarkovChain([])

    def test_unknown_state_rejected(self):
        chain = ContinuousTimeMarkovChain(["A"])
        with pytest.raises(ModelError):
            chain.index_of("missing")

    def test_self_loop_rejected(self):
        chain = ContinuousTimeMarkovChain(["A", "B"])
        with pytest.raises(ModelError):
            chain.add_transition("A", "A", 1.0)

    def test_negative_rate_rejected(self):
        chain = ContinuousTimeMarkovChain(["A", "B"])
        with pytest.raises(ModelError):
            chain.add_transition("A", "B", -1.0)

    def test_rates_accumulate(self):
        chain = ContinuousTimeMarkovChain(["A", "B"])
        chain.add_transition("A", "B", 1.0)
        chain.add_transition("A", "B", 2.0)
        assert chain.exit_rate("A") == pytest.approx(3.0)

    def test_from_rate_dict(self):
        chain = ContinuousTimeMarkovChain.from_rate_dict({("U", "D"): 0.1, ("D", "U"): 2.0})
        assert set(chain.states) == {"U", "D"}
        assert chain.exit_rate("D") == pytest.approx(2.0)


class TestGeneratorMatrix:
    def test_rows_sum_to_zero(self):
        chain = two_state_availability_chain(mttf=100.0, mttr=2.0)
        q = chain.generator_matrix().toarray()
        assert np.allclose(q.sum(axis=1), 0.0)

    def test_diagonal_is_negative_exit_rate(self):
        chain = two_state_availability_chain(mttf=100.0, mttr=2.0)
        q = chain.generator_matrix().toarray()
        assert q[0, 0] == pytest.approx(-1.0 / 100.0)
        assert q[1, 1] == pytest.approx(-0.5)


class TestSteadyState:
    def test_two_state_availability(self):
        chain = two_state_availability_chain(mttf=99.0, mttr=1.0)
        pi = chain.steady_state()
        assert pi["UP"] == pytest.approx(0.99)
        assert pi["DOWN"] == pytest.approx(0.01)

    def test_distribution_sums_to_one(self):
        chain = two_state_availability_chain(mttf=4000.0, mttr=1.0)
        assert sum(chain.steady_state().values()) == pytest.approx(1.0)

    def test_birth_death_chain_matches_closed_form(self):
        # M/M/1-like chain truncated at 3 customers, lambda=1, mu=2.
        chain = ContinuousTimeMarkovChain([0, 1, 2, 3])
        for n in range(3):
            chain.add_transition(n, n + 1, 1.0)
            chain.add_transition(n + 1, n, 2.0)
        pi = chain.steady_state()
        rho = 0.5
        normalisation = sum(rho**n for n in range(4))
        for n in range(4):
            assert pi[n] == pytest.approx(rho**n / normalisation)

    def test_probability_of_predicate(self):
        chain = two_state_availability_chain(mttf=9.0, mttr=1.0)
        assert chain.probability_of(lambda state: state == "UP") == pytest.approx(0.9)

    def test_expected_reward(self):
        chain = two_state_availability_chain(mttf=9.0, mttr=1.0)
        assert chain.expected_reward({"UP": 1.0, "DOWN": 0.0}) == pytest.approx(0.9)
        assert chain.expected_reward(lambda s: 5.0) == pytest.approx(5.0)

    def test_stiff_disaster_chain(self):
        # Disaster rates (1/876000 h) against repairs of minutes: stiff system.
        chain = two_state_availability_chain(mttf=876000.0, mttr=8760.0)
        pi = chain.steady_state()
        assert pi["UP"] == pytest.approx(876000.0 / (876000.0 + 8760.0), rel=1e-9)


class TestTransient:
    def test_transient_starts_at_initial_state(self):
        chain = two_state_availability_chain(mttf=10.0, mttr=1.0)
        pi = chain.transient(0.0, "UP")
        assert pi["UP"] == pytest.approx(1.0)

    def test_transient_matches_closed_form_two_state(self):
        mttf, mttr = 10.0, 2.0
        lam, mu = 1.0 / mttf, 1.0 / mttr
        chain = two_state_availability_chain(mttf, mttr)
        for t in (0.5, 1.0, 5.0, 20.0):
            expected = mu / (lam + mu) + lam / (lam + mu) * np.exp(-(lam + mu) * t)
            assert chain.transient(t, "UP")["UP"] == pytest.approx(expected, rel=1e-6)

    def test_transient_converges_to_steady_state(self):
        chain = two_state_availability_chain(mttf=10.0, mttr=1.0)
        transient = chain.transient(1e4, "DOWN")
        steady = chain.steady_state()
        assert transient["UP"] == pytest.approx(steady["UP"], rel=1e-6)

    def test_transient_from_distribution(self):
        chain = two_state_availability_chain(mttf=10.0, mttr=1.0)
        pi = chain.transient(1.0, {"UP": 0.5, "DOWN": 0.5})
        assert sum(pi.values()) == pytest.approx(1.0)

    def test_expected_transient_reward(self):
        chain = two_state_availability_chain(mttf=10.0, mttr=1.0)
        values = chain.expected_transient_reward({"UP": 1.0}, [0.0, 1.0, 10.0], "UP")
        assert values[0] == pytest.approx(1.0)
        assert np.all(np.diff(values) <= 1e-9)


class TestMeanTimeToAbsorption:
    def test_single_exponential(self):
        chain = ContinuousTimeMarkovChain(["UP", "FAILED"])
        chain.add_transition("UP", "FAILED", 0.01)
        assert chain.mean_time_to_absorption(["FAILED"], "UP") == pytest.approx(100.0)

    def test_two_stage_failure(self):
        chain = ContinuousTimeMarkovChain(["OK", "DEGRADED", "FAILED"])
        chain.add_transition("OK", "DEGRADED", 0.1)
        chain.add_transition("DEGRADED", "FAILED", 0.5)
        assert chain.mean_time_to_absorption(["FAILED"], "OK") == pytest.approx(12.0)

    def test_requires_absorbing_states(self):
        chain = two_state_availability_chain(10.0, 1.0)
        with pytest.raises(AnalysisError):
            chain.mean_time_to_absorption([], "UP")

    def test_unreachable_absorbing_state_raises(self):
        chain = ContinuousTimeMarkovChain(["A", "B", "C"])
        chain.add_transition("A", "B", 1.0)
        chain.add_transition("B", "A", 1.0)
        with pytest.raises(AnalysisError):
            chain.mean_time_to_absorption(["C"], "A")

    def test_unreachable_absorbing_state_emits_no_scipy_warning(self):
        """The singularity is detected up front: no MatrixRankWarning leaks
        into the caller (the pyproject filter would turn one into an error,
        but the check here is independent of pytest configuration)."""
        import warnings

        chain = ContinuousTimeMarkovChain(["A", "B", "C"])
        chain.add_transition("A", "B", 1.0)
        chain.add_transition("B", "A", 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(AnalysisError, match="cannot reach"):
                chain.mean_time_to_absorption(["C"], "A")

    def test_partially_stranded_chain_raises_cleanly(self):
        """Only one branch can reach absorption: the expected hitting time
        is still infinite and must be reported without a scipy warning."""
        import warnings

        chain = ContinuousTimeMarkovChain(["START", "GOOD", "STUCK", "END"])
        chain.add_transition("START", "GOOD", 1.0)
        chain.add_transition("START", "STUCK", 1.0)
        chain.add_transition("GOOD", "END", 2.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(AnalysisError, match="STUCK"):
                chain.mean_time_to_absorption(["END"], "START")

    def test_reachable_chain_with_cycles_still_solves(self):
        chain = ContinuousTimeMarkovChain(["UP", "DEGRADED", "FAILED"])
        chain.add_transition("UP", "DEGRADED", 0.1)
        chain.add_transition("DEGRADED", "UP", 1.0)
        chain.add_transition("DEGRADED", "FAILED", 0.5)
        value = chain.mean_time_to_absorption(["FAILED"], "UP")
        # First-step analysis: E[UP] = 10 + E[DEG], E[DEG] = 2/3 + (2/3)E[UP].
        assert value == pytest.approx(32.0, rel=1e-12)
