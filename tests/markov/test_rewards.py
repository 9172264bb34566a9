"""Tests for Markov reward structures."""

import numpy as np
import pytest

from repro.exceptions import AnalysisError
from repro.markov import ContinuousTimeMarkovChain, RewardReport, RewardStructure


def two_state_availability_chain(mttf, mttr):
    """The canonical UP/DOWN availability chain."""
    chain = ContinuousTimeMarkovChain(["UP", "DOWN"])
    chain.add_transition("UP", "DOWN", 1.0 / mttf)
    chain.add_transition("DOWN", "UP", 1.0 / mttr)
    return chain


class TestRewardStructure:
    def test_indicator_reward(self):
        chain = two_state_availability_chain(mttf=9.0, mttr=1.0)
        availability = RewardStructure.indicator("availability", lambda s: s == "UP")
        assert availability.steady_state_value(chain) == pytest.approx(0.9)

    def test_mapping_reward_with_default(self):
        chain = two_state_availability_chain(mttf=3.0, mttr=1.0)
        capacity = RewardStructure.from_mapping("capacity", {"UP": 8.0}, default=0.0)
        assert capacity.steady_state_value(chain) == pytest.approx(6.0)

    def test_callable_reward(self):
        chain = two_state_availability_chain(mttf=1.0, mttr=1.0)
        structure = RewardStructure("constant", lambda s: 2.5)
        assert structure.steady_state_value(chain) == pytest.approx(2.5)


class TestRewardReport:
    def test_multiple_structures_evaluated_together(self):
        chain = ContinuousTimeMarkovChain(["UP2", "UP1", "DOWN"])
        chain.add_transition("UP2", "UP1", 0.2)
        chain.add_transition("UP1", "DOWN", 0.2)
        chain.add_transition("UP1", "UP2", 1.0)
        chain.add_transition("DOWN", "UP1", 1.0)
        report = RewardReport(chain)
        report.add(RewardStructure.indicator("availability", lambda s: s != "DOWN"))
        report.add(
            RewardStructure.from_mapping("capacity", {"UP2": 2.0, "UP1": 1.0}, default=0.0)
        )
        values = report.evaluate()
        assert set(values) == {"availability", "capacity"}
        assert 0.0 < values["availability"] < 1.0
        assert values["capacity"] > values["availability"]

    def test_add_returns_report_for_chaining(self):
        chain = two_state_availability_chain(2.0, 1.0)
        report = RewardReport(chain).add(
            RewardStructure.indicator("availability", lambda s: s == "UP")
        )
        assert isinstance(report, RewardReport)
        assert report.evaluate()["availability"] == pytest.approx(2.0 / 3.0)


class TestBatchEvaluation:
    def make_report(self):
        chain = ContinuousTimeMarkovChain(["UP2", "UP1", "DOWN"])
        chain.add_transition("UP2", "UP1", 0.2)
        chain.add_transition("UP1", "DOWN", 0.2)
        chain.add_transition("UP1", "UP2", 1.0)
        chain.add_transition("DOWN", "UP1", 1.0)
        report = RewardReport(chain)
        report.add(RewardStructure.indicator("availability", lambda s: s != "DOWN"))
        report.add(
            RewardStructure.from_mapping("capacity", {"UP2": 2.0, "UP1": 1.0})
        )
        return report

    def test_reward_vector_walks_states_once(self):
        structure = RewardStructure.from_mapping("c", {"UP2": 2.0, "UP1": 1.0})
        np.testing.assert_allclose(
            structure.reward_vector(["UP2", "UP1", "DOWN"]), [2.0, 1.0, 0.0]
        )

    def test_reward_matrix_stacks_columns(self):
        report = self.make_report()
        matrix = report.reward_matrix()
        assert matrix.shape == (3, 2)
        np.testing.assert_allclose(matrix[:, 0], [1.0, 1.0, 0.0])
        np.testing.assert_allclose(matrix[:, 1], [2.0, 1.0, 0.0])

    def test_batch_matches_scalar_evaluation(self):
        report = self.make_report()
        pi = report.chain.steady_state_vector()
        scalar = report.evaluate()
        batch = report.evaluate_batch(np.vstack([pi, pi]))
        assert batch.shape == (2, 2)
        for row in batch:
            assert row[0] == pytest.approx(scalar["availability"], abs=1e-14)
            assert row[1] == pytest.approx(scalar["capacity"], abs=1e-14)

    def test_structure_batch_matches_steady_state_value(self):
        chain = two_state_availability_chain(mttf=9.0, mttr=1.0)
        structure = RewardStructure.indicator("availability", lambda s: s == "UP")
        pi = chain.steady_state_vector()
        values = structure.evaluate_batch(chain.states, np.vstack([pi, pi, pi]))
        assert values.shape == (3,)
        assert np.allclose(values, structure.steady_state_value(chain))

    def test_distinct_rows_evaluated_independently(self):
        report = self.make_report()
        block = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        values = report.evaluate_batch(block)
        np.testing.assert_allclose(values[0], [1.0, 2.0])
        np.testing.assert_allclose(values[1], [0.0, 0.0])

    def test_wrong_width_rejected(self):
        report = self.make_report()
        with pytest.raises(AnalysisError):
            report.evaluate_batch(np.zeros((2, 5)))
        structure = RewardStructure.indicator("a", lambda s: True)
        with pytest.raises(AnalysisError):
            structure.evaluate_batch(["UP", "DOWN"], np.zeros((1, 3)))
