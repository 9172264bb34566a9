"""Tests for the batched transient-availability workload (run_transient)."""

import numpy as np
import pytest
from scipy.linalg import expm

from repro.engine import ScenarioBatchEngine, ScenarioSpec
from repro.engine.measures import RewardMatrix
from repro.exceptions import AnalysisError
from repro.markov.transient import transient_reward_block
from repro.spn import (
    ExpectedTokensMeasure,
    ProbabilityMeasure,
    generate_tangible_reachability_graph,
    generator_matrix,
    with_transition_delays,
)

from tests.spn.nets import machine_repair

#: Agreement demanded of run_transient against the dense matrix-exponential
#: reference (the acceptance bar of the transient workload).
EXPM_TOLERANCE = 1e-10

TIMES = np.array([0.0, 0.2, 1.0, 3.0, 10.0, 40.0])


@pytest.fixture(scope="module")
def graph():
    # 121 tangible states: large enough that the batched block path is not
    # trivially exercised, small enough for dense-expm references.
    return generate_tangible_reachability_graph(
        machine_repair(machines=120, mttf=10.0, mttr=1.0)
    )


def specs():
    return [
        ScenarioSpec(name=f"mttf={mttf:g}", delays={"FAIL": mttf})
        for mttf in (4.0, 10.0, 25.0, 60.0)
    ]


def measures():
    return [
        ProbabilityMeasure("all_up", "#BROKEN == 0"),
        ExpectedTokensMeasure("broken", "#BROKEN"),
    ]


def expm_references(graph, spec, reward_column):
    """Dense point and interval reference values over TIMES.

    The interval reference uses the augmented-generator identity
    ``expm([[Q, I], [0, 0]] t)`` whose upper-right block is ``∫₀ᵗ e^{Qu} du``
    — exact, no numerical quadrature.
    """
    re_rated = with_transition_delays(graph, dict(spec.delays))
    q = generator_matrix(re_rated).toarray()
    n = q.shape[0]
    engine = ScenarioBatchEngine(graph)
    pi0 = engine.initial_vector()
    augmented = np.zeros((2 * n, 2 * n))
    augmented[:n, :n] = q
    augmented[:n, n:] = np.eye(n)
    point, interval = [], []
    for t in TIMES:
        point.append(float((pi0 @ expm(q * t)) @ reward_column))
        if t == 0.0:
            interval.append(point[-1])
        else:
            integral = expm(augmented * t)[:n, n:]
            interval.append(float((pi0 @ integral) @ reward_column) / t)
    return np.asarray(point), np.asarray(interval)


class TestAgainstDenseExpm:
    def test_point_and_interval_match_expm(self, graph):
        engine = ScenarioBatchEngine(graph)
        results = engine.run_transient(specs(), measures(), TIMES)
        assert engine.last_run_backend == "serial"
        reward = RewardMatrix.from_measures(graph, measures())
        for spec, result in zip(specs(), results):
            for column, name in enumerate(reward.names):
                ref_point, ref_interval = expm_references(
                    graph, spec, reward.matrix[:, column]
                )
                assert np.max(np.abs(result.point[name] - ref_point)) < EXPM_TOLERANCE
                assert (
                    np.max(np.abs(result.interval[name] - ref_interval))
                    < EXPM_TOLERANCE
                )


class TestTransientSemantics:
    def test_time_zero_returns_initial_values(self, graph):
        engine = ScenarioBatchEngine(graph)
        (result,) = engine.run_transient(specs()[:1], measures(), [0.0])
        # The initial marking has every machine up.
        assert result.point["all_up"][0] == pytest.approx(1.0)
        assert result.interval["all_up"][0] == pytest.approx(1.0)
        assert result.point["broken"][0] == pytest.approx(0.0)

    def test_long_horizon_converges_to_steady_state(self, graph):
        engine = ScenarioBatchEngine(graph)
        spec = specs()[1]
        (result,) = engine.run_transient([spec], measures(), [4000.0])
        steady = engine.run([spec], measures())[0]
        assert result.point["all_up"][0] == pytest.approx(
            steady.value("all_up"), abs=1e-8
        )

    def test_probability_is_conserved(self, graph):
        engine = ScenarioBatchEngine(graph)
        conservation = [ProbabilityMeasure("total", "#BROKEN >= 0")]
        results = engine.run_transient(specs(), conservation, TIMES)
        for result in results:
            np.testing.assert_allclose(result.point["total"], 1.0, atol=1e-12)
            np.testing.assert_allclose(result.interval["total"], 1.0, atol=1e-12)

    def test_negative_times_rejected(self, graph):
        engine = ScenarioBatchEngine(graph)
        with pytest.raises(AnalysisError):
            engine.run_transient(specs()[:1], measures(), [-1.0])

    def test_empty_batch(self, graph):
        assert ScenarioBatchEngine(graph).run_transient([], measures(), TIMES) == []

    def test_results_keep_spec_order_and_metadata(self, graph):
        engine = ScenarioBatchEngine(graph)
        results = engine.run_transient(specs(), measures(), TIMES)
        assert [r.spec for r in results] == specs()
        for result in results:
            assert result.number_of_states == graph.number_of_states
            assert result.solve_seconds >= 0.0
            np.testing.assert_array_equal(result.times, TIMES)


class TestRegimeGrouping:
    def test_scenarios_with_wildly_different_rates_still_match_expm(self, graph):
        """Rate regimes spanning orders of magnitude are grouped separately
        (a shared truncation across all of them would be either wasteful or
        wrong); every scenario must still match the dense reference."""
        wild = [
            ScenarioSpec(name="slow", delays={"FAIL": 800.0, "REPAIR": 40.0}),
            ScenarioSpec(name="fast", delays={"FAIL": 0.5, "REPAIR": 0.05}),
        ]
        engine = ScenarioBatchEngine(graph)
        results = engine.run_transient(wild, measures()[:1], TIMES)
        reward = RewardMatrix.from_measures(graph, measures()[:1])
        for spec, result in zip(wild, results):
            ref_point, ref_interval = expm_references(graph, spec, reward.matrix[:, 0])
            assert np.max(np.abs(result.point["all_up"] - ref_point)) < EXPM_TOLERANCE
            assert (
                np.max(np.abs(result.interval["all_up"] - ref_interval))
                < EXPM_TOLERANCE
            )


class TestTransientRewardBlockValidation:
    def test_edge_block_shape_validated(self):
        with pytest.raises(AnalysisError, match="columns"):
            transient_reward_block(
                np.array([0]),
                np.array([1]),
                2,
                np.zeros((1, 3)),
                np.array([1.0, 0.0]),
                [1.0],
                lambda block, idx: np.zeros((block.shape[0], 0)),
                0,
            )

    def test_requires_at_least_one_time(self):
        with pytest.raises(AnalysisError, match="time"):
            transient_reward_block(
                np.array([0]),
                np.array([1]),
                2,
                np.ones((1, 1)),
                np.array([1.0, 0.0]),
                [],
                lambda block, idx: np.zeros((block.shape[0], 0)),
                0,
            )

    def test_zero_rate_scenarios_are_constant(self):
        point, interval, _ = transient_reward_block(
            np.array([0]),
            np.array([1]),
            2,
            np.zeros((1, 1)),
            np.array([0.25, 0.75]),
            [0.0, 5.0],
            lambda block, idx: block[:, :1] * 4.0,
            1,
        )
        np.testing.assert_allclose(point[0, :, 0], 1.0)
        np.testing.assert_allclose(interval[0, :, 0], 1.0)
