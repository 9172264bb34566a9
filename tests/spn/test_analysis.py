"""Tests for steady-state and transient SPN analysis."""

import math

import numpy as np
import pytest

from repro.engine import ScenarioBatchEngine, ScenarioSpec
from repro.exceptions import AnalysisError, ExpressionError, ModelError
from repro.markov import steady_state
from repro.metrics import availability_from_mttf_mttr
from repro.spn import (
    ExpectedTokensMeasure,
    ProbabilityMeasure,
    ThroughputMeasure,
    generate_tangible_reachability_graph,
    generator_matrix,
    solve_steady_state,
    validate_measures,
)

from tests.spn.nets import (
    guarded_failover,
    immediate_routing,
    machine_repair,
    mm1k_queue,
    simple_component,
)


class TestSimpleComponentSteadyState:
    def test_availability_matches_closed_form(self):
        mttf, mttr = 100.0, 2.0
        solution = solve_steady_state(simple_component("X", mttf, mttr))
        expected = availability_from_mttf_mttr(mttf, mttr)
        assert solution.probability("#X_ON > 0") == pytest.approx(expected)

    def test_paper_operator_notation(self):
        solution = solve_steady_state(simple_component("DC", 876000.0, 8760.0))
        # P{#DC_ON>0} with the disaster parameters of the case study.
        assert solution.probability("#DC_ON>0") == pytest.approx(
            876000.0 / (876000.0 + 8760.0)
        )

    def test_expected_tokens(self):
        solution = solve_steady_state(simple_component("X", 100.0, 2.0))
        availability = solution.probability("#X_ON > 0")
        assert solution.expected_tokens("#X_ON") == pytest.approx(availability)
        assert solution.expected_tokens("X_ON") == pytest.approx(availability)

    def test_throughput_of_failure_transition(self):
        mttf, mttr = 100.0, 2.0
        solution = solve_steady_state(simple_component("X", mttf, mttr))
        availability = mttf / (mttf + mttr)
        assert solution.throughput("X_Failure") == pytest.approx(availability / mttf)

    def test_failure_and_repair_throughputs_balance(self):
        solution = solve_steady_state(simple_component("X", 37.0, 3.0))
        assert solution.throughput("X_Failure") == pytest.approx(
            solution.throughput("X_Repair")
        )


class TestQueueSteadyState:
    def test_mm1k_distribution_matches_closed_form(self):
        arrival_mean, service_mean, capacity = 2.0, 1.0, 3
        rho = service_mean / arrival_mean
        solution = solve_steady_state(mm1k_queue(arrival_mean, service_mean, capacity))
        normalisation = sum(rho**n for n in range(capacity + 1))
        for n in range(capacity + 1):
            assert solution.probability(f"#QUEUE = {n}") == pytest.approx(
                rho**n / normalisation
            )

    def test_machine_repair_expected_broken_machines(self):
        machines, mttf, mttr = 3, 10.0, 1.0
        solution = solve_steady_state(machine_repair(machines, mttf, mttr, repair_crews=machines))
        # With as many repair crews as machines each machine is independent.
        unavailability = mttr / (mttf + mttr)
        assert solution.expected_tokens("#BROKEN") == pytest.approx(
            machines * unavailability
        )

    def test_probability_vector_sums_to_one(self):
        solution = solve_steady_state(mm1k_queue())
        assert solution.probabilities.sum() == pytest.approx(1.0)
        assert solution.number_of_states == 4


class TestImmediateRouting:
    def test_path_probabilities_follow_weights(self):
        solution = solve_steady_state(immediate_routing(weight_a=1.0, weight_b=3.0))
        on_a = solution.probability("#PATH_A = 1")
        on_b = solution.probability("#PATH_B = 1")
        # Both paths have the same service time, so the visit ratio 1:3 carries over.
        assert on_b / on_a == pytest.approx(3.0, rel=1e-9)


class TestMeasureObjects:
    def test_evaluate_measure_collection(self):
        solution = solve_steady_state(simple_component("X", 100.0, 2.0))
        results = solution.evaluate(
            [
                ProbabilityMeasure("availability", "#X_ON > 0"),
                ExpectedTokensMeasure("tokens_on", "#X_ON"),
                ThroughputMeasure("failures_per_hour", "X_Failure"),
            ]
        )
        assert set(results) == {"availability", "tokens_on", "failures_per_hour"}
        assert results["availability"] == pytest.approx(results["tokens_on"])

    def test_unknown_transition_throughput_rejected(self):
        solution = solve_steady_state(simple_component("X"))
        with pytest.raises(ModelError):
            solution.throughput("missing")

    def test_marking_probabilities_sorted(self):
        solution = solve_steady_state(simple_component("X", 100.0, 2.0))
        pairs = solution.marking_probabilities()
        assert pairs[0][1] >= pairs[1][1]
        assert pairs[0][0]["X_ON"] == 1

    @pytest.mark.parametrize("source", ["NOT (#VM_UP_1 = ", "TRUE AND", "2 * #A >"])
    def test_validation_parses_every_string_expression(self, source):
        with pytest.raises(ExpressionError):
            validate_measures([ProbabilityMeasure("availability", source)])
        # A bare place name is ExpectedTokensMeasure's shorthand for ``#place``.
        validate_measures([ExpectedTokensMeasure("e", "VM_UP_1")])


class TestGuardedFailoverAnalysis:
    def test_spare_active_probability_equals_primary_down(self):
        solution = solve_steady_state(guarded_failover(primary_mttf=10.0, primary_mttr=2.0))
        down = solution.probability("#PRIMARY_ON = 0")
        spare = solution.probability("#SPARE_ACTIVE = 1")
        assert spare == pytest.approx(down)
        assert down == pytest.approx(2.0 / 12.0)


class TestReuseOfReachabilityGraph:
    def test_solving_from_pregenerated_graph(self):
        graph = generate_tangible_reachability_graph(simple_component("X", 50.0, 5.0))
        solution = solve_steady_state(graph)
        assert solution.probability("#X_ON > 0") == pytest.approx(50.0 / 55.0)

    def test_markov_chain_export_agrees(self):
        graph = generate_tangible_reachability_graph(simple_component("X", 50.0, 5.0))
        pi = steady_state(generator_matrix(graph))
        on_state = next(
            state_id
            for state_id in range(graph.number_of_states)
            if graph.marking_view(state_id)["X_ON"] == 1
        )
        assert pi[on_state] == pytest.approx(50.0 / 55.0)


class TestGeneratorMatrix:
    """The CTMC generator assembled from a reachability graph's edges."""

    def generator(self):
        graph = generate_tangible_reachability_graph(machine_repair(machines=2))
        return graph, generator_matrix(graph).toarray()

    def test_rows_sum_to_zero(self):
        _, q = self.generator()
        assert np.allclose(q.sum(axis=1), 0.0)

    def test_diagonal_is_negative_exit_rate(self):
        graph, q = self.generator()
        off_diagonal = q - np.diag(np.diag(q))
        assert np.all(off_diagonal >= 0.0)
        np.testing.assert_allclose(np.diag(q), -graph.exit_rates())
        np.testing.assert_allclose(np.diag(q), -off_diagonal.sum(axis=1))


def run_transient(net, measure, times):
    """Point values of one measure from the net's initial marking."""
    graph = generate_tangible_reachability_graph(net)
    (result,) = ScenarioBatchEngine(graph).run_transient(
        [ScenarioSpec("base")], [measure], times
    )
    return result.point[measure.name]


class TestTransientAnalysis:
    def test_instantaneous_availability_curve(self):
        mttf, mttr = 10.0, 2.0
        lam, mu = 1.0 / mttf, 1.0 / mttr
        times = [0.0, 1.0, 5.0, 50.0]
        availability = run_transient(
            simple_component("X", mttf, mttr), ProbabilityMeasure("up", "#X_ON > 0"), times
        )
        for value, t in zip(availability, times):
            expected = mu / (lam + mu) + lam / (lam + mu) * math.exp(-(lam + mu) * t)
            assert value == pytest.approx(expected, rel=1e-6)

    def test_expected_tokens_transient(self):
        broken = run_transient(
            machine_repair(machines=2, mttf=10.0, mttr=1.0),
            ExpectedTokensMeasure("broken", "#BROKEN"),
            [0.0, 100.0],
        )
        assert broken[0] == pytest.approx(0.0)
        assert broken[1] > 0.0

    def test_requires_at_least_one_time(self):
        with pytest.raises(AnalysisError):
            run_transient(simple_component("X"), ProbabilityMeasure("up", "#X_ON > 0"), [])
