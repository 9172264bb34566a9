"""Tests for the scenario-batch engine."""

import numpy as np
import pytest

from repro.engine import ConstrainedSystemTemplate, ScenarioBatchEngine, ScenarioSpec
from repro.exceptions import AnalysisError, ModelError
from repro.markov import solvers
from repro.spn import (
    ProbabilityMeasure,
    ThroughputMeasure,
    generate_tangible_reachability_graph,
    generator_matrix,
    solve_steady_state,
    with_transition_delays,
)

from tests.spn.nets import machine_repair, simple_component


def component_graph(mttf=100.0, mttr=2.0):
    return generate_tangible_reachability_graph(simple_component("X", mttf, mttr))


class TestConstrainedSystemTemplate:
    def _graph(self):
        return generate_tangible_reachability_graph(
            machine_repair(machines=6, mttf=10.0, mttr=1.0)
        )

    def test_fresh_system_matches_reference_builder(self):
        graph = self._graph()
        template = ConstrainedSystemTemplate(
            graph.edge_sources, graph.edge_targets, graph.number_of_states
        )
        system = template.fresh_system(graph.edge_rates)
        reference, rhs = solvers.constrained_balance_system(generator_matrix(graph))
        np.testing.assert_allclose(system.toarray(), reference.toarray(), atol=1e-14)
        np.testing.assert_allclose(template.rhs, rhs)

    def test_refill_matches_fresh_assembly(self):
        graph = self._graph()
        template = ConstrainedSystemTemplate(
            graph.edge_sources, graph.edge_targets, graph.number_of_states
        )
        system = template.fresh_system(graph.edge_rates)
        re_rated = with_transition_delays(graph, {"FAIL": 25.0, "REPAIR": 0.5})
        template.refill(system, re_rated.edge_rates)
        reference, _ = solvers.constrained_balance_system(generator_matrix(re_rated))
        np.testing.assert_allclose(system.toarray(), reference.toarray(), atol=1e-14)

    def test_single_state_rejected(self):
        with pytest.raises(ValueError):
            ConstrainedSystemTemplate(
                np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64), 1
            )


class TestScenarioSpec:
    def test_delays_are_inverted(self):
        spec = ScenarioSpec(name="s", delays={"T": 4.0})
        assert spec.resolved_rates() == {"T": 0.25}

    def test_rates_take_precedence_over_delays(self):
        spec = ScenarioSpec(name="s", delays={"T": 4.0}, rates={"T": 9.0})
        assert spec.resolved_rates() == {"T": 9.0}

    def test_non_positive_delay_rejected(self):
        with pytest.raises(AnalysisError):
            ScenarioSpec(name="s", delays={"T": 0.0}).resolved_rates()


def solve(engine, **overrides):
    """The stationary solution of one scenario of ``engine``'s graph."""
    (result,) = engine.run(
        [ScenarioSpec("scenario", **overrides)], [], keep_solutions=True
    )
    return result.solution


class TestEngineSolve:
    def test_tiny_chain_matches_generic_solver(self):
        graph = component_graph()
        engine = ScenarioBatchEngine(graph)
        availability = solve(engine).probability("#X_ON > 0")
        expected = solve_steady_state(graph).probability("#X_ON > 0")
        assert availability == pytest.approx(expected, rel=1e-12)

    def test_mid_size_uses_template_and_matches_direct(self):
        graph = generate_tangible_reachability_graph(
            machine_repair(machines=500, mttf=10.0, mttr=1.0)
        )
        assert graph.number_of_states == 501  # above the GTH threshold
        engine = ScenarioBatchEngine(graph)
        solution = solve(engine, delays={"FAIL": 20.0})
        re_rated = with_transition_delays(graph, {"FAIL": 20.0})
        expected = solve_steady_state(re_rated, method="direct")
        np.testing.assert_allclose(
            solution.probabilities, expected.probabilities, atol=1e-12
        )

    def test_unknown_transition_rejected(self):
        engine = ScenarioBatchEngine(component_graph())
        with pytest.raises(AnalysisError):
            solve(engine, rates={"missing": 1.0})

    def test_rejects_a_declarative_net(self):
        with pytest.raises(TypeError, match="load_or_generate"):
            ScenarioBatchEngine(simple_component("X", 100.0, 2.0))


class TestEngineBatch:
    def make_engine(self):
        return ScenarioBatchEngine(
            generate_tangible_reachability_graph(
                machine_repair(machines=400, mttf=10.0, mttr=1.0)
            )
        )

    def specs(self):
        return [
            ScenarioSpec(name=f"mttf={mttf}", delays={"FAIL": mttf})
            for mttf in (5.0, 10.0, 20.0, 40.0)
        ]

    def measures(self):
        return [
            ProbabilityMeasure("all_up", "#BROKEN == 0"),
            ThroughputMeasure("repairs", "REPAIR"),
        ]

    def test_batch_matches_per_scenario_seed_loop(self):
        engine = self.make_engine()
        results = engine.run(self.specs(), self.measures())
        graph = engine.graph()
        for spec, result in zip(self.specs(), results):
            re_rated = with_transition_delays(graph, dict(spec.delays))
            solution = solve_steady_state(re_rated)
            assert result.value("all_up") == pytest.approx(
                solution.probability("#BROKEN == 0"), abs=1e-10
            )
            assert result.value("repairs") == pytest.approx(
                solution.throughput("REPAIR"), abs=1e-10
            )

    def test_parallel_matches_sequential(self, monkeypatch):
        monkeypatch.setattr(
            "repro.engine.dispatch.effective_cpu_count", lambda: 4
        )
        engine = self.make_engine()
        sequential = engine.run(self.specs(), self.measures())
        parallel = engine.run(self.specs(), self.measures(), max_workers=3)
        assert [r.name for r in parallel] == [r.name for r in sequential]
        for a, b in zip(sequential, parallel):
            assert b.value("all_up") == pytest.approx(a.value("all_up"), abs=1e-10)

    def test_solutions_dropped_unless_requested(self):
        engine = self.make_engine()
        specs = self.specs()[:2]
        without = engine.run(specs, self.measures())
        with_solutions = engine.run(specs, self.measures(), keep_solutions=True)
        assert all(result.solution is None for result in without)
        assert all(result.solution is not None for result in with_solutions)

    def test_throughput_of_an_unknown_transition_is_a_model_error(self):
        engine = ScenarioBatchEngine(component_graph())
        with pytest.raises(ModelError, match="unknown timed transition 'X_Missing'"):
            engine.run([ScenarioSpec("base")], [ThroughputMeasure("t", "X_Missing")])


class TestDedupeAndInjection:
    """Rate-vector dedupe: every batch solves each distinct rate vector once."""

    def make_engine(self):
        return ScenarioBatchEngine(
            generate_tangible_reachability_graph(
                machine_repair(machines=4, mttf=10.0, mttr=1.0)
            )
        )

    def specs_with_duplicates(self):
        # Indices 0 and 2 resolve to identical rate vectors; 1 differs.
        return [
            ScenarioSpec(name="a", delays={"FAIL": 10.0}),
            ScenarioSpec(name="b", delays={"FAIL": 25.0}),
            ScenarioSpec(name="c", delays={"FAIL": 10.0}),
        ]

    def measures(self):
        return [ProbabilityMeasure("all_up", "#BROKEN == 0")]

    def solved_alone(self, specs):
        """Each spec's result from a batch of its own, which cannot dedupe."""
        return [self.make_engine().run([spec], self.measures())[0] for spec in specs]

    def test_rate_digest_distinguishes_vectors(self):
        from repro.engine import rate_digest

        a = np.array([1.0, 2.0, 3.0])
        assert rate_digest(a) == rate_digest(np.array([1.0, 2.0, 3.0]))
        assert rate_digest(a) != rate_digest(np.array([1.0, 2.0, 3.0 + 1e-15]))

    def test_duplicates_solved_once_and_share_the_vector(self):
        engine = self.make_engine()
        results = engine.run(
            self.specs_with_duplicates(), self.measures(), keep_solutions=True
        )
        stats = engine.last_run_dedupe
        assert (stats.cases, stats.solved, stats.deduped) == (3, 2, 1)
        assert [r.solve_source for r in results] == ["solved", "solved", "deduped"]
        np.testing.assert_array_equal(
            results[0].solution.probabilities, results[2].solution.probabilities
        )
        assert results[2].solve_seconds == 0.0

    def test_dedupe_matches_undeduped_numbers(self):
        engine = self.make_engine()
        specs = self.specs_with_duplicates()
        deduped = engine.run(specs, self.measures())
        assert engine.last_run_dedupe.deduped == 1
        for a, b in zip(self.solved_alone(specs), deduped):
            assert abs(a.value("all_up") - b.value("all_up")) < 1e-12

    def test_dedupe_keeps_per_case_measures(self):
        # Same rates, different measures: one solve, two distinct values.
        engine = self.make_engine()
        specs = [
            ScenarioSpec(name="loose", delays={"FAIL": 10.0}),
            ScenarioSpec(name="strict", delays={"FAIL": 10.0}),
        ]
        measures = [
            ProbabilityMeasure("all_up", "#BROKEN == 0"),
            ProbabilityMeasure("most_up", "#BROKEN <= 1"),
        ]
        results = engine.run(specs, measures)
        assert engine.last_run_dedupe.solved == 1
        assert results[1].solve_source == "deduped"
        for result in results:
            assert result.value("most_up") > result.value("all_up")

    def test_dedupe_survives_block_splitting(self, monkeypatch):
        # Force the memory-bounded sub-batching path and check the stats
        # still add up across the recursive windows.
        from repro.engine import batch as batch_module

        monkeypatch.setattr(batch_module, "MAX_SOLUTION_BLOCK_BYTES", 1)
        engine = self.make_engine()
        results = engine.run(self.specs_with_duplicates(), self.measures())
        stats = engine.last_run_dedupe
        assert stats.cases == 3
        assert stats.solved + stats.deduped == 3
        alone = self.solved_alone(self.specs_with_duplicates())
        for a, b in zip(alone, results):
            assert abs(a.value("all_up") - b.value("all_up")) < 1e-12
