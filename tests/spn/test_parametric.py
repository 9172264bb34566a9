"""Tests for parametric re-rating of reachability graphs."""

import numpy as np
import pytest

from repro.exceptions import AnalysisError
from repro.spn import (
    generate_tangible_reachability_graph,
    generator_matrix,
    solve_steady_state,
    with_transition_delays,
    with_transition_rates,
)

from tests.spn.nets import machine_repair, simple_component


def graph_for(mttf=100.0, mttr=2.0):
    return generate_tangible_reachability_graph(simple_component("X", mttf, mttr))


def rate_of(graph, name):
    return graph.rate_vector[graph.transition_index[name]]


class TestWithTransitionRates:
    def test_re_rated_graph_matches_fresh_generation(self):
        base = graph_for(mttf=100.0, mttr=2.0)
        re_rated = with_transition_rates(base, {"X_Failure": 1.0 / 50.0, "X_Repair": 1.0 / 5.0})
        fresh = graph_for(mttf=50.0, mttr=5.0)
        a_re_rated = solve_steady_state(re_rated).probability("#X_ON > 0")
        a_fresh = solve_steady_state(fresh).probability("#X_ON > 0")
        assert a_re_rated == pytest.approx(a_fresh, rel=1e-12)

    def test_unmentioned_transitions_keep_original_rates(self):
        base = graph_for(mttf=100.0, mttr=2.0)
        re_rated = with_transition_rates(base, {"X_Repair": 1.0})
        assert rate_of(re_rated, "X_Failure") == pytest.approx(0.01)
        assert rate_of(re_rated, "X_Repair") == pytest.approx(1.0)

    def test_original_graph_not_mutated(self):
        base = graph_for(mttf=100.0, mttr=2.0)
        original_rates = base.rate_vector.copy()
        original_edges = base.edge_rates.copy()
        with_transition_rates(base, {"X_Failure": 0.5})
        np.testing.assert_array_equal(base.rate_vector, original_rates)
        np.testing.assert_array_equal(base.edge_rates, original_edges)

    def test_throughput_contributions_re_rated(self):
        base = graph_for(mttf=100.0, mttr=2.0)
        re_rated = with_transition_rates(base, {"X_Failure": 0.02})
        solution = solve_steady_state(re_rated)
        availability = solution.probability("#X_ON > 0")
        assert solution.throughput("X_Failure") == pytest.approx(availability * 0.02)

    def test_infinite_server_coefficients_preserved(self):
        base = generate_tangible_reachability_graph(machine_repair(machines=3, mttf=10.0, mttr=1.0))
        re_rated = with_transition_delays(base, {"FAIL": 20.0, "REPAIR": 2.0})
        fresh = generate_tangible_reachability_graph(machine_repair(machines=3, mttf=20.0, mttr=2.0))
        assert solve_steady_state(re_rated).expected_tokens("#BROKEN") == pytest.approx(
            solve_steady_state(fresh).expected_tokens("#BROKEN"), rel=1e-12
        )

    def test_unknown_transition_rejected(self):
        with pytest.raises(AnalysisError):
            with_transition_rates(graph_for(), {"missing": 1.0})

    def test_non_positive_rate_rejected(self):
        with pytest.raises(AnalysisError):
            with_transition_rates(graph_for(), {"X_Failure": 0.0})


class TestGeneratorEquivalence:
    """A re-rated graph's generator must equal a freshly generated one.

    Stronger than comparing solved measures: every matrix entry has to
    match, for several distinct rate vectors, on both single-server and
    infinite-server nets.  (State discovery order does not depend on rates,
    so the state ids of the fresh graph line up with the re-rated one.)
    """

    RATE_VECTORS = ((50.0, 5.0), (400.0, 0.25))

    def test_simple_component_entry_for_entry(self):
        base = graph_for(mttf=100.0, mttr=2.0)
        for mttf, mttr in self.RATE_VECTORS:
            re_rated = with_transition_delays(
                base, {"X_Failure": mttf, "X_Repair": mttr}
            )
            fresh = graph_for(mttf=mttf, mttr=mttr)
            np.testing.assert_allclose(
                generator_matrix(re_rated).toarray(),
                generator_matrix(fresh).toarray(),
                atol=1e-12,
            )

    def test_infinite_server_entry_for_entry(self):
        base = generate_tangible_reachability_graph(
            machine_repair(machines=4, mttf=10.0, mttr=1.0)
        )
        for mttf, mttr in self.RATE_VECTORS:
            re_rated = with_transition_delays(base, {"FAIL": mttf, "REPAIR": mttr})
            fresh = generate_tangible_reachability_graph(
                machine_repair(machines=4, mttf=mttf, mttr=mttr)
            )
            assert re_rated.markings == fresh.markings
            np.testing.assert_allclose(
                generator_matrix(re_rated).toarray(),
                generator_matrix(fresh).toarray(),
                atol=1e-12,
            )


class TestSparseNativeRepresentation:
    def test_edge_rates_are_coefficient_matvec(self):
        graph = generate_tangible_reachability_graph(
            machine_repair(machines=3, mttf=10.0, mttr=1.0)
        )
        reconstructed = graph.edge_coefficient_matrix.T.dot(graph.rate_vector)
        np.testing.assert_allclose(reconstructed, graph.edge_rates, atol=1e-12)

    def test_re_rated_graph_shares_structure_arrays(self):
        base = graph_for()
        re_rated = with_transition_rates(base, {"X_Failure": 0.5})
        assert re_rated.edge_sources is base.edge_sources
        assert re_rated.edge_targets is base.edge_targets
        assert re_rated.edge_coefficient_matrix is base.edge_coefficient_matrix
        assert re_rated.markings is base.markings


class TestWithTransitionDelays:
    def test_delays_are_inverted_rates(self):
        base = graph_for(mttf=100.0, mttr=2.0)
        re_rated = with_transition_delays(base, {"X_Failure": 200.0})
        assert rate_of(re_rated, "X_Failure") == pytest.approx(0.005)

    def test_non_positive_delay_rejected(self):
        with pytest.raises(AnalysisError):
            with_transition_delays(graph_for(), {"X_Failure": 0.0})

    def test_chained_re_rating_is_consistent(self):
        base = graph_for(mttf=100.0, mttr=2.0)
        once = with_transition_delays(base, {"X_Failure": 50.0})
        twice = with_transition_delays(once, {"X_Repair": 4.0})
        fresh = graph_for(mttf=50.0, mttr=4.0)
        assert solve_steady_state(twice).probability("#X_ON > 0") == pytest.approx(
            solve_steady_state(fresh).probability("#X_ON > 0"), rel=1e-12
        )
