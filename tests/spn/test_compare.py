"""Tests for graph equivalence checking on the graphs' arrays."""

import numpy as np
import pytest
from scipy import sparse

from repro.exceptions import StateSpaceError
from repro.spn import (
    TangibleReachabilityGraph,
    generate_tangible_reachability_graph,
    graph_deviation,
)

from tests.spn.nets import immediate_routing, machine_repair

DELTA = 2.0**-20


def rebuilt(graph, **changes):
    """A graph with the arrays of ``graph``, some of them replaced."""
    arrays = dict(
        net=graph.net,
        markings=graph.markings,
        initial_distribution=graph.initial_distribution,
        edge_sources=graph.edge_sources,
        edge_targets=graph.edge_targets,
        edge_rates=graph.edge_rates,
        transition_names=graph.transition_names,
        rate_vector=graph.rate_vector,
        edge_coefficient_matrix=graph.edge_coefficient_matrix,
        state_coefficient_matrix=graph.state_coefficient_matrix,
    )
    arrays.update(changes)
    return TangibleReachabilityGraph(**arrays)


def permuted(graph, seed=0):
    """``graph`` with its states, edges and transitions renumbered.

    Every array of the result is a fresh copy, so a test may edit it.
    """
    rng = np.random.default_rng(seed)
    new_id = rng.permutation(graph.number_of_states)
    old_id = np.argsort(new_id)
    edges = rng.permutation(graph.number_of_transitions)
    rows = np.arange(len(graph.transition_names))[::-1]
    return rebuilt(
        graph,
        markings=[graph.markings[state] for state in old_id],
        initial_distribution={
            int(new_id[state]): p for state, p in graph.initial_distribution.items()
        },
        edge_sources=new_id[graph.edge_sources][edges],
        edge_targets=new_id[graph.edge_targets][edges],
        edge_rates=graph.edge_rates[edges],
        transition_names=tuple(graph.transition_names[row] for row in rows),
        rate_vector=graph.rate_vector[rows],
        edge_coefficient_matrix=sparse.csr_matrix(
            graph.edge_coefficient_matrix[rows][:, edges]
        ),
        state_coefficient_matrix=sparse.csr_matrix(
            graph.state_coefficient_matrix[rows][:, old_id]
        ),
    )


def without_entry(matrix):
    """``matrix`` with its first stored entry dropped."""
    entries = matrix.tocoo()
    keep = np.arange(entries.nnz) != 0
    return sparse.csr_matrix(
        (entries.data[keep], (entries.row[keep], entries.col[keep])),
        shape=matrix.shape,
    )


@pytest.fixture(params=["machine-repair", "immediate-routing"])
def graph(request):
    net = {
        "machine-repair": machine_repair(machines=4),
        "immediate-routing": immediate_routing(),
    }[request.param]
    return generate_tangible_reachability_graph(net)


class TestGraphDeviation:
    def test_permuted_copy_deviates_by_zero(self, graph):
        assert graph_deviation(graph, permuted(graph)) == 0.0
        assert graph_deviation(permuted(graph), graph) == 0.0

    def test_moved_edge_rate_deviates_by_exactly_that(self, graph):
        copy = permuted(graph)
        before = copy.edge_rates[0]
        copy.edge_rates[0] += DELTA
        assert graph_deviation(graph, copy) == abs(copy.edge_rates[0] - before)

    @pytest.mark.parametrize(
        "matrix", ["edge_coefficient_matrix", "state_coefficient_matrix"]
    )
    def test_moved_coefficient_deviates_by_exactly_that(self, graph, matrix):
        copy = permuted(graph)
        data = getattr(copy, matrix).data
        before = data[0]
        data[0] += DELTA
        assert graph_deviation(graph, copy) == abs(data[0] - before)

    def test_dropped_edge_raises(self, graph):
        keep = np.arange(graph.number_of_transitions) != 0
        dropped = rebuilt(
            graph,
            edge_sources=graph.edge_sources[keep],
            edge_targets=graph.edge_targets[keep],
            edge_rates=graph.edge_rates[keep],
            edge_coefficient_matrix=graph.edge_coefficient_matrix[:, keep],
        )
        with pytest.raises(StateSpaceError, match="edges"):
            graph_deviation(graph, dropped)

    @pytest.mark.parametrize(
        "matrix", ["edge_coefficient_matrix", "state_coefficient_matrix"]
    )
    def test_dropped_coefficient_raises(self, graph, matrix):
        dropped = rebuilt(graph, **{matrix: without_entry(getattr(graph, matrix))})
        with pytest.raises(StateSpaceError, match="coefficients"):
            graph_deviation(graph, dropped)
        with pytest.raises(StateSpaceError, match="coefficients"):
            graph_deviation(dropped, graph)

    def test_different_marking_raises(self, graph):
        markings = list(graph.markings)
        markings[-1] = tuple(tokens + 7 for tokens in markings[-1])
        with pytest.raises(StateSpaceError, match="missing"):
            graph_deviation(graph, rebuilt(graph, markings=markings))
