"""Equivalence checking between tangible reachability graphs.

Used by the property tests, the state-space benchmark and the cache
round-trip check to verify that two independently produced graphs describe
the same CTMC: same tangible markings, same edges and the same
rate-independent coefficient data, up to a permutation of the state ids.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import StateSpaceError
from repro.spn.reachability import TangibleReachabilityGraph


def _matched_gap(
    label: str,
    first_keys: np.ndarray,
    first_values: np.ndarray,
    second_keys: np.ndarray,
    second_values: np.ndarray,
) -> tuple[float, np.ndarray, np.ndarray]:
    """Largest value gap between two keyed arrays, and the orders sorting them.

    Raises:
        StateSpaceError: unless both arrays hold the same keys.
    """
    first_order = np.argsort(first_keys, kind="stable")
    second_order = np.argsort(second_keys, kind="stable")
    if not np.array_equal(first_keys[first_order], second_keys[second_order]):
        raise StateSpaceError(f"{label}: key sets differ")
    gaps = np.abs(first_values[first_order] - second_values[second_order])
    return float(gaps.max(initial=0.0)), first_order, second_order


def graph_deviation(
    first: TangibleReachabilityGraph, second: TangibleReachabilityGraph
) -> float:
    """Largest absolute numeric deviation between two equivalent graphs.

    States are aligned by marking (the graphs may number them differently),
    transitions by name and edges by their aligned ``(source, target)``
    pair; then the initial distributions, edge rates, rate vectors and the
    stored entries of both coefficient matrices are compared entry by entry.

    Returns:
        The maximum absolute difference over all compared quantities.

    Raises:
        StateSpaceError: if the graphs are structurally different (marking
            sets, edge sets, transition names or sparsity patterns differ).
    """
    n = first.number_of_states
    if n != second.number_of_states:
        raise StateSpaceError(
            f"state counts differ: {n} vs {second.number_of_states}"
        )
    second_ids = {marking: i for i, marking in enumerate(second.markings)}
    if len(second_ids) != n:
        raise StateSpaceError("second graph contains duplicate markings")
    try:
        to_second = np.asarray(
            [second_ids[marking] for marking in first.markings], dtype=np.int64
        )
    except KeyError as missing:
        raise StateSpaceError(f"marking {missing} missing from second graph") from None
    if set(first.transition_names) != set(second.transition_names):
        raise StateSpaceError("transition name sets differ")
    to_second_row = np.asarray(
        [second.transition_index[name] for name in first.transition_names],
        dtype=np.int64,
    )

    initial = {
        int(to_second[state]): p for state, p in first.initial_distribution.items()
    }
    if set(initial) != set(second.initial_distribution):
        raise StateSpaceError("initial distribution: key sets differ")
    deviation = max(
        (abs(p - second.initial_distribution[state]) for state, p in initial.items()),
        default=0.0,
    )

    edge_gap, first_edges, second_edges = _matched_gap(
        "edges",
        to_second[first.edge_sources] * n + to_second[first.edge_targets],
        first.edge_rates,
        second.edge_sources * n + second.edge_targets,
        second.edge_rates,
    )
    rate_gap = np.abs(first.rate_vector - second.rate_vector[to_second_row])
    deviation = max(deviation, edge_gap, float(rate_gap.max(initial=0.0)))
    # Column ``e`` of the first graph's edge coefficient matrix is column
    # ``to_second_edge[e]`` of the second's.
    to_second_edge = np.empty_like(first_edges)
    to_second_edge[first_edges] = second_edges
    for label, to_second_column, first_matrix, second_matrix in (
        (
            "state coefficients",
            to_second,
            first.state_coefficient_matrix,
            second.state_coefficient_matrix,
        ),
        (
            "edge coefficients",
            to_second_edge,
            first.edge_coefficient_matrix,
            second.edge_coefficient_matrix,
        ),
    ):
        width = second_matrix.shape[1]
        ours, theirs = first_matrix.tocoo(), second_matrix.tocoo()
        gap, _, _ = _matched_gap(
            label,
            to_second_row[ours.row] * width + to_second_column[ours.col],
            ours.data,
            theirs.row.astype(np.int64) * width + theirs.col,
            theirs.data,
        )
        deviation = max(deviation, gap)
    return deviation
