"""Conversion of a tangible reachability graph into a CTMC."""

from __future__ import annotations

import numpy as np
from scipy import sparse

from repro.exceptions import StateSpaceError
from repro.spn.reachability import TangibleReachabilityGraph


def generator_matrix(graph: TangibleReachabilityGraph) -> sparse.csr_matrix:
    """Sparse CTMC generator matrix over the tangible markings of ``graph``.

    Assembled directly from the graph's edge arrays: the off-diagonal entries
    are the edge rates and the diagonal holds the negated per-state exit
    rates, concatenated into one COO triple and converted to CSR in a single
    pass (the edge list excludes self-loops, so the triples never collide).
    """
    n = graph.number_of_states
    if n == 0:
        raise StateSpaceError("reachability graph has no tangible markings")
    diagonal = np.arange(n, dtype=np.int64)
    rows = np.concatenate([graph.edge_sources, diagonal])
    cols = np.concatenate([graph.edge_targets, diagonal])
    data = np.concatenate([graph.edge_rates, -graph.exit_rates()])
    return sparse.coo_matrix((data, (rows, cols)), shape=(n, n)).tocsr()

