"""Parametric re-rating of a tangible reachability graph.

The structure of a GSPN's tangible reachability graph (which markings exist
and which transition leads from which marking to which) never depends on the
*delays* of the timed transitions — only on the arcs and guards.  The Figure 7
sweep of the paper evaluates 45 configurations of one and the same net
structure, varying only the migration delays (distance and α) and the
disaster mean time; regenerating the state space 45 times would dominate the
cost.  ``with_transition_delays`` therefore rebuilds the edge rates of an
existing graph from its rate-independent edge coefficients.

Since the graph stores its per-transition coefficients as one stacked sparse
matrix ``C`` of shape ``(transitions, edges)``, re-rating is a single sparse
mat-vec ``edge_rates(θ) = Cᵀ · rate_vector(θ)`` — a few numpy operations even
for graphs with 10⁴⁺ states, not a per-edge dict walk.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from repro.exceptions import AnalysisError
from repro.spn.reachability import TangibleReachabilityGraph


def rate_vector_with_overrides(
    graph: TangibleReachabilityGraph, rates: Mapping[str, float]
) -> np.ndarray:
    """The graph's rate vector with ``rates`` substituted in, validated.

    Raises:
        AnalysisError: if a named transition does not exist or a rate is not
            positive.
    """
    unknown = set(rates) - set(graph.transition_index)
    if unknown:
        raise AnalysisError(
            f"cannot re-rate unknown timed transitions: {sorted(unknown)}"
        )
    vector = graph.rate_vector.copy()
    for name, value in rates.items():
        if value <= 0.0:
            raise AnalysisError(
                f"transition {name!r}: the new rate must be positive, got {value!r}"
            )
        vector[graph.transition_index[name]] = float(value)
    return vector


def with_transition_rates(
    graph: TangibleReachabilityGraph, rates: Mapping[str, float]
) -> TangibleReachabilityGraph:
    """A copy of ``graph`` with some timed transitions firing at new rates.

    Args:
        graph: a graph produced by
            :func:`repro.spn.reachability.generate_tangible_reachability_graph`.
        rates: ``{transition_name: new_rate}``; transitions not mentioned keep
            the rate they were generated with.

    Returns:
        A new :class:`TangibleReachabilityGraph` sharing the markings and
        coefficient matrices of the original but with recomputed edge rates
        (and therefore throughput contributions).

    Raises:
        AnalysisError: if a named transition does not exist or a rate is not
            positive.
    """
    return graph.with_rate_vector(rate_vector_with_overrides(graph, rates))


def with_transition_delays(
    graph: TangibleReachabilityGraph, delays: Mapping[str, float]
) -> TangibleReachabilityGraph:
    """Same as :func:`with_transition_rates` but specified as mean delays.

    This matches how the paper's tables express parameters (MTTF, MTTR, MTT
    — all mean times rather than rates).
    """
    return with_transition_rates(graph, delays_to_rates(delays))


def delays_to_rates(delays: Mapping[str, float]) -> dict[str, float]:
    """Invert a ``{transition: mean_delay}`` mapping into rates, validating."""
    for name, delay in delays.items():
        if delay <= 0.0:
            raise AnalysisError(
                f"transition {name!r}: the new delay must be positive, got {delay!r}"
            )
    return {name: 1.0 / delay for name, delay in delays.items()}
