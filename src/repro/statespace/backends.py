"""The state-space backend contract and the representation registry.

Historically every layer of the engine assumed one representation — a fully
materialised in-RAM :class:`~repro.spn.reachability.TangibleReachabilityGraph`.
This module names the implicit contract those layers actually rely on
(:class:`StateSpaceBackend`) so the representation becomes a dispatch
decision: the in-RAM CSR graph and the disk-backed
:class:`~repro.statespace.chunked.ChunkedGraph` both satisfy it, and
consumers branch on :func:`representation_of` instead of ``isinstance``
checks against one concrete class.

Representations
    ``in_ram``
        Everything resident: edge arrays, coefficient CSRs, markings.
        Fastest solves (reused ILU factors); peak memory grows with
        states × fill.
    ``chunked``
        On-disk chunk files, streamed per wave; solves are matrix-free
        Krylov over a :class:`scipy.sparse.linalg.LinearOperator`.  Peak
        memory stays one-chunk sized (plus dense state-length vectors).
"""

from __future__ import annotations

from typing import Iterable, Protocol, runtime_checkable

import numpy as np

from repro.spn.reachability import TangibleReachabilityGraph
from repro.statespace.chunked import ChunkedGraph

#: Representations a graph value can carry.
REPRESENTATIONS = ("in_ram", "chunked")


@runtime_checkable
class StateSpaceBackend(Protocol):
    """What every layer of the engine may assume about a state-space value.

    The contract is extracted verbatim from the call sites that previously
    hard-assumed :class:`TangibleReachabilityGraph`:

    * shape: ``number_of_states``, ``transition_names``,
      ``transition_index``, ``has_coefficients``;
    * rating: ``rate_vector`` plus ``with_rate_vector`` returning a re-rated
      value sharing structure;
    * the CTMC as an operator: ``exit_rates()`` and either global edge
      arrays (in-RAM) or streamed ``edge_chunks`` (chunked) — the solver
      layers dispatch on :func:`representation_of`;
    * measure-evaluation hooks: ``markings`` (a sequence of marking tuples)
      and per-transition degree access (``state_coefficient_matrix`` rows or
      the ``throughput_degree_column`` streaming hook), plus
      ``throughput_vector`` / ``marking_view`` for scalar fallbacks;
    * provenance: ``initial_distribution`` for transient analyses.
    """

    net: object
    markings: object
    initial_distribution: dict[int, float]
    transition_names: tuple[str, ...]
    transition_index: dict[str, int]
    rate_vector: np.ndarray

    @property
    def number_of_states(self) -> int: ...

    @property
    def has_coefficients(self) -> bool: ...

    def with_rate_vector(self, rate_vector: np.ndarray) -> "StateSpaceBackend": ...

    def exit_rates(self) -> np.ndarray: ...

    def throughput_vector(self, transition_name: str) -> np.ndarray: ...


def representation_of(graph) -> str:
    """The representation tag of a graph value (``in_ram`` / ``chunked``)."""
    return getattr(graph, "representation", "in_ram")


def is_chunked(graph) -> bool:
    return isinstance(graph, ChunkedGraph)


def is_state_space(graph) -> bool:
    """Whether ``graph`` is any supported state-space value."""
    return isinstance(graph, (TangibleReachabilityGraph, ChunkedGraph))


def iter_backend_classes() -> Iterable[type]:
    return (TangibleReachabilityGraph, ChunkedGraph)
