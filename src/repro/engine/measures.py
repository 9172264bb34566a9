"""Batched (GEMM) evaluation of reward measures over many solutions.

Every measure of the engine is linear in the stationary vector: a
probability measure is the dot product with a 0/1 predicate vector, an
expected-tokens measure with a per-marking value vector, and a throughput
measure with the transition's enabling-degree vector scaled by its
(scenario-dependent) rate.  A whole batch of scenarios can therefore be
evaluated as **one** dense matrix product

    values = solutions @ R          # (S, n) @ (n, m) -> (S, m)

where ``R`` stacks the rate-independent reward vectors column-wise, followed
by a column-wise scaling of the throughput columns with the per-scenario
rates.  Building ``R`` walks the tangible markings once per measure; the
per-scenario work — previously ``S × m`` Python-level dot products, each of
which re-walked all ``n`` markings — collapses into a single BLAS call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.exceptions import ModelError
from repro.spn.reachability import TangibleReachabilityGraph
from repro.spn.rewards import (
    ExpectedTokensMeasure,
    Measure,
    ProbabilityMeasure,
    ThroughputMeasure,
)


@dataclass
class RewardMatrix:
    """Column-stacked reward vectors of a measure list over one state space.

    Attributes:
        names: measure names, in column order.
        matrix: ``(n, m)`` float64 matrix; column ``j`` is the
            rate-independent reward vector of measure ``j``.
        throughput_scale: per column, the index into the graph's rate vector
            whose per-scenario value the GEMM result must be scaled by
            (``None`` for rate-independent measures).
    """

    names: list[str]
    matrix: np.ndarray
    throughput_scale: list[Optional[int]]

    @classmethod
    def from_measures(
        cls, graph: TangibleReachabilityGraph, measures: Sequence[Measure]
    ) -> "RewardMatrix":
        """Compile ``measures`` into reward columns over ``graph``.

        Raises:
            ModelError: for a throughput measure that names no timed
                transition of the graph, or an unknown measure type.
        """
        place_index = graph.net.place_index
        names: list[str] = []
        columns: list[np.ndarray] = []
        scales: list[Optional[int]] = []
        for measure in measures:
            if isinstance(measure, (ProbabilityMeasure, ExpectedTokensMeasure)):
                evaluate = measure.compiled(place_index)
                columns.append(
                    np.fromiter(
                        (evaluate(marking) for marking in graph.markings),
                        dtype=np.float64,
                        count=len(graph.markings),
                    )
                )
                scales.append(None)
            elif isinstance(measure, ThroughputMeasure):
                index = graph.transition_index.get(measure.transition)
                if index is None:
                    raise ModelError(
                        f"unknown timed transition {measure.transition!r}; "
                        "throughput is only defined for timed transitions"
                    )
                if graph.state_coefficient_matrix is not None:
                    row = graph.state_coefficient_matrix.getrow(index)
                    column = np.zeros(graph.number_of_states)
                    column[row.indices] = row.data
                else:
                    # Chunked backends stream the degree column instead of
                    # holding a global coefficient matrix.
                    column = np.asarray(
                        graph.throughput_degree_column(index), dtype=np.float64
                    )
                columns.append(column)
                scales.append(int(index))
            else:
                raise ModelError(f"unsupported measure type {type(measure)!r}")
            names.append(measure.name)
        matrix = (
            np.column_stack(columns)
            if columns
            else np.zeros((graph.number_of_states, 0))
        )
        return cls(names=names, matrix=matrix, throughput_scale=scales)

    @property
    def number_of_measures(self) -> int:
        return len(self.names)

    def evaluate(
        self,
        solutions: np.ndarray,
        rate_matrix: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """``(S, m)`` measure values of a stacked ``(S, n)`` solution block.

        ``rate_matrix`` is the ``(S, T)`` per-scenario rate-vector block;
        required whenever the measure list contains throughput measures
        (their columns are scaled by the scenario's transition rate).
        """
        solutions = np.asarray(solutions, dtype=np.float64)
        if solutions.ndim != 2 or solutions.shape[1] != self.matrix.shape[0]:
            raise ValueError(
                f"expected a (scenarios, {self.matrix.shape[0]}) solution block, "
                f"got shape {solutions.shape}"
            )
        values = solutions @ self.matrix
        for column, index in enumerate(self.throughput_scale):
            if index is None:
                continue
            if rate_matrix is None:
                raise ValueError(
                    "throughput measures need the per-scenario rate matrix"
                )
            values[:, column] *= rate_matrix[:, index]
        return values

    def as_dicts(self, values: np.ndarray) -> list[dict[str, float]]:
        """Rows of an ``evaluate`` result as ``{measure_name: value}`` dicts."""
        return [
            {name: float(row[j]) for j, name in enumerate(self.names)}
            for row in values
        ]
