"""Numerical analysis of stochastic Petri nets.

``solve_steady_state`` is the analytic pipeline used throughout the case
study: generate the tangible reachability graph, build the CTMC generator,
solve for the stationary distribution and evaluate measures on it.
Transient (point and interval) measures over a time grid come from the
scenario engine's batched kernel,
:meth:`repro.engine.batch.ScenarioBatchEngine.run_transient`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence, Union

import numpy as np

from repro.exceptions import ModelError
from repro.expressions import Expression, compile_expression
from repro.markov import solvers
from repro.spn.ctmc_export import generator_matrix
from repro.spn.enabling import CompiledNet
from repro.spn.marking import MarkingView
from repro.spn.model import StochasticPetriNet
from repro.spn.reachability import (
    DEFAULT_MAX_TANGIBLE_MARKINGS,
    TangibleReachabilityGraph,
    generate_tangible_reachability_graph,
)
from repro.spn.rewards import (
    ExpectedTokensMeasure,
    Measure,
    ProbabilityMeasure,
    ThroughputMeasure,
    validate_measures,
)

ExpressionLike = Union[str, Expression]


@dataclass
class SteadyStateSolution:
    """Stationary solution of a net.

    Attributes:
        graph: tangible reachability graph.
        probabilities: stationary probability of each tangible marking.
    """

    graph: TangibleReachabilityGraph
    probabilities: np.ndarray

    # --- the paper's operators -------------------------------------------

    def probability(self, expression: ExpressionLike) -> float:
        """``P{expression}`` — steady-state probability of a marking predicate."""
        return self._expectation(self._predicate_vector(expression))

    def expected_tokens(self, expression: ExpressionLike) -> float:
        """``E{expression}`` — expected value of a numeric marking expression."""
        return self._expectation(self._value_vector(expression))

    def throughput(self, transition_name: str) -> float:
        """Expected firing rate of a timed transition."""
        return self._expectation(self._throughput_vector(transition_name))

    # --- measure objects ----------------------------------------------------

    def measure(self, measure: Measure) -> float:
        """Evaluate a single measure object."""
        if isinstance(measure, ProbabilityMeasure):
            return self.probability(measure.expression)
        if isinstance(measure, ExpectedTokensMeasure):
            return self.expected_tokens(measure.expression)
        if isinstance(measure, ThroughputMeasure):
            return self.throughput(measure.transition)
        raise ModelError(f"unsupported measure type {type(measure)!r}")

    def evaluate(self, measures: Sequence[Measure]) -> dict[str, float]:
        """Evaluate several measures at once."""
        validate_measures(measures)
        return {measure.name: self.measure(measure) for measure in measures}

    # --- inspection -----------------------------------------------------------

    def marking_probabilities(
        self, minimum_probability: float = 0.0
    ) -> list[tuple[MarkingView, float]]:
        """(marking, probability) pairs sorted by decreasing probability."""
        pairs = [
            (self.graph.marking_view(state_id), float(probability))
            for state_id, probability in enumerate(self.probabilities)
            if probability >= minimum_probability
        ]
        pairs.sort(key=lambda item: item[1], reverse=True)
        return pairs

    @property
    def number_of_states(self) -> int:
        return self.graph.number_of_states

    # --- per-state vectors ----------------------------------------------------

    def _place_index(self) -> Mapping[str, int]:
        return self.graph.net.place_index

    def _expectation(self, values_per_state: np.ndarray) -> float:
        return float(np.dot(values_per_state, self.probabilities))

    def _predicate_vector(self, expression: ExpressionLike) -> np.ndarray:
        predicate = compile_expression(expression, self._place_index())
        return np.asarray(
            [1.0 if predicate(marking) else 0.0 for marking in self.graph.markings]
        )

    def _value_vector(self, expression: ExpressionLike) -> np.ndarray:
        if isinstance(expression, str):
            candidate = expression.strip()
            if candidate in self._place_index():
                expression = f"#{candidate}"
        value = compile_expression(expression, self._place_index())
        return np.asarray([float(value(marking)) for marking in self.graph.markings])

    def _throughput_vector(self, transition_name: str) -> np.ndarray:
        try:
            return self.graph.throughput_vector(transition_name)
        except KeyError:
            raise ModelError(
                f"unknown timed transition {transition_name!r}; throughput is only "
                "defined for timed transitions"
            ) from None


def solve_steady_state(
    net: Union[StochasticPetriNet, CompiledNet, TangibleReachabilityGraph],
    method: str = "auto",
    max_states: int = DEFAULT_MAX_TANGIBLE_MARKINGS,
) -> SteadyStateSolution:
    """Stationary analysis of a net.

    Args:
        net: a declarative net, a compiled net, or an already-generated
            tangible reachability graph (reused as-is).
        method: stationary solver passed to :func:`repro.markov.solvers.steady_state`.
        max_states: tangible state-space limit for reachability generation.
    """
    graph = _as_graph(net, max_states)
    matrix = generator_matrix(graph)
    if graph.number_of_states == 1:
        probabilities = np.array([1.0])
    else:
        probabilities = solvers.steady_state(matrix, method=method)
    return SteadyStateSolution(graph=graph, probabilities=probabilities)


def _as_graph(
    net: Union[StochasticPetriNet, CompiledNet, TangibleReachabilityGraph],
    max_states: int,
) -> TangibleReachabilityGraph:
    if isinstance(net, TangibleReachabilityGraph):
        return net
    return generate_tangible_reachability_graph(net, max_states=max_states)
