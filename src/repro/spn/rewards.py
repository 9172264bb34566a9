"""Measure (reward) definitions for SPN analysis.

The paper expresses its metrics with two operators (Section IV): ``P{exp}``,
the steady-state probability that a boolean expression over the marking
holds, and ``#p``, the number of tokens in place ``p``.  The measures here
cover both, plus transition throughput, and can be evaluated against either
an analytic solution (probability vector over tangible markings) or a
simulation run (time-weighted averages).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence, Union

from repro.exceptions import ExpressionError
from repro.expressions import Expression, compile_expression, parse


@dataclass(frozen=True)
class ProbabilityMeasure:
    """``P{expression}`` — steady-state probability of a marking predicate.

    Example: ``ProbabilityMeasure("availability", "#VM_UP1 + #VM_UP2 >= 2")``.
    """

    name: str
    expression: Union[str, Expression]

    def compiled(self, place_index: Mapping[str, int]):
        predicate = compile_expression(self.expression, place_index)
        return lambda marking: 1.0 if predicate(marking) else 0.0


@dataclass(frozen=True)
class ExpectedTokensMeasure:
    """``E{expression}`` — expected value of a numeric marking expression.

    Example: ``ExpectedTokensMeasure("running_vms", "#VM_UP1 + #VM_UP2")``.
    A bare place name is accepted as shorthand for ``#place``.
    """

    name: str
    expression: Union[str, Expression]

    def compiled(self, place_index: Mapping[str, int]):
        expression = self.expression
        if isinstance(expression, str) and not expression.strip().startswith(("#", "(")):
            candidate = expression.strip()
            if candidate in place_index:
                expression = f"#{candidate}"
        value = compile_expression(expression, place_index)
        return lambda marking: float(value(marking))


@dataclass(frozen=True)
class ThroughputMeasure:
    """Expected firing rate of a timed transition (firings per time unit)."""

    name: str
    transition: str


Measure = Union[ProbabilityMeasure, ExpectedTokensMeasure, ThroughputMeasure]


def availability_measure(expression: Union[str, Expression], name: str = "availability") -> ProbabilityMeasure:
    """Convenience constructor for the paper's availability metric ``P{exp}``."""
    return ProbabilityMeasure(name, expression)


def validate_measures(measures: Sequence[Measure]) -> None:
    """Fail fast on duplicate measure names or unparsable expressions."""
    seen: set[str] = set()
    for measure in measures:
        if measure.name in seen:
            raise ExpressionError(f"duplicate measure name {measure.name!r}")
        seen.add(measure.name)
        if isinstance(measure, (ProbabilityMeasure, ExpectedTokensMeasure)):
            if isinstance(measure.expression, str):
                parse(measure.expression)
