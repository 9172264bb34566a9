"""Evaluation and compilation of guard / measure expressions.

Three forms are provided:

* :func:`evaluate` — interpret an AST against a ``{place: tokens}`` mapping.
  Convenient for tests and one-off measure evaluation.
* :func:`compile_expression` — compile an AST into a closure over an indexed
  marking vector (a tuple/ndarray of token counts), with the place indices
  already resolved.  Measures, the scalar explorer and the kernel's guards
  that do not tabulate call it once per marking.
* :func:`tabulate_guard` — reduce a boolean expression to a truth table over
  *linear atoms* ``lo <= Σ c·#p <= hi`` with integer coefficients and
  bounds.  The incidence kernel (:mod:`repro.spn.kernel`) evaluates the atoms
  of every guard of a net with one matrix product per marking block and reads
  each guard off its table; guards that do not reduce keep the closure.

Boolean results are returned as ``bool``; arithmetic results as ``float``
(integers preserved as whole-valued floats).  Numbers used in a boolean
context follow the usual "non-zero is true" convention, and booleans used in
an arithmetic context count as 0/1, matching the semantics of TimeNET-style
guard expressions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, NamedTuple, Optional, Sequence, Union

import numpy as np

from repro.exceptions import ExpressionError
from repro.expressions.ast import (
    ArithmeticOp,
    BooleanLiteral,
    BooleanOp,
    Comparison,
    Expression,
    Identifier,
    Negate,
    Not,
    NumberLiteral,
    TokenCount,
)
from repro.expressions.parser import parse

Value = Union[bool, float]
CompiledExpression = Callable[[Sequence[int]], Value]

_EQUALITY_TOLERANCE = 1e-12


def _as_number(value: Value) -> float:
    if isinstance(value, bool):
        return 1.0 if value else 0.0
    return float(value)


def _as_bool(value: Value) -> bool:
    if isinstance(value, bool):
        return value
    return value != 0.0


def _compare(operator: str, left: float, right: float) -> bool:
    if operator == "=":
        return abs(left - right) <= _EQUALITY_TOLERANCE
    if operator == "<>":
        return abs(left - right) > _EQUALITY_TOLERANCE
    if operator == "<":
        return left < right
    if operator == "<=":
        return left <= right
    if operator == ">":
        return left > right
    if operator == ">=":
        return left >= right
    raise ExpressionError(f"unknown comparison operator {operator!r}")


def _arithmetic(operator: str, left: float, right: float) -> float:
    if operator == "+":
        return left + right
    if operator == "-":
        return left - right
    if operator == "*":
        return left * right
    if operator == "/":
        if right == 0.0:
            raise ExpressionError("division by zero while evaluating expression")
        return left / right
    raise ExpressionError(f"unknown arithmetic operator {operator!r}")


def evaluate(
    expression: Union[Expression, str],
    marking: Mapping[str, int],
    environment: Mapping[str, float] | None = None,
) -> Value:
    """Evaluate ``expression`` against a ``{place_name: token_count}`` mapping.

    Args:
        expression: an AST or source text (parsed on the fly).
        marking: token counts; every place referenced by the expression must
            be present.
        environment: optional values for free identifiers.

    Raises:
        ExpressionError: on unknown places/identifiers or evaluation errors.
    """
    if isinstance(expression, str):
        expression = parse(expression)
    environment = environment or {}

    if isinstance(expression, NumberLiteral):
        return float(expression.value)
    if isinstance(expression, BooleanLiteral):
        return expression.value
    if isinstance(expression, TokenCount):
        if expression.place not in marking:
            raise ExpressionError(f"unknown place {expression.place!r} in expression")
        return float(marking[expression.place])
    if isinstance(expression, Identifier):
        if expression.name not in environment:
            raise ExpressionError(f"unknown identifier {expression.name!r} in expression")
        return float(environment[expression.name])
    if isinstance(expression, Negate):
        return -_as_number(evaluate(expression.operand, marking, environment))
    if isinstance(expression, ArithmeticOp):
        return _arithmetic(
            expression.operator,
            _as_number(evaluate(expression.left, marking, environment)),
            _as_number(evaluate(expression.right, marking, environment)),
        )
    if isinstance(expression, Comparison):
        return _compare(
            expression.operator,
            _as_number(evaluate(expression.left, marking, environment)),
            _as_number(evaluate(expression.right, marking, environment)),
        )
    if isinstance(expression, BooleanOp):
        left = _as_bool(evaluate(expression.left, marking, environment))
        if expression.operator == "AND":
            return left and _as_bool(evaluate(expression.right, marking, environment))
        if expression.operator == "OR":
            return left or _as_bool(evaluate(expression.right, marking, environment))
        raise ExpressionError(f"unknown boolean operator {expression.operator!r}")
    if isinstance(expression, Not):
        return not _as_bool(evaluate(expression.operand, marking, environment))
    raise ExpressionError(f"unsupported expression node {type(expression)!r}")


def compile_expression(
    expression: Union[Expression, str],
    place_index: Mapping[str, int],
    environment: Mapping[str, float] | None = None,
) -> CompiledExpression:
    """Compile ``expression`` into a closure over an indexed marking vector.

    Args:
        expression: an AST or source text (parsed on the fly).
        place_index: mapping from place name to its position in the marking
            vectors the closure will be called with.
        environment: optional values for free identifiers, resolved at
            compile time.

    Returns:
        A callable ``f(marking_vector) -> bool | float``.

    Raises:
        ExpressionError: if the expression references a place not present in
            ``place_index`` or an identifier not present in ``environment``.
    """
    if isinstance(expression, str):
        expression = parse(expression)
    environment = environment or {}

    if isinstance(expression, NumberLiteral):
        constant = float(expression.value)
        return lambda marking: constant
    if isinstance(expression, BooleanLiteral):
        literal = expression.value
        return lambda marking: literal
    if isinstance(expression, TokenCount):
        if expression.place not in place_index:
            raise ExpressionError(
                f"expression references unknown place {expression.place!r}; "
                f"known places: {sorted(place_index)}"
            )
        index = place_index[expression.place]
        return lambda marking: float(marking[index])
    if isinstance(expression, Identifier):
        if expression.name not in environment:
            raise ExpressionError(
                f"expression references unknown identifier {expression.name!r}"
            )
        constant = float(environment[expression.name])
        return lambda marking: constant
    if isinstance(expression, Negate):
        operand = compile_expression(expression.operand, place_index, environment)
        return lambda marking: -_as_number(operand(marking))
    if isinstance(expression, ArithmeticOp):
        left = compile_expression(expression.left, place_index, environment)
        right = compile_expression(expression.right, place_index, environment)
        operator = expression.operator
        if operator == "+":
            return lambda marking: _as_number(left(marking)) + _as_number(right(marking))
        if operator == "-":
            return lambda marking: _as_number(left(marking)) - _as_number(right(marking))
        if operator == "*":
            return lambda marking: _as_number(left(marking)) * _as_number(right(marking))
        if operator == "/":
            return lambda marking: _arithmetic(
                "/", _as_number(left(marking)), _as_number(right(marking))
            )
        raise ExpressionError(f"unknown arithmetic operator {operator!r}")
    if isinstance(expression, Comparison):
        left = compile_expression(expression.left, place_index, environment)
        right = compile_expression(expression.right, place_index, environment)
        operator = expression.operator
        if operator == "=":
            return (
                lambda marking: abs(_as_number(left(marking)) - _as_number(right(marking)))
                <= _EQUALITY_TOLERANCE
            )
        if operator == "<>":
            return (
                lambda marking: abs(_as_number(left(marking)) - _as_number(right(marking)))
                > _EQUALITY_TOLERANCE
            )
        if operator == "<":
            return lambda marking: _as_number(left(marking)) < _as_number(right(marking))
        if operator == "<=":
            return lambda marking: _as_number(left(marking)) <= _as_number(right(marking))
        if operator == ">":
            return lambda marking: _as_number(left(marking)) > _as_number(right(marking))
        if operator == ">=":
            return lambda marking: _as_number(left(marking)) >= _as_number(right(marking))
        raise ExpressionError(f"unknown comparison operator {operator!r}")
    if isinstance(expression, BooleanOp):
        left = compile_expression(expression.left, place_index, environment)
        right = compile_expression(expression.right, place_index, environment)
        if expression.operator == "AND":
            return lambda marking: _as_bool(left(marking)) and _as_bool(right(marking))
        if expression.operator == "OR":
            return lambda marking: _as_bool(left(marking)) or _as_bool(right(marking))
        raise ExpressionError(f"unknown boolean operator {expression.operator!r}")
    if isinstance(expression, Not):
        operand = compile_expression(expression.operand, place_index, environment)
        return lambda marking: not _as_bool(operand(marking))
    raise ExpressionError(f"unsupported expression node {type(expression)!r}")


# --- linear atoms and truth tables -----------------------------------------

#: Most atoms a guard may read and still be tabulated (its table has 2**k rows).
MAX_TABLE_ATOMS = 16

#: Interval of ``Σ c·#p - bound`` that makes each comparison true on integers.
_INTERVALS = {
    "=": (0.0, 0.0),
    "<>": (0.0, 0.0),
    "<": (-np.inf, -1.0),
    "<=": (-np.inf, 0.0),
    ">": (1.0, np.inf),
    ">=": (0.0, np.inf),
}


@dataclass(frozen=True)
class LinearAtom:
    """The test ``lo <= Σ c·#p <= hi`` on integer token counts.

    ``terms`` holds ``(place index, coefficient)`` pairs sorted by place,
    with integer coefficients and the first one positive, so one test written
    two ways (``#A > #B``, ``#B - #A < 0``) is one atom.  ``lo`` and ``hi``
    are whole numbers or infinite.
    """

    terms: tuple[tuple[int, int], ...]
    lo: float
    hi: float


class GuardTable(NamedTuple):
    """A boolean expression as a truth table over its own linear atoms.

    ``table[code]`` is the expression's value in a marking where atom ``i``
    holds exactly when bit ``i`` of ``code`` is set.
    """

    atoms: tuple[LinearAtom, ...]
    table: np.ndarray


class _NotLinear(Exception):
    """A subexpression outside the integer linear fragment."""


def _linear_form(
    expression: Expression, place_index: Mapping[str, int]
) -> tuple[dict[int, int], int]:
    """``(coefficient by place index, constant)`` of an integer linear sum."""
    if isinstance(expression, NumberLiteral):
        value = float(expression.value)
        if not value.is_integer():
            raise _NotLinear
        return {}, int(value)
    if isinstance(expression, TokenCount):
        if expression.place not in place_index:
            raise _NotLinear
        return {place_index[expression.place]: 1}, 0
    if isinstance(expression, Negate):
        terms, constant = _linear_form(expression.operand, place_index)
        return {place: -c for place, c in terms.items()}, -constant
    if isinstance(expression, ArithmeticOp) and expression.operator in ("+", "-"):
        terms, constant = _linear_form(expression.left, place_index)
        right_terms, right_constant = _linear_form(expression.right, place_index)
        sign = 1 if expression.operator == "+" else -1
        for place, c in right_terms.items():
            terms[place] = terms.get(place, 0) + sign * c
        return terms, constant + sign * right_constant
    raise _NotLinear


def _formula(
    expression: Expression,
    place_index: Mapping[str, int],
    atoms: dict[LinearAtom, int],
) -> Callable[[np.ndarray], np.ndarray]:
    """``expression`` as a function of atom codes; registers its atoms."""
    if isinstance(expression, BooleanLiteral):
        value = expression.value
        return lambda codes: np.full(codes.shape, value)
    if isinstance(expression, Not):
        operand = _formula(expression.operand, place_index, atoms)
        return lambda codes: ~operand(codes)
    if isinstance(expression, BooleanOp):
        left = _formula(expression.left, place_index, atoms)
        right = _formula(expression.right, place_index, atoms)
        if expression.operator == "AND":
            return lambda codes: left(codes) & right(codes)
        if expression.operator == "OR":
            return lambda codes: left(codes) | right(codes)
        raise _NotLinear
    if isinstance(expression, Comparison):
        terms, constant = _linear_form(expression.left, place_index)
        right_terms, right_constant = _linear_form(expression.right, place_index)
        for place, c in right_terms.items():
            terms[place] = terms.get(place, 0) - c
        operator, bound = expression.operator, right_constant - constant
    else:  # a number in a boolean context is true when non-zero
        terms, constant = _linear_form(expression, place_index)
        operator, bound = "<>", -constant
    if operator not in _INTERVALS:
        raise _NotLinear
    lo, hi = _INTERVALS[operator]
    lo, hi = lo + bound, hi + bound
    negate = operator == "<>"
    terms = sorted((place, c) for place, c in terms.items() if c)
    if not terms:
        value = (lo <= 0.0 <= hi) != negate
        return lambda codes: np.full(codes.shape, value)
    if terms[0][1] < 0:
        terms = [(place, -c) for place, c in terms]
        lo, hi = -hi, -lo
    bit = atoms.setdefault(LinearAtom(tuple(terms), lo, hi), len(atoms))
    return lambda codes: ((codes >> bit) & 1).astype(bool) != negate


def tabulate_guard(
    expression: Union[Expression, str], place_index: Mapping[str, int]
) -> Optional[GuardTable]:
    """``expression`` as a truth table over integer linear atoms, if it reduces.

    It reduces when its comparisons compare sums and differences of token
    counts and integer literals, joined by ``AND``, ``OR`` and ``NOT``, and
    it reads at most :data:`MAX_TABLE_ATOMS` distinct atoms.  ``=`` and
    ``<>`` are then exact on integer token counts, like the compiled
    closure's 1e-12 tolerance.  Answers ``None`` otherwise (``*``, ``/``,
    identifiers, non-integer literals, booleans used as numbers): callers
    evaluate :func:`compile_expression`'s closure instead.
    """
    if isinstance(expression, str):
        expression = parse(expression)
    atoms: dict[LinearAtom, int] = {}
    try:
        formula = _formula(expression, place_index, atoms)
    except _NotLinear:
        return None
    if len(atoms) > MAX_TABLE_ATOMS:
        return None
    codes = np.arange(1 << len(atoms), dtype=np.int64)
    return GuardTable(tuple(atoms), formula(codes))
