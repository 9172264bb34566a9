"""Abstract syntax tree for guard / measure expressions.

Nodes are small immutable dataclasses.  Every node knows how to report the set
of place names it references (used by the SPN engine to bind guards against a
net) and how to render itself back to source text (used in error messages and
round-trip checks).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet


class Expression:
    """Base class for every AST node."""

    def places(self) -> FrozenSet[str]:
        """Names of all places referenced by this expression."""
        raise NotImplementedError

    def identifiers(self) -> FrozenSet[str]:
        """Names of all free (non-place) identifiers referenced."""
        raise NotImplementedError

    def to_source(self) -> str:
        """Render the expression back to parsable source text."""
        raise NotImplementedError

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.to_source()


@dataclass(frozen=True)
class NumberLiteral(Expression):
    """A numeric constant."""

    value: float

    def places(self) -> FrozenSet[str]:
        return frozenset()

    def identifiers(self) -> FrozenSet[str]:
        return frozenset()

    def to_source(self) -> str:
        if float(self.value).is_integer():
            return str(int(self.value))
        return repr(float(self.value))


@dataclass(frozen=True)
class BooleanLiteral(Expression):
    """The constants ``TRUE`` and ``FALSE``."""

    value: bool

    def places(self) -> FrozenSet[str]:
        return frozenset()

    def identifiers(self) -> FrozenSet[str]:
        return frozenset()

    def to_source(self) -> str:
        return "TRUE" if self.value else "FALSE"


@dataclass(frozen=True)
class TokenCount(Expression):
    """``#place`` — the number of tokens in a place."""

    place: str

    def places(self) -> FrozenSet[str]:
        return frozenset({self.place})

    def identifiers(self) -> FrozenSet[str]:
        return frozenset()

    def to_source(self) -> str:
        return f"#{self.place}"


@dataclass(frozen=True)
class Identifier(Expression):
    """A named parameter resolved from an environment at compile time."""

    name: str

    def places(self) -> FrozenSet[str]:
        return frozenset()

    def identifiers(self) -> FrozenSet[str]:
        return frozenset({self.name})

    def to_source(self) -> str:
        return self.name


@dataclass(frozen=True)
class ArithmeticOp(Expression):
    """Binary arithmetic: ``+``, ``-``, ``*`` or ``/``."""

    operator: str
    left: Expression
    right: Expression

    def places(self) -> FrozenSet[str]:
        return self.left.places() | self.right.places()

    def identifiers(self) -> FrozenSet[str]:
        return self.left.identifiers() | self.right.identifiers()

    def to_source(self) -> str:
        return f"({self.left.to_source()} {self.operator} {self.right.to_source()})"


@dataclass(frozen=True)
class Negate(Expression):
    """Unary arithmetic minus."""

    operand: Expression

    def places(self) -> FrozenSet[str]:
        return self.operand.places()

    def identifiers(self) -> FrozenSet[str]:
        return self.operand.identifiers()

    def to_source(self) -> str:
        return f"(-{self.operand.to_source()})"


@dataclass(frozen=True)
class Comparison(Expression):
    """Binary comparison: ``=``, ``<>``, ``<``, ``<=``, ``>`` or ``>=``."""

    operator: str
    left: Expression
    right: Expression

    def places(self) -> FrozenSet[str]:
        return self.left.places() | self.right.places()

    def identifiers(self) -> FrozenSet[str]:
        return self.left.identifiers() | self.right.identifiers()

    def to_source(self) -> str:
        return f"({self.left.to_source()} {self.operator} {self.right.to_source()})"


@dataclass(frozen=True)
class BooleanOp(Expression):
    """Binary boolean connective: ``AND`` or ``OR``."""

    operator: str
    left: Expression
    right: Expression

    def places(self) -> FrozenSet[str]:
        return self.left.places() | self.right.places()

    def identifiers(self) -> FrozenSet[str]:
        return self.left.identifiers() | self.right.identifiers()

    def to_source(self) -> str:
        return f"({self.left.to_source()} {self.operator} {self.right.to_source()})"


@dataclass(frozen=True)
class Not(Expression):
    """Boolean negation."""

    operand: Expression

    def places(self) -> FrozenSet[str]:
        return self.operand.places()

    def identifiers(self) -> FrozenSet[str]:
        return self.operand.identifiers()

    def to_source(self) -> str:
        return f"NOT ({self.operand.to_source()})"
