"""Recursive-descent parser for the guard / measure expression language.

Grammar (in decreasing binding strength)::

    expression  := or_expr
    or_expr     := and_expr (OR and_expr)*
    and_expr    := not_expr (AND not_expr)*
    not_expr    := NOT not_expr | comparison
    comparison  := arithmetic ((= | <> | != | < | <= | > | >=) arithmetic)?
    arithmetic  := term ((+ | -) term)*
    term        := factor ((* | /) factor)*
    factor      := NUMBER | PLACE | IDENTIFIER | TRUE | FALSE
                 | '(' expression ')' | '-' factor

A comparison without a comparison operator is simply an arithmetic value,
which allows the same grammar to be used for rate expressions and reward
functions (e.g. ``#VM_UP1 + #VM_UP2``).
"""

from __future__ import annotations

import functools

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
from repro.expressions.lexer import tokenize
from repro.expressions.tokens import Token, TokenType

_COMPARISON_OPERATORS = {
    TokenType.EQ: "=",
    TokenType.NEQ: "<>",
    TokenType.LT: "<",
    TokenType.LE: "<=",
    TokenType.GT: ">",
    TokenType.GE: ">=",
}


class _Parser:
    """Stateful cursor over the token list."""

    def __init__(self, source: str):
        self._source = source
        self._tokens = tokenize(source)
        self._index = 0

    def parse(self) -> Expression:
        expression = self._parse_or()
        self._expect(TokenType.END)
        return expression

    # --- token helpers -------------------------------------------------

    def _peek(self) -> Token:
        return self._tokens[self._index]

    def _advance(self) -> Token:
        token = self._tokens[self._index]
        self._index += 1
        return token

    def _match(self, *types: TokenType) -> Token | None:
        if self._peek().type in types:
            return self._advance()
        return None

    def _expect(self, token_type: TokenType) -> Token:
        token = self._peek()
        if token.type is not token_type:
            raise ExpressionError(
                f"expected {token_type.value} but found {token.type.value} "
                f"({token.text!r}) at position {token.position} in {self._source!r}"
            )
        return self._advance()

    # --- grammar productions --------------------------------------------

    def _parse_or(self) -> Expression:
        left = self._parse_and()
        while self._match(TokenType.OR):
            right = self._parse_and()
            left = BooleanOp("OR", left, right)
        return left

    def _parse_and(self) -> Expression:
        left = self._parse_not()
        while self._match(TokenType.AND):
            right = self._parse_not()
            left = BooleanOp("AND", left, right)
        return left

    def _parse_not(self) -> Expression:
        if self._match(TokenType.NOT):
            return Not(self._parse_not())
        return self._parse_comparison()

    def _parse_comparison(self) -> Expression:
        left = self._parse_arithmetic()
        token = self._match(*_COMPARISON_OPERATORS)
        if token is None:
            return left
        right = self._parse_arithmetic()
        return Comparison(_COMPARISON_OPERATORS[token.type], left, right)

    def _parse_arithmetic(self) -> Expression:
        left = self._parse_term()
        while True:
            token = self._match(TokenType.PLUS, TokenType.MINUS)
            if token is None:
                return left
            operator = "+" if token.type is TokenType.PLUS else "-"
            right = self._parse_term()
            left = ArithmeticOp(operator, left, right)

    def _parse_term(self) -> Expression:
        left = self._parse_factor()
        while True:
            token = self._match(TokenType.STAR, TokenType.SLASH)
            if token is None:
                return left
            operator = "*" if token.type is TokenType.STAR else "/"
            right = self._parse_factor()
            left = ArithmeticOp(operator, left, right)

    def _parse_factor(self) -> Expression:
        token = self._peek()
        if token.type is TokenType.NUMBER:
            self._advance()
            return NumberLiteral(float(token.value))
        if token.type is TokenType.PLACE:
            self._advance()
            return TokenCount(str(token.value))
        if token.type is TokenType.IDENTIFIER:
            self._advance()
            return Identifier(str(token.value))
        if token.type is TokenType.TRUE:
            self._advance()
            return BooleanLiteral(True)
        if token.type is TokenType.FALSE:
            self._advance()
            return BooleanLiteral(False)
        if token.type is TokenType.MINUS:
            self._advance()
            return Negate(self._parse_factor())
        if token.type is TokenType.LPAREN:
            self._advance()
            expression = self._parse_or()
            self._expect(TokenType.RPAREN)
            return expression
        raise ExpressionError(
            f"unexpected token {token.text!r} at position {token.position} "
            f"in {self._source!r}"
        )


def parse(source: str) -> Expression:
    """Parse ``source`` into an :class:`~repro.expressions.ast.Expression`.

    Results are memoized per source string, so every call with the same
    text returns the same tree; the trees are shared and immutable (frozen
    dataclasses).  Errors are never cached: a malformed source raises on
    every call.

    Raises:
        ExpressionError: if the source is not a non-empty string or does not
            conform to the grammar.
    """
    if not isinstance(source, str):
        raise ExpressionError(f"expression source must be a string, got {type(source)!r}")
    if not source.strip():
        raise ExpressionError("expression source is empty")
    return _parse_source(source)


# One process parses the same strings many times: every case of a grid
# carries its own availability measure string, and every call or service job
# that builds a structure parses its guards again.  Measured per
# ``evaluate_grid`` call: a warm 210-case Figure 7 sweep makes 229 hits and no
# miss (213 of the hits are the measure string), three cold meshes 78 hits
# and 109 misses.  The bound holds some twenty-five structures as large as a
# capacity-aware N=8 mesh with two PMs per data center (161 distinct strings,
# its measure included) and keeps a long-running service from growing without
# limit as jobs bring new topologies.
@functools.lru_cache(maxsize=4096)
def _parse_source(source: str) -> Expression:
    return _Parser(source).parse()
