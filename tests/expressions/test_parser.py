"""Tests for the expression parser."""

import pytest

from repro.exceptions import ExpressionError
from repro.expressions import (
    ArithmeticOp,
    BooleanLiteral,
    BooleanOp,
    Comparison,
    Identifier,
    Negate,
    Not,
    NumberLiteral,
    TokenCount,
    parse,
)


class TestParseAtoms:
    def test_number(self):
        node = parse("42")
        assert isinstance(node, NumberLiteral)
        assert node.value == 42

    def test_place(self):
        node = parse("#VM_UP1")
        assert isinstance(node, TokenCount)
        assert node.place == "VM_UP1"

    def test_identifier(self):
        node = parse("k")
        assert isinstance(node, Identifier)
        assert node.name == "k"

    def test_boolean_literals(self):
        assert parse("TRUE") == BooleanLiteral(True)
        assert parse("FALSE") == BooleanLiteral(False)

    def test_unary_minus(self):
        node = parse("-3")
        assert isinstance(node, Negate)


class TestPrecedence:
    def test_multiplication_binds_tighter_than_addition(self):
        node = parse("1 + 2 * 3")
        assert isinstance(node, ArithmeticOp)
        assert node.operator == "+"
        assert isinstance(node.right, ArithmeticOp)
        assert node.right.operator == "*"

    def test_and_binds_tighter_than_or(self):
        node = parse("#A=1 OR #B=1 AND #C=1")
        assert isinstance(node, BooleanOp)
        assert node.operator == "OR"
        assert isinstance(node.right, BooleanOp)
        assert node.right.operator == "AND"

    def test_comparison_of_sums(self):
        node = parse("#A + #B >= 2")
        assert isinstance(node, Comparison)
        assert node.operator == ">="
        assert isinstance(node.left, ArithmeticOp)

    def test_not_binds_to_following_term(self):
        node = parse("NOT #A=0 AND #B=0")
        assert isinstance(node, BooleanOp)
        assert node.operator == "AND"
        assert isinstance(node.left, Not)

    def test_parentheses_override(self):
        node = parse("NOT (#A=0 AND #B=0)")
        assert isinstance(node, Not)
        assert isinstance(node.operand, BooleanOp)


class TestPaperGuards:
    def test_vm_behavior_failure_guard(self):
        node = parse("(#OSPM_UP1=0) OR (#NAS_NET_UP1=0) OR (#DC_UP1=0)")
        assert node.places() == frozenset({"OSPM_UP1", "NAS_NET_UP1", "DC_UP1"})

    def test_transmission_guard_tri12(self):
        source = (
            "((#OSPM_UP1+#OSPM_UP2)=0) AND NOT ((#OSPM_UP3 + #OSPM_UP4)=0 "
            "OR #NAS_NET_UP2=0 OR #DC_UP2=0)"
        )
        node = parse(source)
        assert "OSPM_UP1" in node.places()
        assert "DC_UP2" in node.places()
        assert len(node.places()) == 6

    def test_availability_measure_expression(self):
        node = parse("(#VM_UP1 + #VM_UP2 + #VM_UP3 + #VM_UP4) >= 2")
        assert len(node.places()) == 4


class TestSourceRoundTrip:
    @pytest.mark.parametrize(
        "source",
        [
            "#A + 2 * #B",
            "(#A = 0) OR NOT (#B > 1)",
            "#X_ON > 0",
            "TRUE AND #P <= 3",
            "-#A + 5 / 2 <> 1",
        ],
    )
    def test_reparsing_rendered_source_gives_same_ast(self, source):
        first = parse(source)
        second = parse(first.to_source())
        assert first == second


class TestParseErrors:
    def test_empty_source(self):
        with pytest.raises(ExpressionError):
            parse("   ")

    def test_non_string(self):
        # An unhashable source must not reach the parse cache as a TypeError.
        for source in (42, ["#A = 0"]):
            with pytest.raises(ExpressionError):
                parse(source)  # type: ignore[arg-type]

    def test_unbalanced_parenthesis(self):
        with pytest.raises(ExpressionError):
            parse("(#A = 0")

    def test_trailing_tokens(self):
        with pytest.raises(ExpressionError):
            parse("#A = 0 #B")

    def test_missing_operand(self):
        with pytest.raises(ExpressionError):
            parse("#A +")


class TestParseCache:
    def test_same_source_returns_the_same_tree(self):
        source = "(#OSPM_UP1=0) OR (#NAS_NET_UP1=0) OR (#DC_UP1=0)"
        assert parse(source) is parse(source)

    def test_errors_are_raised_on_every_call(self):
        for _ in range(2):
            with pytest.raises(ExpressionError, match="position"):
                parse("(#A = 0) AND")
