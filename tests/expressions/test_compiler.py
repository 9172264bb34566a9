"""Tests for expression evaluation and compilation."""

import numpy as np
import pytest

from repro.exceptions import ExpressionError
from repro.expressions import compile_expression, evaluate, parse
from repro.expressions.compiler import MAX_TABLE_ATOMS, LinearAtom, tabulate_guard


class TestEvaluate:
    def test_token_count(self):
        assert evaluate("#A", {"A": 3}) == 3.0

    def test_arithmetic(self):
        assert evaluate("#A + 2 * #B", {"A": 1, "B": 4}) == 9.0

    def test_division(self):
        assert evaluate("#A / 4", {"A": 2}) == pytest.approx(0.5)

    def test_division_by_zero_raises(self):
        with pytest.raises(ExpressionError):
            evaluate("1 / #A", {"A": 0})

    def test_comparisons(self):
        marking = {"A": 2, "B": 0}
        assert evaluate("#A = 2", marking) is True
        assert evaluate("#A <> 2", marking) is False
        assert evaluate("#A > 1", marking) is True
        assert evaluate("#B >= 1", marking) is False
        assert evaluate("#B <= 0", marking) is True
        assert evaluate("#B < 0", marking) is False

    def test_boolean_connectives(self):
        marking = {"A": 1, "B": 0}
        assert evaluate("#A = 1 AND #B = 0", marking) is True
        assert evaluate("#A = 0 OR #B = 0", marking) is True
        assert evaluate("NOT (#A = 1)", marking) is False

    def test_boolean_literals(self):
        assert evaluate("TRUE", {}) is True
        assert evaluate("FALSE OR #A > 0", {"A": 1}) is True

    def test_identifier_from_environment(self):
        assert evaluate("#A >= k", {"A": 3}, {"k": 2}) is True

    def test_unknown_place_raises(self):
        with pytest.raises(ExpressionError):
            evaluate("#MISSING", {"A": 1})

    def test_unknown_identifier_raises(self):
        with pytest.raises(ExpressionError):
            evaluate("k + 1", {})

    def test_paper_guard_semantics(self):
        guard = "(#OSPM_UP1=0) OR (#NAS_NET_UP1=0) OR (#DC_UP1=0)"
        all_up = {"OSPM_UP1": 1, "NAS_NET_UP1": 1, "DC_UP1": 1}
        disaster = {"OSPM_UP1": 1, "NAS_NET_UP1": 1, "DC_UP1": 0}
        assert evaluate(guard, all_up) is False
        assert evaluate(guard, disaster) is True


class TestCompileExpression:
    def test_compiled_matches_interpreter(self):
        source = "(#A + #B) * 2 >= 6 AND NOT (#C = 0)"
        index = {"A": 0, "B": 1, "C": 2}
        compiled = compile_expression(source, index)
        for marking in [(1, 2, 1), (3, 0, 0), (0, 0, 5), (2, 1, 1)]:
            as_dict = {"A": marking[0], "B": marking[1], "C": marking[2]}
            assert compiled(marking) == evaluate(source, as_dict)

    def test_compiled_numeric_expression(self):
        compiled = compile_expression("#A * 3 - 1", {"A": 0})
        assert compiled((4,)) == pytest.approx(11.0)

    def test_compiled_identifier_resolved_at_compile_time(self):
        compiled = compile_expression("#A >= k", {"A": 0}, {"k": 2})
        assert compiled((3,)) is True
        assert compiled((1,)) is False

    def test_compile_accepts_ast(self):
        node = parse("#A > 0")
        compiled = compile_expression(node, {"A": 0})
        assert compiled((1,)) is True

    def test_unknown_place_raises_at_compile_time(self):
        with pytest.raises(ExpressionError):
            compile_expression("#MISSING > 0", {"A": 0})

    def test_unknown_identifier_raises_at_compile_time(self):
        with pytest.raises(ExpressionError):
            compile_expression("k > 0", {"A": 0})

    def test_constant_folding_of_literals(self):
        compiled = compile_expression("TRUE", {})
        assert compiled(()) is True

    def test_works_with_numpy_like_sequences(self):
        compiled = compile_expression("#A + #B = 3", {"A": 0, "B": 1})
        assert compiled(np.array([1, 2])) is True


class TestTabulateGuard:
    INDEX = {"A": 0, "B": 1}

    def test_comparison_becomes_an_integer_interval(self):
        tabulated = tabulate_guard("#A > 1", self.INDEX)
        assert tabulated.atoms == (LinearAtom(((0, 1),), 2.0, np.inf),)
        assert tabulated.table.tolist() == [False, True]

    def test_one_test_written_two_ways_is_one_atom(self):
        tabulated = tabulate_guard("(#A > #B) AND (#B - #A < 0)", self.INDEX)
        assert tabulated.atoms == (LinearAtom(((0, 1), (1, -1)), 1.0, np.inf),)

    def test_inequality_negates_the_point_atom(self):
        tabulated = tabulate_guard("#A + 1 <> #B", self.INDEX)
        assert tabulated.atoms == (LinearAtom(((0, 1), (1, -1)), -1.0, -1.0),)
        assert tabulated.table.tolist() == [True, False]

    def test_table_follows_the_connectives(self):
        tabulated = tabulate_guard("NOT (#A = 0) OR #B >= 2", self.INDEX)
        compiled = compile_expression("NOT (#A = 0) OR #B >= 2", self.INDEX)
        for a in range(3):
            for b in range(4):
                code = sum(
                    1 << bit
                    for bit, atom in enumerate(tabulated.atoms)
                    if atom.lo <= sum(c * (a, b)[p] for p, c in atom.terms) <= atom.hi
                )
                assert tabulated.table[code] == compiled((a, b))

    @pytest.mark.parametrize(
        "source",
        ["#A * 2 > 1", "#A / 2 > 1", "#A > k", "#A > 0.5", "(#A > 0) = (#B > 0)"],
    )
    def test_nonlinear_guards_do_not_reduce(self, source):
        assert tabulate_guard(source, self.INDEX) is None

    def test_too_many_atoms_do_not_reduce(self):
        wide = " OR ".join(f"#A = {level}" for level in range(MAX_TABLE_ATOMS + 1))
        assert tabulate_guard(wide, self.INDEX) is None
        narrow = " OR ".join(f"#A = {level}" for level in range(MAX_TABLE_ATOMS))
        assert len(tabulate_guard(narrow, self.INDEX).atoms) == MAX_TABLE_ATOMS
