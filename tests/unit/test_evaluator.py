"""Unit tests for scalar evaluation with three-valued logic."""

import pytest

from repro.errors import ExecutionError, TypeError_
from repro.sql.parser import Parser
from repro.algebra.ops import OutCol
from repro.engine.evaluator import Evaluator, RowResolver, compare, sql_like


def make_eval(**columns):
    cols = tuple(OutCol("t", name) for name in columns)
    return Evaluator(RowResolver(cols)), tuple(columns.values())


def ev(expr_text, **columns):
    evaluator, row = make_eval(**columns)
    expr = Parser(expr_text).parse_expr()
    # qualify bare column refs with 't'
    from repro.algebra import expr as exprs
    from repro.sql import ast

    def visit(node):
        if isinstance(node, ast.ColumnRef) and node.table is None:
            return ast.ColumnRef("t", node.name)
        return None

    return evaluator.evaluate(exprs.transform(expr, visit), row)


class TestComparisons:
    def test_basic(self):
        assert ev("x = 1", x=1) is True
        assert ev("x <> 1", x=1) is False
        assert ev("x < 2", x=1) is True
        assert ev("x >= 2", x=1) is False

    def test_null_comparison_unknown(self):
        assert ev("x = 1", x=None) is None
        assert ev("x <> 1", x=None) is None

    def test_string_comparison(self):
        assert ev("x < 'b'", x="a") is True

    def test_mixed_numeric(self):
        assert ev("x = 1", x=1.0) is True

    def test_incompatible_types_raise(self):
        with pytest.raises(TypeError_):
            ev("x = 'a'", x=1)

    def test_bool_not_comparable_to_int(self):
        with pytest.raises(TypeError_):
            compare("=", True, 1)


class TestKleeneLogic:
    def test_and_truth_table(self):
        assert ev("x = 1 and y = 2", x=1, y=2) is True
        assert ev("x = 1 and y = 2", x=1, y=3) is False
        assert ev("x = 1 and y = 2", x=1, y=None) is None
        # FALSE AND UNKNOWN = FALSE (short circuit)
        assert ev("x = 9 and y = 2", x=1, y=None) is False

    def test_or_truth_table(self):
        assert ev("x = 1 or y = 9", x=1, y=None) is True
        assert ev("x = 9 or y = 9", x=1, y=2) is False
        assert ev("x = 9 or y = 2", x=1, y=None) is None

    def test_not(self):
        assert ev("not x = 1", x=2) is True
        assert ev("not x = 1", x=None) is None


class TestNullHandling:
    def test_is_null(self):
        assert ev("x is null", x=None) is True
        assert ev("x is not null", x=None) is False
        assert ev("x is null", x=0) is False

    def test_arithmetic_with_null(self):
        assert ev("x + 1", x=None) is None

    def test_in_list_with_null_semantics(self):
        assert ev("x in (1, 2)", x=1) is True
        assert ev("x in (1, 2)", x=3) is False
        assert ev("x in (1, null)", x=1) is True
        assert ev("x in (1, null)", x=3) is None  # unknown, not false
        assert ev("x in (1)", x=None) is None

    def test_not_in_with_null(self):
        assert ev("x not in (1, null)", x=3) is None
        assert ev("x not in (1, 2)", x=3) is True

    def test_between_with_null_bound(self):
        assert ev("x between 1 and y", x=0, y=None) is False  # 0 >= 1 false
        assert ev("x between 1 and y", x=2, y=None) is None


class TestArithmetic:
    def test_operations(self):
        assert ev("x + 2 * 3", x=1) == 7
        assert ev("x - 1", x=5) == 4
        assert ev("x / 2", x=7) == 3.5
        assert ev("x / 2", x=8) == 4  # exact division stays integral
        assert ev("x % 3", x=7) == 1

    def test_division_by_zero(self):
        with pytest.raises(ExecutionError):
            ev("x / 0", x=1)

    def test_unary_minus(self):
        assert ev("-x", x=3) == -3

    def test_concat(self):
        assert ev("x || '!'", x="hi") == "hi!"


class TestLike:
    def test_percent(self):
        assert sql_like("CS101", "CS%")
        assert not sql_like("MATH1", "CS%")

    def test_underscore(self):
        assert sql_like("CS1", "CS_")
        assert not sql_like("CS10", "CS_")

    def test_regex_chars_escaped(self):
        assert sql_like("a.b", "a.b")
        assert not sql_like("axb", "a.b")

    def test_like_in_evaluator(self):
        assert ev("x like 'C%1'", x="CS101") is True
        assert ev("x like 'C%1'", x=None) is None


class TestCaseAndFunctions:
    def test_case(self):
        assert ev("case when x > 1 then 'big' else 'small' end", x=5) == "big"
        assert ev("case when x > 1 then 'big' end", x=0) is None

    def test_coalesce(self):
        assert ev("coalesce(x, 7)", x=None) == 7
        assert ev("coalesce(x, 7)", x=3) == 3

    def test_abs_lower_upper_length(self):
        assert ev("abs(x)", x=-2) == 2
        assert ev("lower(x)", x="ABC") == "abc"
        assert ev("upper(x)", x="abc") == "ABC"
        assert ev("length(x)", x="abcd") == 4

    def test_unknown_function(self):
        with pytest.raises(ExecutionError):
            ev("mystery(x)", x=1)


class TestResolver:
    def test_qualified_lookup(self):
        resolver = RowResolver((OutCol("a", "x"), OutCol("b", "x")))
        from repro.sql import ast

        assert resolver.ordinal(ast.ColumnRef("b", "x")) == 1
        assert resolver.ordinal(ast.ColumnRef("a", "x")) == 0

    def test_unqualified_takes_first(self):
        resolver = RowResolver((OutCol("a", "x"), OutCol("b", "x")))
        from repro.sql import ast

        assert resolver.ordinal(ast.ColumnRef(None, "x")) == 0

    def test_unknown_column(self):
        resolver = RowResolver((OutCol("a", "x"),))
        from repro.sql import ast

        with pytest.raises(ExecutionError):
            resolver.ordinal(ast.ColumnRef("a", "zz"))

    def test_short_lived_references_resolve_by_name(self):
        """The evaluator's ordinal memo is keyed by identity: a reference
        built and dropped per call must not lend its id, and so its
        ordinal, to the next one allocated at the same address."""
        from repro.sql import ast

        evaluator = Evaluator(RowResolver((OutCol("t", "a"), OutCol("t", "b"))))
        values = [
            evaluator.evaluate(ast.ColumnRef("t", name), (1, 2))
            for _ in range(100)
            for name in ("a", "b")
        ]
        assert values == [1, 2] * 100
