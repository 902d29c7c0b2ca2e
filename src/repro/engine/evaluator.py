"""Scalar expression evaluation with SQL three-valued logic.

Booleans inside the evaluator are ``True`` / ``False`` / ``None``
(UNKNOWN).  ``WHERE`` keeps a row only when the predicate evaluates to
``True``.  Comparisons involving NULL yield UNKNOWN; ``AND``/``OR``
follow Kleene logic.
"""

from __future__ import annotations

import re
from typing import Optional

from repro.errors import ExecutionError, QueryAborted, TypeError_
from repro.sql import ast
from repro.algebra.ops import OutCol


class RowResolver:
    """Maps qualified/unqualified column references to row ordinals."""

    def __init__(self, columns: tuple[OutCol, ...]):
        self.columns = columns
        self._by_pair: dict[tuple[Optional[str], str], int] = {}
        self._by_name: dict[str, list[int]] = {}
        for index, col in enumerate(columns):
            binding = col.binding.lower() if col.binding else None
            name = col.name.lower()
            # First occurrence wins; the binder guarantees uniqueness where
            # it matters (inside subqueries and views).
            self._by_pair.setdefault((binding, name), index)
            self._by_name.setdefault(name, []).append(index)

    def ordinal(self, ref: ast.ColumnRef) -> int:
        name = ref.name.lower()
        if ref.table is not None:
            index = self._by_pair.get((ref.table.lower(), name))
            if index is None:
                raise ExecutionError(f"cannot resolve column {ref} at runtime")
            return index
        candidates = self._by_name.get(name)
        if not candidates:
            raise ExecutionError(f"cannot resolve column {ref} at runtime")
        return candidates[0]


def sql_like(value: str, pattern: str) -> bool:
    """SQL LIKE with ``%`` and ``_`` wildcards."""
    regex = re.escape(pattern).replace("%", ".*").replace("_", ".")
    return re.fullmatch(regex, value, flags=re.DOTALL) is not None


_NUMERIC = (int, float)


def _check_comparable(left: object, right: object) -> None:
    if isinstance(left, bool) != isinstance(right, bool):
        raise TypeError_(f"cannot compare {left!r} with {right!r}")
    if isinstance(left, _NUMERIC) and isinstance(right, _NUMERIC):
        return
    if type(left) is type(right):
        return
    raise TypeError_(f"cannot compare {left!r} with {right!r}")


def compare(op: str, left: object, right: object) -> Optional[bool]:
    """Three-valued SQL comparison."""
    if left is None or right is None:
        return None
    _check_comparable(left, right)
    if op == "=":
        return left == right
    if op == "<>":
        return left != right
    if op == "<":
        return left < right
    if op == "<=":
        return left <= right
    if op == ">":
        return left > right
    if op == ">=":
        return left >= right
    raise ExecutionError(f"unknown comparison operator {op!r}")


#: the scalar functions of one argument (``coalesce`` takes any number)
UNARY_FUNCTIONS = frozenset({"abs", "lower", "upper", "length"})


def arity_error(expr: ast.FuncCall) -> Optional[ExecutionError]:
    """The error both engines raise, row-lazily, for a scalar function
    called with the wrong number of arguments; None when it fits."""
    if expr.name.lower() not in UNARY_FUNCTIONS or len(expr.args) == 1:
        return None
    return ExecutionError(
        f"function {expr.name}() takes 1 argument ({len(expr.args)} given)"
    )


class Evaluator:
    """Evaluates bound scalar expressions against a row.

    Each column reference is resolved to its row ordinal the first time
    a row needs it and memoised for the instance's lifetime; an
    evaluator serves one operator over one row shape.  Resolution stays
    lazy, so an unresolvable reference fails on the first row evaluated
    and never over an empty input.
    """

    def __init__(self, resolver: RowResolver):
        self.resolver = resolver
        #: id(ref) -> (ordinal, ref).  Keyed by identity because hashing a
        #: dataclass costs about as much as resolving the name; holding
        #: ``ref`` keeps its id from being reused by another object.
        self._ordinals: dict[int, tuple[int, ast.ColumnRef]] = {}

    def evaluate(self, expr: ast.Expr, row: tuple) -> object:
        if isinstance(expr, ast.Literal):
            return expr.value
        if isinstance(expr, ast.ColumnRef):
            bound = self._ordinals.get(id(expr))
            if bound is None:
                bound = self._ordinals[id(expr)] = (self.resolver.ordinal(expr), expr)
            return row[bound[0]]
        if isinstance(expr, ast.BinaryOp):
            return self._binary(expr, row)
        if isinstance(expr, ast.UnaryOp):
            return self._unary(expr, row)
        if isinstance(expr, ast.IsNull):
            value = self.evaluate(expr.operand, row)
            result = value is None
            return (not result) if expr.negated else result
        if isinstance(expr, ast.InList):
            return self._in_list(expr, row)
        if isinstance(expr, ast.Between):
            return self._between(expr, row)
        if isinstance(expr, ast.CaseExpr):
            return self._case(expr, row)
        if isinstance(expr, ast.FuncCall):
            return self._scalar_function(expr, row)
        if isinstance(expr, ast.AccessParam):
            raise ExecutionError(f"unbound access-pattern parameter $${expr.name}")
        if isinstance(expr, ast.Param):
            raise ExecutionError(f"unbound parameter ${expr.name}")
        raise ExecutionError(f"cannot evaluate expression {expr!r}")

    def matches(self, predicate: ast.Expr, row: tuple) -> bool:
        """True iff the predicate evaluates to TRUE (not UNKNOWN)."""
        return self.evaluate(predicate, row) is True

    def passes_prefilter(self, predicate: ast.Expr, row: tuple) -> bool:
        """False iff the predicate evaluates to FALSE or UNKNOWN.

        A row the predicate raises on passes: a
        :class:`~repro.algebra.ops.Prefilter` also sees rows its view
        hides, so no error of its own may surface, whatever its kind.
        Only an abort of the whole query propagates.
        """
        try:
            return self.evaluate(predicate, row) is True
        except QueryAborted:
            raise
        except Exception:
            return True

    # ------------------------------------------------------------------

    def _binary(self, expr: ast.BinaryOp, row: tuple) -> object:
        op = expr.op
        if op == "and":
            left = self.evaluate(expr.left, row)
            if left is False:
                return False
            right = self.evaluate(expr.right, row)
            if right is False:
                return False
            if left is None or right is None:
                return None
            return True
        if op == "or":
            left = self.evaluate(expr.left, row)
            if left is True:
                return True
            right = self.evaluate(expr.right, row)
            if right is True:
                return True
            if left is None or right is None:
                return None
            return False
        left = self.evaluate(expr.left, row)
        right = self.evaluate(expr.right, row)
        if op in ("=", "<>", "<", "<=", ">", ">="):
            return compare(op, left, right)
        if op == "like":
            if left is None or right is None:
                return None
            if not isinstance(left, str) or not isinstance(right, str):
                raise TypeError_("LIKE requires string operands")
            return sql_like(left, right)
        if op == "||":
            if left is None or right is None:
                return None
            return str(left) + str(right)
        if op in ("+", "-", "*", "/", "%"):
            return self._arith(op, left, right)
        raise ExecutionError(f"unknown operator {op!r}")

    @staticmethod
    def _arith(op: str, left: object, right: object) -> object:
        if left is None or right is None:
            return None
        if not isinstance(left, _NUMERIC) or not isinstance(right, _NUMERIC):
            raise TypeError_(f"arithmetic on non-numeric values: {left!r} {op} {right!r}")
        if isinstance(left, bool) or isinstance(right, bool):
            raise TypeError_("arithmetic on boolean values")
        if op == "+":
            return left + right
        if op == "-":
            return left - right
        if op == "*":
            return left * right
        if op == "/":
            if right == 0:
                raise ExecutionError("division by zero")
            result = left / right
            if isinstance(left, int) and isinstance(right, int) and result == int(result):
                return int(result)
            return result
        if op == "%":
            if right == 0:
                raise ExecutionError("modulo by zero")
            return left % right
        raise ExecutionError(f"unknown arithmetic operator {op!r}")

    def _unary(self, expr: ast.UnaryOp, row: tuple) -> object:
        value = self.evaluate(expr.operand, row)
        if expr.op == "not":
            if value is None:
                return None
            if isinstance(value, bool):
                return not value
            raise TypeError_(f"NOT applied to non-boolean {value!r}")
        if expr.op == "-":
            if value is None:
                return None
            if isinstance(value, _NUMERIC) and not isinstance(value, bool):
                return -value
            raise TypeError_(f"unary minus on non-numeric {value!r}")
        raise ExecutionError(f"unknown unary operator {expr.op!r}")

    def _in_list(self, expr: ast.InList, row: tuple) -> Optional[bool]:
        value = self.evaluate(expr.operand, row)
        if value is None:
            return None
        saw_null = False
        for item in expr.items:
            candidate = self.evaluate(item, row)
            if candidate is None:
                saw_null = True
                continue
            if compare("=", value, candidate) is True:
                return False if expr.negated else True
        if saw_null:
            return None
        return True if expr.negated else False

    def _between(self, expr: ast.Between, row: tuple) -> Optional[bool]:
        value = self.evaluate(expr.operand, row)
        low = self.evaluate(expr.low, row)
        high = self.evaluate(expr.high, row)
        lower = compare(">=", value, low)
        upper = compare("<=", value, high)
        if lower is False or upper is False:
            result: Optional[bool] = False
        elif lower is None or upper is None:
            result = None
        else:
            result = True
        if expr.negated:
            return None if result is None else not result
        return result

    def _case(self, expr: ast.CaseExpr, row: tuple) -> object:
        for cond, value in expr.branches:
            if self.evaluate(cond, row) is True:
                return self.evaluate(value, row)
        if expr.default is not None:
            return self.evaluate(expr.default, row)
        return None

    def _scalar_function(self, expr: ast.FuncCall, row: tuple) -> object:
        error = arity_error(expr)
        if error is not None:
            raise error
        name = expr.name.lower()
        args = [self.evaluate(a, row) for a in expr.args]
        if name == "coalesce":
            for arg in args:
                if arg is not None:
                    return arg
            return None
        if name == "abs":
            (value,) = args
            if value is None:
                return None
            if isinstance(value, _NUMERIC) and not isinstance(value, bool):
                return abs(value)
            raise TypeError_(f"abs() on non-numeric {value!r}")
        if name in ("lower", "upper"):
            (value,) = args
            if value is None:
                return None
            if not isinstance(value, str):
                raise TypeError_(f"{name}() on non-string {value!r}")
            return value.lower() if name == "lower" else value.upper()
        if name == "length":
            (value,) = args
            if value is None:
                return None
            if not isinstance(value, str):
                raise TypeError_(f"length() on non-string {value!r}")
            return len(value)
        raise ExecutionError(f"unknown function {expr.name!r}")
