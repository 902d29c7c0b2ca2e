"""Compile scalar expressions into closures over column vectors.

The row engine walks the expression AST once *per row*; here the walk
happens once *per operator*: :func:`compile_scalar` turns a bound
expression into a closure ``fn(batch) -> list`` that evaluates the
whole column vector in one pass (list comprehensions over zipped
columns).  SQL three-valued logic is preserved value-for-value — the
Kleene AND/OR/NOT branches below mirror
:class:`repro.engine.evaluator.Evaluator` exactly, and comparisons,
arithmetic, and scalar functions delegate to the same helpers, so the
two engines agree on every scalar (the property suite pins this).

Evaluation is as lazy as the row engine's: the right side of
``AND``/``OR`` runs only on the rows its left side leaves undecided, a
``CASE`` branch value only on the rows whose condition picks it, and an
``IN`` item only on the rows no earlier item matched (:func:`_on_rows`
gathers those rows with a selection vector).  A guarded expression such
as ``case when b <> 0 then a / b end`` therefore never meets the rows
its guard excludes, on either engine.  Where two rows of one batch
would raise different errors, the engines may report different ones.
"""

from __future__ import annotations

import operator
import re
from typing import Callable, Optional

from repro.errors import ExecutionError, TypeError_
from repro.sql import ast
from repro.engine.evaluator import (
    Evaluator,
    RowResolver,
    arity_error,
    compare,
    sql_like,
)
from repro.engine.vectorized.batch import ColumnBatch

#: a compiled expression: batch in, value vector out
VecFn = Callable[[ColumnBatch], list]

_arith = Evaluator._arith


def compile_scalar(expr: ast.Expr, resolver: RowResolver) -> VecFn:
    """Compile ``expr`` (bound against ``resolver``'s columns) once."""
    from repro.instrument import COUNTERS

    COUNTERS.bump("engine.compile")
    if isinstance(expr, ast.Literal):
        value = expr.value
        return lambda b: [value] * b.length
    if isinstance(expr, ast.ColumnRef):
        try:
            ordinal = resolver.ordinal(expr)
        except ExecutionError as exc:
            # e.g. an unsatisfiable query's witness over a zero-column
            # relation: the row engine never resolves it on no rows
            return _raise_on_rows(exc)
        return lambda b: b.column(ordinal)
    if isinstance(expr, ast.BinaryOp):
        return _compile_binary(expr, resolver)
    if isinstance(expr, ast.UnaryOp):
        return _compile_unary(expr, resolver)
    if isinstance(expr, ast.IsNull):
        operand = compile_scalar(expr.operand, resolver)
        if expr.negated:
            return lambda b: [v is not None for v in operand(b)]
        return lambda b: [v is None for v in operand(b)]
    if isinstance(expr, ast.InList):
        return _compile_in_list(expr, resolver)
    if isinstance(expr, ast.Between):
        return _compile_between(expr, resolver)
    if isinstance(expr, ast.CaseExpr):
        return _compile_case(expr, resolver)
    if isinstance(expr, ast.FuncCall):
        return _compile_function(expr, resolver)
    if isinstance(expr, ast.AccessParam):
        return _raise_on_rows(
            ExecutionError(f"unbound access-pattern parameter $${expr.name}")
        )
    if isinstance(expr, ast.Param):
        return _raise_on_rows(ExecutionError(f"unbound parameter ${expr.name}"))
    return _raise_on_rows(ExecutionError(f"cannot evaluate expression {expr!r}"))


def selection_vector(tri_state: list) -> list[int]:
    """Indices where a predicate vector is TRUE (not FALSE/UNKNOWN)."""
    return [i for i, v in enumerate(tri_state) if v is True]


def _on_rows(fn: VecFn, batch: ColumnBatch, indices: list[int]) -> list:
    """``fn``'s values on the rows of ``batch`` at ``indices`` only."""
    if len(indices) == batch.length:
        return fn(batch)
    return fn(batch.take(indices))


def _raise_on_rows(error: Exception) -> VecFn:
    """Defer an unconditional error until a non-empty batch arrives.

    The row engine only raises when it actually evaluates a row, so an
    unbound parameter over an empty input is *not* an error there; the
    compiled closure reproduces that by raising per non-empty batch.
    """

    def fn(batch: ColumnBatch) -> list:
        if batch.length:
            raise error
        return []

    return fn


# -- operators ----------------------------------------------------------


def _compile_binary(expr: ast.BinaryOp, resolver: RowResolver) -> VecFn:
    op = expr.op
    if op in ("and", "or"):
        left = compile_scalar(expr.left, resolver)
        right = compile_scalar(expr.right, resolver)
        # AND is decided by a FALSE left side, OR by a TRUE one
        decided = op == "or"

        def and_or_fn(b: ColumnBatch) -> list:
            lefts = left(b)
            todo = [i for i, l in enumerate(lefts) if l is not decided]
            if not todo:
                return lefts
            out = list(lefts)
            for i, r in zip(todo, _on_rows(right, b, todo)):
                if r is decided:
                    out[i] = decided
                elif out[i] is None or r is None:
                    out[i] = None
                else:
                    out[i] = not decided
            return out

        return and_or_fn

    if op in _CMP_OPS:
        return _compile_comparison(expr, resolver)
    left = compile_scalar(expr.left, resolver)
    right = compile_scalar(expr.right, resolver)
    if op == "like":
        return _compile_like(expr, left, right)
    if op == "||":

        def concat_fn(b: ColumnBatch) -> list:
            return [
                None if (l is None or r is None) else str(l) + str(r)
                for l, r in zip(left(b), right(b))
            ]

        return concat_fn
    if op in ("+", "-", "*", "/", "%"):

        def arith_fn(b: ColumnBatch) -> list:
            return [_arith(op, l, r) for l, r in zip(left(b), right(b))]

        return arith_fn
    return _raise_on_rows(ExecutionError(f"unknown operator {op!r}"))


#: comparison dispatch resolved once at compile time (not per row)
_CMP_OPS = {
    "=": operator.eq,
    "<>": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}

#: exact types on the inlined comparability fast path; ``bool`` is
#: deliberately absent (``bool.__class__`` is ``bool``), so mixed
#: bool/number pairs fall through to :func:`compare` and raise there.
_FAST_NUM = (int, float)


def _fast_pair(op: str):
    """Pairwise three-valued comparison with the type check inlined;
    value-identical to ``compare(op, l, r)`` (the slow-path fallback)."""
    opfn = _CMP_OPS[op]

    def fn(l, r):
        if l is None or r is None:
            return None
        if l.__class__ is r.__class__ or (
            l.__class__ in _FAST_NUM and r.__class__ in _FAST_NUM
        ):
            return opfn(l, r)
        return compare(op, l, r)

    return fn


def _compile_comparison(expr: ast.BinaryOp, resolver: RowResolver) -> VecFn:
    """Comparison with the per-row type check inlined.

    :func:`repro.engine.evaluator.compare` costs a function call plus
    ``_check_comparable`` per row — the dominant cost of compiled
    predicates.  Same-type and int/float pairs take the inline path;
    anything else (numeric subclasses, mismatches destined to raise)
    falls back to :func:`compare`, so semantics are unchanged.  A
    literal operand is hoisted out of the loop entirely.
    """
    op = expr.op
    opfn = _CMP_OPS[op]
    for literal_side, other_side, flipped in (
        (expr.right, expr.left, False),
        (expr.left, expr.right, True),
    ):
        if not isinstance(literal_side, ast.Literal):
            continue
        const = literal_side.value
        if const is None:
            # NULL cmp anything is UNKNOWN for every row
            return lambda b: [None] * b.length
        other = compile_scalar(other_side, resolver)
        const_cls = const.__class__
        const_num = const_cls in _FAST_NUM

        def cmp_const(b: ColumnBatch) -> list:
            out = []
            append = out.append
            for v in other(b):
                if v is None:
                    append(None)
                elif v.__class__ is const_cls or (
                    const_num and v.__class__ in _FAST_NUM
                ):
                    append(opfn(const, v) if flipped else opfn(v, const))
                elif flipped:
                    append(compare(op, const, v))
                else:
                    append(compare(op, v, const))
            return out

        return cmp_const

    left = compile_scalar(expr.left, resolver)
    right = compile_scalar(expr.right, resolver)

    def cmp_fn(b: ColumnBatch) -> list:
        out = []
        append = out.append
        for l, r in zip(left(b), right(b)):
            if l is None or r is None:
                append(None)
            elif l.__class__ is r.__class__ or (
                l.__class__ in _FAST_NUM and r.__class__ in _FAST_NUM
            ):
                append(opfn(l, r))
            else:
                append(compare(op, l, r))
        return out

    return cmp_fn


def _compile_like(expr: ast.BinaryOp, left: VecFn, right: VecFn) -> VecFn:
    if isinstance(expr.right, ast.Literal) and isinstance(expr.right.value, str):
        # constant pattern: compile the regex once for the whole query
        pattern = expr.right.value
        regex = re.compile(
            re.escape(pattern).replace("%", ".*").replace("_", "."),
            flags=re.DOTALL,
        )

        def like_const(b: ColumnBatch) -> list:
            result = []
            for value in left(b):
                if value is None:
                    result.append(None)
                elif not isinstance(value, str):
                    raise TypeError_("LIKE requires string operands")
                else:
                    result.append(regex.fullmatch(value) is not None)
            return result

        return like_const

    def like_fn(b: ColumnBatch) -> list:
        result = []
        for value, pattern in zip(left(b), right(b)):
            if value is None or pattern is None:
                result.append(None)
            elif not isinstance(value, str) or not isinstance(pattern, str):
                raise TypeError_("LIKE requires string operands")
            else:
                result.append(sql_like(value, pattern))
        return result

    return like_fn


def _compile_unary(expr: ast.UnaryOp, resolver: RowResolver) -> VecFn:
    operand = compile_scalar(expr.operand, resolver)
    if expr.op == "not":

        def not_fn(b: ColumnBatch) -> list:
            result = []
            for value in operand(b):
                if value is None:
                    result.append(None)
                elif isinstance(value, bool):
                    result.append(not value)
                else:
                    raise TypeError_(f"NOT applied to non-boolean {value!r}")
            return result

        return not_fn
    if expr.op == "-":

        def neg_fn(b: ColumnBatch) -> list:
            result = []
            for value in operand(b):
                if value is None:
                    result.append(None)
                elif isinstance(value, (int, float)) and not isinstance(
                    value, bool
                ):
                    result.append(-value)
                else:
                    raise TypeError_(f"unary minus on non-numeric {value!r}")
            return result

        return neg_fn
    return _raise_on_rows(ExecutionError(f"unknown unary operator {expr.op!r}"))


def _compile_in_list(expr: ast.InList, resolver: RowResolver) -> VecFn:
    operand = compile_scalar(expr.operand, resolver)
    # a literal cannot raise, so it is read over the whole batch
    # rather than gathered for the rows still unmatched
    items = [
        (compile_scalar(item, resolver), isinstance(item, ast.Literal))
        for item in expr.items
    ]
    negated = expr.negated
    tri_eq = _fast_pair("=")

    def in_fn(b: ColumnBatch) -> list:
        values = operand(b)
        result: list = [None] * b.length
        saw_null = [False] * b.length
        pending = [i for i, value in enumerate(values) if value is not None]
        for item, literal in items:
            if not pending:
                break
            candidates = (
                map(item(b).__getitem__, pending)
                if literal
                else _on_rows(item, b, pending)
            )
            unmatched = []
            for i, candidate in zip(pending, candidates):
                if candidate is None:
                    saw_null[i] = True
                    unmatched.append(i)
                elif tri_eq(values[i], candidate) is True:
                    result[i] = not negated
                else:
                    unmatched.append(i)
            pending = unmatched
        for i in pending:
            result[i] = None if saw_null[i] else negated
        return result

    return in_fn


def _compile_between(expr: ast.Between, resolver: RowResolver) -> VecFn:
    operand = compile_scalar(expr.operand, resolver)
    low = compile_scalar(expr.low, resolver)
    high = compile_scalar(expr.high, resolver)
    negated = expr.negated
    tri_ge = _fast_pair(">=")
    tri_le = _fast_pair("<=")

    def between_fn(b: ColumnBatch) -> list:
        result = []
        for value, lo, hi in zip(operand(b), low(b), high(b)):
            lower = tri_ge(value, lo)
            upper = tri_le(value, hi)
            if lower is False or upper is False:
                outcome: Optional[bool] = False
            elif lower is None or upper is None:
                outcome = None
            else:
                outcome = True
            if negated:
                outcome = None if outcome is None else not outcome
            result.append(outcome)
        return result

    return between_fn


def _compile_case(expr: ast.CaseExpr, resolver: RowResolver) -> VecFn:
    branches = [
        (compile_scalar(cond, resolver), compile_scalar(value, resolver))
        for cond, value in expr.branches
    ]
    default = (
        compile_scalar(expr.default, resolver)
        if expr.default is not None
        else None
    )

    def case_fn(b: ColumnBatch) -> list:
        result: list = [None] * b.length
        pending = list(range(b.length))
        for cond, value in branches:
            if not pending:
                return result
            picked, unpicked = [], []
            for i, c in zip(pending, _on_rows(cond, b, pending)):
                (picked if c is True else unpicked).append(i)
            if picked:
                for i, v in zip(picked, _on_rows(value, b, picked)):
                    result[i] = v
            pending = unpicked
        if default is not None and pending:
            for i, v in zip(pending, _on_rows(default, b, pending)):
                result[i] = v
        return result

    return case_fn


def _compile_function(expr: ast.FuncCall, resolver: RowResolver) -> VecFn:
    error = arity_error(expr)
    if error is not None:
        return _raise_on_rows(error)
    name = expr.name.lower()
    args = [compile_scalar(a, resolver) for a in expr.args]
    if name == "coalesce":

        def coalesce_fn(b: ColumnBatch) -> list:
            vectors = [arg(b) for arg in args]
            result = []
            for i in range(b.length):
                for vec in vectors:
                    if vec[i] is not None:
                        result.append(vec[i])
                        break
                else:
                    result.append(None)
            return result

        return coalesce_fn
    if name == "abs":
        (arg,) = args

        def abs_fn(b: ColumnBatch) -> list:
            result = []
            for value in arg(b):
                if value is None:
                    result.append(None)
                elif isinstance(value, (int, float)) and not isinstance(
                    value, bool
                ):
                    result.append(abs(value))
                else:
                    raise TypeError_(f"abs() on non-numeric {value!r}")
            return result

        return abs_fn
    if name in ("lower", "upper"):
        (arg,) = args
        to_lower = name == "lower"

        def casing_fn(b: ColumnBatch) -> list:
            result = []
            for value in arg(b):
                if value is None:
                    result.append(None)
                elif not isinstance(value, str):
                    raise TypeError_(f"{name}() on non-string {value!r}")
                else:
                    result.append(value.lower() if to_lower else value.upper())
            return result

        return casing_fn
    if name == "length":
        (arg,) = args

        def length_fn(b: ColumnBatch) -> list:
            result = []
            for value in arg(b):
                if value is None:
                    result.append(None)
                elif not isinstance(value, str):
                    raise TypeError_(f"length() on non-string {value!r}")
                else:
                    result.append(len(value))
            return result

        return length_fn
    return _raise_on_rows(ExecutionError(f"unknown function {expr.name!r}"))
