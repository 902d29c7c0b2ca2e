"""Utilities over bound scalar expressions.

A *bound* expression is an :mod:`repro.sql.ast` expression in which all
column references carry the binding name (alias) of some relation
instance.  These helpers provide conjunct manipulation, column
collection, substitution, and renaming — the workhorses of predicate
normalization, view matching, and the validity inference rules.
"""

from __future__ import annotations

from typing import Callable, Iterable, Mapping, Optional

from repro.sql import ast


TRUE = ast.Literal(True)


def conjuncts(expr: Optional[ast.Expr]) -> list[ast.Expr]:
    """Flatten an AND tree into a list of conjuncts (TRUE → [])."""
    if expr is None or expr == TRUE:
        return []
    if isinstance(expr, ast.BinaryOp) and expr.op == "and":
        return conjuncts(expr.left) + conjuncts(expr.right)
    return [expr]


def make_conjunction(parts: Iterable[ast.Expr]) -> Optional[ast.Expr]:
    """Combine conjuncts into one AND tree; returns None for the empty set."""
    result: Optional[ast.Expr] = None
    for part in parts:
        result = part if result is None else ast.BinaryOp("and", result, part)
    return result


def disjuncts(expr: Optional[ast.Expr]) -> list[ast.Expr]:
    if expr is None:
        return []
    if isinstance(expr, ast.BinaryOp) and expr.op == "or":
        return disjuncts(expr.left) + disjuncts(expr.right)
    return [expr]


def columns_in(expr: ast.Expr) -> set[ast.ColumnRef]:
    """All column references appearing in ``expr``."""
    return {node for node in ast.walk_expr(expr) if isinstance(node, ast.ColumnRef)}


def bindings_in(expr: ast.Expr) -> set[str]:
    """All binding names (table qualifiers) referenced by ``expr``."""
    return {col.table for col in columns_in(expr) if col.table is not None}


def params_in(expr: ast.Expr) -> set[str]:
    return {
        node.name for node in ast.walk_expr(expr) if isinstance(node, ast.Param)
    }


def access_params_in(expr: ast.Expr) -> set[str]:
    return {
        node.name for node in ast.walk_expr(expr) if isinstance(node, ast.AccessParam)
    }


def transform(expr: ast.Expr, fn: Callable[[ast.Expr], Optional[ast.Expr]]) -> ast.Expr:
    """Bottom-up rewrite: apply ``fn`` to each node; None keeps the node."""
    rebuilt = _rebuild(expr, fn)
    replacement = fn(rebuilt)
    return replacement if replacement is not None else rebuilt


def _rebuild(expr: ast.Expr, fn) -> ast.Expr:
    if isinstance(expr, ast.BinaryOp):
        return ast.BinaryOp(expr.op, transform(expr.left, fn), transform(expr.right, fn))
    if isinstance(expr, ast.UnaryOp):
        return ast.UnaryOp(expr.op, transform(expr.operand, fn))
    if isinstance(expr, ast.IsNull):
        return ast.IsNull(transform(expr.operand, fn), expr.negated)
    if isinstance(expr, ast.InList):
        return ast.InList(
            transform(expr.operand, fn),
            tuple(transform(i, fn) for i in expr.items),
            expr.negated,
        )
    if isinstance(expr, ast.InSubquery):
        return ast.InSubquery(
            transform(expr.operand, fn), expr.query, expr.negated
        )
    if isinstance(expr, ast.Between):
        return ast.Between(
            transform(expr.operand, fn),
            transform(expr.low, fn),
            transform(expr.high, fn),
            expr.negated,
        )
    if isinstance(expr, ast.FuncCall):
        return ast.FuncCall(
            expr.name, tuple(transform(a, fn) for a in expr.args), expr.distinct
        )
    if isinstance(expr, ast.CaseExpr):
        return ast.CaseExpr(
            tuple(
                (transform(cond, fn), transform(value, fn))
                for cond, value in expr.branches
            ),
            transform(expr.default, fn) if expr.default is not None else None,
        )
    return expr


def substitute_params(expr: ast.Expr, values: Mapping[str, object]) -> ast.Expr:
    """Replace ``$param`` nodes with literals from ``values``."""

    def visit(node: ast.Expr) -> Optional[ast.Expr]:
        if isinstance(node, ast.Param) and node.name in values:
            return ast.Literal(values[node.name])
        return None

    return transform(expr, visit)


def substitute_access_params(expr: ast.Expr, values: Mapping[str, object]) -> ast.Expr:
    """Replace ``$$param`` nodes with literals from ``values``.

    Sparse: a subtree without a replaced parameter is returned as the
    same object, so clean subtrees keep their identity (prepared plans
    key compiled kernels on it) and a caller can test ``new is old``.
    """
    if isinstance(expr, ast.AccessParam):
        if expr.name in values:
            return ast.Literal(values[expr.name])
        return expr
    children = ast.expr_children(expr)
    if not children:
        return expr
    new_children = tuple(substitute_access_params(c, values) for c in children)
    if all(new is old for new, old in zip(new_children, children)):
        return expr
    return _with_children(expr, new_children)


def _with_children(expr: ast.Expr, children: tuple) -> ast.Expr:
    """Rebuild ``expr`` with new children, in the order of
    :func:`ast.expr_children`."""
    if isinstance(expr, ast.BinaryOp):
        return ast.BinaryOp(expr.op, children[0], children[1])
    if isinstance(expr, ast.UnaryOp):
        return ast.UnaryOp(expr.op, children[0])
    if isinstance(expr, ast.IsNull):
        return ast.IsNull(children[0], expr.negated)
    if isinstance(expr, ast.InSubquery):
        return ast.InSubquery(children[0], expr.query, expr.negated)
    if isinstance(expr, ast.InList):
        return ast.InList(children[0], children[1:], expr.negated)
    if isinstance(expr, ast.Between):
        return ast.Between(children[0], children[1], children[2], expr.negated)
    if isinstance(expr, ast.FuncCall):
        return ast.FuncCall(expr.name, children, expr.distinct)
    if isinstance(expr, ast.CaseExpr):
        pairs = len(expr.branches)
        branches = tuple(
            (children[2 * i], children[2 * i + 1]) for i in range(pairs)
        )
        default = children[2 * pairs] if expr.default is not None else None
        return ast.CaseExpr(branches, default)
    raise TypeError(f"cannot rebuild expression node {type(expr).__name__}")


def rename_bindings(expr: ast.Expr, mapping: Mapping[str, str]) -> ast.Expr:
    """Rename table qualifiers of column references per ``mapping``."""

    def visit(node: ast.Expr) -> Optional[ast.Expr]:
        if isinstance(node, ast.ColumnRef) and node.table in mapping:
            return ast.ColumnRef(mapping[node.table], node.name)
        return None

    return transform(expr, visit)


def substitute_columns(
    expr: ast.Expr, mapping: Mapping[ast.ColumnRef, ast.Expr]
) -> ast.Expr:
    """Replace whole column references by expressions per ``mapping``."""

    def visit(node: ast.Expr) -> Optional[ast.Expr]:
        if isinstance(node, ast.ColumnRef) and node in mapping:
            return mapping[node]
        return None

    return transform(expr, visit)


def is_constant(expr: ast.Expr) -> bool:
    """True if ``expr`` contains no column references or parameters."""
    for node in ast.walk_expr(expr):
        if isinstance(node, (ast.ColumnRef, ast.OldColumnRef, ast.Param, ast.Star)):
            return False
        # Access-pattern parameters are treated as opaque constants during
        # inference (paper Section 6), so they do not disqualify constancy.
    return True


def equality_pairs(pred_conjuncts: Iterable[ast.Expr]) -> list[tuple[ast.ColumnRef, ast.ColumnRef]]:
    """Extract column=column equality pairs from a set of conjuncts."""
    pairs = []
    for conj in pred_conjuncts:
        if (
            isinstance(conj, ast.BinaryOp)
            and conj.op == "="
            and isinstance(conj.left, ast.ColumnRef)
            and isinstance(conj.right, ast.ColumnRef)
        ):
            pairs.append((conj.left, conj.right))
    return pairs


def split_join_predicate(
    pred_conjuncts: Iterable[ast.Expr], left_bindings: set[str], right_bindings: set[str]
) -> tuple[list[ast.Expr], list[ast.Expr], list[ast.Expr]]:
    """Partition conjuncts into (left-only, right-only, cross) groups.

    Binding comparison is case-insensitive (callers may pass sets in
    any case).  Constant conjuncts (no column refs) land in the
    left-only group.
    """
    left_lower = {b.lower() for b in left_bindings}
    right_lower = {b.lower() for b in right_bindings}
    left_parts: list[ast.Expr] = []
    right_parts: list[ast.Expr] = []
    cross_parts: list[ast.Expr] = []
    for conj in pred_conjuncts:
        refs = {b.lower() for b in bindings_in(conj)}
        if refs <= left_lower:
            left_parts.append(conj)
        elif refs <= right_lower:
            right_parts.append(conj)
        else:
            cross_parts.append(conj)
    return left_parts, right_parts, cross_parts
