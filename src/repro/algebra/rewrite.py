"""Lightweight physical-ish plan rewrites applied before execution.

``push_selections`` distributes WHERE conjuncts over join trees so the
executor's hash-join path sees equi-join predicates instead of a cross
product followed by a filter.  This is a correctness-preserving rewrite
(standard selection pushdown for inner/cross joins); it applies to both
user queries and the witness rewritings the validity checker builds
(whose shape is cross-joins of view scans + a residual selection).

Conjuncts never move *into* a view or derived table: inside, they would
also see the rows the view hides, and a conjunct that raises on a hidden
row (``1 / (grade - 2.0) > 0``) would disclose that row through its
error.  Instead a conjunct over a view's columns is **copied** into the
view body as an :class:`~repro.algebra.ops.Prefilter`, rewritten through
the view's projection, while the conjunct itself stays above the view.
A prefilter drops the rows it finds FALSE or UNKNOWN and keeps the rows
it raises on, so it sheds work without changing the rows of the answer
and without adding an error.  It can drop an error that a visible row
raises: in ``c1 and c2`` above the view, a copy of ``c2`` that lands
apart from ``c1`` drops a visible row on which ``c1`` raises, and the
query answers instead (SQL fixes no evaluation order for ``and``).
Such an error is raised by a visible row only, so no observable comes
to depend on a hidden row.  A copy sinks through inner/cross joins and
nested views like any conjunct, and is kept only where it lands beneath
a join, the one place it saves work the view's own filters do not
already do.
"""

from __future__ import annotations

from typing import Optional

from repro.sql import ast
from repro.algebra import expr as exprs
from repro.algebra import ops

#: a lenient conjunct on its way down, and whether it has passed a join
_Copy = tuple[ast.Expr, bool]


def push_selections(plan: ops.Operator) -> ops.Operator:
    """Push selection conjuncts down through inner/cross joins, and
    copy those over a view's columns into the view as prefilters."""
    from repro.instrument import COUNTERS

    COUNTERS.bump("plan.push")
    return _push(plan, [], [])


def _bindings_of(plan: ops.Operator) -> set[str]:
    return {c.binding.lower() for c in plan.columns if c.binding}


def _push(
    plan: ops.Operator, pending: list[ast.Expr], copies: list[_Copy]
) -> ops.Operator:
    if isinstance(plan, ops.Select):
        return _push(plan.child, pending + exprs.conjuncts(plan.predicate), copies)

    if isinstance(plan, ops.Prefilter):
        # placed beneath a join by an earlier pass; it only moves lower
        merged = copies + [(c, True) for c in exprs.conjuncts(plan.predicate)]
        return _push(plan.child, pending, merged)

    if isinstance(plan, ops.Join) and plan.kind in ("inner", "cross"):
        conjuncts = list(pending)
        if plan.predicate is not None:
            conjuncts.extend(exprs.conjuncts(plan.predicate))
        left_bind = _bindings_of(plan.left)
        right_bind = _bindings_of(plan.right)
        left_only, right_only, cross = exprs.split_join_predicate(
            conjuncts, left_bind, right_bind
        )
        # Conjuncts that reference neither side (constants or columns
        # with no binding) stay at the join to be safe.
        safe_left = [c for c in left_only if exprs.bindings_in(c) or not _has_cols(c)]
        unresolved = [c for c in left_only if c not in safe_left]
        # a copy over both sides would land at the join, not beneath it
        copies_left, copies_right, _ = exprs.split_join_predicate(
            [c for c, _ in copies], left_bind, right_bind
        )
        left = _push(plan.left, safe_left, [(c, True) for c in copies_left])
        right = _push(plan.right, right_only, [(c, True) for c in copies_right])
        predicate = exprs.make_conjunction(cross + unresolved)
        kind = "inner" if predicate is not None else "cross"
        return ops.Join(left, right, kind=kind, predicate=predicate)

    if isinstance(plan, ops.Alias) and isinstance(plan.child, ops.Project):
        view = plan.child
        outputs = {name.lower(): expr for expr, name in view.exprs}
        binding = plan.binding.lower()
        inside: list[_Copy] = []
        above: list[_Copy] = []
        for conj, sunk in [(c, False) for c in pending] + copies:
            copy = _through_projection(conj, binding, outputs)
            if copy is not None:
                inside.append((copy, sunk))
            elif sunk:
                above.append((conj, sunk))
        body = ops.Project(_push(view.child, [], inside), view.exprs)
        return _land(ops.Alias(body, plan.binding), pending, above)

    # Any other operator: re-apply pending conjuncts here and recurse
    # into children independently.
    return _land(_rebuild_children(plan), pending, copies)


def _land(
    plan: ops.Operator, pending: list[ast.Expr], copies: list[_Copy]
) -> ops.Operator:
    """``plan`` under its strict conjuncts, and those under the copies
    that passed a join and repeat no conjunct already here."""
    if pending:
        plan = ops.Select(plan, exprs.make_conjunction(pending))
    kept: list[ast.Expr] = []
    for conj, sunk in copies:
        if sunk and conj not in pending and conj not in kept:
            kept.append(conj)
    if kept:
        plan = ops.Prefilter(plan, exprs.make_conjunction(kept))
    return plan


def _through_projection(
    conj: ast.Expr, binding: str, outputs: dict[str, ast.Expr]
) -> Optional[ast.Expr]:
    """``conj`` over the view ``binding``'s output columns, rewritten
    over the view body's columns; None when it reads anything else."""
    refs = exprs.columns_in(conj)
    if not refs:
        return None
    for ref in refs:
        if (ref.table or "").lower() != binding or ref.name.lower() not in outputs:
            return None
    for node in ast.walk_expr(conj):
        if isinstance(node, _NOT_COPIED):
            return None
    if ast.contains_aggregate(conj):
        return None

    def inline(node: ast.Expr) -> Optional[ast.Expr]:
        if isinstance(node, ast.ColumnRef):
            return outputs[node.name.lower()]
        return None

    copy = exprs.transform(conj, inline)
    if any(ref.table is None for ref in exprs.columns_in(copy)):
        # an unqualified column (an aggregate's output) could resolve
        # to a different column further down
        return None
    return copy


#: nodes a copy never carries into a view body
_NOT_COPIED = (ast.InSubquery, ast.ExistsSubquery, ast.Star, ast.OldColumnRef)


def _has_cols(conj: ast.Expr) -> bool:
    return bool(exprs.columns_in(conj))


def _rebuild_children(plan: ops.Operator) -> ops.Operator:
    if isinstance(plan, (ops.Rel, ops.ViewRel)):
        return plan
    if isinstance(plan, ops.Project):
        return ops.Project(_push(plan.child, [], []), plan.exprs)
    if isinstance(plan, ops.Distinct):
        return ops.Distinct(_push(plan.child, [], []))
    if isinstance(plan, ops.Alias):
        return ops.Alias(_push(plan.child, [], []), plan.binding)
    if isinstance(plan, ops.Join):
        # left/outer joins: do not move predicates across
        return ops.Join(
            _push(plan.left, [], []),
            _push(plan.right, [], []),
            plan.kind,
            plan.predicate,
        )
    if isinstance(plan, ops.DependentJoin):
        return ops.DependentJoin(
            _push(plan.left, [], []),
            plan.view_name,
            plan.view_binding,
            plan.view_columns,
            plan.param_name,
            plan.key_expr,
            plan.predicate,
        )
    if isinstance(plan, ops.Aggregate):
        return ops.Aggregate(
            _push(plan.child, [], []), plan.group_exprs, plan.aggregates
        )
    if isinstance(plan, ops.SetOperation):
        return ops.SetOperation(
            plan.op, plan.all, _push(plan.left, [], []), _push(plan.right, [], [])
        )
    if isinstance(plan, ops.Sort):
        return ops.Sort(_push(plan.child, [], []), plan.keys)
    if isinstance(plan, ops.Limit):
        return ops.Limit(_push(plan.child, [], []), plan.limit, plan.offset)
    return plan
