"""Relevance pruning of authorization views (paper Section 5.6).

"Given a query, we can eliminate authorization views that cannot
possibly be of use in validating the query."  A view is *relevant* only
if it mentions at least one relation the query mentions: a view over
disjoint relations can never cover a query table instance.  Each view's
relation set is read from its raw body once, when the view is compiled
(:mod:`repro.nontruman.compiled`); per check, pruning intersects sets.
Views are compiled once per catalog version either way, so what pruning
saves per check is binding the session into a view and matching it —
measured by experiment E3.
"""

from __future__ import annotations

from repro.sql import ast


def relation_names(query: ast.QueryExpr) -> set[str]:
    """Lower-cased names of all relations referenced in FROM clauses."""
    names: set[str] = set()
    _collect_query(query, names)
    return names


def _collect_query(query: ast.QueryExpr, names: set[str]) -> None:
    if isinstance(query, ast.SetOp):
        _collect_query(query.left, names)
        _collect_query(query.right, names)
        return
    assert isinstance(query, ast.SelectStmt)
    for item in query.from_items:
        _collect_table(item, names)
    # IN/EXISTS subqueries in WHERE also reference relations.
    if query.where is not None:
        for node in ast.walk_expr(query.where):
            if isinstance(node, (ast.InSubquery, ast.ExistsSubquery)):
                _collect_query(node.query, names)


def _collect_table(table_expr: ast.TableExpr, names: set[str]) -> None:
    if isinstance(table_expr, ast.TableRef):
        names.add(table_expr.name.lower())
    elif isinstance(table_expr, ast.SubqueryRef):
        _collect_query(table_expr.query, names)
    elif isinstance(table_expr, ast.JoinRef):
        _collect_table(table_expr.left, names)
        _collect_table(table_expr.right, names)


def is_relevant(view_query: ast.QueryExpr, query_relations: set[str]) -> bool:
    """Can this view possibly participate in a rewriting of the query?"""
    return bool(relation_names(view_query) & query_relations)


def prune_views(views, query: ast.QueryExpr):
    """Filter ``views`` (each with a ``name`` and a lower-cased
    ``relations`` set, e.g. :class:`~repro.nontruman.compiled.CompiledView`)
    to those relevant to ``query``.

    Relevance is computed as a fixpoint: a view touching a relation of
    the query is relevant, and the *other* relations of relevant views
    join the target set — those are exactly the relations that C3 probe
    queries (rule C3a condition 3) may need to validate against further
    views (e.g. ``MyRegistrations`` validating the probe on
    ``Registered`` raised by ``CoStudentGrades``, Example 4.4).
    """
    target = relation_names(query)
    relevant = []
    pending = list(views)
    changed = True
    while changed:
        changed = False
        rest = []
        for view in pending:
            if view.name.lower() in target or not view.relations.isdisjoint(target):
                relevant.append(view)
                if not view.relations <= target:  # rescan only if it grew
                    target |= view.relations
                    changed = True
            else:
                rest.append(view)
        pending = rest
    return relevant
