"""Prepared-statement templates: literal binding over compiled artifacts.

A *template* captures everything the engine computed for one
literal-stripped query skeleton — the skeleton AST, the translated (and
selection-pushed) algebra plan, and a compiled-kernel cache for the
vectorized engine.  Serving a repeated query then reduces to
substituting the new literals into the stored plan
(:class:`PlanBinder`) and running it, with **zero** parse or plan work
(the Non-Truman decision is remembered by the database's decision
cache, :mod:`repro.nontruman.cache`).

Binding happens at two levels:

* :func:`bind_skeleton` substitutes literals back into a skeleton AST —
  the exact inverse of :func:`repro.nontruman.cache.query_signature` —
  used when a fresh validity check is unavoidable (decision-cache miss).
* :class:`PlanBinder` substitutes literals directly into the algebra
  plan.  It precomputes which operators/expressions contain
  placeholders and path-copies only those, so unaffected subtrees keep
  their object identity across binds.  Identity-stable expressions are
  safe keys for the per-template :class:`PlanCompileCache`: the
  vectorized executor reuses compiled kernels for them instead of
  re-compiling on every execution.
"""

from __future__ import annotations

import dataclasses

from repro.sql import ast
from repro.algebra import expr as exprs
from repro.algebra import ops


class PreparedFallback(Exception):
    """This query cannot be served from the prepared pipeline; the
    caller must fall back to the standard parse → check → plan path."""


def placeholder_names(count: int) -> frozenset:
    """Placeholder names for a ``count``-literal signature."""
    return frozenset(f"_lit{i + 1}" for i in range(count))


def bind_values(literals: tuple) -> dict:
    """Literal tuple → placeholder-name value map (1-indexed)."""
    return {f"_lit{i + 1}": value for i, value in enumerate(literals)}


def bind_skeleton(skeleton: ast.QueryExpr, literals: tuple) -> ast.QueryExpr:
    """Substitute ``literals`` back into a signature skeleton (the exact
    inverse of :func:`~repro.nontruman.cache.query_signature`)."""
    from repro.algebra.translate import _map_query_exprs

    values = bind_values(literals)
    return _map_query_exprs(
        skeleton, lambda e: exprs.substitute_access_params(e, values)
    )


# ---------------------------------------------------------------------------
# Compiled-kernel cache (vectorized engine)
# ---------------------------------------------------------------------------


class PlanCompileCache:
    """Per-template cache of compiled vector kernels.

    Keys are ``(id(expr), columns)`` where ``expr`` is an
    identity-stable (placeholder-free) node of the template's plan.
    The id-keying is safe because the template holds live references to
    all cacheable nodes, so their ids can never be recycled while the
    cache is alive; ``cacheable`` whitelists exactly those ids.
    Updates race benignly (last writer wins under the GIL): compiling
    the same pure expression twice yields equivalent kernels.
    """

    def __init__(self, cacheable_ids: frozenset):
        self.cacheable = cacheable_ids
        self._fns: dict = {}
        self.hits = 0
        self.misses = 0

    def lookup(self, key):
        fn = self._fns.get(key)
        if fn is None:
            self.misses += 1
        else:
            self.hits += 1
        return fn

    def store(self, key, fn) -> None:
        self._fns[key] = fn

    @property
    def size(self) -> int:
        return len(self._fns)


# ---------------------------------------------------------------------------
# Plan binder
# ---------------------------------------------------------------------------

#: operator types the binder knows how to path-copy
_CHILD_FIELDS = {
    ops.Select: ("child",),
    ops.Prefilter: ("child",),
    ops.Project: ("child",),
    ops.Distinct: ("child",),
    ops.Alias: ("child",),
    ops.Sort: ("child",),
    ops.Limit: ("child",),
    ops.Aggregate: ("child",),
    ops.Join: ("left", "right"),
    ops.SemiJoin: ("left", "right"),
    ops.SetOperation: ("left", "right"),
    ops.Rel: (),
}


def _op_exprs(op: ops.Operator):
    """Yield the scalar expressions owned directly by ``op``."""
    if isinstance(op, (ops.Select, ops.Prefilter)):
        yield op.predicate
    elif isinstance(op, ops.Project):
        for expr, _name in op.exprs:
            yield expr
    elif isinstance(op, ops.Join):
        if op.predicate is not None:
            yield op.predicate
    elif isinstance(op, ops.SemiJoin):
        if op.operand is not None:
            yield op.operand
    elif isinstance(op, ops.Aggregate):
        for expr, _name in op.group_exprs:
            yield expr
        for call, _name in op.aggregates:
            yield call
    elif isinstance(op, ops.Sort):
        for expr, _desc in op.keys:
            yield expr


class PlanBinder:
    """Binds literal tuples into a template plan by path-copying.

    At construction, walks the plan once and records (a) which
    operators transitively contain a ``_litN`` placeholder — only those
    are rebuilt per bind — and (b) the ids of all placeholder-free
    expression nodes, which form the :class:`PlanCompileCache`
    whitelist (they survive every bind with identity intact).
    """

    def __init__(self, plan: ops.Operator, names: frozenset):
        self.plan = plan
        self.names = names
        self._dirty_ops: set[int] = set()
        self._cacheable: set[int] = set()
        self._analyze(plan)
        self.cacheable_ids = frozenset(self._cacheable)

    # -- analysis ---------------------------------------------------------

    def _scan_expr(self, expr: ast.Expr) -> bool:
        """True if ``expr`` contains a bindable placeholder; records
        placeholder-free nodes as compile-cacheable."""
        dirty = isinstance(expr, ast.AccessParam) and expr.name in self.names
        for child in ast.expr_children(expr):
            if self._scan_expr(child):
                dirty = True
        if not dirty:
            self._cacheable.add(id(expr))
        return dirty

    def _analyze(self, op: ops.Operator) -> bool:
        if type(op) not in _CHILD_FIELDS:
            # ViewRel / DependentJoin / unknown operators: witness-style
            # plans are not built by the prepared pipeline; bail out
            # rather than risk a wrong rebuild.
            raise PreparedFallback(
                f"unsupported operator in prepared plan: {type(op).__name__}"
            )
        dirty = False
        for field in _CHILD_FIELDS[type(op)]:
            if self._analyze(getattr(op, field)):
                dirty = True
        for expr in _op_exprs(op):
            if self._scan_expr(expr):
                dirty = True
        if dirty:
            self._dirty_ops.add(id(op))
        return dirty

    # -- binding ----------------------------------------------------------

    def bind(self, literals: tuple) -> ops.Operator:
        """Plan with ``literals`` substituted for the placeholders.
        Operators without placeholders are shared, not copied."""
        from repro.instrument import COUNTERS

        COUNTERS.bump("prepared.bind")
        if not self._dirty_ops:
            return self.plan
        return self._bind_op(self.plan, bind_values(literals))

    def _bind_op(self, op: ops.Operator, values: dict) -> ops.Operator:
        if id(op) not in self._dirty_ops:
            return op
        changes: dict = {}
        for field in _CHILD_FIELDS[type(op)]:
            changes[field] = self._bind_op(getattr(op, field), values)
        substitute = exprs.substitute_access_params
        if (
            isinstance(op, (ops.Select, ops.Prefilter, ops.Join))
            and op.predicate is not None
        ):
            changes["predicate"] = substitute(op.predicate, values)
        elif isinstance(op, ops.Project):
            changes["exprs"] = tuple(
                (substitute(e, values), name) for e, name in op.exprs
            )
        elif isinstance(op, ops.SemiJoin) and op.operand is not None:
            changes["operand"] = substitute(op.operand, values)
        elif isinstance(op, ops.Aggregate):
            changes["group_exprs"] = tuple(
                (substitute(e, values), name) for e, name in op.group_exprs
            )
            changes["aggregates"] = tuple(
                (substitute(call, values), name)
                for call, name in op.aggregates
            )
        elif isinstance(op, ops.Sort):
            changes["keys"] = tuple(
                (substitute(e, values), desc) for e, desc in op.keys
            )
        return dataclasses.replace(op, **changes)


# ---------------------------------------------------------------------------
# The template
# ---------------------------------------------------------------------------


class PreparedTemplate:
    """One fully-compiled artifact for a (skeleton, user, mode, params)
    cache slot, with the stamp that governs its staleness
    (:meth:`~repro.prepared.cache.PreparedStatementCache.stamp`)."""

    __slots__ = (
        "skeleton",
        "user",
        "mode",
        "params_key",
        "signature_text",
        "n_literals",
        "stamp",
        "binder",
        "compile_cache",
    )

    def __init__(
        self,
        skeleton: ast.QueryExpr,
        user,
        mode: str,
        params_key: tuple,
        signature_text: str,
        n_literals: int,
        stamp: tuple,
        binder: PlanBinder,
    ):
        self.skeleton = skeleton
        self.user = user
        self.mode = mode
        self.params_key = params_key
        self.signature_text = signature_text
        self.n_literals = n_literals
        self.stamp = stamp
        self.binder = binder
        self.compile_cache = PlanCompileCache(binder.cacheable_ids)
