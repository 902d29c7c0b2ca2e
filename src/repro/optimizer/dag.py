"""The AND-OR DAG (memo) structure of the Volcano optimizer.

Terminology follows the paper's Section 5.6.1: *equivalence nodes*
(rectangles in Figure 1) group alternative *operation nodes* (circles)
that all compute the same logical expression.

Unification ([25]) is implemented through hash-consing: every operation
node has a structural signature ``(kind, params, child eq ids)``; when a
transformation produces an operation whose signature already exists in
another equivalence node, the two equivalence nodes are merged with a
union-find.  This is exactly how common subexpressions of a query and a
set of (authorization) views end up shared.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable, Optional

from repro.sql import ast
from repro.algebra import expr as exprs
from repro.algebra import ops
from repro.algebra.normalize import normalize_predicate


@dataclass
class OpNode:
    """An operation (AND) node: all children are needed."""

    kind: str  # "scan" | "viewscan" | "select" | "project" | "join" | "aggregate" | "distinct"
    params: tuple  # canonical parameters (predicate conjuncts, exprs, ...)
    children: tuple[int, ...]  # equivalence node ids
    #: validity mark for §5.6.2 (op valid ⇐ all child eq nodes valid)
    valid: bool = False

    def signature(self, find) -> tuple:
        return (self.kind, self.params, tuple(find(c) for c in self.children))


@dataclass
class EqNode:
    """An equivalence (OR) node: any operation computes the result."""

    id: int
    operations: list[OpNode] = field(default_factory=list)
    valid: bool = False
    #: estimated output cardinality (filled by the cost model)
    rows: Optional[float] = None


class Memo:
    """Equivalence classes with hash-consing and union-find merging."""

    def __init__(self):
        self._eq: dict[int, EqNode] = {}
        self._parent: dict[int, int] = {}
        self._signatures: dict[tuple, int] = {}  # op signature -> eq id
        self._next_id = itertools.count(0)
        self.merges = 0

    # -- union-find -------------------------------------------------------

    def find(self, eq_id: int) -> int:
        root = eq_id
        while self._parent[root] != root:
            root = self._parent[root]
        while self._parent[eq_id] != root:
            self._parent[eq_id], eq_id = root, self._parent[eq_id]
        return root

    def node(self, eq_id: int) -> EqNode:
        return self._eq[self.find(eq_id)]

    def _new_eq(self) -> EqNode:
        eq_id = next(self._next_id)
        node = EqNode(eq_id)
        self._eq[eq_id] = node
        self._parent[eq_id] = eq_id
        return node

    def merge(self, a: int, b: int) -> int:
        """Unify two equivalence nodes; returns the surviving root id."""
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return ra
        self.merges += 1
        keep, drop = (ra, rb) if ra < rb else (rb, ra)
        keep_node, drop_node = self._eq[keep], self._eq[drop]
        keep_node.operations.extend(drop_node.operations)
        keep_node.valid = keep_node.valid or drop_node.valid
        self._parent[drop] = keep
        del self._eq[drop]
        return keep

    # -- insertion -----------------------------------------------------------

    def add_operation(
        self, kind: str, params: tuple, children: tuple[int, ...],
        target_eq: Optional[int] = None,
    ) -> int:
        """Insert an operation; returns the id of its equivalence node.

        If an operation with the same signature exists, its equivalence
        node is reused (and merged with ``target_eq`` when given —
        unification).
        """
        children = tuple(self.find(c) for c in children)
        signature = (kind, params, children)
        existing = self._signatures.get(signature)
        if existing is not None:
            existing = self.find(existing)
            if target_eq is not None:
                return self.merge(existing, self.find(target_eq))
            return existing
        op = OpNode(kind=kind, params=params, children=children)
        if target_eq is not None:
            eq = self.node(target_eq)
        else:
            eq = self._new_eq()
        eq.operations.append(op)
        self._signatures[signature] = eq.id
        return self.find(eq.id)

    # -- views over the structure -----------------------------------------------

    def equivalence_nodes(self) -> list[EqNode]:
        return [self._eq[i] for i in sorted(self._eq)]

    def operations(self) -> list[tuple[int, OpNode]]:
        result = []
        for eq in self.equivalence_nodes():
            for op in eq.operations:
                result.append((eq.id, op))
        return result

    @property
    def eq_count(self) -> int:
        return len(self._eq)

    @property
    def op_count(self) -> int:
        return sum(len(eq.operations) for eq in self._eq.values())

    def plan_count(self, eq_id: int, _memo: Optional[dict] = None) -> int:
        """Number of distinct plans rooted at an equivalence node."""
        if _memo is None:
            _memo = {}
        root = self.find(eq_id)
        if root in _memo:
            return _memo[root]
        _memo[root] = 0  # cycle guard (shouldn't happen in a DAG)
        total = 0
        for op in self._eq[root].operations:
            combo = 1
            for child in op.children:
                combo *= self.plan_count(child, _memo)
            total += combo
        _memo[root] = total
        return total


# ---------------------------------------------------------------------------
# Inserting algebra plans into the memo
# ---------------------------------------------------------------------------


def canonical_predicate(pred: Optional[ast.Expr]) -> tuple:
    """Order-insensitive canonical form of a predicate for signatures."""
    if pred is None:
        return ()
    conjuncts = normalize_predicate(pred)
    return tuple(sorted(conjuncts, key=repr))


def canonicalize_plan(plan: ops.Operator) -> ops.Operator:
    """α-rename relation bindings to canonical names.

    Binding names chosen by the SQL author are irrelevant to the logical
    content; renaming each leaf to ``relname#k`` (k-th occurrence, in
    leaf order) lets structurally identical query and view
    subexpressions share operation signatures — the prerequisite for
    unification in the memo.
    """
    counters: dict[str, int] = {}
    mapping: dict[str, str] = {}
    for leaf in ops.walk(plan):
        if isinstance(leaf, (ops.Rel, ops.ViewRel)):
            key = leaf.name.lower()
            index = counters.get(key, 0)
            counters[key] = index + 1
            mapping[leaf.binding] = f"{key}#{index}"
    return _rename_plan(plan, mapping)


def _rename_plan(plan: ops.Operator, mapping: dict[str, str]) -> ops.Operator:
    def rn(expr: ast.Expr) -> ast.Expr:
        return exprs.rename_bindings(expr, mapping)

    if isinstance(plan, ops.Rel):
        return ops.Rel(plan.name, mapping.get(plan.binding, plan.binding),
                       plan.schema_columns)
    if isinstance(plan, ops.ViewRel):
        return ops.ViewRel(plan.name, mapping.get(plan.binding, plan.binding),
                           plan.schema_columns, plan.access_args)
    if isinstance(plan, ops.Alias):
        # Alias scopes vanish during canonicalization; inner bindings are
        # already unique after translation.
        inner = _rename_plan(plan.child, mapping)
        renames = tuple(
            (ast.ColumnRef(c.binding, c.name), out.name)
            for c, out in zip(inner.columns, plan.columns)
        )
        return ops.Project(inner, renames)
    if isinstance(plan, ops.Select):
        return ops.Select(_rename_plan(plan.child, mapping), rn(plan.predicate))
    if isinstance(plan, ops.Prefilter):
        return ops.Prefilter(_rename_plan(plan.child, mapping), rn(plan.predicate))
    if isinstance(plan, ops.Project):
        return ops.Project(
            _rename_plan(plan.child, mapping),
            tuple((rn(e), n) for e, n in plan.exprs),
        )
    if isinstance(plan, ops.Distinct):
        return ops.Distinct(_rename_plan(plan.child, mapping))
    if isinstance(plan, ops.Join):
        return ops.Join(
            _rename_plan(plan.left, mapping),
            _rename_plan(plan.right, mapping),
            plan.kind,
            rn(plan.predicate) if plan.predicate is not None else None,
        )
    if isinstance(plan, ops.SemiJoin):
        return ops.SemiJoin(
            _rename_plan(plan.left, mapping),
            _rename_plan(plan.right, mapping),
            rn(plan.operand) if plan.operand is not None else None,
            plan.negated,
        )
    if isinstance(plan, ops.DependentJoin):
        return ops.DependentJoin(
            _rename_plan(plan.left, mapping),
            plan.view_name,
            plan.view_binding,
            plan.view_columns,
            plan.param_name,
            rn(plan.key_expr),
            rn(plan.predicate) if plan.predicate is not None else None,
        )
    if isinstance(plan, ops.Aggregate):
        return ops.Aggregate(
            _rename_plan(plan.child, mapping),
            tuple((rn(e), n) for e, n in plan.group_exprs),
            tuple(
                (
                    ast.FuncCall(
                        a.name,
                        tuple(
                            x if isinstance(x, ast.Star) else rn(x) for x in a.args
                        ),
                        a.distinct,
                    ),
                    n,
                )
                for a, n in plan.aggregates
            ),
        )
    if isinstance(plan, ops.SetOperation):
        return ops.SetOperation(
            plan.op,
            plan.all,
            _rename_plan(plan.left, mapping),
            _rename_plan(plan.right, mapping),
        )
    if isinstance(plan, ops.Sort):
        return ops.Sort(
            _rename_plan(plan.child, mapping),
            tuple((rn(e), d) for e, d in plan.keys),
        )
    if isinstance(plan, ops.Limit):
        return ops.Limit(_rename_plan(plan.child, mapping), plan.limit, plan.offset)
    return plan


def _is_identity_project(plan: ops.Project) -> bool:
    child_cols = plan.child.columns
    if len(plan.exprs) != len(child_cols):
        return False
    for (expr, name), col in zip(plan.exprs, child_cols):
        if not isinstance(expr, ast.ColumnRef):
            return False
        if expr != col.ref() or name.lower() != col.name.lower():
            return False
    return True


def insert_plan(memo: Memo, plan: ops.Operator, canonical: bool = True) -> int:
    """Insert a logical plan, returning its root equivalence node id.

    Join trees are inserted as binary joins over canonical predicate
    conjunct sets; Alias nodes are transparent (they do not change the
    computed multiset).  With ``canonical`` (default) the plan's
    bindings are α-renamed first so common subexpressions unify.
    """
    if canonical:
        plan = canonicalize_plan(plan)
    return _insert(memo, plan)


def _insert(memo: Memo, plan: ops.Operator) -> int:
    if isinstance(plan, ops.Rel):
        return memo.add_operation(
            "scan", (plan.name.lower(), plan.binding), ()
        )
    if isinstance(plan, ops.ViewRel):
        return memo.add_operation(
            "viewscan", (plan.name.lower(), plan.binding, plan.access_args), ()
        )
    if isinstance(plan, (ops.Alias, ops.Prefilter)):
        # a prefilter only sheds rows a selection above it drops anyway
        return _insert(memo, plan.child)
    if isinstance(plan, ops.Select):
        child = _insert(memo, plan.child)
        params = canonical_predicate(plan.predicate)
        if not params:
            return child
        return memo.add_operation("select", params, (child,))
    if isinstance(plan, ops.Project):
        child = _insert(memo, plan.child)
        if _is_identity_project(plan):
            # π over exactly the child's columns computes the child
            # itself; collapsing makes `SELECT *` views unify with bare
            # scans/selections.
            return child
        params = tuple(plan.exprs)
        return memo.add_operation("project", (params,), (child,))
    if isinstance(plan, ops.Distinct):
        child = _insert(memo, plan.child)
        return memo.add_operation("distinct", (), (child,))
    if isinstance(plan, ops.Join):
        left = _insert(memo, plan.left)
        right = _insert(memo, plan.right)
        params = (plan.kind, canonical_predicate(plan.predicate))
        return memo.add_operation("join", params, (left, right))
    if isinstance(plan, ops.Aggregate):
        child = _insert(memo, plan.child)
        params = (tuple(plan.group_exprs), tuple(plan.aggregates))
        return memo.add_operation("aggregate", params, (child,))
    if isinstance(plan, ops.SetOperation):
        left = _insert(memo, plan.left)
        right = _insert(memo, plan.right)
        return memo.add_operation(
            "setop", (plan.op, plan.all), (left, right)
        )
    if isinstance(plan, ops.SemiJoin):
        left = _insert(memo, plan.left)
        right = _insert(memo, plan.right)
        params = (plan.negated, repr(plan.operand))
        return memo.add_operation("semijoin", params, (left, right))
    if isinstance(plan, ops.DependentJoin):
        left = _insert(memo, plan.left)
        params = (
            plan.view_name.lower(),
            plan.param_name,
            repr(plan.key_expr),
            repr(plan.predicate),
        )
        return memo.add_operation("dependentjoin", params, (left,))
    if isinstance(plan, (ops.Sort, ops.Limit)):
        # Order/limit do not change the logical content the optimizer
        # reasons about; treat them as transparent for DAG purposes.
        return _insert(memo, plan.child)
    raise TypeError(f"cannot insert operator {type(plan).__name__} into memo")
