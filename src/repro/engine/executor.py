"""Iterator-style executor for logical algebra trees.

The executor is deliberately simple and correct: hash joins for
equi-join conjuncts, nested loops otherwise, hash aggregation, and
counter-based bag set-operations.  It materializes intermediate results
as lists of tuples — the workloads in this reproduction are
laptop-scale, and the paper's claims concern *which* query runs, with
execution cost contrasts (Truman vs Non-Truman) preserved by the
relative plan shapes.
"""

from __future__ import annotations

from collections import Counter
from operator import itemgetter
from typing import Iterable, Optional, Protocol

from repro.errors import ExecutionError
from repro.sql import ast
from repro.algebra import expr as exprs
from repro.algebra import ops
from repro.engine.aggregates import make_accumulator
from repro.engine.evaluator import Evaluator, RowResolver
from repro.optimizer.pushdown import split_pushable_equalities


class ExecContext(Protocol):
    """What the executor needs from its host (the Database facade).

    Hosts may additionally expose ``table_handle(name) -> Table`` to let
    the vectorized engine reach hash indexes for pushdown scans; the
    method is optional and discovered via ``getattr``, so row-only
    contexts (tests, ad-hoc harnesses) need not provide it.
    """

    def table_rows(self, name: str) -> Iterable[tuple]:
        """Current rows of a base table."""
        ...

    def view_plan(
        self, name: str, access_args: tuple[tuple[str, object], ...] = ()
    ) -> ops.Operator:
        """Instantiated algebra plan for an authorization view scan."""
        ...


class Executor:
    """Evaluates a logical plan to a list of rows.

    ``ctx`` (a :class:`repro.service.context.QueryContext`) makes
    execution cooperative: row loops tick it so deadlines, cancellation,
    and row/memory budgets are observed *mid-scan* and *mid-join*, not
    just between operators.  With ``ctx=None`` (the default for direct
    library use) the hot loops pay a single ``is None`` branch.
    """

    def __init__(self, context: ExecContext, ctx=None):
        self.context = context
        self.qctx = ctx
        #: simple instrumentation used by benchmarks
        self.rows_scanned = 0
        self.join_pairs_examined = 0
        #: scans answered from a single partition (sharded tables only)
        self.pruned_scans = 0

    def execute(self, plan: ops.Operator) -> list[tuple]:
        if isinstance(plan, ops.Rel):
            rows = list(self.context.table_rows(plan.name))
            self.rows_scanned += len(rows)
            if self.qctx is not None:
                self.qctx.tick(len(rows), len(rows) * max(len(plan.columns), 1))
            return rows
        if isinstance(plan, ops.ViewRel):
            inner = self.context.view_plan(plan.name, plan.access_args)
            # Validate arity against the declared schema *before* looking
            # at any row: a mismatched view must fail identically whether
            # it returns a million rows or none.
            if len(inner.columns) != len(plan.schema_columns):
                raise ExecutionError(
                    f"view {plan.name!r} produces {len(inner.columns)} columns, "
                    f"expected {len(plan.schema_columns)}"
                )
            return self.execute(inner)
        if isinstance(plan, ops.Alias):
            return self.execute(plan.child)
        if isinstance(plan, ops.Select):
            return self._execute_select(plan)
        if isinstance(plan, ops.Prefilter):
            return self._execute_prefilter(plan)
        if isinstance(plan, ops.Project):
            return self._execute_project(plan)
        if isinstance(plan, ops.Distinct):
            return self._execute_distinct(plan)
        if isinstance(plan, ops.Join):
            return self._execute_join(plan)
        if isinstance(plan, ops.DependentJoin):
            return self._execute_dependent_join(plan)
        if isinstance(plan, ops.SemiJoin):
            return self._execute_semi_join(plan)
        if isinstance(plan, ops.Aggregate):
            return self._execute_aggregate(plan)
        if isinstance(plan, ops.SetOperation):
            return self._execute_set_operation(plan)
        if isinstance(plan, ops.Sort):
            return self._execute_sort(plan)
        if isinstance(plan, ops.Limit):
            rows = self.execute(plan.child)
            start = plan.offset
            return rows[start : start + plan.limit]
        if type(plan).__name__ == "_Dual":
            return [()]
        raise ExecutionError(f"cannot execute operator {type(plan).__name__}")

    # ------------------------------------------------------------------

    def _execute_select(self, plan: ops.Select) -> list[tuple]:
        rows = self._select_input(plan)
        evaluator = Evaluator(RowResolver(plan.child.columns))
        qctx = self.qctx
        if qctx is None:
            return [row for row in rows if evaluator.matches(plan.predicate, row)]
        result = []
        for row in rows:
            qctx.tick()
            if evaluator.matches(plan.predicate, row):
                result.append(row)
        return result

    def _execute_prefilter(self, plan: ops.Prefilter) -> list[tuple]:
        rows = self.execute(plan.child)
        evaluator = Evaluator(RowResolver(plan.child.columns))
        qctx = self.qctx
        result = []
        for row in rows:
            if qctx is not None:
                qctx.tick()
            if evaluator.passes_prefilter(plan.predicate, row):
                result.append(row)
        return result

    def _select_input(self, plan: ops.Select) -> list[tuple]:
        """Rows feeding a selection; a scan over a partitioned table is
        pruned to one shard when equality conjuncts pin the full
        partition key.  The caller still applies the whole predicate, so
        pruning can only skip rows the predicate would reject anyway."""
        child = plan.child
        if isinstance(child, ops.Rel):
            getter = getattr(self.context, "table_handle", None)
            table = getter(child.name) if getter is not None else None
            pruner = getattr(table, "prune_for", None)
            if pruner is not None:
                equalities, _ = split_pushable_equalities(plan.predicate, child)
                if equalities:
                    fragment = pruner({e.column: e.value for e in equalities})
                    if fragment is not None:
                        rows = fragment.rows()
                        self.rows_scanned += len(rows)
                        self.pruned_scans += 1
                        if self.qctx is not None:
                            self.qctx.tick(
                                len(rows), len(rows) * max(len(child.columns), 1)
                            )
                        return rows
        return self.execute(child)

    def _execute_project(self, plan: ops.Project) -> list[tuple]:
        rows = self.execute(plan.child)
        compiled = [expr for expr, _ in plan.exprs]
        if rows and compiled and all(isinstance(e, ast.ColumnRef) for e in compiled):
            # Bound only over a non-empty input: an unresolvable reference
            # fails where the first row would, and never on an empty one.
            resolver = RowResolver(plan.child.columns)
            ordinals = [resolver.ordinal(expr) for expr in compiled]
            first = ordinals[0]
            # itemgetter of one ordinal returns a bare value; a slice keeps a tuple
            project = (
                itemgetter(*ordinals)
                if len(ordinals) > 1
                else itemgetter(slice(first, first + 1))
            )
        else:
            evaluator = Evaluator(RowResolver(plan.child.columns))

            def project(row):
                return tuple(evaluator.evaluate(expr, row) for expr in compiled)

        qctx = self.qctx
        if qctx is None:
            return list(map(project, rows))
        result = []
        for row in rows:
            qctx.tick(1, len(compiled))
            result.append(project(row))
        return result

    def _execute_distinct(self, plan: ops.Distinct) -> list[tuple]:
        rows = self.execute(plan.child)
        seen: set[tuple] = set()
        result = []
        for row in rows:
            if row not in seen:
                seen.add(row)
                result.append(row)
        return result

    # -- joins -----------------------------------------------------------

    def _execute_join(self, plan: ops.Join) -> list[tuple]:
        left_rows = self.execute(plan.left)
        right_rows = self.execute(plan.right)
        left_cols = plan.left.columns
        right_cols = plan.right.columns
        combined = left_cols + right_cols
        evaluator = Evaluator(RowResolver(combined))

        qctx = self.qctx

        if plan.kind == "cross" or plan.predicate is None:
            if plan.kind == "left":
                # LEFT JOIN with no predicate behaves like a cross join
                # unless the right side is empty.
                if not right_rows:
                    null_pad = (None,) * len(right_cols)
                    return [l + null_pad for l in left_rows]
            self.join_pairs_examined += len(left_rows) * len(right_rows)
            if qctx is None:
                return [l + r for l in left_rows for r in right_rows]
            result = []
            width = len(combined)
            for l in left_rows:
                for r in right_rows:
                    qctx.tick(1, width)
                    result.append(l + r)
            return result

        equi, residual = self._split_equi(
            plan.predicate,
            {c.binding.lower() for c in left_cols if c.binding},
            {c.binding.lower() for c in right_cols if c.binding},
        )

        if equi:
            left_resolver = RowResolver(left_cols)
            right_resolver = RowResolver(right_cols)
            left_keys = [left_resolver.ordinal(l) for l, _ in equi]
            right_keys = [right_resolver.ordinal(r) for _, r in equi]
            table: dict[tuple, list[tuple]] = {}
            for row in right_rows:
                key = tuple(row[i] for i in right_keys)
                if any(v is None for v in key):
                    continue
                table.setdefault(key, []).append(row)
            result = []
            null_pad = (None,) * len(right_cols)
            for left_row in left_rows:
                key = tuple(left_row[i] for i in left_keys)
                matches = [] if any(v is None for v in key) else table.get(key, [])
                matched = False
                for right_row in matches:
                    combined_row = left_row + right_row
                    self.join_pairs_examined += 1
                    if qctx is not None:
                        qctx.tick()
                    if residual is None or evaluator.matches(residual, combined_row):
                        result.append(combined_row)
                        matched = True
                if plan.kind == "left" and not matched:
                    result.append(left_row + null_pad)
            return result

        # Nested loop fallback.
        result = []
        null_pad = (None,) * len(right_cols)
        for left_row in left_rows:
            matched = False
            for right_row in right_rows:
                combined_row = left_row + right_row
                self.join_pairs_examined += 1
                if qctx is not None:
                    qctx.tick()
                if evaluator.matches(plan.predicate, combined_row):
                    result.append(combined_row)
                    matched = True
            if plan.kind == "left" and not matched:
                result.append(left_row + null_pad)
        return result

    def _execute_semi_join(self, plan: ops.SemiJoin) -> list[tuple]:
        """[NOT] IN / [NOT] EXISTS over an uncorrelated subquery."""
        left_rows = self.execute(plan.left)
        right_rows = self.execute(plan.right)

        if plan.operand is None:  # EXISTS form
            nonempty = bool(right_rows)
            keep = (not nonempty) if plan.negated else nonempty
            return list(left_rows) if keep else []

        if right_rows and len(right_rows[0]) != 1:
            raise ExecutionError("IN subquery must produce exactly one column")
        values = {row[0] for row in right_rows if row[0] is not None}
        has_null = any(row[0] is None for row in right_rows)
        evaluator = Evaluator(RowResolver(plan.left.columns))

        result = []
        for row in left_rows:
            value = evaluator.evaluate(plan.operand, row)
            if plan.negated:
                # NOT IN: TRUE only if no member compares equal and no
                # comparison is UNKNOWN (null-aware semantics).
                if right_rows and (value is None or has_null):
                    continue
                if value in values:
                    continue
                result.append(row)
            else:
                if value is not None and value in values:
                    result.append(row)
        return result

    def _execute_dependent_join(self, plan: ops.DependentJoin) -> list[tuple]:
        """Per-row view invocation with the $$ parameter bound (§6)."""
        left_rows = self.execute(plan.left)
        left_eval = Evaluator(RowResolver(plan.left.columns))
        combined_eval = Evaluator(RowResolver(plan.columns))
        result = []
        view_cache: dict[object, list[tuple]] = {}
        for left_row in left_rows:
            key = left_eval.evaluate(plan.key_expr, left_row)
            if key is None:
                continue
            if key not in view_cache:
                inner = self.context.view_plan(
                    plan.view_name, ((plan.param_name, key),)
                )
                view_cache[key] = self.execute(inner)
            for view_row in view_cache[key]:
                combined = left_row + view_row
                self.join_pairs_examined += 1
                if self.qctx is not None:
                    self.qctx.tick()
                if plan.predicate is None or combined_eval.matches(
                    plan.predicate, combined
                ):
                    result.append(combined)
        return result

    @staticmethod
    def _split_equi(
        predicate: ast.Expr, left_bindings: set[str], right_bindings: set[str]
    ) -> tuple[list[tuple[ast.ColumnRef, ast.ColumnRef]], Optional[ast.Expr]]:
        """Extract hashable equi-join pairs; return (pairs, residual)."""
        pairs: list[tuple[ast.ColumnRef, ast.ColumnRef]] = []
        residual: list[ast.Expr] = []
        for conj in exprs.conjuncts(predicate):
            if (
                isinstance(conj, ast.BinaryOp)
                and conj.op == "="
                and isinstance(conj.left, ast.ColumnRef)
                and isinstance(conj.right, ast.ColumnRef)
                and conj.left.table is not None
                and conj.right.table is not None
            ):
                lt = conj.left.table.lower()
                rt = conj.right.table.lower()
                if lt in left_bindings and rt in right_bindings:
                    pairs.append((conj.left, conj.right))
                    continue
                if lt in right_bindings and rt in left_bindings:
                    pairs.append((conj.right, conj.left))
                    continue
            residual.append(conj)
        return pairs, exprs.make_conjunction(residual)

    # -- aggregation -------------------------------------------------------

    def _execute_aggregate(self, plan: ops.Aggregate) -> list[tuple]:
        rows = self.execute(plan.child)
        evaluator = Evaluator(RowResolver(plan.child.columns))
        group_exprs = [expr for expr, _ in plan.group_exprs]
        groups: dict[tuple, list] = {}
        order: list[tuple] = []

        def new_accumulators():
            accs = []
            for call, _ in plan.aggregates:
                star = len(call.args) == 1 and isinstance(call.args[0], ast.Star)
                accs.append(make_accumulator(call.name, call.distinct, star))
            return accs

        qctx = self.qctx
        for row in rows:
            if qctx is not None:
                qctx.tick()
            key = tuple(evaluator.evaluate(e, row) for e in group_exprs)
            if key not in groups:
                groups[key] = new_accumulators()
                order.append(key)
            accs = groups[key]
            for (call, _), acc in zip(plan.aggregates, accs):
                if len(call.args) == 1 and isinstance(call.args[0], ast.Star):
                    acc.add(1)
                else:
                    acc.add(evaluator.evaluate(call.args[0], row))

        if not groups and not plan.group_exprs:
            # Scalar aggregate over empty input: one row of "empty" results.
            accs = new_accumulators()
            return [tuple(acc.result() for acc in accs)]

        return [
            key + tuple(acc.result() for acc in groups[key]) for key in order
        ]

    # -- set operations -------------------------------------------------------

    def _execute_set_operation(self, plan: ops.SetOperation) -> list[tuple]:
        left_rows = self.execute(plan.left)
        right_rows = self.execute(plan.right)
        return combine_set_operation(plan.op, plan.all, left_rows, right_rows)

    @staticmethod
    def _dedupe(rows: list[tuple]) -> list[tuple]:
        return dedupe_rows(rows)

    # -- sorting -----------------------------------------------------------------

    def _execute_sort(self, plan: ops.Sort) -> list[tuple]:
        rows = self.execute(plan.child)
        evaluator = Evaluator(RowResolver(plan.child.columns))
        # Successive stable sorts from the least-significant key; NULLs
        # sort last ascending, first descending (PostgreSQL default).
        for expr, descending in reversed(plan.keys):
            def key_fn(row, expr=expr):
                value = evaluator.evaluate(expr, row)
                if value is None:
                    # (1, ...) is the largest key: NULLs sort last when
                    # ascending and first when descending (reverse=True).
                    return (1, _NullOrder())
                return (0, _Comparable(value))
            rows = sorted(rows, key=key_fn, reverse=descending)
        return rows


def dedupe_rows(rows: list[tuple]) -> list[tuple]:
    """First occurrence of each distinct row, in order."""
    seen: set[tuple] = set()
    result = []
    for row in rows:
        if row not in seen:
            seen.add(row)
            result.append(row)
    return result


def combine_set_operation(
    op: str, all_: bool, left_rows: list[tuple], right_rows: list[tuple]
) -> list[tuple]:
    """Bag UNION/INTERSECT/EXCEPT [ALL] over materialized inputs.

    Shared between the row and vectorized engines so the counter-based
    multiset semantics live in exactly one place.
    """
    if op == "union":
        combined = left_rows + right_rows
        if all_:
            return combined
        return dedupe_rows(combined)
    left_counts = Counter(left_rows)
    right_counts = Counter(right_rows)
    if op == "intersect":
        result = []
        for row in dedupe_rows(left_rows):
            count = min(left_counts[row], right_counts.get(row, 0))
            result.extend([row] * (count if all_ else min(count, 1)))
        return result
    if op == "except":
        result = []
        for row in dedupe_rows(left_rows):
            if all_:
                count = max(left_counts[row] - right_counts.get(row, 0), 0)
            else:
                count = 0 if right_counts.get(row, 0) else 1
            result.extend([row] * count)
        return result
    raise ExecutionError(f"unknown set operation {op!r}")


class _NullOrder:
    """Placeholder comparing equal to itself (NULL vs NULL)."""

    def __lt__(self, other) -> bool:
        return False

    def __eq__(self, other) -> bool:
        return isinstance(other, _NullOrder)


class _Comparable:
    """Wrapper allowing heterogeneous-safe comparisons within a column."""

    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value

    def __lt__(self, other) -> bool:
        if isinstance(other, _NullOrder):
            return False
        return self.value < other.value

    def __eq__(self, other) -> bool:
        return isinstance(other, _Comparable) and self.value == other.value
