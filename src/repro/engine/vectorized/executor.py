"""Columnar batch executor over logical algebra plans.

Evaluates the *same* :mod:`repro.algebra.ops` trees as the row engine
(:class:`repro.engine.executor.Executor`), but in batches of column
vectors:

* scans chunk base tables into :class:`~repro.engine.vectorized.batch.
  ColumnBatch` objects of at most ``batch_size`` rows;
* predicates and projections are compiled **once per operator** into
  closures over column vectors (:mod:`repro.engine.vectorized.compile`),
  eliminating the per-row AST walk that dominates the row engine;
* ``σ_{col = literal}(Rel)`` scans consult
  :func:`repro.optimizer.pushdown.probe_row_ids` and, when a
  single-column :class:`repro.storage.HashIndex` exists, probe it
  instead of scanning — ``rows_scanned`` then counts only fetched rows;
* joins are hash joins over batches (selection-vector gather, no
  per-pair tuple concatenation until output), aggregation is hash
  aggregation folding a batch at a time into the row engine's
  accumulators (``Accumulator.add_all``).

The row engine remains the semantic oracle: the differential suite
(tests/integration/test_differential_engines.py) asserts bag-equal
results between the two engines on every workload and paper query.
"""

from __future__ import annotations

from typing import Optional

from repro.errors import ExecutionError
from repro.sql import ast
from repro.algebra import expr as exprs
from repro.algebra import ops
from repro.engine.aggregates import make_accumulator
from repro.engine.evaluator import RowResolver
from repro.engine.executor import (
    ExecContext,
    Executor,
    _Comparable,
    _NullOrder,
    combine_set_operation,
)
from repro.engine.vectorized.batch import (
    ColumnBatch,
    batches_from_rows,
    rows_from_batches,
)
from repro.engine.vectorized.compile import compile_scalar, selection_vector
from repro.optimizer.pushdown import probe_row_ids, split_pushable_equalities

#: default number of rows per column batch
BATCH_SIZE = 1024


class VectorizedExecutor:
    """Evaluates a logical plan batch-at-a-time to a list of rows.

    ``ctx`` (a :class:`repro.service.context.QueryContext`) makes
    execution cooperative at batch granularity: every produced or
    examined batch charges its row count against the request's budgets
    and observes the deadline/cancel token, so cancellation latency is
    bounded by one batch (``batch_size`` rows), not one operator.
    """

    def __init__(
        self,
        context: ExecContext,
        batch_size: int = BATCH_SIZE,
        ctx=None,
        compile_cache=None,
    ):
        self.context = context
        self.batch_size = batch_size
        self.qctx = ctx
        #: optional repro.prepared.PlanCompileCache: reuses compiled
        #: kernels for identity-stable expressions of a prepared template
        self.compile_cache = compile_cache
        #: instrumentation mirroring the row engine (E2/E4 contrasts)
        self.rows_scanned = 0
        self.join_pairs_examined = 0
        #: index probes answered without a full scan (vectorized-only)
        self.index_probes = 0
        #: scans answered from a single partition (sharded tables only)
        self.pruned_scans = 0

    def _tick(self, rows: int, cells: int = 0) -> None:
        if self.qctx is not None:
            self.qctx.tick(rows, cells)

    def _compile(self, expr: ast.Expr, columns: tuple):
        """Compile a scalar, consulting the template kernel cache for
        expressions whose identity is stable across binds."""
        cache = self.compile_cache
        if cache is not None and id(expr) in cache.cacheable:
            key = (id(expr), columns)
            fn = cache.lookup(key)
            if fn is None:
                fn = compile_scalar(expr, RowResolver(columns))
                cache.store(key, fn)
            return fn
        return compile_scalar(expr, RowResolver(columns))

    # -- public API -------------------------------------------------------

    def execute(self, plan: ops.Operator) -> list[tuple]:
        return rows_from_batches(self._batches(plan))

    # -- dispatch ---------------------------------------------------------

    def _batches(self, plan: ops.Operator) -> list[ColumnBatch]:
        if isinstance(plan, ops.Rel):
            return self._scan(plan, predicate=None)
        if isinstance(plan, ops.ViewRel):
            return self._view_scan(plan)
        if isinstance(plan, ops.Alias):
            return self._batches(plan.child)
        if isinstance(plan, ops.Select):
            return self._select(plan)
        if isinstance(plan, ops.Project):
            return self._project(plan)
        if isinstance(plan, ops.Distinct):
            return self._distinct(plan)
        if isinstance(plan, ops.Join):
            return self._join(plan)
        if isinstance(plan, ops.DependentJoin):
            return self._dependent_join(plan)
        if isinstance(plan, ops.SemiJoin):
            return self._semi_join(plan)
        if isinstance(plan, ops.Aggregate):
            return self._aggregate(plan)
        if isinstance(plan, ops.SetOperation):
            return self._set_operation(plan)
        if isinstance(plan, ops.Sort):
            return self._sort(plan)
        if isinstance(plan, ops.Limit):
            rows = rows_from_batches(self._batches(plan.child))
            start = plan.offset
            kept = rows[start : start + plan.limit]
            return list(
                batches_from_rows(kept, len(plan.columns), self.batch_size)
            )
        if type(plan).__name__ == "_Dual":
            return [ColumnBatch([], 1)]
        raise ExecutionError(f"cannot execute operator {type(plan).__name__}")

    # -- scans ------------------------------------------------------------

    def _table_handle(self, name: str):
        getter = getattr(self.context, "table_handle", None)
        return getter(name) if getter is not None else None

    def _scan(
        self, rel: ops.Rel, predicate: Optional[ast.Expr]
    ) -> list[ColumnBatch]:
        """Base-table scan, probing a hash index when the predicate has
        a pushable single-column equality conjunct."""
        width = len(rel.schema_columns)
        table = self._table_handle(rel.name)

        pruner = getattr(table, "prune_for", None)
        if pruner is not None and predicate is not None:
            equalities, _ = split_pushable_equalities(predicate, rel)
            if equalities:
                fragment = pruner({e.column: e.value for e in equalities})
                if fragment is not None:
                    # probe/scan logic below runs against the single
                    # shard that can hold matching rows; the full
                    # predicate is still applied, so this is purely a
                    # work reduction
                    table = fragment
                    self.pruned_scans += 1

        row_ids, residual = (
            probe_row_ids(table, rel, predicate)
            if table is not None
            else (None, predicate)
        )
        if row_ids is not None:
            rows = [table.get_row(rid) for rid in row_ids]
            self.index_probes += 1
        else:
            rows = (
                table.rows()
                if table is not None
                else list(self.context.table_rows(rel.name))
            )
        self.rows_scanned += len(rows)
        self._tick(len(rows), len(rows) * width)
        batches = list(batches_from_rows(rows, width, self.batch_size))
        if residual is None:
            return batches
        return self._filter_batches(batches, residual, rel.columns)

    def _bare_row_count(self, plan: ops.Operator) -> Optional[int]:
        """The row count of a bare base-table scan, charged as
        :meth:`_scan` charges reading the rows; None for other input."""
        while isinstance(plan, ops.Alias):
            plan = plan.child
        if not isinstance(plan, ops.Rel):
            return None
        table = self._table_handle(plan.name)
        if table is None:
            return None
        count = table.row_count
        self.rows_scanned += count
        self._tick(count, count * len(plan.schema_columns))
        return count

    def _view_scan(self, plan: ops.ViewRel) -> list[ColumnBatch]:
        inner = self.context.view_plan(plan.name, plan.access_args)
        if len(inner.columns) != len(plan.schema_columns):
            raise ExecutionError(
                f"view {plan.name!r} produces {len(inner.columns)} columns, "
                f"expected {len(plan.schema_columns)}"
            )
        return self._batches(inner)

    # -- selection / projection ------------------------------------------

    def _filter_batches(
        self,
        batches: list[ColumnBatch],
        predicate: ast.Expr,
        columns: tuple[ops.OutCol, ...],
    ) -> list[ColumnBatch]:
        compiled = self._compile(predicate, columns)
        result = []
        for batch in batches:
            self._tick(batch.length)
            sel = selection_vector(compiled(batch))
            if len(sel) == batch.length:
                result.append(batch)
            elif sel:
                result.append(batch.take(sel))
        return result

    def _select(self, plan: ops.Select) -> list[ColumnBatch]:
        child = plan.child
        if isinstance(child, ops.Rel):
            return self._scan(child, plan.predicate)
        batches = self._batches(child)
        return self._filter_batches(batches, plan.predicate, child.columns)

    def _project(self, plan: ops.Project) -> list[ColumnBatch]:
        child_columns = plan.child.columns
        if _is_identity(plan.exprs, child_columns):
            # same values in the same order: keep the child's batches,
            # and with them any row tuples they still hold
            return self._batches(plan.child)
        compiled = [
            self._compile(expr, child_columns) for expr, _ in plan.exprs
        ]
        result = []
        for batch in self._batches(plan.child):
            result.append(
                ColumnBatch([fn(batch) for fn in compiled], batch.length)
            )
        return result

    def _distinct(self, plan: ops.Distinct) -> list[ColumnBatch]:
        seen: set[tuple] = set()
        kept: list[tuple] = []
        for batch in self._batches(plan.child):
            self._tick(batch.length)
            for row in batch.to_rows():
                if row not in seen:
                    seen.add(row)
                    kept.append(row)
        return list(
            batches_from_rows(kept, len(plan.columns), self.batch_size)
        )

    # -- joins ------------------------------------------------------------

    def _concat(self, batches: list[ColumnBatch], width: int) -> ColumnBatch:
        """Materialize a batch list as one wide batch (build sides)."""
        if not batches:
            return ColumnBatch.empty(width)
        if len(batches) == 1:
            return batches[0]
        columns = [
            [v for b in batches for v in b.columns[i]] for i in range(width)
        ]
        return ColumnBatch(columns, sum(b.length for b in batches))

    def _join(self, plan: ops.Join) -> list[ColumnBatch]:
        left_cols = plan.left.columns
        right_cols = plan.right.columns
        left_batches = self._batches(plan.left)
        right = self._concat(self._batches(plan.right), len(right_cols))

        if plan.kind == "cross" or plan.predicate is None:
            return self._cross_join(plan, left_batches, right)

        equi, residual = Executor._split_equi(
            plan.predicate,
            {c.binding.lower() for c in left_cols if c.binding},
            {c.binding.lower() for c in right_cols if c.binding},
        )
        if equi:
            return self._hash_join(plan, left_batches, right, equi, residual)
        return self._loop_join(plan, left_batches, right, plan.predicate)

    def _ctx_chunks(self, batch: ColumnBatch, right_length: int):
        """Split a join's left batch so cooperative checks interleave
        with the pair materialization.  A single batch crossed with a
        wide right side is one untracked burst of ``batch.length *
        right_length`` pairs — far past the check interval — so under a
        QueryContext the batch is re-sliced to keep each burst small.
        Without a context the batch passes through untouched (no
        overhead, identical output batching)."""
        if self.qctx is None or right_length <= 0:
            yield batch
            return
        per_chunk = max(1, (16 * self.batch_size) // right_length)
        if per_chunk >= batch.length:
            yield batch
            return
        for start in range(0, batch.length, per_chunk):
            stop = min(start + per_chunk, batch.length)
            yield batch.take(list(range(start, stop)))

    def _null_pad_batch(
        self, left_batch: ColumnBatch, indices: list[int], pad_width: int
    ) -> ColumnBatch:
        padded = left_batch.take(indices)
        for _ in range(pad_width):
            padded.columns.append([None] * padded.length)
        return ColumnBatch(padded.columns, padded.length)

    def _cross_join(
        self,
        plan: ops.Join,
        left_batches: list[ColumnBatch],
        right: ColumnBatch,
    ) -> list[ColumnBatch]:
        pad_width = len(plan.right.columns)
        result = []
        if plan.kind == "left" and right.length == 0:
            # LEFT JOIN with no predicate over an empty right side
            for batch in left_batches:
                result.append(
                    self._null_pad_batch(batch, list(range(batch.length)), pad_width)
                )
            return result
        right_indices = list(range(right.length))
        pair_width = len(plan.columns)
        for full_batch in left_batches:
            for batch in self._ctx_chunks(full_batch, right.length):
                self.join_pairs_examined += batch.length * right.length
                self._tick(batch.length * right.length,
                           batch.length * right.length * pair_width)
                left_idx = [
                    i for i in range(batch.length) for _ in right_indices
                ]
                right_idx = right_indices * batch.length
                combined = batch.take(left_idx).concat_columns(
                    right.take(right_idx)
                )
                if combined.length:
                    result.append(combined)
        return result

    def _hash_join(
        self,
        plan: ops.Join,
        left_batches: list[ColumnBatch],
        right: ColumnBatch,
        equi: list[tuple[ast.ColumnRef, ast.ColumnRef]],
        residual: Optional[ast.Expr],
    ) -> list[ColumnBatch]:
        left_cols = plan.left.columns
        right_cols = plan.right.columns
        left_resolver = RowResolver(left_cols)
        right_resolver = RowResolver(right_cols)
        left_keys = [left_resolver.ordinal(l) for l, _ in equi]
        right_keys = [right_resolver.ordinal(r) for _, r in equi]
        single = len(left_keys) == 1

        # build side: key -> list of right row indices (NULL keys never join)
        table: dict[object, list[int]] = {}
        if single:
            for i, key in enumerate(right.column(right_keys[0])):
                if key is not None:
                    table.setdefault(key, []).append(i)
        else:
            key_columns = [right.column(k) for k in right_keys]
            for i, key in enumerate(zip(*key_columns)):
                if None not in key:
                    table.setdefault(key, []).append(i)

        compiled_residual = (
            self._compile(residual, left_cols + right_cols)
            if residual is not None
            else None
        )
        is_left = plan.kind == "left"
        pad_width = len(right_cols)
        result = []
        for batch in left_batches:
            if single:
                probe_keys = batch.column(left_keys[0])
            else:
                probe_keys = list(
                    zip(*[batch.column(k) for k in left_keys])
                )
            left_idx: list[int] = []
            right_idx: list[int] = []
            for i, key in enumerate(probe_keys):
                if single:
                    matches = table.get(key) if key is not None else None
                else:
                    matches = table.get(key) if None not in key else None
                if matches:
                    left_idx.extend([i] * len(matches))
                    right_idx.extend(matches)
            self.join_pairs_examined += len(left_idx)
            self._tick(max(batch.length, len(left_idx)))
            combined = batch.take(left_idx).concat_columns(right.take(right_idx))
            if compiled_residual is not None:
                sel = selection_vector(compiled_residual(combined))
                matched_left = {left_idx[s] for s in sel}
                combined = combined.take(sel)
            else:
                matched_left = set(left_idx)
            if combined.length:
                result.append(combined)
            if is_left:
                unmatched = [
                    i for i in range(batch.length) if i not in matched_left
                ]
                if unmatched:
                    result.append(
                        self._null_pad_batch(batch, unmatched, pad_width)
                    )
        return result

    def _loop_join(
        self,
        plan: ops.Join,
        left_batches: list[ColumnBatch],
        right: ColumnBatch,
        predicate: ast.Expr,
    ) -> list[ColumnBatch]:
        """Non-equi predicate: evaluate over the full cross pairing, in
        batches, exactly as the row engine's nested loop does."""
        left_cols = plan.left.columns
        right_cols = plan.right.columns
        compiled = self._compile(predicate, left_cols + right_cols)
        is_left = plan.kind == "left"
        pad_width = len(right_cols)
        right_indices = list(range(right.length))
        result = []
        for full_batch in left_batches:
            for batch in self._ctx_chunks(full_batch, right.length):
                self.join_pairs_examined += batch.length * right.length
                self._tick(batch.length * right.length)
                left_idx = [i for i in range(batch.length) for _ in right_indices]
                right_idx = right_indices * batch.length
                combined = batch.take(left_idx).concat_columns(right.take(right_idx))
                sel = selection_vector(compiled(combined))
                matched_left = {left_idx[s] for s in sel}
                kept = combined.take(sel)
                if kept.length:
                    result.append(kept)
                if is_left:
                    unmatched = [
                        i for i in range(batch.length) if i not in matched_left
                    ]
                    if unmatched:
                        result.append(
                            self._null_pad_batch(batch, unmatched, pad_width)
                        )
        return result

    def _semi_join(self, plan: ops.SemiJoin) -> list[ColumnBatch]:
        left_batches = self._batches(plan.left)
        right_rows = rows_from_batches(self._batches(plan.right))

        if plan.operand is None:  # EXISTS form
            nonempty = bool(right_rows)
            keep = (not nonempty) if plan.negated else nonempty
            return left_batches if keep else []

        if right_rows and len(right_rows[0]) != 1:
            raise ExecutionError("IN subquery must produce exactly one column")
        values = {row[0] for row in right_rows if row[0] is not None}
        has_null = any(row[0] is None for row in right_rows)
        compiled = self._compile(plan.operand, plan.left.columns)

        result = []
        for batch in left_batches:
            operand_vec = compiled(batch)
            if plan.negated:
                # NOT IN: null-aware — any NULL on either side blocks
                if right_rows and has_null:
                    continue
                sel = [
                    i
                    for i, value in enumerate(operand_vec)
                    if not (right_rows and value is None)
                    and value not in values
                ]
            else:
                sel = [
                    i
                    for i, value in enumerate(operand_vec)
                    if value is not None and value in values
                ]
            if sel:
                result.append(batch.take(sel))
        return result

    def _dependent_join(self, plan: ops.DependentJoin) -> list[ColumnBatch]:
        """Per-row view invocation with the $$ parameter bound (§6)."""
        left_batches = self._batches(plan.left)
        key_fn = compile_scalar(plan.key_expr, RowResolver(plan.left.columns))
        compiled_residual = (
            compile_scalar(plan.predicate, RowResolver(plan.columns))
            if plan.predicate is not None
            else None
        )
        width = len(plan.columns)
        view_cache: dict[object, list[tuple]] = {}
        combined_rows: list[tuple] = []
        for batch in left_batches:
            self._tick(batch.length)
            keys = key_fn(batch)
            rows = batch.to_rows()
            for left_row, key in zip(rows, keys):
                if key is None:
                    continue
                if key not in view_cache:
                    inner = self.context.view_plan(
                        plan.view_name, ((plan.param_name, key),)
                    )
                    view_cache[key] = rows_from_batches(self._batches(inner))
                for view_row in view_cache[key]:
                    self.join_pairs_examined += 1
                    combined_rows.append(left_row + view_row)
        batches = list(
            batches_from_rows(combined_rows, width, self.batch_size)
        )
        if compiled_residual is None:
            return batches
        result = []
        for batch in batches:
            sel = selection_vector(compiled_residual(batch))
            if sel:
                result.append(batch.take(sel))
        return result

    # -- aggregation ------------------------------------------------------

    def _aggregate(self, plan: ops.Aggregate) -> list[ColumnBatch]:
        rows = [
            key + tuple(acc.result() for acc in accs)
            for key, accs in self.accumulate(plan)
        ]
        return list(
            batches_from_rows(rows, len(plan.columns), self.batch_size)
        )

    def accumulate(self, plan: ops.Aggregate) -> list[tuple[tuple, list]]:
        """Fold ``plan``'s input into ``(group key, accumulators)``
        pairs in first-seen key order, a batch at a time.  A scalar
        aggregate has exactly one pair, keyed ``()``, even over no rows.

        Each batch costs one ``add_all`` per aggregate (per group and
        aggregate when grouped), over the vector its compiled argument
        kernel returns; ``count(*)`` reads no column, and over a bare
        table reads only its row count.
        """
        child_columns = plan.child.columns
        group_fns = [
            self._compile(expr, child_columns) for expr, _ in plan.group_exprs
        ]
        specs = []
        for call, _ in plan.aggregates:
            star = len(call.args) == 1 and isinstance(call.args[0], ast.Star)
            arg_fn = None if star else self._compile(call.args[0], child_columns)
            specs.append((call.name, call.distinct, star, arg_fn))

        def new_accumulators():
            return [
                make_accumulator(name, distinct, star)
                for name, distinct, star, _ in specs
            ]

        if not group_fns:
            accs = new_accumulators()
            if all(fn is None for _, _, _, fn in specs):
                count = self._bare_row_count(plan.child)
                if count is not None:
                    self._tick(count)
                    for acc in accs:
                        acc.add_all(range(count))
                    return [((), accs)]
            for batch in self._batches(plan.child):
                self._tick(batch.length)
                everyone = range(batch.length)
                for acc, (_, _, _, fn) in zip(accs, specs):
                    acc.add_all(everyone if fn is None else fn(batch))
            return [((), accs)]

        groups: dict[tuple, list] = {}
        for batch in self._batches(plan.child):
            self._tick(batch.length)
            members: dict[tuple, list[int]] = {}
            for i, key in enumerate(zip(*[fn(batch) for fn in group_fns])):
                indices = members.get(key)
                if indices is None:
                    members[key] = [i]
                else:
                    indices.append(i)
            args = [None if fn is None else fn(batch) for _, _, _, fn in specs]
            for key, indices in members.items():
                accs = groups.get(key)
                if accs is None:
                    accs = groups[key] = new_accumulators()
                for acc, vector in zip(accs, args):
                    acc.add_all(
                        indices if vector is None else [vector[i] for i in indices]
                    )
        return list(groups.items())

    # -- set operations / sort -------------------------------------------

    def _set_operation(self, plan: ops.SetOperation) -> list[ColumnBatch]:
        left_rows = rows_from_batches(self._batches(plan.left))
        right_rows = rows_from_batches(self._batches(plan.right))
        rows = combine_set_operation(plan.op, plan.all, left_rows, right_rows)
        return list(
            batches_from_rows(rows, len(plan.columns), self.batch_size)
        )

    def _sort(self, plan: ops.Sort) -> list[ColumnBatch]:
        child_columns = plan.child.columns
        batch = self._concat(
            self._batches(plan.child), len(child_columns)
        )
        order = list(range(batch.length))
        # Successive stable sorts from the least-significant key over
        # one shared permutation — identical outcome to the row engine's
        # repeated stable row sorts.
        for expr, descending in reversed(plan.keys):
            vector = self._compile(expr, child_columns)(batch)

            def sort_key(i, vector=vector):
                value = vector[i]
                if value is None:
                    return (1, _NullOrder())
                return (0, _Comparable(value))

            order.sort(key=sort_key, reverse=descending)
        sorted_batch = batch.take(order)
        return [sorted_batch] if sorted_batch.length else []


def _is_identity(projections, columns: tuple) -> bool:
    """True when ``projections`` are bare references to ``columns``,
    each in its own position."""
    if len(projections) != len(columns):
        return False
    resolver = RowResolver(columns)
    for position, (expr, _) in enumerate(projections):
        if not isinstance(expr, ast.ColumnRef):
            return False
        try:
            if resolver.ordinal(expr) != position:
                return False
        except ExecutionError:
            return False
    return True
