"""Storage nodes: per-shard table fragments and partial aggregation.

A :class:`StorageNode` owns one shard's :class:`~repro.storage.table.
Table` fragment of every partitioned relation.  The coordinator plans a
query once; for decomposable scalar aggregates it then *scatters* the
aggregate's input subtree to every node, each node folds its fragment
into per-aggregate accumulator states a column batch at a time, and
the coordinator *gathers* the partials into the final answer
(`merge_partials`).

Only aggregations whose merge is exact are decomposed:

* scalar (no GROUP BY — group output order is first-seen, which depends
  on the physical row interleaving and would differ across shards);
* non-DISTINCT ``count``/``sum``/``min``/``max``/``avg``;
* over a subtree of Select/Project/Alias/Rel operators only (joins and
  subqueries may need rows from other shards).

Everything else falls back to the coordinator's merged scan, which is
always available because :class:`~repro.cluster.partition.
PartitionedTable` presents the whole relation.
"""

from __future__ import annotations

from typing import Mapping, Optional

from repro.sql import ast
from repro.algebra import ops
from repro.catalog.types import DataType
from repro.db import _QueryContext
from repro.engine import VectorizedExecutor
from repro.engine.aggregates import Accumulator, MinMax

#: aggregate functions with an exact distributed merge
DECOMPOSABLE = {"count", "sum", "min", "max", "avg"}

#: decomposable regardless of argument type (no accumulation involved,
#: or — for count — exact integer accumulation)
_ORDER_FREE = {"count", "min", "max"}

#: operators allowed under a scattered aggregate input subtree
_FRAGMENT_SAFE = (ops.Select, ops.Project, ops.Alias, ops.Rel)


def _is_star(call: ast.FuncCall) -> bool:
    return len(call.args) == 1 and isinstance(call.args[0], ast.Star)


def decomposable_aggregate(plan: ops.Aggregate) -> bool:
    """True when this Aggregate can run as per-shard partials."""
    if plan.group_exprs:
        return False
    if not plan.aggregates:
        return False
    for call, _ in plan.aggregates:
        if call.distinct:
            return False
        if call.name.lower() not in DECOMPOSABLE:
            return False
    return True


def exact_merge_aggregates(
    plan: ops.Aggregate, leaf: ops.Rel, schema
) -> bool:
    """True when every aggregate's distributed merge is *byte-exact*.

    ``count``/``min``/``max`` always are.  ``sum``/``avg`` accumulate by
    addition, and float addition is non-associative — folding shard-
    by-shard instead of in global row-id order can differ from the
    single-node answer in the last ulp.  They are therefore decomposed
    only when the argument is a bare INT column of the leaf relation
    (integer addition, and addition of integer-valued floats below
    2**53, is exact and order-independent).
    """
    for call, _ in plan.aggregates:
        if call.name.lower() in _ORDER_FREE or _is_star(call):
            continue
        arg = call.args[0]
        if not isinstance(arg, ast.ColumnRef):
            return False
        # a Project between the Aggregate and the Rel may rename or
        # compute, hiding the argument's type; require the bare
        # select-from shape so the schema lookup is authoritative
        node = plan.child
        while isinstance(node, (ops.Select, ops.Alias)):
            node = node.child
        if node is not leaf:
            return False
        try:
            col = schema.column(arg.name)
        except Exception:
            return False
        if col.dtype is not DataType.INT:
            return False
    return True


def fragment_safe_subtree(plan: ops.Operator) -> bool:
    """True when every operator under ``plan`` reads only one shard's
    fragment (single base relation, no joins/subqueries/views)."""
    if not isinstance(plan, _FRAGMENT_SAFE):
        return False
    return all(fragment_safe_subtree(child) for child in plan.children)


class _ShardScanContext(_QueryContext):
    """ExecContext resolving partitioned tables to one shard's fragment.

    Non-partitioned tables resolve normally, so a node plan may mix in
    coordinator-local relations (none do today — the safe-subtree check
    admits a single Rel — but the fallback keeps this context honest).
    """

    def __init__(self, db, session, access_params, shard: int):
        super().__init__(db, session, access_params)
        self.shard = shard

    def table_handle(self, name: str):
        table = self.db.table(name)
        fragment = getattr(table, "fragment", None)
        return fragment(self.shard) if fragment is not None else table

    def table_rows(self, name: str):
        return self.table_handle(name).rows()


class StorageNode:
    """One shard: holds table fragments and runs scattered plan pieces."""

    def __init__(self, ordinal: int):
        self.ordinal = ordinal
        #: relation name (lower) -> this shard's Table fragment
        self.tables: dict[str, object] = {}
        #: scattered subplans executed on this node
        self.fragments_executed = 0

    def add_table(self, name: str, table) -> None:
        self.tables[name.lower()] = table

    def partial_aggregate(
        self,
        db,
        plan: ops.Aggregate,
        session,
        access_params: Optional[Mapping[str, object]] = None,
        ctx=None,
        compile_cache=None,
    ) -> list[Accumulator]:
        """Fold this shard's rows into one accumulator per aggregate,
        a column batch at a time (``VectorizedExecutor.accumulate``);
        every folded row is charged to ``ctx``."""
        context = _ShardScanContext(db, session, access_params, self.ordinal)
        executor = VectorizedExecutor(context, ctx=ctx, compile_cache=compile_cache)
        self.fragments_executed += 1
        [(_, accumulators)] = executor.accumulate(plan)
        return accumulators


def merge_partials(
    call: ast.FuncCall, partials: list[Accumulator]
) -> object:
    """Combine per-shard accumulator states into the final value.

    The merges are exact: counts add, sums add with SQL's all-NULL →
    NULL rule (and integer sums stay integers), min/max re-compare the
    shard winners through the same accumulator (preserving the
    incomparable-type error), and avg divides the summed totals by the
    summed counts rather than averaging shard averages.
    """
    name = call.name.lower()
    if name == "count":
        return sum(p.count for p in partials)
    if name == "sum":
        total = None
        for p in partials:
            if p.total is None:
                continue
            total = p.total if total is None else total + p.total
        return total
    if name == "avg":
        count = sum(p.count for p in partials)
        if count == 0:
            return None
        return sum(p.total for p in partials) / count
    # min / max
    merged = MinMax(is_min=(name == "min"))
    for p in partials:
        if p.best is not None:
            merged.add(p.best)
    return merged.result()
