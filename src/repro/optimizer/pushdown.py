"""Plan annotations for index-pushable selection conjuncts.

The vectorized batch executor (:mod:`repro.engine.vectorized`) wants to
turn ``σ_{col = literal}(Rel)`` into a :class:`repro.storage.HashIndex`
lookup instead of a full scan.  This module is the *analysis* half of
that optimization, kept in the optimizer layer so both executors (and
tests) can reason about pushability without duplicating predicate
plumbing:

* :func:`split_pushable_equalities` — partition a selection predicate
  over a base-table scan into single-column ``col = literal`` conjuncts
  (candidate index probes) and a residual predicate;
* :func:`annotate_scan` — combine the split with the physical question
  "does a single-column hash index on that column actually exist?" and
  produce a :class:`ScanAnnotation` naming the chosen probe;
* :func:`probe_row_ids` — run that probe against a table: the row ids
  it fetches plus the residual still to apply.  The vectorized scan and
  the write path's row finder (``Database._rows_where``) both call it,
  so a DELETE's WHERE uses the index a SELECT's would.

Only *top-level conjuncts* qualify: pushing through OR/NOT would change
semantics, and NULL literals never qualify (``col = NULL`` is UNKNOWN
for every row, but a hash probe on key ``(None,)`` is defined to return
nothing only by convention — the residual path keeps the semantics in
one place, the scalar evaluator).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro.sql import ast
from repro.algebra import expr as exprs
from repro.algebra import ops


@dataclass(frozen=True)
class PushableEquality:
    """One ``col = literal`` conjunct over a base-table scan."""

    column: str  # schema column name, lower-cased
    value: object  # literal value (never None)
    conjunct: ast.Expr  # the original conjunct (for re-assembly)


@dataclass(frozen=True)
class ScanAnnotation:
    """How to evaluate one ``Select(Rel)`` pair.

    ``probe`` is the equality chosen for an index lookup (None = full
    scan); ``residual`` is the predicate that must still be applied to
    fetched rows — it includes every conjunct *not* consumed by the
    probe, so applying ``residual`` after the probe is always
    equivalent to applying the original predicate after a full scan.
    """

    rel: ops.Rel
    probe: Optional[PushableEquality]
    probe_columns: tuple[str, ...] = ()
    residual: Optional[ast.Expr] = None


def _column_of(rel: ops.Rel, ref: ast.ColumnRef) -> Optional[str]:
    """The schema column of ``rel`` that ``ref`` resolves to, if any."""
    name = ref.name.lower()
    if name not in {c.lower() for c in rel.schema_columns}:
        return None
    if ref.table is not None and ref.table.lower() != rel.binding.lower():
        return None
    return name


def split_pushable_equalities(
    predicate: Optional[ast.Expr], rel: ops.Rel
) -> tuple[list[PushableEquality], Optional[ast.Expr]]:
    """Partition ``predicate`` into pushable equalities and a residual.

    A conjunct is pushable when it has the shape ``col = literal`` or
    ``literal = col`` with ``col`` resolving to a column of ``rel`` and
    the literal non-NULL.  The residual conjunction preserves original
    conjunct order.
    """
    pushable: list[PushableEquality] = []
    residual: list[ast.Expr] = []
    for conj in exprs.conjuncts(predicate):
        pair = _match_equality(conj, rel)
        if pair is not None:
            pushable.append(pair)
        else:
            residual.append(conj)
    return pushable, exprs.make_conjunction(residual)


def _match_equality(conj: ast.Expr, rel: ops.Rel) -> Optional[PushableEquality]:
    if not (isinstance(conj, ast.BinaryOp) and conj.op == "="):
        return None
    sides = ((conj.left, conj.right), (conj.right, conj.left))
    for col_side, lit_side in sides:
        if not isinstance(col_side, ast.ColumnRef):
            continue
        if not isinstance(lit_side, ast.Literal) or lit_side.value is None:
            continue
        column = _column_of(rel, col_side)
        if column is not None:
            return PushableEquality(column, lit_side.value, conj)
    return None


def annotate_scan(
    rel: ops.Rel,
    predicate: Optional[ast.Expr],
    has_index: Callable[[str, tuple[str, ...]], bool],
) -> ScanAnnotation:
    """Choose an index probe for ``σ_predicate(rel)``.

    ``has_index(table_name, columns)`` answers whether a hash index on
    exactly those columns exists.  Single-column probes only (the
    executor batches equality conjuncts one at a time; multi-column
    index selection is future work).  Among several candidates the
    first pushable conjunct wins — with hash indexes every equality
    probe returns the same final result, so the choice only affects
    how much the residual filter has to discard.
    """
    pushable, residual = split_pushable_equalities(predicate, rel)
    for candidate in pushable:
        if has_index(rel.name, (candidate.column,)):
            leftover = [
                p.conjunct for p in pushable if p is not candidate
            ]
            full_residual = exprs.make_conjunction(
                leftover + exprs.conjuncts(residual)
            )
            return ScanAnnotation(
                rel=rel,
                probe=candidate,
                probe_columns=(candidate.column,),
                residual=full_residual,
            )
    return ScanAnnotation(rel=rel, probe=None, residual=predicate)


def probe_row_ids(
    table, rel: ops.Rel, predicate: Optional[ast.Expr]
) -> tuple[Optional[list[int]], Optional[ast.Expr]]:
    """Answer ``σ_predicate(rel)`` over ``table`` with an index probe.

    Returns the probed row ids in ascending id order and the residual
    predicate those rows must still satisfy, or ``(None, predicate)``
    when no single-column hash index serves a pushable equality (the
    caller scans every row and applies the whole predicate).
    """
    if predicate is None:
        return None, None
    annotation = annotate_scan(
        rel, predicate, lambda name, cols: table.find_index(cols) is not None
    )
    if annotation.probe is None:
        return None, predicate
    index = table.find_index(annotation.probe_columns)
    row_ids = sorted(index.lookup((annotation.probe.value,)))
    return row_ids, annotation.residual
