"""Logical relational-algebra operators.

Operators are immutable dataclasses forming a tree.  Every operator
exposes ``columns`` — its output schema as a tuple of :class:`OutCol`.
Column references in predicates/expressions use the *binding name*
stored in each OutCol.

Multiset (bag) semantics throughout: ``Project`` does **not** eliminate
duplicates; :class:`Distinct` does.  This mirrors the paper's careful
treatment of SQL multiset semantics in rules U3a/U3b/U3c.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional

from repro.sql import ast


@dataclass(frozen=True)
class OutCol:
    """One output column: ``binding`` qualifier plus column name."""

    binding: Optional[str]
    name: str

    def ref(self) -> ast.ColumnRef:
        return ast.ColumnRef(self.binding, self.name)

    def __str__(self) -> str:
        return f"{self.binding}.{self.name}" if self.binding else self.name


class Operator:
    """Base class for logical operators."""

    __slots__ = ()

    @property
    def columns(self) -> tuple[OutCol, ...]:  # pragma: no cover - abstract
        raise NotImplementedError

    @property
    def children(self) -> tuple["Operator", ...]:
        return ()

    def pretty(self, indent: int = 0) -> str:
        """Indented multi-line rendering of the operator tree."""
        pad = "  " * indent
        lines = [pad + self._describe()]
        for child in self.children:
            lines.append(child.pretty(indent + 1))
        return "\n".join(lines)

    def _describe(self) -> str:  # pragma: no cover - overridden
        return type(self).__name__


@dataclass(frozen=True)
class Rel(Operator):
    """Scan of a base relation under a binding name (alias)."""

    name: str
    binding: str
    schema_columns: tuple[str, ...]

    @property
    def columns(self) -> tuple[OutCol, ...]:
        return tuple(OutCol(self.binding, c) for c in self.schema_columns)

    def _describe(self) -> str:
        alias = f" AS {self.binding}" if self.binding != self.name else ""
        return f"Rel({self.name}{alias})"


@dataclass(frozen=True)
class ViewRel(Operator):
    """Scan of an *instantiated authorization view* (used in witnesses).

    The validity checker produces rewritings whose leaves are
    authorization-view scans; the executor evaluates them by running the
    stored view definition.  ``access_args`` carries ``$$`` parameter
    values the checker chose for access-pattern views (paper Section 6).
    """

    name: str
    binding: str
    schema_columns: tuple[str, ...]
    access_args: tuple[tuple[str, object], ...] = ()

    @property
    def columns(self) -> tuple[OutCol, ...]:
        return tuple(OutCol(self.binding, c) for c in self.schema_columns)

    def _describe(self) -> str:
        alias = f" AS {self.binding}" if self.binding != self.name else ""
        args = ""
        if self.access_args:
            args = "; " + ", ".join(f"$${k}={v!r}" for k, v in self.access_args)
        return f"ViewRel({self.name}{alias}{args})"


@dataclass(frozen=True)
class Select(Operator):
    """σ — filter rows by a predicate."""

    child: Operator
    predicate: ast.Expr

    @property
    def columns(self) -> tuple[OutCol, ...]:
        return self.child.columns

    @property
    def children(self) -> tuple[Operator, ...]:
        return (self.child,)

    def _describe(self) -> str:
        return f"Select[{self.predicate}]"


@dataclass(frozen=True)
class Prefilter(Operator):
    """σ̃ — a lenient selection that only sheds work.

    Drops the rows on which ``predicate`` is FALSE or UNKNOWN and keeps
    the rows on which evaluating it raises.  Selection pushdown
    (:mod:`repro.algebra.rewrite`) places one as a *copy* of a WHERE
    conjunct inside a view body, where it also sees rows the view hides;
    the conjunct itself stays above the view.  A row it drops could not
    have passed that conjunct, so a prefilter never changes the rows of
    the answer and never adds an error.  It can drop one: in
    ``c1 and c2`` above a view, a copy of ``c2`` alone can drop a
    visible row on which ``c1`` raises, and the query answers instead of
    raising.  Such an error is raised by a visible row only, so no
    observable comes to depend on a hidden row.
    """

    child: Operator
    predicate: ast.Expr

    @property
    def columns(self) -> tuple[OutCol, ...]:
        return self.child.columns

    @property
    def children(self) -> tuple[Operator, ...]:
        return (self.child,)

    def _describe(self) -> str:
        return f"Prefilter[{self.predicate}]"


@dataclass(frozen=True)
class Project(Operator):
    """π — compute output expressions (no duplicate elimination).

    Output columns have ``binding=None`` and the given names.
    """

    child: Operator
    exprs: tuple[tuple[ast.Expr, str], ...]

    @property
    def columns(self) -> tuple[OutCol, ...]:
        return tuple(OutCol(None, name) for _, name in self.exprs)

    @property
    def children(self) -> tuple[Operator, ...]:
        return (self.child,)

    def _describe(self) -> str:
        rendered = ", ".join(f"{e} AS {n}" for e, n in self.exprs)
        return f"Project[{rendered}]"


@dataclass(frozen=True)
class Distinct(Operator):
    """δ — duplicate elimination."""

    child: Operator

    @property
    def columns(self) -> tuple[OutCol, ...]:
        return self.child.columns

    @property
    def children(self) -> tuple[Operator, ...]:
        return (self.child,)

    def _describe(self) -> str:
        return "Distinct"


@dataclass(frozen=True)
class Join(Operator):
    """⋈ — inner/left/cross join with optional predicate."""

    left: Operator
    right: Operator
    kind: str = "inner"  # "inner" | "left" | "cross"
    predicate: Optional[ast.Expr] = None

    @property
    def columns(self) -> tuple[OutCol, ...]:
        return self.left.columns + self.right.columns

    @property
    def children(self) -> tuple[Operator, ...]:
        return (self.left, self.right)

    def _describe(self) -> str:
        pred = f" ON {self.predicate}" if self.predicate is not None else ""
        return f"Join[{self.kind}]{pred}"


@dataclass(frozen=True)
class SemiJoin(Operator):
    """Semi/anti join desugared from [NOT] IN / [NOT] EXISTS subqueries.

    Output = left rows only.  With ``operand`` set (IN form), a left row
    qualifies when its operand value matches the right side's single
    output column; ``negated`` gives NOT IN with SQL's null-aware
    semantics (any NULL on either side blocks the row).  With
    ``operand=None`` (EXISTS form, uncorrelated), qualification depends
    only on whether the right side is non-empty.
    """

    left: Operator
    right: Operator
    operand: Optional[ast.Expr] = None
    negated: bool = False

    @property
    def columns(self) -> tuple[OutCol, ...]:
        return self.left.columns

    @property
    def children(self) -> tuple[Operator, ...]:
        return (self.left, self.right)

    def _describe(self) -> str:
        kind = "anti" if self.negated else "semi"
        via = f" ON {self.operand} IN (...)" if self.operand is not None else " EXISTS"
        return f"SemiJoin[{kind}]{via}"


@dataclass(frozen=True)
class DependentJoin(Operator):
    """Dependent join against an access-pattern view (paper Section 6).

    For each row of ``left``, the ``param_name`` access-pattern
    parameter of authorization view ``view_name`` is bound to the value
    of ``key_expr`` (an expression over ``left``'s columns) and the view
    is evaluated; matching view rows are appended to the left row.
    This is how ``r ⋈_{r.B = s.A} s`` is computed when ``s`` is only
    reachable through an access-pattern view ``σ_{A=$$p}(s)``.
    """

    left: Operator
    view_name: str
    view_binding: str
    view_columns: tuple[str, ...]
    param_name: str
    key_expr: ast.Expr
    #: residual predicate over the combined row (may be None)
    predicate: Optional[ast.Expr] = None

    @property
    def columns(self) -> tuple[OutCol, ...]:
        return self.left.columns + tuple(
            OutCol(self.view_binding, c) for c in self.view_columns
        )

    @property
    def children(self) -> tuple[Operator, ...]:
        return (self.left,)

    def _describe(self) -> str:
        pred = f" WHERE {self.predicate}" if self.predicate is not None else ""
        return (
            f"DependentJoin[{self.view_name} AS {self.view_binding}; "
            f"$${self.param_name} := {self.key_expr}]{pred}"
        )


@dataclass(frozen=True)
class Aggregate(Operator):
    """γ — grouping and aggregation.

    ``group_exprs`` are (expr, name) pairs; ``aggregates`` are
    (FuncCall, name) pairs.  Output columns are the group columns
    followed by the aggregate columns, all with ``binding=None``.
    An Aggregate with no group expressions produces exactly one row
    (SQL scalar-aggregate semantics).
    """

    child: Operator
    group_exprs: tuple[tuple[ast.Expr, str], ...]
    aggregates: tuple[tuple[ast.FuncCall, str], ...]

    @property
    def columns(self) -> tuple[OutCol, ...]:
        names = [name for _, name in self.group_exprs]
        names += [name for _, name in self.aggregates]
        return tuple(OutCol(None, n) for n in names)

    @property
    def children(self) -> tuple[Operator, ...]:
        return (self.child,)

    def _describe(self) -> str:
        groups = ", ".join(f"{e} AS {n}" for e, n in self.group_exprs)
        aggs = ", ".join(f"{a} AS {n}" for a, n in self.aggregates)
        return f"Aggregate[by: {groups or '()'}; aggs: {aggs}]"


@dataclass(frozen=True)
class SetOperation(Operator):
    """UNION / INTERSECT / EXCEPT, each with ALL or DISTINCT semantics."""

    op: str  # "union" | "intersect" | "except"
    all: bool
    left: Operator
    right: Operator

    @property
    def columns(self) -> tuple[OutCol, ...]:
        return tuple(OutCol(None, c.name) for c in self.left.columns)

    @property
    def children(self) -> tuple[Operator, ...]:
        return (self.left, self.right)

    def _describe(self) -> str:
        return f"SetOperation[{self.op}{' all' if self.all else ''}]"


@dataclass(frozen=True)
class Alias(Operator):
    """Re-qualify the child's output columns under one binding name.

    Used for derived tables ``(SELECT ...) AS t`` and expanded view
    references: isolates the inner scope and exposes columns as
    ``binding.name``.  Child output names must be unique.
    """

    child: Operator
    binding: str

    @property
    def columns(self) -> tuple[OutCol, ...]:
        return tuple(OutCol(self.binding, c.name) for c in self.child.columns)

    @property
    def children(self) -> tuple[Operator, ...]:
        return (self.child,)

    def _describe(self) -> str:
        return f"Alias[{self.binding}]"


@dataclass(frozen=True)
class Sort(Operator):
    child: Operator
    keys: tuple[tuple[ast.Expr, bool], ...]  # (expr, descending)

    @property
    def columns(self) -> tuple[OutCol, ...]:
        return self.child.columns

    @property
    def children(self) -> tuple[Operator, ...]:
        return (self.child,)

    def _describe(self) -> str:
        keys = ", ".join(f"{e}{' DESC' if d else ''}" for e, d in self.keys)
        return f"Sort[{keys}]"


@dataclass(frozen=True)
class Limit(Operator):
    child: Operator
    limit: int
    offset: int = 0

    @property
    def columns(self) -> tuple[OutCol, ...]:
        return self.child.columns

    @property
    def children(self) -> tuple[Operator, ...]:
        return (self.child,)

    def _describe(self) -> str:
        return f"Limit[{self.limit} OFFSET {self.offset}]"


def walk(op: Operator):
    """Yield ``op`` and all descendants, pre-order."""
    yield op
    for child in op.children:
        yield from walk(child)


def base_relations(op: Operator) -> list[Rel]:
    """All base-relation leaves of an operator tree."""
    return [node for node in walk(op) if isinstance(node, Rel)]


def view_relations(op: Operator) -> list[ViewRel]:
    return [node for node in walk(op) if isinstance(node, ViewRel)]
