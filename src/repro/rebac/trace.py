"""Decision tracing: why a query was accepted or rejected.

:func:`explain_query` runs the Non-Truman validity test and joins the
decision with ReBAC provenance: for an accepted query it names, per
compiled authorization view the witness used, the **tuple chain** that
justifies the session user's grant on the objects the query names; for
a rejected query it reports the inference rules that failed to fire and
which missing (or expired) tuple chain is to blame.  The same report
backs the CLI ``\\explain`` meta-command and the ``explain`` wire
message, both through
:meth:`repro.service.gateway.EnforcementGateway.explain`, and
:func:`render_report` is the shared text rendering, so tests can assert
on exactly what users see.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional, Union

from repro.sql import ast, parse_statement

if TYPE_CHECKING:  # pragma: no cover
    from repro.authviews.session import SessionContext
    from repro.db import Database
    from repro.service.context import QueryContext


@dataclass
class ChainReport:
    """One justified grant: the tuple chain behind it."""

    object: str
    relation: str
    user: str
    expires_at: float
    chain: tuple[str, ...]  # rendered tuples, object-to-user order

    def as_dict(self) -> dict:
        return {
            "object": self.object,
            "relation": self.relation,
            "user": self.user,
            "expires_at": self.expires_at,
            "chain": list(self.chain),
        }


@dataclass
class ExplainReport:
    """Everything ``\\explain`` shows about one query + session."""

    sql: str
    user: str
    time: Optional[float]
    validity: str
    reason: str
    rules: tuple[str, ...]
    views_used: tuple[str, ...]
    from_cache: bool
    probes_executed: int
    chains: list[ChainReport] = field(default_factory=list)
    denials: list[str] = field(default_factory=list)

    @property
    def valid(self) -> bool:
        return self.validity != "invalid"

    def as_dict(self) -> dict:
        return {
            "sql": self.sql,
            "user": self.user,
            "time": self.time,
            "validity": self.validity,
            "reason": self.reason,
            "rules": list(self.rules),
            "views_used": list(self.views_used),
            "from_cache": self.from_cache,
            "probes_executed": self.probes_executed,
            "chains": [chain.as_dict() for chain in self.chains],
            "denials": list(self.denials),
        }


# -- query inspection ---------------------------------------------------------


def _collect_eq_literals(expr: Optional[ast.Expr], out: dict[str, set]) -> None:
    """Every ``column = literal`` pair anywhere in an expression tree."""
    if expr is None:
        return
    if isinstance(expr, ast.BinaryOp):
        if expr.op == "=":
            pairs = ((expr.left, expr.right), (expr.right, expr.left))
            for col, lit in pairs:
                if isinstance(col, ast.ColumnRef) and isinstance(
                    lit, ast.Literal
                ):
                    out.setdefault(col.name.lower(), set()).add(lit.value)
        _collect_eq_literals(expr.left, out)
        _collect_eq_literals(expr.right, out)
    elif isinstance(expr, ast.UnaryOp):
        _collect_eq_literals(expr.operand, out)


def _walk_tables(item: ast.TableExpr, out: set[str]) -> None:
    if isinstance(item, ast.TableRef):
        out.add(item.name.lower())
    elif isinstance(item, ast.JoinRef):
        _walk_tables(item.left, out)
        _walk_tables(item.right, out)
    elif isinstance(item, ast.SubqueryRef):
        tables, _ = _inspect_query(item.query)
        out.update(tables)


def _inspect_query(query: ast.QueryExpr) -> tuple[set[str], dict[str, set]]:
    """(referenced table names, column → equality-literal values)."""
    tables: set[str] = set()
    literals: dict[str, set] = {}
    if isinstance(query, ast.SetOp):
        for side in (query.left, query.right):
            sub_tables, sub_literals = _inspect_query(side)
            tables.update(sub_tables)
            for col, values in sub_literals.items():
                literals.setdefault(col, set()).update(values)
        return tables, literals
    for item in query.from_items:
        _walk_tables(item, tables)
        if isinstance(item, ast.JoinRef):
            _collect_eq_literals(item.condition, literals)
    _collect_eq_literals(query.where, literals)
    return tables, literals


# -- the tracer ---------------------------------------------------------------


def _render_chain(grant) -> tuple[str, ...]:
    return tuple(str(t) for t in grant.chain)


def explain_query(
    db: "Database",
    sql: Union[str, ast.QueryExpr],
    session: "SessionContext",
    ctx: Optional["QueryContext"] = None,
) -> ExplainReport:
    """Check validity and trace the decision back to tuple chains.

    ``ctx`` bounds the check like a query's: past its deadline the
    inference aborts with :class:`~repro.errors.QueryTimeout`.
    """
    query = parse_statement(sql) if isinstance(sql, str) else sql
    decision = db.check_validity(query, session, ctx)
    report = ExplainReport(
        sql=sql if isinstance(sql, str) else str(sql),
        user=session.user,
        time=session.time,
        validity=decision.validity.value,
        reason=decision.reason,
        rules=tuple(step.rule for step in decision.trace),
        views_used=decision.views_used,
        from_cache=decision.from_cache,
        probes_executed=decision.probes_executed,
    )
    rebac = getattr(db, "rebac", None)
    if rebac is None:
        return report
    tables, literals = _inspect_query(query)
    user = session.user
    if decision.valid:
        # name the chain behind each compiled view the witness used
        for name in decision.views_used:
            permission_info = rebac.view_permission(name)
            if permission_info is None:
                continue
            otype_name, permission = permission_info
            _trace_permission(
                rebac, report, otype_name, permission, user, literals,
                at_time=session.time,
            )
    else:
        # name the missing coverage: every bound table the query reads
        for otype_name in sorted(rebac.namespace.object_types):
            otype = rebac.namespace.object_types[otype_name]
            binding = otype.binding
            if binding is None or binding.table.lower() not in tables:
                continue
            for permission in otype.permissions:
                _trace_permission(
                    rebac, report, otype_name, permission, user, literals,
                    at_time=session.time,
                )
    return report


def _trace_permission(
    rebac,
    report: ExplainReport,
    otype_name: str,
    permission: str,
    user: str,
    literals: dict[str, set],
    at_time: Optional[float],
) -> None:
    otype = rebac.namespace.object_types[otype_name]
    binding = otype.binding
    ids = (
        sorted(str(v) for v in literals.get(binding.id_column.lower(), ()))
        if binding is not None
        else []
    )
    if ids:
        objects = [f"{otype_name}:{object_id}" for object_id in ids]
    else:
        # no specific object named in the query: show the user's
        # standing grants of this permission instead
        objects = [
            object_
            for object_, relation, _ in rebac.user_grants(user)
            if relation == permission
            and object_.partition(":")[0] == otype_name
        ]
        if not objects:
            report.denials.append(
                f"user {user!r} holds no {permission!r} grant on any "
                f"{otype_name}"
            )
            return
    for object_ in objects:
        denial = rebac.denial_reason(object_, permission, user, at_time=at_time)
        if denial is not None:
            report.denials.append(denial)
            continue
        grant = rebac.grant_for(object_, permission, user)
        report.chains.append(
            ChainReport(
                object=object_,
                relation=permission,
                user=user,
                expires_at=grant.expires_at,
                chain=_render_chain(grant),
            )
        )


# -- rendering ----------------------------------------------------------------


def render_report(report: ExplainReport) -> list[str]:
    """The text rendering shared by the CLI and the wire clients."""
    from repro.rebac.tuples import NEVER_EXPIRES

    lines = [f"validity: {report.validity}"]
    if report.reason:
        lines.append(f"reason: {report.reason}")
    if report.rules:
        lines.append("rules: " + ", ".join(report.rules))
    if report.views_used:
        lines.append("views used: " + ", ".join(report.views_used))
    if report.probes_executed:
        lines.append(f"probes executed: {report.probes_executed}")
    if report.from_cache:
        lines.append("decision served from validity cache")
    for chain in report.chains:
        expiry = (
            "never expires"
            if chain.expires_at >= NEVER_EXPIRES
            else f"expires {chain.expires_at}"
        )
        lines.append(
            f"tuple chain: {chain.object} {chain.relation} for user "
            f"{chain.user!r} ({expiry})"
        )
        for link in chain.chain:
            lines.append(f"    {link}")
    for denial in report.denials:
        lines.append(f"denied: {denial}")
    return lines
