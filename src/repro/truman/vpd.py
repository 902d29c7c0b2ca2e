"""Oracle Virtual-Private-Database-style predicate policies (Section 3.1).

VPD encodes the authorization policy as *policy functions* attached to
tables; each returns a WHERE-clause predicate that is appended to the
user query before execution.  Here a policy function is any Python
callable ``(SessionContext) -> Optional[ast.Expr]`` returning a
predicate over the table's columns (unqualified references), or
``None`` for "no restriction".  String predicates with ``$param``
placeholders are also accepted and parsed once.
"""

from __future__ import annotations

from typing import Callable, Optional, Union

from repro.errors import DurabilityError
from repro.sql import ast
from repro.sql.parser import Parser
from repro.algebra import expr as exprs
from repro.authviews.session import SessionContext

PolicyFn = Callable[[SessionContext], Optional[ast.Expr]]


def _parse_predicate(text: str) -> ast.Expr:
    parser = Parser(text)
    predicate = parser.parse_expr()
    return predicate


class VpdPolicySet:
    """Per-table VPD policy functions."""

    def __init__(self):
        self._policies: dict[str, list[PolicyFn]] = {}
        #: bumped on every policy attachment; prepared templates built
        #: under an older policy set are stale (repro.prepared)
        self._version = 0
        #: ``on_change(table, predicate_text, version)`` after every
        #: attachment; the durability manager sets it to log the policy.
        #: A set with a listener refuses callable policies, which have
        #: no serializable form.
        self.on_change: Optional[Callable[[str, str, int], None]] = None
        #: (table, predicate text | None) per attachment, in order —
        #: the serializable subset survives snapshots and WAL shipping
        self._texts: list[tuple[str, Optional[str]]] = []

    @property
    def version(self) -> int:
        return self._version

    def add_policy(
        self, table: str, policy: Union[str, ast.Expr, PolicyFn]
    ) -> None:
        """Attach a policy to a table.

        ``policy`` may be a predicate string (``"student_id = $user_id"``),
        a pre-parsed expression, or a callable policy function.  A
        logged database (one with ``on_change`` set) refuses a callable
        before attaching it: the policy could not survive a restart or
        reach a replica, so accepting it would enforce it only until
        then.
        """
        text: Optional[str]
        if isinstance(policy, str):
            predicate = _parse_predicate(policy)
            text = policy
            fn: PolicyFn = lambda session, predicate=predicate: exprs.substitute_params(
                predicate, session.param_values()
            )
        elif isinstance(policy, ast.Expr):
            from repro.sql.render import render

            text = render(policy)
            fn = lambda session, predicate=policy: exprs.substitute_params(
                predicate, session.param_values()
            )
        else:
            if self.on_change is not None:
                raise DurabilityError(
                    "a logged database cannot persist or replicate a "
                    "callable VPD policy; attach it as a predicate string"
                )
            text = None
            fn = policy
        self._policies.setdefault(table.lower(), []).append(fn)
        self._texts.append((table.lower(), text))
        self._version += 1
        if self.on_change is not None:
            self.on_change(table.lower(), text, self._version)

    def has_policy(self, table: str) -> bool:
        return table.lower() in self._policies

    def predicate_for(
        self, table: str, binding: str, session: SessionContext
    ) -> Optional[ast.Expr]:
        """Combined predicate for one table reference, with column
        references qualified by the reference's binding name."""
        parts = []
        for fn in self._policies.get(table.lower(), ()):
            predicate = fn(session)
            if predicate is None:
                continue
            parts.append(_qualify(predicate, binding))
        return exprs.make_conjunction(parts)

    def tables(self) -> list[str]:
        return list(self._policies)

    def policy_texts(self) -> list[tuple[str, str]]:
        """Serializable (table, predicate text) policies, in attachment
        order.  Callable policies have no text and are omitted."""
        return [(table, text) for table, text in self._texts if text is not None]


def _qualify(predicate: ast.Expr, binding: str) -> ast.Expr:
    """Qualify unqualified column references with ``binding``."""

    def visit(node: ast.Expr) -> Optional[ast.Expr]:
        if isinstance(node, ast.ColumnRef) and node.table is None:
            return ast.ColumnRef(binding, node.name)
        return None

    return exprs.transform(predicate, visit)
