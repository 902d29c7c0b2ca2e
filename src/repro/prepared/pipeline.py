"""The prepared execution pipeline: signature → template → bind → run.

The steps :meth:`repro.db.Database.execute_query` and the enforcement
gateway's ``_serve`` both compose (DESIGN.md, "Request pipeline"):

* :func:`resolve_signature` — SQL text (or parsed query) to
  ``(skeleton, literals, signature_text)``, memoized per text.
* :func:`get_or_build_template` — the template-cache lookup/build.
* :func:`decide` — the Non-Truman decision, served from the database's
  decision cache when the paper's §5.6 carry-over rule applies.
* :func:`run_template` — bind the literals into the plan and run it.

Anything a template cannot serve **identically** to the fresh path
raises :class:`~repro.prepared.template.PreparedFallback` from the
first two steps — before any user-visible effect — and the caller
carries on without a template (parse → check → plan), so behavior
(including error messages) is preserved bit-for-bit.
"""

from __future__ import annotations

from typing import Optional, Union

from repro.errors import (
    BindError,
    CatalogError,
    ParameterError,
    UnknownTableError,
    UnsupportedFeatureError,
)
from repro.instrument import COUNTERS
from repro.sql import ast, parse_statement, render
from repro.nontruman.cache import query_signature
from repro.nontruman.decision import ValidityDecision
from repro.prepared.template import (
    PlanBinder,
    PreparedFallback,
    PreparedTemplate,
    bind_skeleton,
    placeholder_names,
)

#: modes the pipeline serves; motro has its own bespoke path
PREPARABLE_MODES = ("open", "truman", "non-truman")


# ---------------------------------------------------------------------------
# Query introspection
# ---------------------------------------------------------------------------


def _walk_query_exprs(query: ast.QueryExpr):
    """Yield every expression node in ``query``, descending into set
    operations, derived tables, join conditions, and nested
    IN/EXISTS subqueries (unlike :func:`ast.walk_expr`)."""
    if isinstance(query, ast.SetOp):
        yield from _walk_query_exprs(query.left)
        yield from _walk_query_exprs(query.right)
        return

    def walk_expr(expr: ast.Expr):
        for node in ast.walk_expr(expr):
            yield node
            if isinstance(node, (ast.InSubquery, ast.ExistsSubquery)):
                yield from _walk_query_exprs(node.query)

    def walk_table(item: ast.TableExpr):
        if isinstance(item, ast.SubqueryRef):
            yield from _walk_query_exprs(item.query)
        elif isinstance(item, ast.JoinRef):
            yield from walk_table(item.left)
            yield from walk_table(item.right)
            if item.condition is not None:
                yield from walk_expr(item.condition)

    for item in query.items:
        if item.expr is not None:
            yield from walk_expr(item.expr)
    for from_item in query.from_items:
        yield from walk_table(from_item)
    for clause in (query.where, query.having):
        if clause is not None:
            yield from walk_expr(clause)
    for group in query.group_by:
        yield from walk_expr(group)
    for order in query.order_by:
        yield from walk_expr(order.expr)


def access_param_names(query: ast.QueryExpr) -> frozenset:
    """Names of every ``$$`` access parameter anywhere in ``query``."""
    return frozenset(
        node.name
        for node in _walk_query_exprs(query)
        if isinstance(node, ast.AccessParam)
    )


def _hashable(value) -> bool:
    try:
        hash(value)
    except TypeError:
        return False
    return True


def context_key(session) -> Optional[tuple]:
    """Hashable canonical form of the session's ``$param`` values other
    than ``$user_id`` (``$time``, ``$location``, extras): the part of a
    decision's key that the §5.6 carry-over rule does not cover.  None
    when a value is unhashable — such a session is not cached."""
    items = tuple(
        sorted(kv for kv in session.param_values().items() if kv[0] != "user_id")
    )
    return items if _hashable(items) else None


def params_key_for(session) -> tuple:
    """``(user_id, context_key)``: all the session's ``$param`` values
    (they are substituted into the plan at template-build time, so they
    are part of the cache key)."""
    context = context_key(session)
    if context is None or not _hashable(session.user_id):
        raise PreparedFallback("unhashable session parameter values")
    return session.user_id, context


# ---------------------------------------------------------------------------
# Signature resolution (text tier)
# ---------------------------------------------------------------------------


def resolve_signature(db, source: Union[str, ast.QueryExpr]) -> tuple:
    """``(skeleton, literals, signature_text)`` for SQL text or a parsed
    query, memoizing the parse per distinct text."""
    if isinstance(source, str):
        cached = db.prepared.lookup_text(source)
        if cached is not None:
            return cached
        query = parse_statement(source)
        if not isinstance(query, ast.QueryExpr):
            raise PreparedFallback("not a query")
        skeleton, literals, signature_text = _sign_query(query)
        db.prepared.remember_text(source, skeleton, literals, signature_text)
        return skeleton, literals, signature_text
    return _sign_query(source)


def _sign_query(query: ast.QueryExpr) -> tuple:
    if access_param_names(query):
        # user-written $$ parameters (including any that could collide
        # with our _litN placeholders) go through the legacy path, which
        # raises the proper ParameterError or binds them explicitly
        raise PreparedFallback("query uses access-pattern parameters")
    skeleton, literals = query_signature(query)
    if not _hashable((skeleton, literals)):
        raise PreparedFallback("unhashable query signature")
    return skeleton, literals, render(skeleton)


# ---------------------------------------------------------------------------
# Template lookup / build
# ---------------------------------------------------------------------------


def template_key(skeleton, session, mode: str, params_key: tuple) -> tuple:
    return (skeleton, session.user, mode, params_key)


def get_or_build_template(
    db,
    skeleton,
    literals: tuple,
    session,
    mode: str,
    signature_text: Optional[str] = None,
) -> tuple:
    """Returns ``(template, hit)``; raises :class:`PreparedFallback`
    when the query cannot be templated."""
    if mode not in PREPARABLE_MODES:
        raise PreparedFallback(f"mode {mode!r} is not preparable")
    params_key = params_key_for(session)
    key = template_key(skeleton, session, mode, params_key)
    cache = db.prepared
    template = cache.lookup(key)
    if template is not None:
        if template.n_literals != len(literals):
            raise PreparedFallback("literal arity mismatch")
        return template, True
    cache.check_unpreparable(key, session.user)
    try:
        template = _build_template(
            db, skeleton, literals, session, mode, params_key, signature_text
        )
    except PreparedFallback:
        cache.note_unpreparable(key, session.user)
        raise
    cache.store(key, template)
    return template, False


def _build_template(
    db,
    skeleton,
    literals: tuple,
    session,
    mode: str,
    params_key: tuple,
    signature_text: Optional[str],
) -> PreparedTemplate:
    names = placeholder_names(len(literals))

    # The stamp is read *before* any compilation: a policy, DDL or
    # Truman-remap change racing with the build leaves the template
    # stale on arrival (the next lookup evicts it), never accidentally
    # fresh.
    stamp = db.prepared.stamp(session.user)

    exec_query = skeleton
    if mode == "truman":
        from repro.truman.rewrite import truman_rewrite

        try:
            exec_query = truman_rewrite(db, skeleton, session)
        except (CatalogError, BindError, ParameterError) as exc:
            raise PreparedFallback(f"truman rewrite failed: {exc}")

    extra = access_param_names(exec_query) - names
    if extra:
        # e.g. access-pattern parameters inside a substituted view body
        raise PreparedFallback(
            "access-pattern parameters survive templating: "
            + ", ".join(sorted(extra))
        )

    try:
        plan = db.plan_template(exec_query, session)
    except (
        UnknownTableError,
        CatalogError,
        BindError,
        ParameterError,
        UnsupportedFeatureError,
    ) as exc:
        raise PreparedFallback(f"cannot plan template: {exc}")

    binder = PlanBinder(plan, names)
    if signature_text is None:
        signature_text = render(skeleton)
    return PreparedTemplate(
        skeleton=skeleton,
        user=session.user,
        mode=mode,
        params_key=params_key,
        signature_text=signature_text,
        n_literals=len(literals),
        stamp=stamp,
        binder=binder,
    )


# ---------------------------------------------------------------------------
# Decide, then bind and run
# ---------------------------------------------------------------------------


def decide(
    db, session, query=None, resolved=None, context=None, ctx=None
) -> ValidityDecision:
    """The one place a Non-Truman decision is taken and remembered:
    ``db.validity_cache`` lookup -> ``db.check_validity`` -> store.

    ``context`` is the session's :func:`context_key` (a template carries
    it as ``params_key[1]``); None leaves the cache out — replica-served
    reads, unprepared in-process calls, unhashable session parameters.
    ``resolved`` is the ``(skeleton, literals, ...)`` signature when the
    caller already holds it; otherwise ``query`` is signed here, once.
    An aborted check (deadline, cancel) raises through and stores
    nothing.

    A decision a write left stale is served if its guard replays —
    the probes its check read, re-run in order under the caller's
    session and ``ctx``, each answering as it did (:func:`replay_guard`)
    — and is re-stamped with the stamp read before the probes.  An
    abort mid-replay raises through with nothing re-stamped.
    """
    if resolved is not None:
        skeleton, literals = resolved[0], resolved[1]
    elif context is not None:
        skeleton, literals = query_signature(query)
    if context is not None:
        cache = db.validity_cache
        key = (session.user, context, skeleton)
        # Everything the decision is derived from besides its key, read
        # once and *before* the check: a write or policy change racing
        # the inference leaves the stored entry stale.  The policy part
        # is the templates' stamp, so a grant to another user leaves
        # this user's decisions alone.
        stamp = (cache.data_version, db.prepared.stamp(session.user))
        cached = cache.lookup(
            key,
            literals,
            session.user_id,
            stamp,
            replay=lambda guard: replay_guard(db, guard, session, ctx),
        )
        if cached is not None:
            validity, reason = cached
            return ValidityDecision(validity=validity, reason=reason, from_cache=True)
    if query is None:
        query = bind_skeleton(skeleton, literals)
    decision = db.check_validity(query, session, ctx=ctx)
    if context is not None:
        cache.store(
            key,
            literals,
            session.user_id,
            decision.validity,
            decision.reason,
            stamp,
            decision.guard,
        )
    return decision


def replay_guard(db, guard: tuple, session, ctx=None) -> bool:
    """Whether every ``(probe plan, non-empty)`` pair of a decision's
    guard still holds, probing in the order the check consulted them and
    stopping at the first that differs.  Given the same probe answers a
    check is a deterministic function of its key and policy stamp, so a
    fresh check would consult these probes and decide the same."""
    COUNTERS.bump("validity.replay")
    for plan, nonempty in guard:
        COUNTERS.bump("validity.replay_probe")
        if db.probe_exists(plan, session, ctx) != nonempty:
            return False
    return True


def run_template(
    db, template: PreparedTemplate, literals: tuple, session, engine=None, ctx=None
):
    """Bind ``literals`` into the template's pre-pushed plan and run it."""
    return db.run_plan(
        template.binder.bind(literals),
        session=session,
        engine=engine,
        ctx=ctx,
        optimize=False,
        compile_cache=template.compile_cache,
    )
