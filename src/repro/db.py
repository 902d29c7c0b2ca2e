"""Database facade: the public entry point of the library.

A :class:`Database` owns the catalog, row storage, the grant registry,
update-authorization policies, and the access-control configuration.
Queries are admitted according to the selected model:

* ``"open"`` — no access control (the baseline substrate);
* ``"truman"`` — query modification (paper Section 3): every base
  relation is transparently replaced by the user's authorization view
  of it before execution;
* ``"non-truman"`` — the paper's model (Section 4): the query is tested
  for (unconditional or conditional) validity against the user's
  instantiated authorization views; valid queries run **unmodified**,
  invalid queries raise :class:`~repro.errors.QueryRejectedError`.

Typical usage::

    db = Database()
    db.execute_script(SCHEMA_SQL)
    db.execute("create authorization view MyGrades as "
               "select * from Grades where student_id = $user_id")
    db.grant("MyGrades", to_user="11")
    conn = db.connect(user_id="11", mode="non-truman")
    result = conn.query("select avg(grade) from Grades where student_id = '11'")
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Optional, Union

from repro.errors import (
    AccessControlError,
    BindError,
    DurabilityError,
    ExecutionError,
    GrantError,
    IntegrityError,
    QueryRejectedError,
    ReproError,
    UnknownTableError,
    UnsupportedFeatureError,
)
from repro.sql import ast, parse_statement, parse_statements, render
from repro.algebra import expr as exprs
from repro.algebra import ops
from repro.algebra.translate import Translator
from repro.authviews.registry import GrantRegistry, PUBLIC
from repro.authviews.session import SessionContext
from repro.authviews.views import AuthorizationView, InstantiatedView
from repro.catalog.catalog import Catalog, ViewDef
from repro.catalog.constraints import TotalParticipation
from repro.engine import ENGINES, make_executor
from repro.engine.evaluator import Evaluator, RowResolver
from repro.optimizer.pushdown import probe_row_ids
from repro.prepared import (
    PREPARABLE_MODES,
    PreparedFallback,
    PreparedStatementCache,
    decide,
    get_or_build_template,
    resolve_signature,
    run_template,
)
from repro.storage.table import Table

MODES = ("open", "truman", "non-truman", "motro")


@dataclass
class Result:
    """Query result: column names plus rows (bag semantics, in order)."""

    columns: tuple[str, ...]
    rows: list[tuple]

    def as_multiset(self) -> Counter:
        return Counter(self.rows)

    def scalar(self) -> object:
        if len(self.rows) != 1 or len(self.columns) != 1:
            raise ExecutionError(
                f"scalar() needs a 1x1 result, got {len(self.rows)}x{len(self.columns)}"
            )
        return self.rows[0][0]

    def column(self, name: str) -> list[object]:
        lowered = name.lower()
        for index, col in enumerate(self.columns):
            if col.lower() == lowered:
                return [row[index] for row in self.rows]
        raise ExecutionError(f"no column {name!r} in result")

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self):
        return iter(self.rows)


class _QueryContext:
    """ExecContext implementation bound to one database + session."""

    def __init__(self, db: "Database", session: SessionContext,
                 access_params: Optional[Mapping[str, object]] = None):
        self.db = db
        self.session = session
        self.access_params = dict(access_params or {})

    def table_rows(self, name: str) -> Iterable[tuple]:
        return self.db.table(name).rows()

    def table_handle(self, name: str) -> Table:
        """Storage-level handle; lets the vectorized engine reach hash
        indexes for pushdown scans."""
        return self.db.table(name)

    def view_plan(
        self, name: str, access_args: tuple[tuple[str, object], ...] = ()
    ) -> ops.Operator:
        """Plan for an authorization-view scan inside a witness query."""
        view = self.db.catalog.view(name)
        instantiated = AuthorizationView.from_def(view).instantiate(self.session)
        access_values = dict(self.access_params)
        access_values.update(dict(access_args))
        query = instantiated.bind_access_params(access_values)
        translator = Translator(
            self.db.catalog,
            param_values=self.session.param_values(),
            access_param_values=access_values,
        )
        from repro.algebra.rewrite import push_selections

        plan = push_selections(translator.translate(query))
        if view.column_names:
            renames = tuple(
                (col.ref(), new)
                for col, new in zip(plan.columns, view.column_names)
            )
            plan = ops.Project(plan, renames)
        return plan


class Connection:
    """A session-bound handle with a fixed access-control mode."""

    def __init__(self, db: "Database", session: SessionContext, mode: str):
        self.db = db
        self.session = session
        self.mode = mode

    def query(self, sql: Union[str, ast.QueryExpr],
              access_params: Optional[Mapping[str, object]] = None,
              engine: Optional[str] = None) -> Result:
        return self.db.execute_query(
            sql, session=self.session, mode=self.mode,
            access_params=access_params, engine=engine,
        )

    def execute(self, sql: Union[str, ast.Statement],
                access_params: Optional[Mapping[str, object]] = None,
                sync: bool = True) -> object:
        return self.db.execute(
            sql, session=self.session, mode=self.mode,
            access_params=access_params, sync=sync,
        )

    def check_validity(self, sql: Union[str, ast.QueryExpr]):
        """Run only the Non-Truman validity check; returns the decision."""
        return self.db.check_validity(sql, session=self.session)


class Database:
    """Relational database with fine-grained access control.

    By default everything lives in memory and evaporates with the
    process.  Passing ``data_dir`` (or using :meth:`open` /
    :meth:`save`) attaches the durability layer
    (:mod:`repro.durability`): every mutation is written to a
    CRC-framed write-ahead log, :meth:`checkpoint` snapshots the full
    state and truncates the log, and :meth:`open` recovers tables,
    indexes, the auth-view registry, and the policy-epoch/data-version
    counters after a crash.
    """

    def __init__(self, data_dir: Optional[str] = None,
                 durability_sync: str = "group"):
        self.catalog = Catalog()
        self._tables: dict[str, Table] = {}
        self.grants = GrantRegistry()
        #: AUTHORIZE policies (Section 4.4), managed by UpdateAuthorizer
        from repro.updates.authorize import UpdateAuthorizer

        self.update_authorizer = UpdateAuthorizer(self)
        #: Truman model: table name (lower) -> authorization view name
        self.truman_policy: dict[str, str] = {}
        #: VPD-style predicate policies (per-table WHERE fragments)
        from repro.truman.vpd import VpdPolicySet

        self.vpd_policies = VpdPolicySet()
        #: the validity-decision cache (Section 5.6 optimization), shared
        #: by every session and gateway over this database; also owns
        #: the data-version counter
        from repro.nontruman.cache import ValidityCache

        self.validity_cache = ValidityCache()
        #: authorization views compiled once per catalog version, bound
        #: to each session per check (repro.nontruman.compiled)
        from repro.nontruman.compiled import CompiledViewCache

        self.compiled_views = CompiledViewCache(self.catalog)
        self.checker_options: dict[str, object] = {}
        #: prepared-statement template cache (paper Section 5.6); always
        #: populated lazily, but only consulted by execute_query when
        #: ``prepared_enabled`` (or the per-call flag) says so
        self.prepared = PreparedStatementCache(self)
        self.prepared_enabled = False
        #: undo log for the active transaction (None = autocommit)
        self._txn_log: Optional[list[tuple]] = None
        #: ANALYZE snapshot for the optimizer's cost model
        from repro.optimizer.statistics import TableStatistics

        self.statistics = TableStatistics(self)
        #: execution engine used when no per-query override is given:
        #: "vectorized" (columnar, index-using; the serving engine) or
        #: "row" (tuple-at-a-time; the differential oracle)
        self.default_engine = "vectorized"
        #: ReBAC subsystem (repro.rebac); set by attach_rebac
        self.rebac = None
        #: durability manager (repro.durability); None = in-memory
        self.durability = None
        if data_dir is not None:
            self._attach_durability(data_dir, sync=durability_sync)

    # -- durability lifecycle ---------------------------------------------

    @classmethod
    def open(cls, data_dir: str, sync: str = "group",
             injector: Optional[object] = None) -> "Database":
        """Open (or create) a durable database rooted at ``data_dir``.

        If the directory holds durable state, the latest valid snapshot
        is loaded and the WAL tail replayed (a torn final record is
        detected by CRC and truncated, never applied).  Otherwise an
        empty durable database is initialized there.
        """
        db = cls()
        db._attach_durability(data_dir, sync=sync, injector=injector)
        return db

    def save(self, data_dir: str, sync: str = "group") -> None:
        """Attach durable storage to this in-memory database.

        Writes an initial checkpoint of the current state to
        ``data_dir``; subsequent mutations are logged.  Refuses to save
        over a directory that already holds durable data.
        """
        from repro.durability.layout import has_durable_data

        if has_durable_data(data_dir):
            raise DurabilityError(
                f"{data_dir!r} already holds durable data; open it with "
                "Database.open or choose an empty directory"
            )
        self._attach_durability(data_dir, sync=sync)

    def _attach_durability(self, data_dir: Optional[str], sync: str = "group",
                           injector: Optional[object] = None) -> None:
        """Attach a log (``data_dir=None``: in memory only), or back an
        attached in-memory log with ``data_dir``."""
        if self.durability is not None:
            self.durability.open_dir(data_dir, sync)
            return
        from repro.durability.manager import DurabilityManager

        DurabilityManager(
            data_dir, sync_policy=sync, injector=injector
        ).attach(self)

    def checkpoint(self) -> int:
        """Snapshot all state + truncate the WAL; returns the LSN."""
        if self.durability is None:
            raise DurabilityError(
                "checkpoint requires a durable database "
                "(Database.open or save first)"
            )
        return self.durability.checkpoint()

    def close(self, checkpoint: bool = True) -> None:
        """Flush and close durable storage (no-op when in-memory)."""
        if self.durability is not None:
            self.durability.close(checkpoint=checkpoint)

    def _durable_commit(self) -> None:
        """Group-commit the WAL when durable and not inside BEGIN."""
        if self.durability is not None and self._txn_log is None:
            self.durability.commit()

    # -- connections ------------------------------------------------------

    def connect(self, user_id: Optional[object] = None, mode: str = "open",
                **extra) -> Connection:
        if mode not in MODES:
            raise AccessControlError(f"unknown access-control mode {mode!r}")
        time = extra.pop("time", None)
        location = extra.pop("location", None)
        session = SessionContext(
            user_id=user_id, time=time, location=location, extra=extra
        )
        return Connection(self, session, mode)

    def serve(self, **kwargs) -> "object":
        """Start a concurrent enforcement gateway over this database.

        Keyword arguments are forwarded to
        :class:`repro.service.EnforcementGateway` (``workers``,
        ``queue_size``, ``default_deadline``, ...).  The caller owns the
        gateway and should ``shutdown()`` it (or use it as a context
        manager).
        """
        from repro.service import EnforcementGateway

        return EnforcementGateway(self, **kwargs)

    # -- storage access ------------------------------------------------------

    def table(self, name: str) -> Table:
        table = self._tables.get(name.lower())
        if table is None:
            raise UnknownTableError(name)
        return table

    # -- script / statement execution -------------------------------------------

    def execute_script(self, sql: str) -> None:
        """Execute a ``;``-separated script of statements (open mode)."""
        for statement in parse_statements(sql):
            self.execute(statement)

    def execute(
        self,
        sql: Union[str, ast.Statement],
        session: Optional[SessionContext] = None,
        mode: str = "open",
        access_params: Optional[Mapping[str, object]] = None,
        sync: bool = True,
    ) -> object:
        """Execute any statement; returns a Result for queries, a count
        for DML, None for DDL.

        When durable, non-query statements are group-committed (WAL
        fsync) before returning unless ``sync=False`` — concurrent
        callers (the gateway) pass False and issue one shared
        :meth:`DurabilityManager.commit` per batch instead.
        """
        statement = parse_statement(sql) if isinstance(sql, str) else sql
        session = session or SessionContext()

        if isinstance(statement, ast.QueryExpr):
            return self.execute_query(
                statement, session=session, mode=mode, access_params=access_params
            )
        result = self._execute_statement(statement, session, mode)
        if sync:
            self._durable_commit()
        return result

    def _execute_statement(
        self, statement: ast.Statement, session: SessionContext, mode: str
    ) -> object:
        if isinstance(statement, ast.CreateTable):
            return self._create_table(statement)
        if isinstance(statement, ast.CreateView):
            self._create_view(statement)
            self._log_ddl(statement)
            return None
        if isinstance(statement, ast.DropStmt):
            if statement.kind == "table":
                self.catalog.drop_table(statement.name)
                self._tables.pop(statement.name.lower(), None)
            else:
                self.catalog.drop_view(statement.name)
            self._log_ddl(statement)
            return None
        if isinstance(statement, ast.Grant):
            return self.grant(statement.object_name, to_user=statement.grantee)
        if isinstance(statement, ast.AuthorizeStmt):
            self.update_authorizer.add_policy(statement)
            self._log_ddl(statement)
            return None
        if isinstance(statement, ast.TransactionStmt):
            return self._transaction(statement.action)
        if isinstance(statement, ast.Insert):
            return self._dml(self._insert, statement, session, mode)
        if isinstance(statement, ast.Update):
            return self._dml(self._update, statement, session, mode)
        if isinstance(statement, ast.Delete):
            return self._dml(self._delete, statement, session, mode)
        raise UnsupportedFeatureError(
            f"cannot execute statement {type(statement).__name__}"
        )

    def _log_ddl(self, statement: ast.Statement) -> None:
        if self.durability is not None:
            self.durability.log_ddl(render(statement))

    # -- DDL ------------------------------------------------------------------

    def _make_table(self, schema) -> Table:
        """Storage for one relation; the cluster coordinator overrides
        this to hash-partition the rows across its storage nodes."""
        return Table(schema)

    def _create_table(self, statement: ast.CreateTable) -> None:
        schema = self.catalog.create_table_from_ast(statement)
        table = self._make_table(schema)
        pk = self.catalog.primary_key(schema.name)
        if pk is not None:
            table.create_index(pk.columns, unique=True)
        for unique in self.catalog.uniques_for(schema.name):
            table.create_index(unique.columns, unique=True)
        # FK columns are probed by joins, C3 probes, RESTRICT and
        # participation checks; a key index already serves its columns
        for fk in self.catalog.foreign_keys_for(schema.name):
            if table.find_index(fk.columns) is None:
                table.create_index(fk.columns)
        self._tables[schema.name.lower()] = table
        if self.durability is not None:
            self._log_ddl(statement)
            self.durability.register_table(table)

    def _create_view(self, statement: ast.CreateView) -> None:
        view = ViewDef(
            name=statement.name,
            query=statement.query,
            authorization=statement.authorization,
            column_names=statement.column_names,
        )
        self.catalog.create_view(view)

    def grant(self, view_name: str, to_user: str, grantor: Optional[str] = None) -> None:
        """GRANT SELECT on an authorization view (PUBLIC = everyone)."""
        if not self.catalog.has_view(view_name):
            raise GrantError(f"no view named {view_name!r}")
        self.grants.grant(view_name, to_user, grantor)
        self._durable_commit()

    def grant_public(self, view_name: str) -> None:
        self.grant(view_name, PUBLIC)

    def add_participation_constraint(self, constraint: TotalParticipation) -> None:
        """Declare a total-participation integrity constraint (used by U3)."""
        self.catalog.add_participation(constraint)
        if self.durability is not None:
            self.durability.log_participation(constraint)

    def set_truman_view(self, table_name: str, view_name: str) -> None:
        """Truman model: DBA maps a base table to its per-user view."""
        if not self.catalog.has_table(table_name):
            raise UnknownTableError(table_name)
        if not self.catalog.has_view(view_name):
            raise UnknownTableError(view_name)
        self.truman_policy[table_name.lower()] = view_name
        # a remap changes what every Truman template over the table reads
        self.catalog.bump_schema_version()
        if self.durability is not None:
            self.durability.log_truman(table_name.lower(), view_name)

    # -- authorization views available to a user -----------------------------------

    def available_views(self, session: SessionContext) -> list[InstantiatedView]:
        """The user's instantiated authorization views (Section 4.1)."""
        result = []
        for view in self.catalog.views():
            if not view.authorization:
                continue
            if not self.grants.is_granted(view.name, session.user):
                continue
            result.append(AuthorizationView.from_def(view).instantiate(session))
        return result

    # -- query execution -------------------------------------------------------

    def execute_query(
        self,
        sql: Union[str, ast.QueryExpr],
        session: Optional[SessionContext] = None,
        mode: str = "open",
        access_params: Optional[Mapping[str, object]] = None,
        engine: Optional[str] = None,
        ctx=None,
        prepared: Optional[bool] = None,
    ) -> Result:
        """Run a query under the given access-control mode: authorize
        (Non-Truman decision or Truman rewrite), then execute.

        ``prepared`` opts in to (or out of) the prepared-statement
        templates (:mod:`repro.prepared`) for this call; ``None`` defers
        to :attr:`prepared_enabled`.  Queries a template cannot serve
        identically carry on without one, transparently.  The gateway's
        ``_serve`` composes the same steps (DESIGN.md, "Request
        pipeline").
        """
        session = session or SessionContext()
        use_prepared = self.prepared_enabled if prepared is None else prepared
        resolved = template = None
        if use_prepared and not access_params and mode in PREPARABLE_MODES:
            try:
                resolved = resolve_signature(self, sql)
                template, _hit = get_or_build_template(
                    self, resolved[0], resolved[1], session, mode, resolved[2]
                )
            except PreparedFallback:
                pass
        query = None if isinstance(sql, str) else sql
        if template is None:
            if query is None:
                query = parse_statement(sql)
            if not isinstance(query, ast.QueryExpr):
                raise BindError("execute_query requires a SELECT statement")

        if mode == "non-truman":
            decision = decide(
                self,
                session,
                query,
                resolved,
                context=None if template is None else template.params_key[1],
                ctx=ctx,
            )
            if not decision.valid:
                raise QueryRejectedError(
                    f"query rejected by Non-Truman model: {decision.reason}",
                    decision=decision,
                )
        if template is not None:
            return run_template(self, template, resolved[1], session, engine, ctx)
        if mode == "truman":
            from repro.truman.rewrite import truman_rewrite

            query = truman_rewrite(self, query, session)
        elif mode == "motro":
            from repro.motro.model import motro_query

            return motro_query(self, query, session)
        elif mode not in ("open", "non-truman"):
            raise AccessControlError(f"unknown access-control mode {mode!r}")
        return self._run(query, session, access_params, engine, ctx)

    def check_validity(
        self,
        sql: Union[str, ast.QueryExpr],
        session: Optional[SessionContext] = None,
        ctx=None,
    ):
        """Run the Non-Truman validity test; returns a ValidityDecision.

        ``ctx`` (a :class:`repro.service.context.QueryContext`) makes the
        inference cooperative: the matcher's cover search observes the
        request's deadline/cancel token and aborts mid-inference.
        """
        from repro.nontruman.checker import ValidityChecker

        query = parse_statement(sql) if isinstance(sql, str) else sql
        if not isinstance(query, ast.QueryExpr):
            raise BindError("check_validity requires a SELECT statement")
        session = session or SessionContext()
        checker = ValidityChecker(self, **self.checker_options)
        return checker.check(query, session, ctx=ctx)

    def _run(
        self,
        query: ast.QueryExpr,
        session: SessionContext,
        access_params: Optional[Mapping[str, object]] = None,
        engine: Optional[str] = None,
        ctx=None,
    ) -> Result:
        plan = self.plan_query(query, session, access_params)
        return self.run_plan(plan, session, access_params, engine, ctx)

    def plan_query(
        self,
        query: ast.QueryExpr,
        session: SessionContext,
        access_params: Optional[Mapping[str, object]] = None,
    ) -> ops.Operator:
        """Bind and translate a query to a logical plan."""

        def view_ok(view: ViewDef) -> bool:
            if not view.authorization:
                return True
            return self.grants.is_granted(view.name, session.user)

        translator = Translator(
            self.catalog,
            param_values=session.param_values(),
            access_param_values=access_params,
            view_filter=view_ok,
        )
        from repro.algebra.rewrite import push_selections
        from repro.instrument import COUNTERS

        COUNTERS.bump("plan.build")
        return push_selections(translator.translate(query))

    def plan_template(
        self, query: ast.QueryExpr, session: SessionContext
    ) -> ops.Operator:
        """Plan a literal-stripped query *skeleton* (repro.prepared):
        like :meth:`plan_query` but ``$$_litN`` placeholders survive
        translation so literals can be bound into the plan later."""

        def view_ok(view: ViewDef) -> bool:
            if not view.authorization:
                return True
            return self.grants.is_granted(view.name, session.user)

        translator = Translator(
            self.catalog,
            param_values=session.param_values(),
            view_filter=view_ok,
            allow_access_params=True,
        )
        from repro.algebra.rewrite import push_selections
        from repro.instrument import COUNTERS

        COUNTERS.bump("plan.build")
        return push_selections(translator.translate(query))

    def run_plan(
        self,
        plan: ops.Operator,
        session: Optional[SessionContext] = None,
        access_params: Optional[Mapping[str, object]] = None,
        engine: Optional[str] = None,
        ctx=None,
        optimize: bool = True,
        compile_cache=None,
    ) -> Result:
        """Execute a logical plan.

        ``optimize=False`` skips the per-execution selection pushdown —
        the prepared pipeline passes pre-pushed plans (pushdown is
        structure-only, so it commutes with literal binding).
        ``compile_cache`` lets the vectorized engine reuse compiled
        kernels across executions of the same template.
        """
        session = session or SessionContext()

        engine = engine or self.default_engine
        if engine not in ENGINES:
            raise ExecutionError(
                f"unknown execution engine {engine!r} (expected one of {ENGINES})"
            )
        if optimize:
            from repro.algebra.rewrite import push_selections

            plan = push_selections(plan)
        executor = make_executor(
            engine,
            _QueryContext(self, session, access_params),
            ctx=ctx,
            compile_cache=compile_cache,
        )
        rows = executor.execute(plan)
        return Result(tuple(c.name for c in plan.columns), rows)

    def probe_exists(
        self, plan: ops.Operator, session: SessionContext, ctx=None
    ) -> bool:
        """Whether a C3 probe plan has a row in the current state.

        A probe only asks for non-emptiness, so its constant projection
        (``select 1``) is dropped and the input runs on the vectorized
        executor, whose scans probe hash indexes and prune shards; user
        queries and witnesses keep ``default_engine``.  The probe runs
        under the caller's session, read lock and ``ctx`` (deadline,
        cancel token, row budget), as :meth:`run_plan` would.
        """
        while isinstance(plan, ops.Project) and all(
            isinstance(expr, ast.Literal) for expr, _ in plan.exprs
        ):
            plan = plan.child
        from repro.algebra.rewrite import push_selections

        executor = make_executor(
            "vectorized", _QueryContext(self, session), ctx=ctx
        )
        return bool(executor.execute(push_selections(plan)))

    # -- DML with integrity + update authorization --------------------------------

    def _eval_const(self, expr: ast.Expr, session: SessionContext) -> object:
        bound = exprs.substitute_params(expr, session.param_values())
        evaluator = Evaluator(RowResolver(()))
        return evaluator.evaluate(bound, ())

    def _row_evaluator(self, schema) -> Evaluator:
        """Evaluator over one stored row of ``schema``; bare and
        ``Table.column`` references both resolve."""
        return Evaluator(
            RowResolver(tuple(ops.OutCol(schema.name, c) for c in schema.column_names))
        )

    def _rows_where(
        self,
        table: Table,
        where: Optional[ast.Expr],
        session: Optional[SessionContext] = None,
    ) -> list[tuple[int, tuple]]:
        """The write path's one row finder: the ``(row_id, row)`` pairs
        of ``table`` satisfying ``where`` (None = every row), in id order.

        ``$`` parameters bind from ``session``.  The index decision is
        the vectorized scan's (:func:`probe_row_ids`), so only the rows
        an index probe fetches meet the residual predicate.
        """
        schema = table.schema
        if where is not None and session is not None:
            where = exprs.substitute_params(where, session.param_values())
        rel = ops.Rel(schema.name, schema.name, tuple(schema.column_names))
        row_ids, residual = probe_row_ids(table, rel, where)
        if row_ids is None:
            candidates = list(table.rows_with_ids())
        else:
            candidates = [(rid, table.get_row(rid)) for rid in row_ids]
        if residual is None:
            return candidates
        evaluator = self._row_evaluator(schema)
        return [c for c in candidates if evaluator.matches(residual, c[1])]

    def _rows_with_key(
        self,
        table: Table,
        columns: Iterable[str],
        key: tuple,
        where: Optional[ast.Expr] = None,
    ) -> list[tuple[int, tuple]]:
        """Rows of ``table`` whose ``columns`` equal ``key`` (SQL ``=``,
        so a NULL matches nothing) and that satisfy ``where``."""
        equalities = [
            ast.BinaryOp("=", ast.ColumnRef(None, column), ast.Literal(value))
            for column, value in zip(columns, key)
        ]
        predicate = exprs.make_conjunction(equalities + exprs.conjuncts(where))
        return self._rows_where(table, predicate)

    def _dml(self, handler, statement: ast.Statement,
             session: SessionContext, mode: str) -> int:
        """Run one INSERT, UPDATE or DELETE through its ``handler``,
        atomically.

        The handler records its changes in a statement undo list.  If
        the statement raises, the list is undone before the error
        propagates, so a rejected or failed statement leaves no change
        behind.  Inside a transaction, the list joins the transaction's
        undo log on success.
        """
        self.validity_cache.invalidate_data()
        undo: list[tuple] = []
        try:
            count = handler(statement, session, mode, undo)
        except BaseException:
            self._undo(undo)
            raise
        if self._txn_log is not None:
            self._txn_log.extend(undo)
        return count

    def _insert(self, statement: ast.Insert, session: SessionContext,
                mode: str, undo: list) -> int:
        table = self.table(statement.table)
        schema = table.schema
        if statement.query is not None:
            source = self.execute_query(statement.query, session=session, mode=mode)
            value_rows = source.rows
        else:
            value_rows = [
                tuple(self._eval_const(v, session) for v in row)
                for row in statement.rows
            ]

        rows = []
        for values in value_rows:
            if statement.columns:
                if len(values) != len(statement.columns):
                    raise ExecutionError(
                        f"INSERT has {len(values)} values for "
                        f"{len(statement.columns)} columns"
                    )
                full = [None] * len(schema.columns)
                for col_name, value in zip(statement.columns, values):
                    full[schema.column_index(col_name)] = value
                rows.append(tuple(full))
            else:
                rows.append(tuple(values))
        if mode != "open":
            for row in rows:
                self.update_authorizer.check_insert(schema.name, row, session)
        for row in rows:
            self._check_row_constraints(schema.name, row)
            undo.append(("insert", schema.name, table.insert(row), None))
        return len(rows)

    def _update(self, statement: ast.Update, session: SessionContext,
                mode: str, undo: list) -> int:
        table = self.table(statement.table)
        schema = table.schema
        evaluator = self._row_evaluator(schema)
        params = session.param_values()
        assignments = [
            (schema.column_index(col), exprs.substitute_params(expr, params))
            for col, expr in statement.assignments
        ]
        changes = []
        for row_id, row in self._rows_where(table, statement.where, session):
            new_row = list(row)
            for ordinal, expr in assignments:
                new_row[ordinal] = evaluator.evaluate(expr, row)
            changes.append((row_id, row, tuple(new_row)))
        if mode != "open":
            changed_columns = tuple(col for col, _ in statement.assignments)
            for _, row, new_row in changes:
                self.update_authorizer.check_update(
                    schema.name, row, new_row, changed_columns, session
                )
        for row_id, _, new_row in changes:
            self._check_row_constraints(schema.name, new_row)
            old = table.update_row(row_id, new_row)
            undo.append(("update", schema.name, row_id, old))
        return len(changes)

    def _delete(self, statement: ast.Delete, session: SessionContext,
                mode: str, undo: list) -> int:
        table = self.table(statement.table)
        schema = table.schema
        targets = self._rows_where(table, statement.where, session)
        if mode != "open":
            for _, row in targets:
                self.update_authorizer.check_delete(schema.name, row, session)
        for row_id, row in targets:
            self._check_no_referencing_rows(schema.name, row)
            table.delete_row(row_id)
            undo.append(("delete", schema.name, row_id, row))
        return len(targets)

    # -- transactions -----------------------------------------------------------------

    def begin(self) -> None:
        """Start a transaction; DML until COMMIT/ROLLBACK is undoable."""
        if self._txn_log is not None:
            raise ExecutionError("a transaction is already active")
        self._txn_log = []

    def commit(self) -> None:
        if self._txn_log is None:
            raise ExecutionError("no active transaction")
        self._txn_log = None
        self._durable_commit()

    def rollback(self) -> None:
        """Undo every change made since BEGIN, in reverse order."""
        if self._txn_log is None:
            raise ExecutionError("no active transaction")
        log, self._txn_log = self._txn_log, None
        self._undo(log)

    def _undo(self, log: list[tuple]) -> None:
        """Reverse the ``(kind, table, row_id, row)`` changes in ``log``,
        newest first.  A deleted row comes back under its old row id."""
        for kind, name, row_id, row in reversed(log):
            table = self.table(name)
            if kind == "insert":
                table.delete_row(row_id)
            elif kind == "update":
                table.update_row(row_id, row)
            else:
                table.insert(row, row_id=row_id)
        self.validity_cache.invalidate_data()

    def _transaction(self, action: str) -> None:
        if action == "begin":
            self.begin()
        elif action == "commit":
            self.commit()
        else:
            self.rollback()

    # -- constraint enforcement -----------------------------------------------------

    def _check_row_constraints(self, table_name: str, row: tuple) -> None:
        """CHECK predicates and foreign keys for one candidate row.

        NOT NULL and uniqueness are enforced by the storage layer.
        """
        schema = self.catalog.table(table_name)
        evaluator = self._row_evaluator(schema)
        for check in self.catalog.checks_for(table_name):
            if evaluator.evaluate(check.predicate, row) is False:
                raise IntegrityError(
                    f"CHECK constraint violated on {table_name}: {check.predicate}"
                )

        for fk in self.catalog.foreign_keys_for(table_name):
            key = tuple(row[schema.column_index(c)] for c in fk.columns)
            if any(v is None for v in key):
                continue
            ref_table = self.table(fk.ref_table)
            index = ref_table.find_index(fk.ref_columns)
            if not (
                index.lookup(key)
                if index is not None
                else self._rows_with_key(ref_table, fk.ref_columns, key)
            ):
                raise IntegrityError(
                    f"foreign key violation: {table_name}({', '.join(fk.columns)}) = "
                    f"{key!r} has no match in {fk.ref_table}"
                )

    def _check_no_referencing_rows(self, table_name: str, row: tuple) -> None:
        """RESTRICT semantics: refuse to delete a referenced row."""
        schema = self.catalog.table(table_name)
        for fk in self.catalog.foreign_keys():
            if fk.ref_table.lower() != table_name.lower():
                continue
            key = tuple(row[schema.column_index(c)] for c in fk.ref_columns)
            if self._rows_with_key(self.table(fk.table), fk.columns, key):
                raise IntegrityError(
                    f"cannot delete from {table_name}: row referenced by {fk.table}"
                )

    def analyze(self) -> None:
        """Refresh optimizer statistics (row and distinct counts)."""
        self.statistics.analyze()

    def make_optimizer(self, **kwargs):
        """A VolcanoOptimizer wired to this database's statistics."""
        from repro.optimizer import VolcanoOptimizer

        return VolcanoOptimizer(
            self.statistics.row_count,
            distinct_count=self.statistics.distinct_count,
            **kwargs,
        )

    def validate_participations(self) -> list[str]:
        """Verify every declared total-participation constraint holds.

        Returns a list of violation descriptions (empty = consistent).
        Used by tests and workload generators; these constraints are
        assertions consumed by the inference rules, not enforced on DML.
        """
        violations: list[str] = []
        for constraint in self.catalog.participations():
            core = self.table(constraint.core_table)
            remainder = self.table(constraint.remainder_table)
            core_ordinals = [
                core.schema.column_index(cc) for cc, _ in constraint.join_pairs
            ]
            rem_columns = [rc for _, rc in constraint.join_pairs]
            for _, row in self._rows_where(core, constraint.core_pred):
                key = tuple(row[o] for o in core_ordinals)
                if not self._rows_with_key(
                    remainder, rem_columns, key, constraint.remainder_pred
                ):
                    violations.append(f"{constraint}: core row {row!r} unmatched")
        return violations
