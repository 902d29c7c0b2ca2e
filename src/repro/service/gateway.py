"""The concurrent policy-enforcement gateway.

:class:`EnforcementGateway` is the service front door of the
reproduction: clients submit :class:`~repro.service.request.QueryRequest`
objects; a fixed worker pool takes them off a bounded admission queue,
checks them under the requested access-control model (Truman rewriting,
Non-Truman validity inference, Motro masking, or open), executes
accepted queries under the requester's session, and answers with
structured :class:`~repro.service.request.QueryResponse` objects.
:meth:`EnforcementGateway.explain` takes the same decision without
executing, under the same lock and deadline.

Architecturally this is the PDP/PEP split of Guarnieri et al. (*Strong
and Provably Secure Database Access Control*): the gateway is the
enforcement point, the validity checker / Truman rewriter the decision
point, and the decision is taken *before* any row is touched.

Robustness controls:

* **backpressure** — the admission queue is bounded; when it is full,
  :meth:`submit` raises :class:`~repro.errors.ServiceOverloaded`
  immediately instead of hanging the caller;
* **cooperative cancellation & resource governance** — every admitted
  request gets a :class:`~repro.service.context.QueryContext` (deadline,
  cancel token, row/memory budgets) threaded through the validity
  checker's inference loops and both execution engines, so even the
  adversary-controlled Non-Truman check is killed *mid-inference* by
  its deadline, a scan is killed *mid-scan*, and
  :meth:`PendingQuery.cancel` interrupts in-flight work — not just
  queued work;
* **default deadline** — requests without an explicit deadline inherit
  the gateway's ``default_deadline``, so :meth:`execute` can never hang
  forever;
* **retries** — faults classified transient
  (:class:`~repro.errors.TransientFault`) are retried with jittered
  exponential backoff, bounded by the request's deadline;
* **degraded read-only mode** — a circuit breaker around the WAL
  commit path trips after consecutive durable-commit failures: writes
  are rejected up front with a typed
  :class:`~repro.errors.ServiceDegraded` error (no partial state)
  while SELECTs keep serving; a half-open probe recovers automatically;
* **graceful shutdown** — :meth:`shutdown` stops admission, optionally
  drains in-flight requests, and joins the workers; undrained requests
  are answered with ``CANCELLED``, never dropped silently.

Every request — answered, rejected, timed out, cancelled, degraded,
overloaded, or felled by an internal fault — is audited exactly once.

Consistency: queries (and the probes the validity checker runs) share
a readers-writer lock; DML takes it exclusively.  The database's
decision cache stamps every stored decision with the data version and
the user's prepared stamp (``db.prepared.stamp``) observed *while
holding the read lock*, so a decision can never be derived from one
database state and served against another.  An aborted check
(timeout/cancel) stores nothing.
"""

from __future__ import annotations

import queue
import random
import threading
import time
from typing import TYPE_CHECKING, Iterable, Mapping, Optional, Union

from repro.errors import (
    DurabilityError,
    PendingTimeout,
    QueryAborted,
    QueryCancelled,
    QueryRejectedError,
    QueryTimeout,
    ReplicaUnavailable,
    ReproError,
    ResourceBudgetExceeded,
    ServiceDegraded,
    ServiceOverloaded,
    ServiceShutdown,
    TransientFault,
    UpdateRejectedError,
)
from repro.sql import ast, parse_statement, render
from repro.instrument import Metrics
from repro.nontruman.cache import query_signature
from repro.prepared import (
    PREPARABLE_MODES,
    PreparedFallback,
    bind_skeleton,
    context_key,
    decide,
    get_or_build_template,
    resolve_signature,
    run_template,
)
from repro.service.audit import AuditLog
from repro.service.breaker import CircuitBreaker
from repro.service.clock import SYSTEM_CLOCK, Clock
from repro.service.context import QueryContext
from repro.service.request import QueryRequest, QueryResponse, RequestStatus, Timing

if TYPE_CHECKING:  # pragma: no cover
    from repro.db import Database
    from repro.nontruman.decision import ValidityDecision
    from repro.rebac.trace import ExplainReport


class _ReadWriteLock:
    """Many readers or one writer (no starvation handling needed at
    this scale: writers are rare DML, readers are the query hot path)."""

    def __init__(self):
        self._cond = threading.Condition()
        self._readers = 0
        self._writer = False

    def acquire_read(self) -> None:
        with self._cond:
            while self._writer:
                self._cond.wait()
            self._readers += 1

    def release_read(self) -> None:
        with self._cond:
            self._readers -= 1
            if self._readers == 0:
                self._cond.notify_all()

    def acquire_write(self) -> None:
        with self._cond:
            while self._writer or self._readers:
                self._cond.wait()
            self._writer = True

    def release_write(self) -> None:
        with self._cond:
            self._writer = False
            self._cond.notify_all()


class PendingQuery:
    """Handle for a submitted request; resolves to a QueryResponse."""

    def __init__(self, request: QueryRequest, ctx: Optional[QueryContext] = None):
        self.request = request
        #: the request's cancellation/governance context
        self.ctx = ctx if ctx is not None else QueryContext()
        self._done = threading.Event()
        self._response: Optional[QueryResponse] = None
        self._callbacks: list = []
        self._cb_lock = threading.Lock()

    def _resolve(self, response: QueryResponse) -> None:
        self._response = response
        self._done.set()
        with self._cb_lock:
            callbacks, self._callbacks = self._callbacks, []
        for callback in callbacks:
            try:
                callback(response)
            except Exception:  # a bad observer must not kill the worker
                pass

    def add_done_callback(self, fn) -> None:
        """Invoke ``fn(response)`` when the request reaches a terminal
        response; immediately if it already has one.

        The callback runs on the resolving thread (a gateway worker) —
        event-loop front ends should only post a wake-up from it
        (``loop.call_soon_threadsafe``), never do blocking work.
        """
        with self._cb_lock:
            if not self._done.is_set():
                self._callbacks.append(fn)
                return
        fn(self._response)

    def done(self) -> bool:
        return self._done.is_set()

    def cancel(self) -> bool:
        """Request cooperative cancellation of this query.

        Works both while queued (the worker answers ``CANCELLED`` at
        dequeue) and in flight (the next cooperative check inside the
        checker or executor raises
        :class:`~repro.errors.QueryCancelled`).  Returns False when the
        request already has a terminal response.
        """
        if self._done.is_set():
            return False
        self.ctx.cancel()
        return True

    def result(self, timeout: Optional[float] = None) -> QueryResponse:
        """Wait for the terminal response.

        On timeout raises :class:`~repro.errors.PendingTimeout`, which
        carries this handle (``exc.pending``) — the request is *still
        in flight*, and the caller can ``cancel()`` it and call
        :meth:`result` again to reap the terminal response instead of
        leaking the running work.
        """
        if not self._done.wait(timeout):
            raise PendingTimeout(
                f"no response within {timeout}s (request still in flight; "
                "cancel() the handle to reap it)",
                pending=self,
            )
        assert self._response is not None
        return self._response


_SENTINEL = object()


class EnforcementGateway:
    """Thread-safe multi-session front door over one Database."""

    def __init__(
        self,
        db: "Database",
        workers: int = 4,
        queue_size: int = 64,
        audit_capacity: int = 2048,
        name: str = "gateway",
        default_deadline: Optional[float] = 30.0,
        default_row_budget: Optional[int] = None,
        default_memory_budget: Optional[int] = None,
        retry_attempts: int = 2,
        retry_backoff: float = 0.05,
        breaker_threshold: int = 3,
        breaker_cooldown: float = 1.0,
        chaos: Optional[object] = None,
        retry_seed: Optional[int] = None,
        prepared_statements: bool = True,
        clock: Optional[Clock] = None,
    ):
        self.db = db
        self.name = name
        #: injectable time source threaded into every QueryContext this
        #: gateway creates and into the audit log's timestamps
        self.clock = clock or SYSTEM_CLOCK
        #: serve repeated queries through the §5.6 template cache
        #: (explicit PREPARE'd requests *and* transparent server-side
        #: templating of plain SQL text)
        self.prepared_statements = prepared_statements
        #: the database's decision cache (for stats and tests)
        self.cache = db.validity_cache
        #: this gateway's counts and latency distributions, shared with
        #: the network server that fronts it
        self.metrics = Metrics()
        self.audit = AuditLog(capacity=audit_capacity, clock=self.clock)
        self.queue_size = queue_size
        #: deadline applied to requests that carry none (None = unbounded)
        self.default_deadline = default_deadline
        self.default_row_budget = default_row_budget
        self.default_memory_budget = default_memory_budget
        self.retry_attempts = retry_attempts
        self.retry_backoff = retry_backoff
        #: extra wait in execute() past the deadline: covers queue slack
        #: plus the gap until the worker's next cooperative check
        self.result_grace = 30.0
        #: wait for a cancelled request to be reaped before giving up
        self.cancel_grace = 30.0
        #: optional ChaosInjector fired at serving-path fault points
        self.chaos = chaos
        self._rng = random.Random(retry_seed)
        self._breaker = CircuitBreaker(
            failure_threshold=breaker_threshold, cooldown=breaker_cooldown
        )
        # show the resilience counts in \stats (and to tests) at zero,
        # before they first fire
        for counter in (
            "requests_cancelled_inflight",
            "requests_degraded",
            "requests_retried",
            "retries_total",
            "requests_budget_exceeded",
            "worker_faults",
            "wal_commit_failures",
            "prepared_requests",
            "prepared_fallbacks",
            "replica_reads",
            "replica_fallbacks",
        ):
            self.metrics.bump(counter, 0)
        self._queue: "queue.Queue[object]" = queue.Queue(maxsize=queue_size)
        self._rwlock = _ReadWriteLock()
        self._accepting = True
        self._state_lock = threading.Lock()
        self._workers = [
            threading.Thread(
                target=self._worker_loop, name=f"{name}-worker-{i}", daemon=True
            )
            for i in range(workers)
        ]
        for worker in self._workers:
            worker.start()

    def _fire_chaos(self, point: str) -> None:
        if self.chaos is not None:
            self.chaos.fire(point)

    # -- submission ------------------------------------------------------

    @property
    def accepting(self) -> bool:
        with self._state_lock:
            return self._accepting

    def _make_context(self, request: QueryRequest) -> QueryContext:
        deadline = (
            request.deadline
            if request.deadline is not None
            else self.default_deadline
        )
        row_budget = (
            request.row_budget
            if request.row_budget is not None
            else self.default_row_budget
        )
        memory_budget = (
            request.memory_budget
            if request.memory_budget is not None
            else self.default_memory_budget
        )
        return QueryContext(
            deadline=deadline,
            row_budget=row_budget,
            memory_budget=memory_budget,
            clock=self.clock,
        )

    def submit(self, request: QueryRequest) -> PendingQuery:
        """Enqueue a request; raises on shutdown or backpressure."""
        if not self.accepting:
            raise ServiceShutdown(f"{self.name} is not accepting requests")
        pending = PendingQuery(request, self._make_context(request))
        item = (pending, request, time.perf_counter())
        try:
            self._queue.put_nowait(item)
        except queue.Full:
            self.metrics.bump("requests_overloaded")
            self.audit.record(
                user=request.user,
                mode=request.mode,
                signature=request.sql,
                status="overloaded",
                error="admission queue full",
                tag=request.tag,
            )
            raise ServiceOverloaded(
                f"{self.name} admission queue full "
                f"({self.queue_size} requests pending); retry later"
            ) from None
        self.metrics.bump("requests_submitted")
        return pending

    def execute(
        self, request: QueryRequest, timeout: Optional[float] = None
    ) -> QueryResponse:
        """Submit and wait for the response.

        Overload rejections come back as a structured ``ERROR``-free
        exception (:class:`ServiceOverloaded`) — the request was never
        admitted, so there is no response to wait for.

        The wait is always bounded: with no explicit ``timeout`` it is
        derived from the request deadline (or the gateway's
        ``default_deadline``) plus :attr:`result_grace`.  If the wait
        still elapses, the in-flight request is cancelled cooperatively
        and its terminal (``CANCELLED``) response reaped, so no work is
        left running with no handle.
        """
        pending = self.submit(request)
        if timeout is None:
            deadline = pending.ctx.deadline_s
            timeout = None if deadline is None else deadline + self.result_grace
        try:
            return pending.result(timeout)
        except PendingTimeout:
            pending.cancel()
            return pending.result(self.cancel_grace)

    def execute_many(
        self, requests: Iterable[QueryRequest]
    ) -> list[QueryResponse]:
        """Closed-loop convenience: submit all, gather all.

        Requests rejected by backpressure yield synthetic responses with
        the error message, so the output aligns 1:1 with the input.
        """
        pendings: list[object] = []
        for request in requests:
            try:
                pendings.append(self.submit(request))
            except (ServiceOverloaded, ServiceShutdown) as exc:
                pendings.append(
                    QueryResponse(
                        request=request,
                        status=RequestStatus.ERROR,
                        error=str(exc),
                    )
                )
        return [
            p.result() if isinstance(p, PendingQuery) else p for p in pendings
        ]

    # -- explain ---------------------------------------------------------

    def explain(
        self,
        user: Optional[str],
        mode: str,
        params: Mapping[str, object],
        sql: Union[str, ast.QueryExpr],
    ) -> "ExplainReport":
        """The validity decision on ``sql`` for this session, traced
        back to its views (and ReBAC tuple chains), without executing.
        The decision is taken as :meth:`check` takes it.
        """
        # imported here: the ReBAC package stays out of a server that
        # never explains
        from repro.rebac.trace import explain_query

        return self._decide(
            user, mode, params,
            lambda session, ctx: explain_query(self.db, sql, session, ctx),
        )

    def check(
        self,
        user: Optional[str],
        mode: str,
        params: Mapping[str, object],
        sql: Union[str, ast.QueryExpr],
    ) -> "ValidityDecision":
        """The validity decision on ``sql`` for this session, without
        executing.

        The check runs like a query's: under the read lock, so DML
        cannot move the data its C3 probes read, and with the gateway's
        default deadline, past which it raises
        :class:`~repro.errors.QueryTimeout`.  It runs on the caller's
        thread and takes no admission slot.
        """
        return self._decide(
            user, mode, params,
            lambda session, ctx: self.db.check_validity(sql, session, ctx),
        )

    def _decide(self, user, mode, params, decide):
        session = self.db.connect(user, mode, **params).session
        ctx = QueryContext(deadline=self.default_deadline, clock=self.clock)
        self._rwlock.acquire_read()
        try:
            return decide(session, ctx)
        finally:
            self._rwlock.release_read()

    # -- shutdown --------------------------------------------------------

    def shutdown(self, drain: bool = True, timeout: Optional[float] = None) -> None:
        """Stop admission; drain or cancel queued work; join workers."""
        with self._state_lock:
            if not self._accepting and not any(
                w.is_alive() for w in self._workers
            ):
                return
            self._accepting = False
        if drain:
            self._queue.join()
        else:
            while True:
                try:
                    item = self._queue.get_nowait()
                except queue.Empty:
                    break
                if item is not _SENTINEL:
                    pending, request, submitted_at = item
                    waited = time.perf_counter() - submitted_at
                    response = QueryResponse(
                        request=request,
                        status=RequestStatus.CANCELLED,
                        error="gateway shut down before execution",
                        timing=Timing(queue_s=waited, total_s=waited),
                    )
                    self._account(response)
                    pending._resolve(response)
                self._queue.task_done()
        for _ in self._workers:
            self._queue.put(_SENTINEL)
        for worker in self._workers:
            worker.join(timeout)
        if drain and self.db.durability is not None:
            # drained shutdown quiesces DML, so fold the WAL tail into a
            # checkpoint: restart replays nothing and starts from a
            # truncated log
            try:
                self.db.checkpoint()
            except (DurabilityError, OSError):
                pass  # already closed elsewhere, or durability degraded

    def __enter__(self) -> "EnforcementGateway":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown(drain=True)

    # -- worker loop -----------------------------------------------------

    def _worker_loop(self) -> None:
        while True:
            item = self._queue.get()
            if item is _SENTINEL:
                self._queue.task_done()
                return
            pending, request, submitted_at = item
            self.metrics.bump("workers_busy")
            try:
                response = self._process(request, submitted_at, pending.ctx)
            except BaseException as exc:  # never let a worker die
                self.metrics.bump("worker_faults")
                response = QueryResponse(
                    request=request,
                    status=RequestStatus.ERROR,
                    error=f"internal gateway error: {exc}",
                )
                # _process accounts in its finish(); a fault that
                # escaped it has not been audited yet — audit exactly
                # once here so no request ever goes missing
                response.timing.total_s = time.perf_counter() - submitted_at
                self._account(response)
            finally:
                self.metrics.bump("workers_busy", -1)
                self._queue.task_done()
            pending._resolve(response)

    # -- request processing ----------------------------------------------

    def _process(
        self, request: QueryRequest, submitted_at: float, ctx: QueryContext
    ) -> QueryResponse:
        timing = Timing()
        start = time.perf_counter()
        timing.queue_s = start - submitted_at
        worker = threading.current_thread().name
        # what the audit record shows: the raw text, until a parsed
        # query replaces it with its literal-stripped rendering
        signature = request.sql

        def finish(response: QueryResponse) -> QueryResponse:
            timing.total_s = time.perf_counter() - submitted_at
            response.timing = timing
            response.worker = worker
            response.signature = signature
            self._account(response)
            return response

        self._fire_chaos("gateway.dequeue")

        if ctx.cancelled:
            return finish(
                QueryResponse(
                    request=request,
                    status=RequestStatus.CANCELLED,
                    error="cancelled while queued",
                )
            )
        if ctx.expired:
            return finish(
                QueryResponse(
                    request=request,
                    status=RequestStatus.TIMEOUT,
                    error=(
                        f"deadline of {ctx.deadline_s:.3f}s exceeded "
                        "while queued"
                    ),
                )
            )

        # -- resolve / parse ---------------------------------------------
        # Recover the literal-stripped signature without parsing when
        # possible: from the request itself (an explicit PREPARE), or
        # from the text tier (transparent templating of a repeated query
        # string).  A cold text still parses exactly once — the parsed
        # query is signed and remembered for next time.
        parse_start = time.perf_counter()
        resolved: Optional[tuple] = None
        statement: Optional[ast.Statement] = None
        preparable = (
            self.prepared_statements and request.mode in PREPARABLE_MODES
        )
        if request.skeleton is not None:
            literals = tuple(request.literals or ())
            if preparable:
                resolved = (request.skeleton, literals, request.sql)
            else:
                # PREPARE'd under a non-preparable mode: rebind the
                # literals and run it as a plain query
                statement = bind_skeleton(request.skeleton, literals)
        elif preparable:
            resolved = self.db.prepared.lookup_text(request.sql)
        if resolved is None and statement is None:
            try:
                statement = parse_statement(request.sql)
            except ReproError as exc:
                timing.parse_s = time.perf_counter() - parse_start
                return finish(
                    QueryResponse(
                        request=request, status=RequestStatus.ERROR, error=str(exc)
                    )
                )
            if preparable and isinstance(statement, ast.QueryExpr):
                try:
                    resolved = resolve_signature(self.db, statement)
                    self.db.prepared.remember_text(request.sql, *resolved)
                except PreparedFallback:
                    resolved = None
        timing.parse_s = time.perf_counter() - parse_start

        if resolved is not None:
            signature = resolved[2]
        elif isinstance(statement, ast.QueryExpr):
            signature = render(query_signature(statement)[0])
        else:
            return finish(self._process_statement(request, statement, timing))
        return finish(
            self._process_query_with_retries(
                request, statement, timing, ctx, resolved
            )
        )

    # -- query path: retries + abort mapping ------------------------------

    def _process_query_with_retries(
        self,
        request: QueryRequest,
        query: Optional[ast.QueryExpr],
        timing: Timing,
        ctx: QueryContext,
        resolved: Optional[tuple] = None,
    ) -> QueryResponse:
        attempts = 0
        while True:
            try:
                response = self._process_query(
                    request, query, timing, ctx, resolved
                )
                break
            except TransientFault as exc:
                self.metrics.bump("retries_total")
                if attempts >= self.retry_attempts or ctx.cancelled or ctx.expired:
                    response = QueryResponse(
                        request=request,
                        status=RequestStatus.ERROR,
                        error=(
                            f"transient fault persisted after {attempts} "
                            f"retr{'y' if attempts == 1 else 'ies'}: {exc}"
                        ),
                    )
                    break
                attempts += 1
                # jittered exponential backoff, clamped to the deadline
                delay = (
                    self.retry_backoff
                    * (2 ** (attempts - 1))
                    * (0.5 + self._rng.random())
                )
                remaining = ctx.remaining()
                if remaining is not None:
                    delay = min(delay, remaining)
                if delay > 0:
                    time.sleep(delay)
            except QueryTimeout as exc:
                response = QueryResponse(
                    request=request, status=RequestStatus.TIMEOUT, error=str(exc)
                )
                break
            except QueryCancelled as exc:
                self.metrics.bump("requests_cancelled_inflight")
                response = QueryResponse(
                    request=request,
                    status=RequestStatus.CANCELLED,
                    error=str(exc),
                )
                break
            except ResourceBudgetExceeded as exc:
                self.metrics.bump("requests_budget_exceeded")
                response = QueryResponse(
                    request=request, status=RequestStatus.ERROR, error=str(exc)
                )
                break
        if attempts:
            self.metrics.bump("requests_retried")
        response.retries = attempts
        return response

    # -- statement (DML/DDL) path -----------------------------------------

    def _process_statement(
        self, request: QueryRequest, statement: ast.Statement, timing: Timing
    ) -> QueryResponse:
        """DML/DDL path: exclusive access, data/policy versions move.

        On a durable database the WAL append happens under the write
        lock (``sync=False``) but the fsync happens *after* releasing
        it: concurrent workers that appended while this one held the
        lock share one group-commit fsync instead of queueing for the
        lock around their own.

        The durable commit is governed by the WAL circuit breaker: when
        it is open, the write is refused *before* any state changes
        (typed :class:`ServiceDegraded` error); in half-open state one
        probe write is admitted to test recovery.
        """
        self.metrics.bump("dml_requests")
        durable = self.db.durability is not None
        if durable and not self._breaker.allow():
            return QueryResponse(
                request=request,
                status=RequestStatus.DEGRADED,
                error=str(
                    ServiceDegraded(
                        "gateway is in degraded read-only mode (WAL commit "
                        "circuit breaker open); writes are refused until "
                        "the half-open probe succeeds — reads keep serving"
                    )
                ),
            )
        execute_start = time.perf_counter()
        failure: Optional[QueryResponse] = None
        outcome: object = None
        breaker_resolved = False
        try:
            self._rwlock.acquire_write()
            try:
                conn = self.db.connect(
                    request.user, request.mode, **request.params
                )
                outcome = conn.execute(statement, sync=False)
            except (QueryRejectedError, UpdateRejectedError) as exc:
                failure = QueryResponse(
                    request=request, status=RequestStatus.REJECTED, error=str(exc)
                )
            except ReproError as exc:
                failure = QueryResponse(
                    request=request, status=RequestStatus.ERROR, error=str(exc)
                )
            finally:
                self._rwlock.release_write()
                timing.execute_s = time.perf_counter() - execute_start
            # durable group commit outside the write lock (also covers
            # rejected/errored statements that appended before failing)
            if durable:
                try:
                    self._fire_chaos("gateway.before_commit")
                    self.db.durability.commit()
                    self._breaker.record_success()
                    breaker_resolved = True
                except (DurabilityError, OSError, TransientFault) as exc:
                    self._breaker.record_failure()
                    breaker_resolved = True
                    self.metrics.bump("wal_commit_failures")
                    return QueryResponse(
                        request=request,
                        status=RequestStatus.DEGRADED,
                        error=(
                            "durable commit failed; the change is volatile "
                            "and the gateway is entering degraded read-only "
                            f"mode: {exc}"
                        ),
                    )
            else:
                breaker_resolved = True
        finally:
            # an exception that escapes everything above (injected
            # crash, internal bug) must not leave a half-open probe
            # dangling — resolve it as a failure
            if durable and not breaker_resolved:
                self._breaker.record_failure()
        if failure is not None:
            return failure
        return QueryResponse(
            request=request,
            status=RequestStatus.OK,
            rowcount=outcome if isinstance(outcome, int) else None,
        )

    # -- query path -------------------------------------------------------

    def _process_query(
        self,
        request: QueryRequest,
        query: Optional[ast.QueryExpr],
        timing: Timing,
        ctx: QueryContext,
        resolved: Optional[tuple] = None,
    ) -> QueryResponse:
        """Serve one query request under the read lock, on a caught-up
        replica when the cluster offers one, else on the primary.

        ``query`` is the parsed AST (None on a hot prepared hit that
        skipped the parser); ``resolved`` is the literal-stripped
        ``(skeleton, literals, signature_text)`` triple when the request
        is eligible for a prepared template.
        """
        session = self.db.connect(
            request.user, request.mode, **request.params
        ).session
        self._rwlock.acquire_read()
        try:
            replica = self._route_replica(request)
            if replica is not None:
                try:
                    # Applies and reads exclude each other through the
                    # replica's lock, so a read never observes a
                    # half-applied shipped batch.  The queue hop between
                    # routing and this lock is a window the failure
                    # detector may have used to quarantine the replica:
                    # re-check under the lock, where the database handle
                    # is also read (catch-up bootstrap swaps it
                    # wholesale).
                    with replica.read_lock():
                        self.db.verify_replica_serving(replica)
                        self.metrics.bump("replica_reads")
                        return self._serve(
                            request, replica.database, session,
                            query, resolved, timing, ctx, replica,
                        )
                except ReplicaUnavailable:
                    # quarantined (or behind the epoch/lag gate) since
                    # routing: the primary serves it — a correct answer,
                    # just not replica-served
                    self.metrics.bump("replica_fallbacks")
            return self._serve(
                request, self.db, session, query, resolved, timing, ctx
            )
        finally:
            self._rwlock.release_read()

    def _route_replica(self, request: QueryRequest):
        """A caught-up read replica for this request, or None for primary.

        Only cluster databases (:class:`repro.cluster.ClusterCoordinator`)
        expose ``route_read``; everywhere else this is a no-op.  The
        routing gate — replica policy epoch caught up with the
        coordinator's, data lag within bounds — lives in the database,
        not here.
        """
        route = getattr(self.db, "route_read", None)
        if route is None:
            return None
        from repro.cluster.coordinator import REPLICA_READ_MODES

        if request.mode not in REPLICA_READ_MODES:
            return None
        return route()

    def _serve(
        self,
        request: QueryRequest,
        db: "Database",
        session,
        query: Optional[ast.QueryExpr],
        resolved: Optional[tuple],
        timing: Timing,
        ctx: QueryContext,
        replica=None,
    ) -> QueryResponse:
        """The request pipeline: authorize -> phase boundary -> execute.

        *Authorize* takes the decision before any row is touched: the
        §5.6 template lookup/build (primary only; a
        :class:`PreparedFallback` just means "no template", raised
        before any user-visible effect), then the Non-Truman validity
        decision through :func:`repro.prepared.decide` or — when no
        template already carries it — the Truman rewrite; open and motro
        pass through.  *Execute* binds and runs the template's plan, or
        plans the authorized query afresh.

        A replica is the same function over ``replica.database``: it
        re-enforces policy itself (its grants / Truman views / VPD
        predicates are rebuilt from shipped WAL records), so the outcome
        is the primary's and only the serving node differs.  Neither its
        template cache nor its decision cache is consulted.
        """
        mode = request.mode
        primary = replica is None
        response = QueryResponse(
            request=request,
            status=RequestStatus.OK,
            replica=None if primary else replica.name,
        )
        template, hit = None, False
        clock, started = "check_s", time.perf_counter()
        try:
            if primary:
                if resolved is not None:
                    try:
                        template, hit = get_or_build_template(
                            db, resolved[0], resolved[1], session, mode, resolved[2]
                        )
                    except PreparedFallback:
                        self.metrics.bump("prepared_fallbacks")
                self._fire_chaos("gateway.before_check")
                if hit:
                    self._fire_chaos("prepared.hit")
            if template is None and query is None:
                query = bind_skeleton(resolved[0], resolved[1])
            to_execute = query
            if mode == "non-truman":
                context = None
                if primary:
                    context = (
                        context_key(session)
                        if template is None
                        else template.params_key[1]
                    )
                decision = decide(db, session, query, resolved, context, ctx)
                response.decision = decision
                response.cache_hit = decision.from_cache
                if not decision.valid:
                    response.status = RequestStatus.REJECTED
                    response.error = (
                        f"query rejected by Non-Truman model: {decision.reason}"
                    )
            elif mode == "truman" and template is None:
                from repro.truman.rewrite import truman_rewrite

                to_execute = truman_rewrite(db, query, session)
            timing.check_s = time.perf_counter() - started

            if response.status is RequestStatus.OK:
                # phase boundary: don't start executing an answer nobody
                # is waiting for
                ctx.check("phase boundary before execution")
                self._fire_chaos("gateway.before_execute")
                if template is not None:
                    self._fire_chaos("prepared.bind")
                clock, started = "execute_s", time.perf_counter()
                if template is not None:
                    response.result = run_template(
                        db, template, resolved[1], session, request.engine, ctx
                    )
                else:
                    response.result = db.execute_query(
                        to_execute,
                        session=session,
                        mode="open" if mode in ("non-truman", "truman") else mode,
                        engine=request.engine,
                        ctx=ctx,
                    )
                timing.execute_s = time.perf_counter() - started
        except (QueryAborted, TransientFault):
            # a deadline, cancel or budget abort, or a fault injected at
            # a fire point: unwinds to the retry loop with nothing cached
            setattr(timing, clock, time.perf_counter() - started)
            raise
        except ReproError as exc:
            setattr(timing, clock, time.perf_counter() - started)
            response.status = RequestStatus.ERROR
            response.error = str(exc)
        if template is not None:
            response.prepared = True
            self.metrics.bump("prepared_requests")
        return response

    # -- accounting ------------------------------------------------------

    _STATUS_COUNTERS = {
        RequestStatus.OK: "requests_ok",
        RequestStatus.REJECTED: "requests_rejected",
        RequestStatus.TIMEOUT: "requests_timeout",
        RequestStatus.ERROR: "requests_error",
        RequestStatus.CANCELLED: "requests_cancelled",
        RequestStatus.DEGRADED: "requests_degraded",
    }

    def _account(self, response: QueryResponse) -> None:
        """Count and audit one terminal response — every admitted
        request passes here exactly once."""
        request = response.request
        metrics = self.metrics
        metrics.bump("requests_completed")
        metrics.bump(self._STATUS_COUNTERS[response.status])
        if response.cache_hit:
            metrics.bump("decision_cache_hits")
        timing = response.timing
        metrics.observe("latency_ms", timing.total_s * 1000)
        metrics.observe("queue_ms", timing.queue_s * 1000)
        if timing.check_s:
            metrics.observe("check_ms", timing.check_s * 1000)
        if timing.execute_s:
            metrics.observe("execute_ms", timing.execute_s * 1000)

        decision = response.decision
        self.audit.record(
            user=request.user,
            mode=request.mode,
            # derived once in _process from the statement parsed there;
            # a fault that escaped it falls back to the raw text
            signature=response.signature or request.sql,
            status=response.status.value,
            decision="" if decision is None else decision.validity.value,
            rules=()
            if decision is None
            else tuple(step.rule for step in decision.trace),
            cache_hit=response.cache_hit,
            latency_ms=timing.total_s * 1000,
            error=response.error,
            tag=request.tag,
        )

    # -- observability ---------------------------------------------------

    @property
    def breaker(self) -> CircuitBreaker:
        """The WAL-commit circuit breaker (for tests and operators)."""
        return self._breaker

    @property
    def degraded(self) -> bool:
        """True while the gateway refuses writes (breaker not closed)."""
        return self._breaker.state != "closed"

    def stats(self) -> dict[str, object]:
        """One merged snapshot: gateway, metrics, cache, breaker."""
        merged: dict[str, object] = {
            "workers": len(self._workers),
            "queue_capacity": self.queue_size,
            "queue_depth": self._queue.qsize(),
            "accepting": self.accepting,
            "default_deadline_s": self.default_deadline,
        }
        merged.update(self.metrics.report())
        merged.update(self.cache.stats())
        merged.update(self.db.prepared.stats())
        merged.update(self._breaker.stats())
        # global policy / data version counters.  The caches stamp
        # entries per user (db.prepared.stamp) from the same sources;
        # these show whether anything moved at all.
        merged["policy_grants_version"] = self.db.grants.version
        merged["policy_schema_version"] = self.db.catalog.schema_version
        merged["policy_vpd_version"] = self.db.vpd_policies.version
        merged["data_version"] = self.db.validity_cache.data_version
        epoch = getattr(self.db, "policy_epoch", None)
        if epoch is not None:
            merged["policy_epoch"] = epoch
        for name, table in sorted(self.db._tables.items()):
            version = getattr(table, "data_version", None)
            if version is not None:
                merged[f"data_version_{name}"] = version
        if self.db.durability is not None:
            merged.update(self.db.durability.wal_stats())
        cluster_health = getattr(self.db, "cluster_health", None)
        if cluster_health is not None:
            # \replicas flattened: replica_<name>_<field> per replica
            health = cluster_health()
            merged["replica_divergence"] = health["replica_divergence"]
            for replica in health["replicas"]:
                prefix = f"replica_{replica['name']}"
                for field, value in replica.items():
                    if field != "name":
                        merged[f"{prefix}_{field}"] = value
        return merged

    def render_stats(self) -> str:
        """Aligned text report (the ``\\stats`` meta-command body)."""
        snap = self.stats()
        width = max(len(name) for name in snap)
        lines = [f"-- {self.name} --"]
        for name, value in snap.items():
            if isinstance(value, float):
                lines.append(f"  {name:<{width}}  {value:.4f}")
            else:
                lines.append(f"  {name:<{width}}  {value}")
        return "\n".join(lines)
