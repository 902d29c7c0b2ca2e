"""Asyncio TCP front end over the enforcement gateway.

:class:`ReproServer` turns the in-process
:class:`~repro.service.gateway.EnforcementGateway` into a networked
service: each TCP connection is one client *session* (authenticated by
the ``hello`` handshake, mapped to a gateway user), each ``query``
frame becomes one :class:`~repro.service.request.QueryRequest`, and
every outcome — rows, rejection, timeout, overload — travels back as
typed frames (:mod:`repro.net.protocol`).

Design points:

* **one event loop, many sessions** — the asyncio loop only parses
  frames and submits work; the gateway's worker pool does the actual
  checking/execution on its own threads.  Completion is bridged back
  with :meth:`PendingQuery.add_done_callback` +
  ``loop.call_soon_threadsafe`` — no thread, poller, or executor slot
  is held per in-flight request, so thousands of concurrent sessions
  cost one socket and a little state each;
* **deadline propagation** — a ``deadline`` on the query frame flows
  into the request's :class:`~repro.service.context.QueryContext`, so
  the wire deadline is the same cooperative deadline that kills
  runaway scans and inference loops in-process;
* **cancellation on disconnect** — when a connection drops (EOF,
  reset, or an injected ``net.*`` chaos fault), every request still in
  flight for that session is cancelled through its context: no work
  keeps running for an answer nobody can receive, and the gateway
  audits the cancelled request exactly once like any other;
* **backpressure, not collapse** — admission control stays in the
  gateway: when its bounded queue is full, ``submit`` raises
  :class:`~repro.errors.ServiceOverloaded` and the server answers an
  ``overloaded`` error frame immediately.  An open-loop load sweep
  past saturation therefore sheds excess arrivals with a typed error
  while admitted requests keep bounded latency (benchmark E17);
* **bounded frames** — results are streamed as multiple ``row_batch``
  frames, each guaranteed to encode within ``max_frame_size``
  (:func:`~repro.net.protocol.iter_result_frames`); incoming frames
  beyond the limit close the connection before buffering the payload;
* **one request parser** — every request frame passes ``_parse``,
  which checks the integer id, the hello-first rule and each field's
  JSON type against one table; a malformed field is answered with one
  ``protocol`` error frame (counted in ``net_protocol_errors``) and the
  connection keeps serving.

Per-query pipelining is supported: a client may have any number of
queries outstanding on one connection; responses carry the client's
request id and may interleave between queries (frames of one response
never interleave with each other — writes are serialized per
connection).
"""

from __future__ import annotations

import asyncio
import itertools
import threading
from typing import Optional

from repro.db import MODES
from repro.errors import (
    ConnectionDropped,
    FrameTooLarge,
    ProtocolError,
    QueryTimeout,
    ReproError,
    ServiceOverloaded,
    ServiceShutdown,
)
from repro.prepared import PreparedFallback, resolve_signature
from repro.net.protocol import (
    DEFAULT_MAX_FRAME,
    DEFAULT_ROWS_PER_FRAME,
    HEADER,
    PROTOCOL_VERSION,
    code_for_status,
    decision_to_wire,
    decode_payload,
    encode_frame,
    iter_result_frames,
    sanitize_stats,
)
from repro.service.gateway import EnforcementGateway, PendingQuery
from repro.service.request import QueryRequest, QueryResponse, RequestStatus

#: network counts, bumped by 0 at start so ``\stats`` shows them at zero
NET_COUNTERS = (
    "connections_open",
    "sessions_authenticated",
    "frames_sent",
    "frames_received",
    "disconnect_cancels",
    "net_queries",
    "net_prepares",
    "net_executes",
    "net_explains",
    "net_rows_streamed",
    "net_protocol_errors",
)


def _is_str(value) -> bool:
    return isinstance(value, str)


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_literals(value) -> bool:
    return isinstance(value, list) and not any(
        isinstance(item, (list, dict)) for item in value
    )


#: request field -> (what it must be, the test a present value passes)
_FIELDS = {
    "sql": ("a string", _is_str),
    "statement": ("an integer", lambda value: isinstance(value, int)),
    "args": ("a list of scalar literals", _is_literals),
    "mode": (" | ".join(MODES), lambda value: value in MODES),
    "deadline": ("a number", _is_number),
    "row_budget": ("a number", _is_number),
    "memory_budget": ("a number", _is_number),
    "engine": ("a string", _is_str),
    "tag": ("a string", _is_str),
}
#: fields a request cannot go without (``mode`` defaults to the session's)
_REQUIRED = ("sql", "statement")
#: the per-request knobs of query and execute frames
_KNOBS = ("mode", "deadline", "tag", "engine", "row_budget", "memory_budget")
#: request frame type -> the fields it carries besides its integer id;
#: a request that carries fields is served only after ``hello``
_REQUESTS = {
    "query": ("sql", *_KNOBS),
    "execute": ("statement", "args", *_KNOBS),
    "explain": ("sql", "mode"),
    "prepare": ("sql",),
    "cancel": (),
    "stats": (),
    "health": (),
}


class _Session:
    """Per-connection state: identity, in-flight requests, write lock."""

    _ids = itertools.count(1)

    def __init__(self, writer: asyncio.StreamWriter):
        self.id = next(self._ids)
        self.writer = writer
        self.write_lock = asyncio.Lock()
        self.authenticated = False
        self.user: Optional[str] = None
        self.mode: str = "non-truman"
        self.params: dict = {}
        #: request id → PendingQuery, while in flight
        self.inflight: dict[int, PendingQuery] = {}
        #: statement handle → (skeleton, n_params, signature_text)
        self.prepared: dict[int, tuple] = {}
        self._stmt_ids = itertools.count(1)
        self.closing = False

    def register_prepared(
        self, skeleton, n_params: int, signature_text: str
    ) -> int:
        handle = next(self._stmt_ids)
        self.prepared[handle] = (skeleton, n_params, signature_text)
        return handle

    def cancel_inflight(self) -> int:
        """Cancel every request still in flight; returns how many."""
        cancelled = 0
        for pending in list(self.inflight.values()):
            if pending.cancel():
                cancelled += 1
        return cancelled


class ReproServer:
    """Asyncio TCP server speaking the framed protocol over one gateway."""

    def __init__(
        self,
        gateway: EnforcementGateway,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        max_frame_size: int = DEFAULT_MAX_FRAME,
        rows_per_frame: int = DEFAULT_ROWS_PER_FRAME,
        chaos=None,
        name: str = "repro-net",
    ):
        self.gateway = gateway
        self.host = host
        self.port = port
        self.max_frame_size = max_frame_size
        self.rows_per_frame = rows_per_frame
        self.chaos = chaos
        self.name = name
        #: network counts live in the gateway's store so ``\stats``
        #: and ``gateway.stats()`` report wire and worker state together
        self.metrics = gateway.metrics
        for counter in NET_COUNTERS:
            self.metrics.bump(counter, 0)
        self._server: Optional[asyncio.base_events.Server] = None
        self._sessions: set[_Session] = set()
        self._tasks: set[asyncio.Task] = set()
        self.address: Optional[tuple[str, int]] = None

    # -- lifecycle --------------------------------------------------------

    async def start(self) -> tuple[str, int]:
        """Bind and start accepting; returns the (host, port) bound."""
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        sock = self._server.sockets[0]
        self.address = sock.getsockname()[:2]
        return self.address

    async def serve_forever(self) -> None:
        assert self._server is not None, "call start() first"
        await self._server.serve_forever()

    async def stop(self) -> None:
        """Stop accepting, drop every session, and reap delivery tasks."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        for session in list(self._sessions):
            session.closing = True
            session.cancel_inflight()
            session.writer.close()
        for task in list(self._tasks):
            task.cancel()
        if self._tasks:
            await asyncio.gather(*self._tasks, return_exceptions=True)

    # -- chaos ------------------------------------------------------------

    def _fire_chaos(self, point: str) -> None:
        if self.chaos is not None:
            self.chaos.fire(point)

    # -- connection handling ----------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        session = _Session(writer)
        self._sessions.add(session)
        self.metrics.bump("connections_open")
        try:
            self._fire_chaos("net.accept")
            await self._read_loop(session, reader)
        except ProtocolError as exc:  # unframeable bytes: nothing to resync on
            await self._try_send_error(session, None, "protocol", str(exc))
        except (
            asyncio.IncompleteReadError,
            ConnectionDropped,
            ConnectionError,
            OSError,
        ):
            pass  # peer vanished; cleanup below cancels its work
        finally:
            session.closing = True
            dropped = session.cancel_inflight()
            if dropped:
                self.metrics.bump("disconnect_cancels", dropped)
            self._sessions.discard(session)
            self.metrics.bump("connections_open", -1)
            writer.close()

    async def _read_loop(
        self, session: _Session, reader: asyncio.StreamReader
    ) -> None:
        while True:
            header = await reader.readexactly(HEADER.size)
            (length,) = HEADER.unpack(header)
            if length > self.max_frame_size:
                raise FrameTooLarge(
                    f"incoming frame of {length} bytes exceeds the "
                    f"{self.max_frame_size}-byte limit"
                )
            payload = await reader.readexactly(length)
            self.metrics.bump("frames_received")
            message = decode_payload(payload)
            if not await self._dispatch(session, message):
                return

    async def _dispatch(self, session: _Session, message: dict) -> bool:
        """Handle one message; False ends the connection cleanly."""
        kind = message.get("type")
        if kind == "hello":
            await self._handle_hello(session, message)
            return True
        if kind == "goodbye":
            await self._send(session, {"type": "goodbye"})
            return False
        fields = await self._parse(session, message)
        if fields is None:
            return True
        request_id = fields["id"]
        if kind == "cancel":
            pending = session.inflight.get(request_id)
            if pending is not None:
                pending.cancel()
        elif kind == "stats":
            await self._send(
                session,
                {
                    "type": "stats",
                    "id": request_id,
                    "stats": sanitize_stats(self.gateway.stats()),
                },
            )
        elif kind == "health":
            await self._send(
                session,
                {
                    "type": "health",
                    "id": request_id,
                    "health": self._cluster_health(),
                },
            )
        elif kind == "query":
            request = self._request(session, fields, fields["sql"])
            await self._submit_request(session, request_id, request)
        elif kind == "explain":
            await self._handle_explain(session, fields)
        elif kind == "prepare":
            await self._handle_prepare(session, fields)
        else:  # the parser admits no other kind: execute
            await self._handle_execute(session, fields)
        return True

    async def _parse(self, session: _Session, message: dict) -> Optional[dict]:
        """The validated fields of one request frame — ``id``, every
        field present, ``mode`` resolved against the session — or None
        after answering the one ``protocol`` or ``auth`` error frame a
        malformed or premature request gets."""
        kind = message.get("type")
        request_id = message.get("id")
        wants = _REQUESTS.get(kind) if isinstance(kind, str) else None
        code = "protocol"
        if wants is None:
            problem = f"unknown message type {kind!r}"
        elif not isinstance(request_id, int):
            request_id, problem = None, f"{kind} frame needs an integer id"
        elif wants and not session.authenticated:
            code = "auth"
            problem = "session is not authenticated; send a hello frame first"
        else:
            fields = {"id": request_id}
            for name in wants:
                value = message.get(name)
                if name == "mode":
                    value = value or session.mode
                if value is None and name not in _REQUIRED:
                    continue
                what, valid = _FIELDS[name]
                if not valid(value):
                    problem = (
                        f"{kind} frame needs {name} to be {what}, "
                        f"got {value!r}"
                    )
                    break
                fields[name] = value
            else:
                return fields
        await self._try_send_error(session, request_id, code, problem)
        return None

    def _request(
        self, session: _Session, fields: dict, sql: str, **prepared
    ) -> QueryRequest:
        """The gateway request a query or execute frame stands for."""
        return QueryRequest(
            user=session.user,
            sql=sql,
            params=session.params,
            mode=fields["mode"],
            deadline=fields.get("deadline"),
            tag=fields.get("tag"),
            engine=fields.get("engine"),
            row_budget=fields.get("row_budget"),
            memory_budget=fields.get("memory_budget"),
            **prepared,
        )

    async def _handle_hello(self, session: _Session, message: dict) -> None:
        mode = message.get("mode", "non-truman")
        if mode not in MODES:
            await self._try_send_error(
                session,
                None,
                "protocol",
                f"unknown access-control mode {mode!r} "
                f"(modes: {' | '.join(MODES)})",
            )
            return
        user = message.get("user")
        session.user = None if user is None else str(user)
        session.mode = mode
        params = message.get("params") or {}
        if not isinstance(params, dict):
            await self._try_send_error(
                session, None, "protocol", "hello params must be an object"
            )
            return
        session.params = params
        first_auth = not session.authenticated
        session.authenticated = True
        if first_auth:
            self.metrics.bump("sessions_authenticated")
        self._fire_chaos("net.after_hello")
        welcome = {
            "type": "welcome",
            "protocol": PROTOCOL_VERSION,
            "server": self.name,
            "session": session.id,
            "user": session.user,
            "mode": session.mode,
        }
        # cluster deployments advertise their topology so clients and
        # operators can see what is serving them — *live* health, not
        # just a replica count: quarantined replicas are flagged
        db = self.gateway.db
        shards = getattr(db, "n_shards", None)
        if shards is not None:
            welcome["shards"] = shards
            welcome["replicas"] = len(getattr(db, "replicas", ()))
            health = self._cluster_health()
            if health is not None:
                welcome["topology"] = [
                    {
                        "name": replica["name"],
                        "state": replica["state"],
                        "serving": replica["serving"],
                        "quarantined": replica["state"] == "quarantined",
                        "lag": replica["lag"],
                        "policy_epoch": replica["policy_epoch"],
                    }
                    for replica in health["replicas"]
                ]
        await self._send(session, welcome)

    def _cluster_health(self) -> Optional[dict]:
        """The database's live health report (None off-cluster)."""
        report = getattr(self.gateway.db, "cluster_health", None)
        if report is None:
            return None
        return report()

    async def _handle_explain(self, session: _Session, fields: dict) -> None:
        """``explain``: the gateway's validity check + decision trace,
        no execution."""
        from repro.rebac.trace import render_report

        request_id = fields["id"]
        loop = asyncio.get_running_loop()
        try:
            # the check may run probe queries; keep it off the event
            # loop like the gateway keeps query work off it
            report = await loop.run_in_executor(
                None,
                self.gateway.explain,
                session.user,
                fields["mode"],
                session.params,
                fields["sql"],
            )
        except QueryTimeout as exc:
            await self._try_send_error(session, request_id, "timeout", str(exc))
            return
        except ReproError as exc:
            await self._try_send_error(session, request_id, "error", str(exc))
            return
        self.metrics.bump("net_explains")
        await self._send(
            session,
            {
                "type": "explain",
                "id": request_id,
                "report": report.as_dict(),
                "rendered": render_report(report),
            },
        )

    async def _handle_prepare(self, session: _Session, fields: dict) -> None:
        """``prepare``: parse + literal-strip once, answer a handle."""
        request_id = fields["id"]
        try:
            skeleton, literals, signature_text = resolve_signature(
                self.gateway.db, fields["sql"]
            )
        except PreparedFallback as exc:
            await self._try_send_error(
                session, request_id, "error", f"cannot prepare: {exc}"
            )
            return
        except ReproError as exc:
            await self._try_send_error(session, request_id, "error", str(exc))
            return
        handle = session.register_prepared(
            skeleton, len(literals), signature_text
        )
        self.metrics.bump("net_prepares")
        await self._send(
            session,
            {
                "type": "prepared",
                "id": request_id,
                "statement": handle,
                "params": len(literals),
                "signature": signature_text,
            },
        )

    async def _handle_execute(self, session: _Session, fields: dict) -> None:
        """``execute``: bind positional args to a prepared handle."""
        request_id = fields["id"]
        entry = session.prepared.get(fields["statement"])
        if entry is None:
            await self._try_send_error(
                session,
                request_id,
                "error",
                f"unknown prepared statement {fields['statement']!r}",
            )
            return
        skeleton, n_params, signature_text = entry
        args = fields.get("args", [])
        if len(args) != n_params:
            await self._try_send_error(
                session,
                request_id,
                "error",
                f"prepared statement takes {n_params} argument(s), "
                f"got {len(args)}",
            )
            return
        request = self._request(
            session,
            fields,
            signature_text,
            skeleton=skeleton,
            literals=tuple(args),
        )
        self.metrics.bump("net_executes")
        await self._submit_request(session, request_id, request)

    async def _submit_request(
        self, session: _Session, request_id: int, request: QueryRequest
    ) -> None:
        try:
            pending = self.gateway.submit(request)
        except ServiceOverloaded as exc:
            await self._try_send_error(
                session, request_id, "overloaded", str(exc)
            )
            return
        except ServiceShutdown as exc:
            await self._try_send_error(
                session, request_id, "shutdown", str(exc)
            )
            return
        self.metrics.bump("net_queries")
        session.inflight[request_id] = pending
        loop = asyncio.get_running_loop()
        future: asyncio.Future = loop.create_future()

        def _resolved(response: QueryResponse) -> None:
            loop.call_soon_threadsafe(_complete, response)

        def _complete(response: QueryResponse) -> None:
            if not future.done():
                future.set_result(response)

        pending.add_done_callback(_resolved)
        task = asyncio.ensure_future(
            self._deliver(session, request_id, future)
        )
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)

    async def _deliver(
        self, session: _Session, request_id: int, future: asyncio.Future
    ) -> None:
        """Wait for the gateway's terminal response and stream it out."""
        response: QueryResponse = await future
        session.inflight.pop(request_id, None)
        if session.closing:
            return  # nobody to answer; the request was cancelled on drop
        try:
            await self._send_response(session, request_id, response)
        except (ConnectionDropped, ConnectionError, OSError):
            # the client vanished between resolve and write; the read
            # loop's cleanup handles cancellation of anything else
            pass

    async def _send_response(
        self, session: _Session, request_id: int, response: QueryResponse
    ) -> None:
        if response.status is RequestStatus.OK:
            columns: list[str] = []
            frames = 0
            if response.result is not None:
                columns = list(response.result.columns)
                try:
                    for frame in iter_result_frames(
                        request_id,
                        response.result.rows,
                        max_frame_size=self.max_frame_size,
                        rows_per_frame=self.rows_per_frame,
                    ):
                        await self._send(session, frame)
                        frames += 1
                        self.metrics.bump(
                            "net_rows_streamed", len(frame["rows"])
                        )
                except ProtocolError as exc:
                    # a row too large for any frame, or a value JSON
                    # cannot encode: the request ends in a typed error
                    # and the session stays open
                    await self._try_send_error(
                        session, request_id, "protocol", str(exc)
                    )
                    return
            await self._send(
                session,
                {
                    "type": "result",
                    "id": request_id,
                    "status": "ok",
                    "columns": columns,
                    "row_frames": frames,
                    "rowcount": response.rowcount,
                    "cache_hit": response.cache_hit,
                    "retries": response.retries,
                    "timing": response.timing.as_dict(),
                    "decision": decision_to_wire(response.decision),
                },
            )
            return
        await self._send(
            session,
            {
                "type": "error",
                "id": request_id,
                "code": code_for_status(response.status.value),
                "message": response.error or response.status.value,
                "retries": response.retries,
                "timing": response.timing.as_dict(),
                "decision": decision_to_wire(response.decision),
            },
        )

    # -- frame writing -----------------------------------------------------

    async def _send(self, session: _Session, message: dict) -> None:
        data = encode_frame(message, self.max_frame_size)
        async with session.write_lock:
            try:
                self._fire_chaos("net.before_send")
            except ConnectionDropped:
                # simulate the peer vanishing mid-write: tear the
                # connection down; the read loop unwinds and cancels
                session.closing = True
                session.writer.close()
                raise
            session.writer.write(data)
            await session.writer.drain()
            self.metrics.bump("frames_sent")

    async def _try_send_error(
        self,
        session: _Session,
        request_id: Optional[int],
        code: str,
        message: str,
    ) -> None:
        if code == "protocol":
            self.metrics.bump("net_protocol_errors")
        try:
            await self._send(
                session,
                {
                    "type": "error",
                    "id": request_id,
                    "code": code,
                    "message": message,
                },
            )
        except (ConnectionDropped, ConnectionError, OSError):
            pass


class NetworkService:
    """Thread wrapper: run a :class:`ReproServer` on a background event
    loop so synchronous code (tests, the CLI shell, benchmarks) can
    start/stop a live server without owning an asyncio loop."""

    def __init__(self, gateway: EnforcementGateway, **server_kwargs):
        self.gateway = gateway
        self.server = ReproServer(gateway, **server_kwargs)
        self._thread: Optional[threading.Thread] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stop_event: Optional[asyncio.Event] = None
        self._started = threading.Event()
        self._startup_error: Optional[BaseException] = None
        self.address: Optional[tuple[str, int]] = None

    def start(self) -> tuple[str, int]:
        """Start serving on a daemon thread; returns the bound address."""
        self._thread = threading.Thread(
            target=self._run, name=f"{self.server.name}-loop", daemon=True
        )
        self._thread.start()
        self._started.wait()
        if self._startup_error is not None:
            raise self._startup_error
        assert self.address is not None
        return self.address

    def _run(self) -> None:
        asyncio.run(self._amain())

    async def _amain(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop_event = asyncio.Event()
        try:
            self.address = await self.server.start()
        except BaseException as exc:
            self._startup_error = exc
            self._started.set()
            return
        self._started.set()
        await self._stop_event.wait()
        await self.server.stop()

    def stop(self, timeout: Optional[float] = 10.0) -> None:
        """Stop the server and join the loop thread."""
        if self._loop is not None and self._stop_event is not None:
            try:
                self._loop.call_soon_threadsafe(self._stop_event.set)
            except RuntimeError:
                pass  # loop already closed
        if self._thread is not None:
            self._thread.join(timeout)

    def __enter__(self) -> "NetworkService":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()
