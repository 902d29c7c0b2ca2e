"""Thin clients for the network front end: one core, two shells.

* :class:`ReproClient` — blocking, one socket, one outstanding request
  at a time.  The natural client for scripts, the remote CLI shell,
  and tests;
* :class:`AsyncReproClient` — asyncio, multiplexes any number of
  in-flight requests over one connection (responses are correlated by
  request id).  The building block of the open-loop load generator.

Everything about the protocol lives once, in the private
``_ClientCore``: request ids, the frame decoder, the pending calls and
the frame that ends each one, the hello arguments a redial repeats.  It
never touches a socket — ``start`` hands back the bytes to send,
``feed`` takes the bytes that arrived.  When a connection ends (EOF,
reset, or a frame no pending call can take) ``fail_all`` ends every
pending call with one :class:`~repro.errors.ConnectionLostError`, the
same on both shells.  The public calls and the reconnect policy
(:class:`_Retry`) are written once in ``_Client``; a shell adds only
its transport: the blocking one a socket, a redial and a sleep, the
async one a reader task, a write lock and one future per pending call.

Both raise the *same typed exceptions* as the in-process gateway:
``QueryTimeout``, ``QueryCancelled``, ``ServiceOverloaded``,
``QueryRejectedError`` (access denied), ``ServiceDegraded`` — decoded
from the error frame's code (:func:`~repro.net.protocol.error_for_code`).
Moving an application from the library to the wire changes its
transport, not its error handling.
"""

from __future__ import annotations

import asyncio
import functools
import itertools
import random
import socket
import time
from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.cluster.health import backoff_delays
from repro.errors import (
    ConnectionDropped,
    ConnectionLostError,
    ProtocolError,
    ReconnectExhausted,
    ReproError,
)
from repro.net.protocol import (
    DEFAULT_MAX_FRAME,
    FrameDecoder,
    PROTOCOL_VERSION,
    encode_frame,
    error_for_code,
)


@dataclass
class ClientResult:
    """Outcome of one accepted query, reassembled from the wire.

    Mirrors the in-process :class:`~repro.db.Result` surface
    (``columns`` / ``rows``) plus the response metadata the gateway
    reports (decision, cache hit, timing, retries).
    """

    columns: tuple[str, ...]
    rows: list[tuple]
    rowcount: Optional[int] = None
    decision: Optional[dict] = None
    cache_hit: bool = False
    retries: int = 0
    timing: dict = field(default_factory=dict)
    #: number of row_batch frames the result arrived in
    row_frames: int = 0

    @property
    def ok(self) -> bool:
        return True

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self):
        return iter(self.rows)


class PreparedStatement:
    """Server-side prepared statement handle.

    Created by ``prepare`` on either client; ``execute(*args)`` binds
    positional values to the statement's ``$_litN`` placeholders (in
    the literal order of the original query) and runs it through the
    server's template cache.  It returns what its client's calls
    return: a :class:`ClientResult` from :class:`ReproClient`, an
    awaitable of one from :class:`AsyncReproClient`.
    """

    def __init__(
        self, client: "_Client", statement_id: int, n_params: int,
        signature: str,
    ):
        self._client = client
        self.statement_id = statement_id
        self.n_params = n_params
        self.signature = signature

    def execute(self, *args, **options):
        """Bind ``args`` and run; same options as
        :meth:`ReproClient.query` (mode, deadline, engine, ...)."""
        return self._client._execute_prepared(self, args, options)

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"PreparedStatement(id={self.statement_id}, "
            f"params={self.n_params}, signature={self.signature!r})"
        )


def _options(
    mode: Optional[str] = None,
    deadline: Optional[float] = None,
    engine: Optional[str] = None,
    tag: Optional[str] = None,
    row_budget: Optional[int] = None,
    memory_budget: Optional[int] = None,
) -> dict:
    """The per-request knobs that are set, in their wire order."""
    knobs = {
        "mode": mode,
        "deadline": deadline,
        "engine": engine,
        "tag": tag,
        "row_budget": row_budget,
        "memory_budget": memory_budget,
    }
    return {name: value for name, value in knobs.items() if value is not None}


def _idempotent_read(sql: str) -> bool:
    """True when re-sending ``sql`` after a lost connection is safe."""
    return sql.lstrip().lower().startswith("select")


def _idempotent(kind: str, fields: dict) -> bool:
    """True when re-sending this request after a lost connection is
    safe: a SELECT, an explain, a stats or health fetch — never a write
    or a prepared execute, whose first attempt may have been applied."""
    if kind == "query":
        return _idempotent_read(fields["sql"])
    return kind in ("explain", "stats", "health")


# -- the sans-IO core -----------------------------------------------------


class _Call:
    """One request in flight: the frame type that completes it, the rows
    gathered so far, then its value or error.  A shell that sets
    ``waiter`` has it called once the call completes."""

    __slots__ = ("id", "ends", "value_of", "rows", "frames", "done",
                 "value", "error", "waiter")

    def __init__(self, request_id: Optional[int], ends: str, value_of):
        self.id = request_id
        self.ends = ends
        self.value_of = value_of
        self.rows: list[tuple] = []
        self.frames = 0
        self.done = False
        self.value = None
        self.error: Optional[BaseException] = None
        self.waiter = None

    def complete(self, value=None, error: Optional[BaseException] = None):
        self.value, self.error, self.done = value, error, True
        if self.waiter is not None:
            self.waiter(self)

    def outcome(self):
        """The call's value; raises its error instead if it failed."""
        if self.error is not None:
            raise self.error
        return self.value


def _result(core: "_ClientCore", call: _Call, frame: dict) -> ClientResult:
    return ClientResult(
        columns=tuple(frame.get("columns", ())),
        rows=call.rows,
        rowcount=frame.get("rowcount"),
        decision=frame.get("decision"),
        cache_hit=bool(frame.get("cache_hit")),
        retries=int(frame.get("retries", 0)),
        timing=frame.get("timing") or {},
        row_frames=call.frames,
    )


def _welcome(core: "_ClientCore", call: _Call, frame: dict) -> dict:
    core.server_info = frame
    return frame


def _prepared(core: "_ClientCore", call: _Call, frame: dict):
    return PreparedStatement(
        core.client,
        frame["statement"],
        int(frame.get("params", 0)),
        frame.get("signature", ""),
    )


#: call kind -> (the frame type that completes it, that frame -> the
#: call's value).  Any call may end in an ``error`` frame instead; query
#: and execute gather ``row_batch`` frames before their ``result``.
_CALLS = {
    "hello": ("welcome", _welcome),
    "goodbye": ("goodbye", lambda core, call, frame: None),
    "query": ("result", _result),
    "execute": ("result", _result),
    "prepare": ("prepared", _prepared),
    "explain": (
        "explain",
        lambda core, call, frame: {
            "report": frame.get("report", {}),
            "rendered": list(frame.get("rendered", ())),
        },
    ),
    "stats": ("stats", lambda core, call, frame: frame.get("stats", {})),
    "health": ("health", lambda core, call, frame: frame.get("health")),
}


class _ClientCore:
    """The protocol state machine both shells drive; it never does I/O.

    ``start`` registers a call and returns the frame to send for it;
    ``feed`` routes the bytes that arrived to the pending calls and
    completes them; ``fail_all`` ends them all when the connection goes.
    """

    def __init__(self, client, max_frame_size: int, hello_args: tuple):
        #: the shell prepared-statement handles call back into
        self.client = client
        self.max_frame_size = max_frame_size
        #: (user, mode, params) of the last hello, repeated on a redial
        self.hello_args = hello_args
        self.server_info: dict = {}
        #: request id -> call; hello and goodbye wait under ``None``
        self.pending: dict[Optional[int], _Call] = {}
        self._ids = itertools.count(1)
        self._decoder = FrameDecoder(max_frame_size)

    def start(self, kind: str, fields: dict) -> tuple[_Call, bytes]:
        """Register one ``kind`` call; returns it and the bytes to send."""
        if kind in ("hello", "goodbye"):
            request_id, message = None, {"type": kind, **fields}
        else:
            request_id = next(self._ids)
            message = {"type": kind, "id": request_id, **fields}
        data = encode_frame(message, self.max_frame_size)
        call = _Call(request_id, *_CALLS[kind])
        self.pending[request_id] = call
        return call, data

    def feed(self, data: bytes) -> None:
        """Route every complete frame in ``data`` to its call.

        A frame no pending call can take breaches the protocol: the
        stream can no longer be trusted, so every pending call fails and
        the :class:`ConnectionLostError` is raised for the shell to hang
        up on.
        """
        try:
            for frame in self._decoder.feed(data):
                call = self.pending.get(frame.get("id"))
                kind = frame.get("type")
                if kind == "row_batch" and call and call.ends == "result":
                    call.rows.extend(map(tuple, frame.get("rows", ())))
                    call.frames += 1
                else:
                    self._end(call, kind, frame)
        except (ProtocolError, LookupError, TypeError, ValueError) as exc:
            raise self.fail_all(
                ConnectionLostError(f"protocol breach: {exc}")
            ) from None

    def _end(self, call: Optional[_Call], kind, frame: dict) -> None:
        if call is None:
            if kind == "error":  # connection-level, with no hello waiting
                raise ProtocolError(f"server error: {frame.get('message')}")
            raise ProtocolError(
                f"{kind!r} frame for request id {frame.get('id')!r}, "
                "which is not pending"
            )
        if kind == call.ends:
            value, error = call.value_of(self, call, frame), None
        elif kind == "error":
            value, error = None, error_for_code(
                frame.get("code", "error"),
                frame.get("message", "unspecified server error"),
                decision=frame.get("decision"),
            )
        else:
            raise ProtocolError(
                f"expected a {call.ends!r} frame, got {kind!r}"
            )
        del self.pending[call.id]
        call.complete(value, error)

    def fail_all(self, cause: BaseException) -> ConnectionDropped:
        """The connection is gone: end every pending call with one error
        and drop the bytes buffered from it.

        The error is ``cause`` when that already is a ConnectionDropped
        (a lost connection, or the client closing), else a
        ConnectionLostError naming it.  Returns the error.
        """
        if isinstance(cause, ConnectionDropped):
            error = cause
        else:
            error = ConnectionLostError(f"connection lost: {cause}")
        calls = list(self.pending.values())
        self.pending.clear()
        self._decoder = FrameDecoder(self.max_frame_size)
        for call in calls:
            call.complete(error=error)
        return error


class _Retry:
    """The reconnect policy both shells share, for one call.

    Iterating yields the backoff delay to sleep before each try —
    ``None`` before the first.  The shell records a lost connection in
    ``lost`` and goes round again; only an idempotent read on a client
    with ``reconnect`` on gets more tries, one per ``backoff_delays``
    entry, each after a redial.  When the tries run out the iteration
    raises: the lost error itself when there was nothing to retry, else
    :class:`~repro.errors.ReconnectExhausted` carrying it.
    """

    def __init__(self, client: "_Client", kind: str, fields: dict):
        self.client = client
        self.kind = kind
        self.fields = fields
        self.lost: Optional[ConnectionLostError] = None

    def __iter__(self):
        yield None
        client = self.client
        if not (client.reconnect and _idempotent(self.kind, self.fields)):
            raise self.lost
        # drawn only now, so a seeded schedule is one per lost connection
        yield from backoff_delays(
            client.reconnect_attempts,
            base=client.reconnect_backoff,
            cap=client.reconnect_backoff_cap,
            rng=client._backoff_rng,
        )
        raise ReconnectExhausted(
            f"connection lost and {client.reconnect_attempts} reconnect "
            f"attempts failed (last error: {self.lost})",
            attempts=client.reconnect_attempts,
            last_error=self.lost,
        )


class _Client:
    """What both shells share: settings, the core, the public calls and
    the reconnect policy.

    Every public call returns what the shell's ``_call`` returns — the
    answer on :class:`ReproClient`, an awaitable of it on
    :class:`AsyncReproClient`.
    """

    def __init__(
        self,
        host: str,
        port: int,
        *,
        user: Optional[str] = None,
        mode: str = "non-truman",
        params: Optional[dict] = None,
        max_frame_size: int = DEFAULT_MAX_FRAME,
        reconnect: bool = False,
        reconnect_attempts: int = 5,
        reconnect_backoff: float = 0.05,
        reconnect_backoff_cap: float = 1.0,
        reconnect_seed: Optional[int] = None,
    ):
        self._host = host
        self._port = port
        self.reconnect = reconnect
        self.reconnect_attempts = reconnect_attempts
        self.reconnect_backoff = reconnect_backoff
        self.reconnect_backoff_cap = reconnect_backoff_cap
        self._backoff_rng = random.Random(reconnect_seed)
        self.reconnects = 0
        self._core = _ClientCore(self, max_frame_size, (user, mode, params))

    @property
    def server_info(self) -> dict:
        """The last welcome frame."""
        return self._core.server_info

    @property
    def user(self) -> Optional[str]:
        return self._core.server_info.get("user")

    @property
    def mode(self) -> Optional[str]:
        return self._core.server_info.get("mode")

    def hello(
        self,
        user: Optional[str] = None,
        mode: str = "non-truman",
        params: Optional[dict] = None,
    ):
        """(Re-)authenticate this connection; answers the welcome frame."""
        self._core.hello_args = (user, mode, params)
        return self._call(
            "hello",
            {
                "protocol": PROTOCOL_VERSION,
                "user": user,
                "mode": mode,
                "params": params or {},
            },
        )

    def query(self, sql: str, **options):
        """Run one query; raises the typed error on non-OK outcomes.

        Options: ``mode``, ``deadline``, ``engine``, ``tag``,
        ``row_budget``, ``memory_budget`` — the same knobs as
        :class:`~repro.service.request.QueryRequest`.  A SELECT is an
        idempotent read and takes part in the transparent reconnect.
        """
        return self._call("query", {"sql": sql, **_options(**options)})

    def prepare(self, sql: str):
        """Parse + literal-strip ``sql`` server-side once; answers a
        :class:`PreparedStatement` whose ``execute(*args)`` binds new
        literal values without re-sending (or re-parsing) the text."""
        return self._call("prepare", {"sql": sql})

    def _execute_prepared(
        self, statement: PreparedStatement, args: Sequence, options: dict
    ):
        return self._call(
            "execute",
            {
                **_options(**options),
                "statement": statement.statement_id,
                "args": list(args),
            },
        )

    def cancel(self, request_id: int):
        """Ask the server to cancel an in-flight request."""
        return self._send(
            encode_frame(
                {"type": "cancel", "id": request_id}, self._core.max_frame_size
            )
        )

    def explain(self, sql: str, mode: Optional[str] = None):
        """Decision trace for ``sql`` without executing it.

        Answers ``{"report": {...}, "rendered": [...]}`` — the
        structured :class:`~repro.rebac.trace.ExplainReport` dict plus
        its display lines (what the local shell's ``\\explain``
        prints).  An explain is an idempotent read, so it takes part in
        the transparent reconnect like ``query``/``stats`` do.
        """
        return self._call("explain", {"sql": sql, **_options(mode=mode)})

    def stats(self):
        """The gateway's merged stats snapshot, fetched over the wire."""
        return self._call("stats", {})

    def health(self):
        """Live cluster-health report (replica states, lag, epochs,
        divergence counters); ``None`` against a single-node server."""
        return self._call("health", {})


# -- blocking shell -------------------------------------------------------


class ReproClient(_Client):
    """Blocking protocol client: connect, hello, query, close.

    One outstanding request at a time; use :class:`AsyncReproClient`
    for pipelining.  Takes ``connect_timeout`` (seconds, for dialling)
    besides the keyword arguments both clients share: ``user``,
    ``mode``, ``params``, ``max_frame_size`` and the reconnect knobs.

    ``reconnect=True`` opts in to transparent reconnect-and-retry when
    an established connection dies under an **idempotent read** (a
    SELECT, a stats/health fetch, or an explain).  Up to
    ``reconnect_attempts`` redials are made with exponential backoff
    plus equal jitter (``reconnect_backoff`` doubling up to
    ``reconnect_backoff_cap`` seconds; ``reconnect_seed`` makes the
    jitter reproducible); if every attempt fails a typed
    :class:`~repro.errors.ReconnectExhausted` is raised carrying the
    attempt count and the last low-level error.  Writes and prepared
    executes never retry — the first attempt may have been applied.
    """

    _sleep = staticmethod(time.sleep)

    def __init__(
        self,
        host: str,
        port: int,
        *,
        connect_timeout: Optional[float] = 10.0,
        **options,
    ):
        super().__init__(host, port, **options)
        self._connect_timeout = connect_timeout
        self._sock = self._dial()
        self.hello(*self._core.hello_args)

    def _dial(self) -> socket.socket:
        sock = socket.create_connection(
            (self._host, self._port), self._connect_timeout
        )
        # frame-level timeouts are the server's job (deadlines); the
        # socket itself blocks until the server answers or drops
        sock.settimeout(None)
        return sock

    def _hang_up(self, cause: BaseException) -> ConnectionDropped:
        """Close the socket and fail every pending call."""
        self._sock.close()
        return self._core.fail_all(cause)

    def _redial(self) -> None:
        """Re-establish the socket and re-authenticate the session."""
        self._hang_up(ConnectionLostError("connection replaced by a redial"))
        try:
            self._sock = self._dial()
        except OSError as exc:
            raise ConnectionLostError(f"reconnect failed: {exc}") from None
        self.reconnects += 1
        self.hello(*self._core.hello_args)

    def _send(self, data: bytes) -> None:
        try:
            self._sock.sendall(data)
        except OSError as exc:
            raise self._hang_up(exc) from None

    def _start(self, kind: str, fields: dict) -> _Call:
        call, data = self._core.start(kind, fields)
        self._send(data)
        return call

    def _wait(self, call: _Call):
        """Read until ``call`` completes; its value, or raises its error."""
        try:
            while not call.done:
                data = self._sock.recv(65536)
                if not data:
                    raise ConnectionLostError("server closed the connection")
                self._core.feed(data)
        except OSError as exc:  # a reset, EOF, or the breach feed() raised
            self._hang_up(exc)
        return call.outcome()

    def _call(self, kind: str, fields: dict):
        retry = _Retry(self, kind, fields)
        for delay in retry:
            try:
                if delay is not None:
                    self._sleep(delay)
                    self._redial()
                return self._wait(self._start(kind, fields))
            except ConnectionLostError as exc:
                retry.lost = exc

    def start_query(self, sql: str, **options) -> int:
        """Send a query frame without waiting; returns its request id.

        Mainly for tests that need to drop the connection mid-query;
        normal callers use :meth:`query`.
        """
        return self._start("query", {"sql": sql, **_options(**options)}).id

    def close(self, goodbye: bool = True) -> None:
        """Close the connection (politely by default)."""
        try:
            if goodbye:
                # wait for the goodbye ack so in-order delivery is done
                self._wait(self._start("goodbye", {}))
        except (ReproError, OSError):
            pass
        finally:
            self._sock.close()

    def drop(self) -> None:
        """Abruptly close the socket — no goodbye; the server must
        cancel whatever this session had in flight."""
        self.close(goodbye=False)

    def __enter__(self) -> "ReproClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


# -- async shell ----------------------------------------------------------


def _resolve(answer: asyncio.Future, call: _Call) -> None:
    if not answer.done():  # the caller may have stopped waiting
        if call.error is not None:
            answer.set_exception(call.error)
        else:
            answer.set_result(call.value)


class AsyncReproClient(_Client):
    """Asyncio client multiplexing many in-flight requests per connection.

    A background reader task feeds incoming bytes to the core, which
    resolves each pending call's future, so ``query()`` can be awaited
    concurrently from any number of tasks over one socket — the
    transport shape the open-loop load generator needs.  Open one with
    :meth:`connect`.

    ``reconnect=True`` behaves exactly as on :class:`ReproClient`: the
    same idempotent reads are retried across redials on the same backoff
    schedule, ending in a typed :class:`~repro.errors.ReconnectExhausted`.
    """

    _sleep = staticmethod(asyncio.sleep)

    def __init__(self, host: str, port: int, **options):
        super().__init__(host, port, **options)
        self._writer: Optional[asyncio.StreamWriter] = None
        self._reader_task: Optional[asyncio.Task] = None
        self._write_lock = asyncio.Lock()
        self._closed = False

    @classmethod
    async def connect(
        cls, host: str, port: int, **options
    ) -> "AsyncReproClient":
        """Dial and say hello; takes :class:`ReproClient`'s keyword
        arguments except ``connect_timeout``."""
        client = cls(host, port, **options)
        await client._dial()
        await client.hello(*client._core.hello_args)
        return client

    async def _dial(self) -> None:
        reader, self._writer = await asyncio.open_connection(
            self._host, self._port
        )
        self._reader_task = asyncio.ensure_future(
            self._read_loop(reader, self._writer)
        )

    async def _read_loop(self, reader, writer) -> None:
        error: BaseException = ConnectionLostError(
            "server closed the connection"
        )
        try:
            while data := await reader.read(65536):
                self._core.feed(data)
        except OSError as exc:  # a reset, or the breach feed() raised
            error = exc
        finally:
            writer.close()
            self._core.fail_all(error)

    async def _hang_up(self, cause: ConnectionDropped) -> None:
        """Fail every pending call with ``cause``, stop the reader (which
        closes the socket) and wait for it."""
        self._core.fail_all(cause)
        if self._reader_task is not None:
            self._reader_task.cancel()
            await asyncio.wait([self._reader_task])

    async def _redial(self) -> None:
        """Re-dial, restart the reader task, and re-authenticate."""
        if self._closed:
            raise ConnectionDropped("client is closed")
        await self._hang_up(
            ConnectionLostError("connection replaced by a redial")
        )
        try:
            await self._dial()
        except OSError as exc:
            raise ConnectionLostError(f"reconnect failed: {exc}") from None
        self.reconnects += 1
        await self.hello(*self._core.hello_args)

    async def _send(self, data: bytes) -> None:
        if self._closed or self._writer is None:
            raise ConnectionDropped("client is closed")
        if self._writer.is_closing():  # the reader saw the connection end
            raise ConnectionLostError("connection lost")
        try:
            async with self._write_lock:
                self._writer.write(data)
                await self._writer.drain()
        except OSError as exc:
            raise ConnectionLostError(f"connection lost: {exc}") from None

    async def _start(
        self, kind: str, fields: dict
    ) -> tuple[Optional[int], asyncio.Future]:
        call, data = self._core.start(kind, fields)
        answer = asyncio.get_running_loop().create_future()
        call.waiter = functools.partial(_resolve, answer)
        try:
            await self._send(data)
        except BaseException:
            self._core.pending.pop(call.id, None)
            raise
        return call.id, answer

    async def _call(self, kind: str, fields: dict):
        retry = _Retry(self, kind, fields)
        for delay in retry:
            try:
                if delay is not None:
                    await self._sleep(delay)
                    await self._redial()
                _, answer = await self._start(kind, fields)
                return await answer
            except ConnectionLostError as exc:
                retry.lost = exc

    async def submit(self, sql: str, **options) -> tuple[int, asyncio.Future]:
        """Send a query; returns (request id, future of ClientResult)."""
        return await self._start("query", {"sql": sql, **_options(**options)})

    async def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        if self._writer is not None:
            try:
                async with self._write_lock:
                    self._writer.write(encode_frame({"type": "goodbye"}))
                    await self._writer.drain()
            except OSError:
                pass
        await self._hang_up(ConnectionDropped("client closed"))

    async def __aenter__(self) -> "AsyncReproClient":
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.close()
