"""Integration tests for the network front end (repro.net).

A live asyncio server over a real gateway, exercised through both
client libraries: handshake/auth, query round-trips, typed errors
(timeout, cancel, overload, access denied), chunked result streaming
with the max-frame guard, network metrics, and the
cancellation-on-disconnect contract.
"""

import asyncio
import socket
import time

import pytest

from repro.db import Database
from repro.errors import (
    ConnectionDropped,
    QueryCancelled,
    QueryRejectedError,
    QueryTimeout,
    ReproError,
    ServiceOverloaded,
)
from repro.net import AsyncReproClient, NetworkService, ReproClient
from repro.net.protocol import HEADER, FrameDecoder, encode_frame
from repro.service import ChaosInjector, EnforcementGateway

from tests.conftest import UNIVERSITY_DATA, UNIVERSITY_SCHEMA, build_big_join_db

BIG_JOIN_SQL = (
    "select count(*) from L, R where a < b"
)


def university_db() -> Database:
    db = Database()
    db.execute_script(UNIVERSITY_SCHEMA)
    db.execute_script(UNIVERSITY_DATA)
    db.execute(
        "create authorization view MyGrades as "
        "select * from Grades where student_id = $user_id"
    )
    db.grant_public("MyGrades")
    return db


@pytest.fixture
def service():
    """(gateway, host, port) over the university database."""
    db = university_db()
    gateway = EnforcementGateway(db, workers=2, name="net-test")
    network = NetworkService(gateway)
    host, port = network.start()
    yield gateway, host, port
    network.stop()
    gateway.shutdown(drain=False)


class RawConn:
    """A bare socket speaking frames — for pre-handshake protocol tests."""

    def __init__(self, host, port):
        self.sock = socket.create_connection((host, port), 5.0)
        self.decoder = FrameDecoder()
        self.inbox = []

    def send(self, message: dict) -> None:
        self.sock.sendall(encode_frame(message))

    def send_raw(self, data: bytes) -> None:
        self.sock.sendall(data)

    def recv(self, timeout: float = 10.0) -> dict:
        self.sock.settimeout(timeout)
        while not self.inbox:
            data = self.sock.recv(65536)
            if not data:
                raise ConnectionDropped("server closed")
            self.inbox.extend(self.decoder.feed(data))
        return self.inbox.pop(0)

    def close(self) -> None:
        self.sock.close()


class TestHandshake:
    def test_welcome_frame(self, service):
        _, host, port = service
        with ReproClient(host, port, user="11", mode="truman") as client:
            info = client.server_info
            assert info["protocol"] == 1
            assert info["server"] == "repro-net"
            assert info["user"] == "11"
            assert info["mode"] == "truman"
            assert isinstance(info["session"], int)

    def test_sessions_get_distinct_ids(self, service):
        _, host, port = service
        with ReproClient(host, port) as a, ReproClient(host, port) as b:
            assert a.server_info["session"] != b.server_info["session"]

    def test_query_before_hello_denied(self, service):
        _, host, port = service
        conn = RawConn(host, port)
        try:
            conn.send({"type": "query", "id": 1, "sql": "select 1"})
            message = conn.recv()
            assert message["type"] == "error"
            assert message["code"] == "auth"
            assert message["id"] == 1
        finally:
            conn.close()

    def test_bad_mode_in_hello(self, service):
        _, host, port = service
        conn = RawConn(host, port)
        try:
            conn.send({"type": "hello", "user": "11", "mode": "bogus"})
            message = conn.recv()
            assert message["type"] == "error"
            assert message["code"] == "protocol"
            assert "bogus" in message["message"]
        finally:
            conn.close()

    def test_unknown_frame_type(self, service):
        _, host, port = service
        conn = RawConn(host, port)
        try:
            conn.send({"type": "frobnicate", "id": 9})
            message = conn.recv()
            assert message["code"] == "protocol"
        finally:
            conn.close()

    def test_execute_before_hello_denied(self, service):
        """``execute`` obeys the hello-first rule like query, explain and
        prepare (it used to answer "unknown prepared statement")."""
        _, host, port = service
        conn = RawConn(host, port)
        try:
            conn.send({"type": "execute", "id": 1, "statement": 1, "args": []})
            message = conn.recv()
            assert (message["type"], message["code"], message["id"]) == (
                "error", "auth", 1,
            )  # fmt: skip
        finally:
            conn.close()

    @pytest.mark.parametrize(
        "frame",
        [
            {"type": "execute", "id": 2, "statement": [1], "args": []},
            {"type": "cancel", "id": [1]},
            {"type": "query", "id": 2, "sql": "select 1", "deadline": "x"},
            {"type": "query", "id": 2, "sql": "select 1", "row_budget": "x"},
            {"type": "query", "id": 2, "sql": "select 1", "tag": ["t"]},
            {"type": "query", "id": 2, "sql": 7},
            {"type": "query", "id": "2", "sql": "select 1"},
            {"type": "explain", "id": 2, "sql": "select 1", "mode": "bogus"},
            {"type": "prepare", "id": 2},
            {"type": "execute", "id": 2, "statement": 1, "args": [[1]]},
            {"type": "execute", "id": 2, "statement": 1, "args": "x"},
            {"type": "stats", "id": [1]},
            {"type": ["query"], "id": 2},
        ],
        ids=lambda frame: "-".join(f"{k}={v}" for k, v in frame.items()),
    )
    def test_malformed_field_gets_protocol_frame(self, service, frame):
        """Every malformed request field is answered with one typed
        ``protocol`` error frame and counted; the connection keeps
        serving (these used to crash the connection handler)."""
        gateway, host, port = service
        conn = RawConn(host, port)
        try:
            conn.send({"type": "hello", "user": "11"})
            assert conn.recv()["type"] == "welcome"
            conn.send(frame)
            message = conn.recv()
            assert (message["type"], message["code"]) == ("error", "protocol")
            expected_id = frame["id"] if isinstance(frame["id"], int) else None
            if isinstance(frame["type"], str):
                assert message["id"] == expected_id
            conn.send({"type": "stats", "id": 9})
            assert conn.recv()["type"] == "stats"
        finally:
            conn.close()
        assert gateway.metrics.get("net_protocol_errors") == 1

    def test_rehello_switches_user(self, service):
        """The session layer maps the connection to the gateway user:
        after re-authenticating as another student, the same connection
        is judged under the new identity."""
        _, host, port = service
        with ReproClient(host, port, user="11") as client:
            mine = client.query("select * from Grades where student_id = '11'")
            assert len(mine.rows) == 2
            client.hello(user="12")
            with pytest.raises(QueryRejectedError):
                client.query("select * from Grades where student_id = '11'")
            theirs = client.query("select * from Grades where student_id = '12'")
            assert len(theirs.rows) == 1


class TestQueries:
    def test_rows_match_in_process(self, service):
        gateway, host, port = service
        expected = gateway.db.execute_query(
            "select * from Grades where student_id = '11'",
            session=gateway.db.connect(user_id="11", mode="non-truman").session,
            mode="non-truman",
        )
        with ReproClient(host, port, user="11") as client:
            result = client.query("select * from Grades where student_id = '11'")
        assert result.columns == expected.columns
        assert result.rows == expected.rows  # types survive JSON transit

    def test_decision_travels(self, service):
        _, host, port = service
        with ReproClient(host, port, user="11") as client:
            result = client.query("select grade from Grades where student_id = '11'")
        assert result.decision["validity"] == "unconditional"
        assert result.decision["rules"]
        assert result.decision["views_used"] == ["MyGrades"]

    def test_access_denied_is_typed(self, service):
        _, host, port = service
        with ReproClient(host, port, user="11") as client:
            with pytest.raises(QueryRejectedError) as info:
                client.query("select * from Grades")
        assert info.value.decision["validity"] == "invalid"

    def test_per_request_mode_override(self, service):
        _, host, port = service
        with ReproClient(host, port, user="11") as client:
            # non-truman session, but this one request runs open
            result = client.query("select count(*) from Grades", mode="open")
            assert result.rows == [(4,)]

    def test_dml_over_the_wire(self, service):
        _, host, port = service
        with ReproClient(host, port, mode="open") as client:
            outcome = client.query(
                "insert into Students values ('99','Zoe','FullTime')"
            )
            assert outcome.rowcount == 1
            check = client.query(
                "select name from Students where student_id = '99'"
            )
            assert check.rows == [("Zoe",)]

    def test_library_error_is_typed(self, service):
        _, host, port = service
        with ReproClient(host, port, mode="open") as client:
            with pytest.raises(ReproError):
                client.query("select * from NoSuchTable")
            # the connection survives an error frame
            assert client.query("select count(*) from Grades").rows == [(4,)]

    def test_engine_selection(self, service):
        _, host, port = service
        with ReproClient(host, port, mode="open") as client:
            row = client.query("select count(*) from Grades", engine="row")
            vec = client.query("select count(*) from Grades", engine="vectorized")
        assert row.rows == vec.rows == [(4,)]

    def test_cache_hit_flag(self, service):
        _, host, port = service
        with ReproClient(host, port, user="11") as client:
            first = client.query("select * from Grades where student_id = '11'")
            second = client.query("select * from Grades where student_id = '11'")
        assert not first.cache_hit
        assert second.cache_hit


class TestDeadlinesAndCancellation:
    def test_wire_deadline_times_out(self):
        db = build_big_join_db()
        gateway = EnforcementGateway(db, workers=1)
        with NetworkService(gateway) as network:
            host, port = network.address
            with ReproClient(host, port, mode="open") as client:
                start = time.perf_counter()
                with pytest.raises(QueryTimeout):
                    client.query(BIG_JOIN_SQL, deadline=0.05)
                elapsed = time.perf_counter() - start
                # the deadline propagated into the QueryContext: the
                # scan died cooperatively, far before it could finish
                assert elapsed < 10.0
        gateway.shutdown(drain=False)

    def test_cancel_frame_kills_in_flight_query(self):
        db = build_big_join_db()
        gateway = EnforcementGateway(db, workers=1)
        network = NetworkService(gateway)
        host, port = network.start()

        async def scenario():
            client = await AsyncReproClient.connect(host, port, mode="open")
            try:
                request_id, future = await client.submit(BIG_JOIN_SQL)
                await asyncio.sleep(0.2)  # let it get mid-scan
                await client.cancel(request_id)
                with pytest.raises(QueryCancelled):
                    await asyncio.wait_for(future, timeout=30.0)
            finally:
                await client.close()

        try:
            asyncio.run(scenario())
            assert (
                gateway.metrics.get("requests_cancelled_inflight") == 1
            )
        finally:
            network.stop()
            gateway.shutdown(drain=False)

    def test_overload_shed_with_typed_error(self):
        """A full admission queue answers 'overloaded' frames while the
        connection stays usable — backpressure, not collapse."""
        db = university_db()
        chaos = ChaosInjector(seed=1)
        chaos.inject("gateway.before_execute", "delay", delay_s=0.15)
        gateway = EnforcementGateway(
            db, workers=1, queue_size=2, chaos=chaos, name="tiny"
        )
        network = NetworkService(gateway)
        host, port = network.start()

        async def scenario():
            client = await AsyncReproClient.connect(host, port, mode="open")
            try:
                futures = [
                    (await client.submit("select count(*) from Grades"))[1]
                    for _ in range(12)
                ]
                outcomes = await asyncio.gather(
                    *futures, return_exceptions=True
                )
            finally:
                await client.close()
            return outcomes

        try:
            outcomes = asyncio.run(scenario())
            shed = [o for o in outcomes if isinstance(o, ServiceOverloaded)]
            served = [o for o in outcomes if not isinstance(o, Exception)]
            assert shed, "queue of 2 with 12 pipelined queries must shed"
            assert served, "admitted queries must still be answered"
            assert len(shed) + len(served) == 12
        finally:
            network.stop()
            gateway.shutdown(drain=False)


class TestStreaming:
    def test_100k_row_select_chunks_into_frames(self):
        """Regression: large answers must stream as bounded frames, not
        one unbounded payload."""
        db = Database()
        db.execute("create table Big(v int primary key)")
        table = db.table("Big")
        for i in range(100_000):
            table.insert((i,))
        gateway = EnforcementGateway(db, workers=1)
        network = NetworkService(gateway, max_frame_size=32 * 1024)
        host, port = network.start()
        try:
            with ReproClient(
                host, port, mode="open", max_frame_size=32 * 1024
            ) as client:
                result = client.query("select v from Big")
            assert len(result.rows) == 100_000
            assert result.rows[0] == (0,)
            assert result.rows[-1] == (99_999,)
            assert sorted(result.rows) == [(i,) for i in range(100_000)]
            # the guard actually chunked: far more than one frame
            assert result.row_frames > 10
        finally:
            network.stop()
            gateway.shutdown(drain=False)

    def test_unframeable_row_answers_error_and_session_survives(self):
        """Regression: a result row too large for any frame used to kill
        the delivering task, and the request was never answered."""
        db = Database()
        db.execute("create table Wide(id int primary key, v varchar(5000))")
        db.execute(f"insert into Wide values (1, '{'x' * 4096}'), (2, 'small')")
        gateway = EnforcementGateway(db, workers=1)
        network = NetworkService(gateway, max_frame_size=1024)
        host, port = network.start()
        try:
            conn = RawConn(host, port)
            try:
                conn.send({"type": "hello", "user": None, "mode": "open"})
                assert conn.recv(timeout=5.0)["type"] == "welcome"
                conn.send({"type": "query", "id": 1, "sql": "select v from Wide"})
                # the watchdog: no answer within 5 s fails, never hangs
                message = conn.recv(timeout=5.0)
                while message["type"] == "row_batch":
                    message = conn.recv(timeout=5.0)
                assert message["type"] == "error", message
                assert message["id"] == 1
                assert message["code"] == "protocol"
                assert "frame limit" in message["message"]
                conn.send({
                    "type": "query",
                    "id": 2,
                    "sql": "select v from Wide where id = 2",
                })
                batch = conn.recv(timeout=5.0)
                assert batch["type"] == "row_batch"
                assert batch["rows"] == [["small"]]
                result = conn.recv(timeout=5.0)
                assert result["type"] == "result" and result["id"] == 2
            finally:
                conn.close()
            # the gateway finished the request; the wire reports the error
            stats = gateway.stats()
            assert stats["requests_ok"] == 2
            assert stats["net_protocol_errors"] == 1
            assert stats["net_rows_streamed"] == 1
        finally:
            network.stop()
            gateway.shutdown(drain=False)

    def test_incoming_oversized_frame_closes_connection(self):
        db = university_db()
        gateway = EnforcementGateway(db, workers=1)
        network = NetworkService(gateway, max_frame_size=4096)
        host, port = network.start()
        try:
            conn = RawConn(host, port)
            try:
                # announce a frame far beyond the server's limit; the
                # server must refuse before buffering any payload
                conn.send_raw(HEADER.pack(1 << 28))
                message = conn.recv()
                assert message["type"] == "error"
                assert message["code"] == "protocol"
                with pytest.raises(ConnectionDropped):
                    conn.recv()
            finally:
                conn.close()
            assert gateway.metrics.get("net_protocol_errors") == 1
        finally:
            network.stop()
            gateway.shutdown(drain=False)


class TestNetworkMetrics:
    def test_counters_track_traffic(self, service):
        gateway, host, port = service
        with ReproClient(host, port, user="11") as client:
            client.query("select * from Grades where student_id = '11'")
            wire_stats = client.stats()
        stats = gateway.stats()
        for key in (
            "connections_open",
            "sessions_authenticated",
            "frames_sent",
            "frames_received",
            "disconnect_cancels",
            "net_queries",
            "net_rows_streamed",
        ):
            assert key in stats, f"{key} missing from gateway stats"
            assert key in wire_stats, f"{key} missing from wire stats"
        assert stats["sessions_authenticated"] == 1
        assert stats["net_queries"] == 1
        assert stats["net_rows_streamed"] == 2
        assert stats["frames_sent"] >= 3  # welcome, row_batch, result, stats
        assert stats["frames_received"] >= 3  # hello, query, stats
        assert stats["disconnect_cancels"] == 0

    def test_connections_open_gauge(self, service):
        gateway, host, port = service
        assert gateway.metrics.get("connections_open") == 0
        client = ReproClient(host, port)
        try:
            assert gateway.metrics.get("connections_open") == 1
        finally:
            client.close()
        deadline = time.time() + 10
        while time.time() < deadline:
            if gateway.metrics.get("connections_open") == 0:
                break
            time.sleep(0.01)
        assert gateway.metrics.get("connections_open") == 0

    def test_render_stats_shows_network_instruments(self, service):
        """The \\stats meta-command body includes the wire counters."""
        gateway, host, port = service
        with ReproClient(host, port):
            pass
        text = gateway.render_stats()
        for key in ("connections_open", "sessions_authenticated",
                    "frames_sent", "frames_received", "disconnect_cancels"):
            assert key in text


class TestCancellationOnDisconnect:
    def test_client_drop_cancels_in_flight_query(self):
        """Client vanishes mid-query: the in-flight QueryContext is
        cancelled, nothing partial escapes, and the request is audited
        exactly once."""
        db = build_big_join_db()
        gateway = EnforcementGateway(db, workers=1)
        network = NetworkService(gateway)
        host, port = network.start()
        try:
            client = ReproClient(host, port, mode="open")
            client.start_query(BIG_JOIN_SQL, tag="dropped-query")
            time.sleep(0.25)  # give the worker time to get mid-scan
            client.drop()  # abrupt close, no goodbye

            deadline = time.time() + 30
            records = []
            while time.time() < deadline:
                records = [
                    r for r in gateway.audit.tail(100)
                    if r.tag == "dropped-query"
                ]
                if records:
                    break
                time.sleep(0.02)
            assert len(records) == 1, "exactly-once audit for dropped client"
            assert records[0].status == "cancelled"
            assert gateway.metrics.get("disconnect_cancels") == 1
            assert (
                gateway.metrics.get("requests_cancelled_inflight") == 1
            )

            # no partial state: the worker is free and correct afterwards
            with ReproClient(host, port, mode="open") as again:
                result = again.query("select count(*) from L")
                assert result.rows == [(700,)]
        finally:
            network.stop()
            gateway.shutdown(drain=False)

    def test_drop_with_idle_session_cancels_nothing(self, service):
        gateway, host, port = service
        client = ReproClient(host, port, user="11")
        client.query("select * from Grades where student_id = '11'")
        client.drop()
        deadline = time.time() + 10
        while time.time() < deadline:
            if gateway.metrics.get("connections_open") == 0:
                break
            time.sleep(0.01)
        assert gateway.metrics.get("disconnect_cancels") == 0

    def test_multiple_inflight_all_cancelled_on_drop(self):
        db = build_big_join_db()
        gateway = EnforcementGateway(db, workers=2)
        network = NetworkService(gateway)
        host, port = network.start()

        async def scenario():
            client = await AsyncReproClient.connect(host, port, mode="open")
            for _ in range(2):
                await client.submit(BIG_JOIN_SQL, tag="multi-drop")
            await asyncio.sleep(0.25)
            # abrupt close: cancel the reader and kill the transport
            client._reader_task.cancel()
            client._writer.transport.abort()

        try:
            asyncio.run(scenario())
            deadline = time.time() + 30
            while time.time() < deadline:
                records = [
                    r for r in gateway.audit.tail(100) if r.tag == "multi-drop"
                ]
                if len(records) == 2:
                    break
                time.sleep(0.02)
            assert len(records) == 2
            assert all(r.status == "cancelled" for r in records)
            assert gateway.metrics.get("disconnect_cancels") == 2
        finally:
            network.stop()
            gateway.shutdown(drain=False)


class TestReconnect:
    """`ConnectionLostError` + the opt-in single reconnect-and-retry
    for idempotent reads (cluster PR satellite): an established
    connection dying under a SELECT is retried transparently once,
    re-authenticating the session; writes never retry."""

    def test_lost_connection_raises_typed_error(self, service):
        from repro.errors import ConnectionLostError

        _, host, port = service
        with ReproClient(host, port, user="11") as client:
            client._sock.close()  # the connection dies under us
            with pytest.raises(ConnectionLostError) as excinfo:
                client.query("select grade from MyGrades")
            # typed as a connection error end to end
            assert isinstance(excinfo.value, ConnectionDropped)
            assert client.reconnects == 0

    def test_idempotent_read_retries_once_with_session(self, service):
        _, host, port = service
        with ReproClient(host, port, user="11", reconnect=True) as client:
            before = client.query("select grade from MyGrades")
            client._sock.close()
            after = client.query("select grade from MyGrades")
            assert client.reconnects == 1
            # the re-hello restored the same authenticated session:
            # the auth view still resolves against user 11
            assert after.rows == before.rows

    def test_write_never_retries(self, service):
        from repro.errors import ConnectionLostError

        _, host, port = service
        with ReproClient(
            host, port, user=None, mode="open", reconnect=True
        ) as client:
            client._sock.close()
            with pytest.raises(ConnectionLostError):
                client.query(
                    "insert into Grades values ('11', 'CS999', 1.0)"
                )
            assert client.reconnects == 0

    def test_stats_fetch_retries(self, service):
        _, host, port = service
        with ReproClient(host, port, user="11", reconnect=True) as client:
            client._sock.close()
            stats = client.stats()
            assert client.reconnects == 1
            assert "breaker_state" in stats


class TestPreparedWire:
    """The ``prepare``/``execute`` message pair: explicit server-side
    statement handles with positional literal rebinding (paper §5.6 on
    the wire)."""

    SQL = "select grade from Grades where student_id = '11'"

    def test_prepare_execute_roundtrip(self, service):
        gateway, host, port = service
        with ReproClient(host, port, user="11") as client:
            stmt = client.prepare(self.SQL)
            assert stmt.n_params == 1
            assert "_lit1" in stmt.signature
            cold = stmt.execute("11")
            hot = stmt.execute("11")
            assert sorted(cold.rows) == sorted(hot.rows)
            assert sorted(r[0] for r in hot.rows) == [3.5, 4.0]
        assert gateway.metrics.get("net_prepares") == 1
        assert gateway.metrics.get("net_executes") == 2
        assert gateway.metrics.get("prepared_requests") >= 1

    def test_rebinding_foreign_literal_is_rejected(self, service):
        """Rebinding the user-id literal to someone else's id must be
        re-decided per the §5.6 carry-over rule — and rejected, since
        the literal no longer matches the session user."""
        _, host, port = service
        with ReproClient(host, port, user="11") as client:
            stmt = client.prepare(self.SQL)
            assert sorted(r[0] for r in stmt.execute("11").rows) == [3.5, 4.0]
            with pytest.raises(QueryRejectedError):
                stmt.execute("12")
            # the statement handle survives the rejection
            assert sorted(r[0] for r in stmt.execute("11").rows) == [3.5, 4.0]

    def test_wire_answers_match_plain_queries(self, service):
        """Differential: executing a prepared handle with literal L is
        byte-identical to sending the bound SQL as a plain query."""
        _, host, port = service
        queries = [
            self.SQL,
            "select course_id, grade from Grades "
            "where student_id = '11' and grade > 3.6",
        ]
        with ReproClient(host, port, user="11") as client:
            for sql in queries:
                plain = client.query(sql)
                stmt = client.prepare(sql)
                for _ in range(2):  # cold + hot
                    prepared = stmt.execute(*client_literals(sql))
                    assert prepared.columns == plain.columns
                    assert prepared.rows == plain.rows

    def test_prepare_non_query_is_typed_error(self, service):
        _, host, port = service
        with ReproClient(host, port, user="11") as client:
            with pytest.raises(ReproError, match="cannot prepare"):
                client.prepare("insert into Grades values ('11','CS9',1.0)")
            # session remains usable
            assert client.query(self.SQL).rows

    def test_execute_arity_mismatch_is_typed_error(self, service):
        _, host, port = service
        with ReproClient(host, port, user="11") as client:
            stmt = client.prepare(self.SQL)
            with pytest.raises(ReproError, match="takes 1 argument"):
                stmt.execute("11", "extra")

    def test_unknown_handle_is_typed_error(self, service):
        _, host, port = service
        with ReproClient(host, port, user="11") as client:
            stmt = client.prepare(self.SQL)
            stmt.statement_id = 999  # forge a handle
            with pytest.raises(ReproError, match="unknown prepared statement"):
                stmt.execute("11")

    def test_async_prepare_execute(self, service):
        _, host, port = service

        async def scenario():
            client = await AsyncReproClient.connect(host, port, user="11")
            try:
                stmt = await client.prepare(self.SQL)
                assert stmt.n_params == 1
                results = await asyncio.gather(
                    stmt.execute("11"), stmt.execute("11")
                )
                for result in results:
                    assert sorted(r[0] for r in result.rows) == [3.5, 4.0]
            finally:
                await client.close()

        asyncio.run(scenario())


def client_literals(sql: str) -> tuple:
    """The positional literals `prepare` strips from ``sql``, in order —
    recomputed client-side so the differential test binds exactly what
    the plain query contained."""
    from repro.nontruman.cache import query_signature
    from repro.sql import parse_query

    _, literals = query_signature(parse_query(sql))
    return literals


class TestAsyncClientPipelining:
    def test_interleaved_queries_one_connection(self, service):
        _, host, port = service

        async def scenario():
            client = await AsyncReproClient.connect(host, port, user="11")
            try:
                results = await asyncio.gather(
                    *[
                        client.query(
                            "select * from Grades where student_id = '11'"
                        )
                        for _ in range(16)
                    ]
                )
            finally:
                await client.close()
            return results

        results = asyncio.run(scenario())
        assert len(results) == 16
        for result in results:
            assert sorted(result.rows) == [
                ("11", "CS101", 3.5), ("11", "CS102", 4.0),
            ]

    def test_async_stats(self, service):
        _, host, port = service

        async def scenario():
            async with await AsyncReproClient.connect(host, port) as client:
                return await client.stats()

        stats = asyncio.run(scenario())
        assert "net_queries" in stats
