"""The sans-IO client core, without sockets, and the wire pin.

``_ClientCore`` owns everything both clients know about the protocol:
request ids, frame routing to pending calls, the frame that ends each
call, and the one error every pending call gets when the connection
goes.  These tests feed it bytes directly.  The wire pin then runs one
scripted session through each real client against a loopback peer and
requires the exact bytes recorded in ``tests/data``.
"""

import asyncio

import pytest

from repro.errors import (
    ConnectionLostError,
    ProtocolError,
    QueryRejectedError,
    QueryTimeout,
    ReproError,
    ServiceOverloaded,
)
from repro.net import AsyncReproClient
from repro.net.client import ClientResult, PreparedStatement, _ClientCore
from repro.net.protocol import HEADER, encode_frame

from tests.unit.loopback_peer import (
    WIRE_FIXTURE,
    LoopbackPeer,
    async_session,
    blocking_session,
    record,
    scripted_answer,
    split_frames,
)

OWNER = object()  # stands in for the client a prepared handle calls back

#: (kind, fields) of one call of every kind
CALLS = [
    ("hello", {"protocol": 1, "user": "11", "mode": "truman", "params": {}}),
    ("query", {"sql": "select 1"}),
    ("prepare", {"sql": "select 1"}),
    ("execute", {"statement": 7, "args": ["11"]}),
    ("explain", {"sql": "select 1"}),
    ("stats", {}),
    ("health", {}),
    ("goodbye", {}),
]
#: one of every kind that can be pending at once: hello and goodbye both
#: wait under id None, and a client never has both in flight
CONCURRENT = CALLS[:-1]


#: the kinds that carry a request id
QUERY_KINDS = ("query", "prepare", "execute", "explain", "stats", "health")


def make_core(max_frame_size: int = 1 << 20) -> _ClientCore:
    return _ClientCore(OWNER, max_frame_size, ("11", "truman", None))


def frames(*messages: dict) -> bytes:
    return b"".join(encode_frame(message) for message in messages)


def start_all(core: _ClientCore) -> list:
    return [core.start(kind, fields)[0] for kind, fields in CONCURRENT]


def answers(calls) -> bytes:
    """The scripted server's reply to every call, in start order."""
    out = []
    for call, (kind, fields) in zip(calls, CONCURRENT):
        message = {"type": kind, **fields}
        if call.id is not None:
            message["id"] = call.id
        out.extend(scripted_answer(1, message))
    return frames(*out)


def check_answers(core: _ClientCore, calls) -> None:
    hello, query, prepare, execute, explain, stats, health = calls
    assert all(call.done and call.error is None for call in calls)
    assert core.pending == {}
    assert hello.value["type"] == "welcome"
    assert core.server_info is hello.value
    for result in (query.value, execute.value):
        assert isinstance(result, ClientResult)
        assert result.columns == ("n", "s")
        assert result.rows == [(1, "a"), (2, "b")]
        assert result.row_frames == 2
    handle = prepare.value
    assert isinstance(handle, PreparedStatement)
    assert (handle._client, handle.statement_id, handle.n_params) == (OWNER, 7, 2)
    assert explain.value == {
        "report": {"validity": "unconditional"},
        "rendered": ["validity: unconditional"],
    }
    assert stats.value == {"net_queries": 1}
    assert health.value is None


class TestStart:
    def test_ids_count_up_and_hello_goodbye_carry_none(self):
        core = make_core()
        calls = start_all(core)
        assert [call.id for call in calls] == [None, 1, 2, 3, 4, 5, 6]
        assert core.start("goodbye", {})[0].id is None

    def test_goodbye_ack_ends_the_goodbye(self):
        core = make_core()
        goodbye, data = core.start("goodbye", {})
        assert data == encode_frame({"type": "goodbye"})
        core.feed(frames({"type": "goodbye"}))
        assert goodbye.done and goodbye.outcome() is None

    def test_frame_puts_type_and_id_first(self):
        core = make_core()
        _, data = core.start("query", {"sql": "select 1", "mode": "open"})
        assert data == encode_frame(
            {"type": "query", "id": 1, "sql": "select 1", "mode": "open"}
        )

    def test_unencodable_request_is_not_left_pending(self):
        core = make_core(max_frame_size=64)
        with pytest.raises(ProtocolError):
            core.start("query", {"sql": "x" * 100})
        assert core.pending == {}


class TestFeed:
    def test_whole_stream_at_once(self):
        core = make_core()
        calls = start_all(core)
        core.feed(answers(calls))
        check_answers(core, calls)

    def test_split_at_every_byte_boundary(self):
        core = make_core()
        stream = answers(start_all(core))
        for cut in range(len(stream) + 1):
            core = make_core()
            calls = start_all(core)
            core.feed(stream[:cut])
            core.feed(stream[cut:])
            check_answers(core, calls)

    def test_one_byte_at_a_time(self):
        core = make_core()
        calls = start_all(core)
        for byte in answers(calls):
            core.feed(bytes([byte]))
        check_answers(core, calls)

    def test_interleaved_ids_across_kinds(self):
        core = make_core()
        first, _ = core.start("query", {"sql": "select 1"})
        handle, _ = core.start("prepare", {"sql": "select 2"})
        second, _ = core.start("execute", {"statement": 1, "args": []})
        stats, _ = core.start("stats", {})
        core.feed(
            frames(
                {"type": "row_batch", "id": second.id, "seq": 0, "rows": [[20]]},
                {"type": "row_batch", "id": first.id, "seq": 0, "rows": [[10]]},
                {"type": "stats", "id": stats.id, "stats": {"k": 1}},
                {"type": "row_batch", "id": second.id, "seq": 1, "rows": [[21]]},
                {"type": "prepared", "id": handle.id, "statement": 3,
                 "params": 0, "signature": "select 2"},
                {"type": "result", "id": second.id, "columns": ["b"]},
                {"type": "row_batch", "id": first.id, "seq": 1, "rows": [[11]]},
                {"type": "result", "id": first.id, "columns": ["a"]},
            )  # fmt: skip
        )
        assert first.value.rows == [(10,), (11,)]
        assert second.value.rows == [(20,), (21,)]
        assert (first.value.columns, second.value.columns) == (("a",), ("b",))
        assert handle.value.statement_id == 3
        assert stats.value == {"k": 1}
        assert core.pending == {}

    def test_result_metadata(self):
        core = make_core()
        call, _ = core.start("query", {"sql": "select 1"})
        decision = {"validity": "unconditional", "rules": ["U2"]}
        core.feed(
            frames(
                {"type": "result", "id": call.id, "columns": [], "rowcount": 1,
                 "cache_hit": True, "retries": 2, "timing": {"total_s": 0.5},
                 "decision": decision},
            )  # fmt: skip
        )
        assert call.outcome() == ClientResult(
            columns=(), rows=[], rowcount=1, decision=decision,
            cache_hit=True, retries=2, timing={"total_s": 0.5}, row_frames=0,
        )  # fmt: skip


class TestErrorFrames:
    @pytest.mark.parametrize("kind,fields", CALLS, ids=[k for k, _ in CALLS])
    def test_error_frame_ends_each_kind_typed(self, kind, fields):
        core = make_core()
        call, _ = core.start(kind, fields)
        decision = {"validity": "invalid"}
        core.feed(
            frames(
                {"type": "error", "id": call.id, "code": "rejected",
                 "message": "no", "decision": decision},
            )  # fmt: skip
        )
        assert call.done and core.pending == {}
        with pytest.raises(QueryRejectedError, match="no") as info:
            call.outcome()
        assert info.value.decision == decision

    @pytest.mark.parametrize(
        "code,error",
        [("timeout", QueryTimeout), ("overloaded", ServiceOverloaded),
         ("protocol", ProtocolError), ("error", ReproError)],
    )  # fmt: skip
    def test_error_codes_decode_to_typed_exceptions(self, code, error):
        core = make_core()
        call, _ = core.start("query", {"sql": "select 1"})
        core.feed(frames({"type": "error", "id": call.id, "code": code,
                          "message": "m"}))  # fmt: skip
        with pytest.raises(error):
            call.outcome()

    def test_error_after_row_batches_drops_the_rows(self):
        core = make_core()
        call, _ = core.start("query", {"sql": "select 1"})
        core.feed(
            frames(
                {"type": "row_batch", "id": call.id, "seq": 0, "rows": [[1]]},
                {"type": "error", "id": call.id, "code": "cancelled",
                 "message": "stop"},
            )  # fmt: skip
        )
        with pytest.raises(ReproError, match="stop"):
            call.outcome()

    def test_other_calls_survive_an_error_frame(self):
        core = make_core()
        bad, _ = core.start("query", {"sql": "select 1"})
        good, _ = core.start("stats", {})
        core.feed(frames({"type": "error", "id": bad.id, "code": "error",
                          "message": "m"}))  # fmt: skip
        assert not good.done and list(core.pending) == [good.id]


class TestFailAll:
    @pytest.mark.parametrize("last", ["hello", "goodbye"])
    def test_ends_every_pending_call_of_every_kind_with_one_error(self, last):
        core = make_core()
        calls = [core.start(kind, fields)[0] for kind, fields in CALLS
                 if kind in (last, *QUERY_KINDS)]  # fmt: skip
        assert len(core.pending) == 7
        error = core.fail_all(OSError("reset by peer"))
        assert isinstance(error, ConnectionLostError)
        assert "reset by peer" in str(error)
        assert core.pending == {}
        for call in calls:
            assert call.done
            with pytest.raises(ConnectionLostError) as info:
                call.outcome()
            assert info.value is error

    def test_keeps_a_connection_error_as_it_is(self):
        core = make_core()
        call, _ = core.start("stats", {})
        lost = ConnectionLostError("server closed the connection")
        assert core.fail_all(lost) is lost
        assert call.error is lost

    def test_drops_the_bytes_of_the_lost_connection(self):
        core = make_core()
        call, _ = core.start("stats", {})
        core.feed(frames({"type": "stats", "id": call.id, "stats": {}})[:7])
        core.fail_all(OSError("reset"))
        again, _ = core.start("stats", {})
        core.feed(frames({"type": "stats", "id": again.id, "stats": {"n": 2}}))
        assert again.value == {"n": 2}

    def test_wakes_every_waiter_once(self):
        core = make_core()
        woken = []
        calls = start_all(core)
        for call in calls:
            call.waiter = woken.append
        core.fail_all(OSError("reset"))
        assert woken == calls


class TestProtocolBreach:
    @pytest.mark.parametrize(
        "frame",
        [
            {"type": "result", "id": 99, "columns": []},  # id never sent
            {"type": "stats", "id": 1, "stats": {}},  # wrong frame for a query
            {"type": "row_batch", "id": [1], "rows": []},  # unhashable id
            {"type": "error", "id": None, "code": "protocol",
             "message": "frame too large"},  # connection-level, no hello
        ],
        ids=["unknown-id", "wrong-kind", "bad-id", "connection-error"],
    )  # fmt: skip
    def test_breach_fails_everything_and_raises(self, frame):
        core = make_core()
        query, _ = core.start("query", {"sql": "select 1"})
        stats, _ = core.start("stats", {})
        with pytest.raises(ConnectionLostError, match="protocol breach") as info:
            core.feed(frames(frame))
        assert core.pending == {}
        assert query.error is info.value and stats.error is info.value

    def test_calls_completed_before_the_breach_keep_their_answer(self):
        core = make_core()
        stats, _ = core.start("stats", {})
        health, _ = core.start("health", {})
        with pytest.raises(ConnectionLostError):
            core.feed(
                frames(
                    {"type": "stats", "id": stats.id, "stats": {"a": 1}},
                    {"type": "welcome"},
                )
            )
        assert stats.value == {"a": 1} and stats.error is None
        assert isinstance(health.error, ConnectionLostError)

    def test_connection_level_error_answers_a_waiting_hello(self):
        core = make_core()
        hello, _ = core.start("hello", {"mode": "bogus"})
        core.feed(frames({"type": "error", "id": None, "code": "protocol",
                          "message": "unknown access-control mode"}))  # fmt: skip
        with pytest.raises(ProtocolError, match="access-control mode"):
            hello.outcome()

    def test_oversized_frame_header(self):
        core = make_core(max_frame_size=64)
        call, _ = core.start("stats", {})
        with pytest.raises(ConnectionLostError, match="exceeds"):
            core.feed(HEADER.pack(1 << 20))
        assert isinstance(call.error, ConnectionLostError)


class TestWirePin:
    """Both clients emit, byte for byte, the frames of the recorded
    session: moving the protocol into one core changed no wire byte."""

    def expected(self) -> bytes:
        payloads = [line.encode() for line in WIRE_FIXTURE.read_text().splitlines()]
        return b"".join(HEADER.pack(len(p)) + p for p in payloads)

    def test_fixture_covers_every_client_frame(self):
        kinds = [p.split(b'"')[3] for p in split_frames(self.expected())]
        assert kinds == [b"hello", b"query", b"prepare", b"execute",
                         b"explain", b"stats", b"health", b"cancel",
                         b"goodbye"]  # fmt: skip

    def test_blocking_client_bytes(self):
        assert record(blocking_session) == self.expected()

    def test_async_client_bytes(self):
        assert record(async_session) == self.expected()


def test_async_client_answers_through_one_future_per_call():
    """The async shell resolves concurrent calls of every kind."""

    async def scenario(address):
        client = await AsyncReproClient.connect(*address, user="11")
        try:
            return await asyncio.gather(
                client.query("select 1"),
                client.stats(),
                client.health(),
                client.explain("select 1"),
                client.prepare("select 1"),
            )
        finally:
            await client.close()

    with LoopbackPeer() as peer:
        result, stats, health, explain, handle = asyncio.run(
            scenario(peer.address)
        )
        peer.wait_closed()
    assert result.rows == [(1, "a"), (2, "b")]
    assert stats == {"net_queries": 1} and health is None
    assert explain["rendered"] == ["validity: unconditional"]
    assert handle.statement_id == 7
