"""The reconnect-and-retry policy both clients share.

The unit tests run each shell's real ``_call`` with its transport
replaced — ``_start`` fails a set number of times, ``_redial`` and
``_sleep`` record what they were asked to do — so they pin the
*schedule* (the seeded backoff delays actually slept), the typed
give-up error, and the writes-never-retry rule on both shells without
real network flakiness.  The regressions at the end use a loopback peer
that really closes the connection under a read.
"""

import asyncio
import random

import pytest

from repro.cluster.health import backoff_delays
from repro.errors import (
    ConnectionDropped,
    ConnectionLostError,
    ReconnectExhausted,
)
from repro.net import AsyncReproClient, ReproClient
from repro.net.client import PreparedStatement, _Client, _idempotent_read

from tests.unit.loopback_peer import LoopbackPeer, drop_first


@pytest.fixture(params=["blocking", "async"])
def shell(request) -> str:
    return request.param


def make_client(shell, attempts=3, seed=7, reconnect=True, failures=0):
    """A client of ``shell`` with no socket: its first ``failures``
    starts lose the connection, later ones answer ``"result"``."""
    cls = ReproClient if shell == "blocking" else AsyncReproClient
    client = cls.__new__(cls)
    _Client.__init__(
        client,
        "127.0.0.1",
        0,
        reconnect=reconnect,
        reconnect_attempts=attempts,
        reconnect_seed=seed,
    )
    client.slept, client.redials, client.starts = [], 0, 0

    def start(kind, fields):
        client.starts += 1
        if client.starts <= failures:
            raise ConnectionLostError(f"drop #{client.starts}")
        call, _ = client._core.start(kind, fields)
        del client._core.pending[call.id]
        call.complete("result")
        return call

    def redial():
        client.redials += 1

    if shell == "blocking":
        client._start, client._redial = start, redial
        client._sleep = client.slept.append
    else:

        async def async_start(kind, fields):
            call = start(kind, fields)
            answer = asyncio.get_running_loop().create_future()
            answer.set_result(call.value)
            return call.id, answer

        async def async_redial():
            redial()

        async def sleep(delay):
            client.slept.append(delay)

        client._start, client._redial, client._sleep = (
            async_start, async_redial, sleep,
        )  # fmt: skip
    return client


def run(answer):
    """What a client call answers: awaited when the shell is async."""
    return asyncio.run(answer) if asyncio.iscoroutine(answer) else answer


class TestRetrySchedule:
    def test_no_retry_when_reconnect_disabled(self, shell):
        client = make_client(shell, reconnect=False, failures=1)
        with pytest.raises(ConnectionLostError) as info:
            run(client.stats())
        assert not isinstance(info.value, ReconnectExhausted)
        assert client.slept == [] and client.redials == 0

    def test_retry_succeeds_after_redial(self, shell):
        client = make_client(shell, attempts=3, failures=1)
        assert run(client.stats()) == "result"
        assert client.starts == 2
        assert client.redials == 1
        assert len(client.slept) == 1

    def test_sleeps_follow_seeded_backoff_schedule(self, shell):
        client = make_client(shell, attempts=4, seed=99, failures=4)
        assert run(client.health()) == "result"
        expected = backoff_delays(4, base=0.05, cap=1.0, rng=random.Random(99))
        assert client.slept == expected
        # exponential-with-jitter invariants, not just reproducibility
        for i, delay in enumerate(client.slept):
            ceiling = min(1.0, 0.05 * (2**i))
            assert ceiling / 2 <= delay <= ceiling

    def test_schedule_is_drawn_per_lost_connection(self, shell):
        """A call that never loses its connection draws no jitter, so the
        next loss sleeps the schedule's first delays again."""
        client = make_client(shell, attempts=2, seed=5)
        assert run(client.stats()) == "result"
        client.starts = -2  # the next two starts fail
        assert run(client.stats()) == "result"
        assert client.slept == backoff_delays(2, rng=random.Random(5))

    def test_exhausted_budget_raises_typed_error(self, shell):
        client = make_client(shell, attempts=3, failures=100)
        with pytest.raises(ReconnectExhausted) as info:
            run(client.stats())
        assert info.value.attempts == 3
        assert isinstance(info.value.last_error, ConnectionLostError)
        assert str(info.value.last_error) == "drop #4"
        assert client.starts == 4  # the first try + one per reconnect attempt
        assert len(client.slept) == 3

    def test_give_up_error_is_a_connection_lost_error(self):
        """Callers of the single-reconnect era catch the same class."""
        exc = ReconnectExhausted("gone", attempts=2, last_error=None)
        assert isinstance(exc, ConnectionLostError)
        assert isinstance(exc, ConnectionDropped)

    def test_failed_redial_consumes_an_attempt(self, shell):
        client = make_client(shell, attempts=2, failures=1)

        def refuse():
            client.redials += 1
            raise ConnectionLostError("refused")

        async def async_refuse():
            refuse()

        client._redial = refuse if shell == "blocking" else async_refuse
        with pytest.raises(ReconnectExhausted) as info:
            run(client.stats())
        assert client.redials == 2
        assert str(info.value.last_error) == "refused"

    @pytest.mark.parametrize(
        "call",
        [
            lambda client: client.query("select 1"),
            lambda client: client.stats(),
            lambda client: client.health(),
            lambda client: client.explain("select 1"),
        ],
        ids=["select", "stats", "health", "explain"],
    )
    def test_every_idempotent_read_retries(self, shell, call):
        client = make_client(shell, failures=1)
        assert run(call(client)) == "result"
        assert client.redials == 1


class TestIdempotenceGate:
    def test_only_selects_are_idempotent(self):
        assert _idempotent_read("select * from T")
        assert _idempotent_read("  SELECT 1")
        assert not _idempotent_read("insert into T values (1)")
        assert not _idempotent_read("update T set a = 1")
        assert not _idempotent_read("delete from T")
        assert not _idempotent_read("create table T (a int primary key)")

    @pytest.mark.parametrize(
        "call",
        [
            lambda client: client.query("insert into T values (1)"),
            lambda client: client.prepare("select 1"),
            lambda client: PreparedStatement(client, 1, 1, "s").execute("a"),
        ],
        ids=["write", "prepare", "execute"],
    )
    def test_writes_never_retry(self, shell, call):
        """A lost connection under a write surfaces immediately — the
        first attempt may already have been applied server-side."""
        client = make_client(shell, attempts=5, failures=1)
        with pytest.raises(ConnectionLostError) as info:
            run(call(client))
        assert not isinstance(info.value, ReconnectExhausted)
        assert client.redials == 0 and client.slept == []


class TestServerClosesUnderARead:
    """A real peer closes the first connection on the first frame of
    ``kind``: with ``reconnect=True`` both clients redial, say hello
    again, and answer."""

    @pytest.mark.parametrize("kind", ["query", "explain", "stats"])
    def test_blocking_client_redials(self, kind):
        with LoopbackPeer(drop_first(kind)) as peer:
            client = ReproClient(
                *peer.address, user="11", reconnect=True, reconnect_seed=1
            )
            try:
                answer = read(client, kind)
                assert client.reconnects == 1
                assert client.user == "11"
            finally:
                client.close()
            peer.wait_closed()
        check(kind, answer)
        assert len(peer.received) == 2

    @pytest.mark.parametrize("kind", ["query", "explain", "stats"])
    def test_async_client_redials(self, kind):
        async def scenario(address):
            client = await AsyncReproClient.connect(
                *address, user="11", reconnect=True, reconnect_seed=1
            )
            try:
                answer = await read(client, kind)
                assert client.reconnects == 1
                assert client.user == "11"
                return answer
            finally:
                await client.close()

        with LoopbackPeer(drop_first(kind)) as peer:
            answer = asyncio.run(scenario(peer.address))
            peer.wait_closed()
        check(kind, answer)
        assert len(peer.received) == 2

    @pytest.mark.parametrize("shell_name", ["blocking", "async"])
    def test_without_reconnect_the_loss_is_typed(self, shell_name):
        with LoopbackPeer(drop_first("query")) as peer:
            if shell_name == "blocking":
                client = ReproClient(*peer.address)
                with pytest.raises(ConnectionLostError):
                    client.query("select 1")
                client.close()
                assert client.reconnects == 0
            else:

                async def scenario():
                    client = await AsyncReproClient.connect(*peer.address)
                    try:
                        with pytest.raises(ConnectionLostError):
                            await client.query("select 1")
                        # the dead connection fails fast afterwards too
                        with pytest.raises(ConnectionLostError):
                            await client.stats()
                        assert client.reconnects == 0
                    finally:
                        await client.close()

                asyncio.run(scenario())
            peer.wait_closed()


def read(client, kind):
    if kind == "query":
        return client.query("select 1")
    if kind == "explain":
        return client.explain("select 1")
    return client.stats()


def check(kind, answer):
    if kind == "query":
        assert answer.rows == [(1, "a"), (2, "b")]
    elif kind == "explain":
        assert answer["rendered"] == ["validity: unconditional"]
    else:
        assert answer == {"net_queries": 1}
