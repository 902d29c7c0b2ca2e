"""A scripted loopback server for client tests, and the pinned session.

:class:`LoopbackPeer` records every byte a client sends, per
connection, and answers each frame through an ``answer`` function —
:func:`scripted_answer` plays a well-behaved server; returning ``None``
closes that connection instead of answering.

:func:`blocking_session` / :func:`async_session` drive the same
scripted session (hello, a query with every option, prepare, execute,
explain, stats, health, cancel, goodbye) through each client.
``tests/data/client_wire_session.jsonl`` holds the frames that session
sends, one JSON payload per line; to record it again from the checked
out client, run ``PYTHONPATH=src python -m tests.unit.loopback_peer``
from the repository root.
"""

from __future__ import annotations

import asyncio
import socket
import threading
from pathlib import Path
from typing import Callable, Optional

from repro.net import AsyncReproClient, ReproClient
from repro.net.protocol import HEADER, FrameDecoder, encode_frame

WIRE_FIXTURE = (
    Path(__file__).resolve().parent.parent / "data" / "client_wire_session.jsonl"
)

SQL = "select grade from Grades where student_id = '11'"


def scripted_answer(connection: int, message: dict) -> Optional[list[dict]]:
    """A well-behaved server's frames in reply to one client frame."""
    kind, request_id = message.get("type"), message.get("id")
    if kind == "hello":
        return [
            {
                "type": "welcome",
                "protocol": 1,
                "server": "loopback",
                "session": connection,
                "user": message.get("user"),
                "mode": message.get("mode"),
            }
        ]
    if kind in ("query", "execute"):
        return [
            {"type": "row_batch", "id": request_id, "seq": 0, "rows": [[1, "a"]]},
            {"type": "row_batch", "id": request_id, "seq": 1, "rows": [[2, "b"]]},
            {
                "type": "result",
                "id": request_id,
                "status": "ok",
                "columns": ["n", "s"],
                "row_frames": 2,
            },
        ]
    if kind == "prepare":
        return [
            {
                "type": "prepared",
                "id": request_id,
                "statement": 7,
                "params": 2,
                "signature": "select grade from Grades where student_id = $_lit1",
            }
        ]
    if kind == "explain":
        return [
            {
                "type": "explain",
                "id": request_id,
                "report": {"validity": "unconditional"},
                "rendered": ["validity: unconditional"],
            }
        ]
    if kind == "stats":
        return [{"type": "stats", "id": request_id, "stats": {"net_queries": 1}}]
    if kind == "health":
        return [{"type": "health", "id": request_id, "health": None}]
    if kind == "goodbye":
        return [{"type": "goodbye"}]
    return []  # cancel: no answer


def drop_first(kind: str) -> Callable[[int, dict], Optional[list[dict]]]:
    """Answer like :func:`scripted_answer`, except that the first
    connection closes on its first ``kind`` frame."""

    def answer(connection: int, message: dict) -> Optional[list[dict]]:
        if connection == 1 and message.get("type") == kind:
            return None
        return scripted_answer(connection, message)

    return answer


class LoopbackPeer:
    """A threaded server on 127.0.0.1 answering through ``answer``."""

    def __init__(self, answer=scripted_answer):
        self.answer = answer
        #: connection number (from 1) -> every byte the client sent on it
        self.received: dict[int, bytearray] = {}
        self._listener = socket.create_server(("127.0.0.1", 0))
        self.address = self._listener.getsockname()[:2]
        self._sessions: list[threading.Thread] = []
        self._acceptor = threading.Thread(target=self._accept, daemon=True)
        self._acceptor.start()

    def _accept(self) -> None:
        while True:
            try:
                conn, _ = self._listener.accept()
            except OSError:
                return  # listener closed
            index = len(self.received) + 1
            self.received[index] = bytearray()
            thread = threading.Thread(
                target=self._serve, args=(conn, index), daemon=True
            )
            self._sessions.append(thread)
            thread.start()

    def _serve(self, conn: socket.socket, index: int) -> None:
        decoder = FrameDecoder()
        with conn:
            while True:
                try:
                    data = conn.recv(65536)
                except OSError:
                    return
                if not data:
                    return
                self.received[index] += data
                for message in decoder.feed(data):
                    replies = self.answer(index, message)
                    if replies is None:
                        return
                    try:
                        for reply in replies:
                            conn.sendall(encode_frame(reply))
                    except OSError:
                        return

    def wait_closed(self, timeout: float = 10.0) -> None:
        """Wait until the client has closed every connection so far."""
        for thread in list(self._sessions):
            thread.join(timeout)
            assert not thread.is_alive(), "a connection is still open"

    def close(self) -> None:
        # shutdown wakes the blocked accept(); close alone does not
        self._listener.shutdown(socket.SHUT_RDWR)
        self._listener.close()
        self._acceptor.join(10.0)
        assert not self._acceptor.is_alive()

    def __enter__(self) -> "LoopbackPeer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


QUERY_OPTIONS = dict(
    memory_budget=1000, tag="q", mode="open", row_budget=10,
    engine="row", deadline=1.5,
)  # fmt: skip
EXECUTE_OPTIONS = dict(
    deadline=2, engine="vectorized", row_budget=5, tag="x",
    mode="non-truman", memory_budget=500,
)  # fmt: skip


def blocking_session(address) -> None:
    """The pinned session through :class:`ReproClient`."""
    with ReproClient(
        *address, user="11", mode="truman", params={"time": 5}
    ) as client:
        client.query("select 1", **QUERY_OPTIONS)
        statement = client.prepare(SQL)
        statement.execute("11", 3.5, **EXECUTE_OPTIONS)
        client.explain(SQL, mode="non-truman")
        client.stats()
        client.health()
        client.cancel(1)


async def async_session(address) -> None:
    """The pinned session through :class:`AsyncReproClient`."""
    client = await AsyncReproClient.connect(
        *address, user="11", mode="truman", params={"time": 5}
    )
    try:
        await client.query("select 1", **QUERY_OPTIONS)
        statement = await client.prepare(SQL)
        await statement.execute("11", 3.5, **EXECUTE_OPTIONS)
        await client.explain(SQL, mode="non-truman")
        await client.stats()
        await client.health()
        await client.cancel(1)
    finally:
        await client.close()


def record(session) -> bytes:
    """Every byte ``session`` sends to a scripted peer."""
    with LoopbackPeer() as peer:
        outcome = session(peer.address)
        if asyncio.iscoroutine(outcome):
            asyncio.run(outcome)
        peer.wait_closed()
        return bytes(peer.received[1])


def split_frames(data: bytes) -> list[bytes]:
    """The payloads of a byte stream of frames, in order."""
    payloads = []
    while data:
        (length,) = HEADER.unpack_from(data)
        payloads.append(data[HEADER.size : HEADER.size + length])
        data = data[HEADER.size + length :]
    return payloads


if __name__ == "__main__":
    frames = split_frames(record(blocking_session))
    WIRE_FIXTURE.write_text("".join(f"{p.decode()}\n" for p in frames))
    print(f"wrote {len(frames)} frames to {WIRE_FIXTURE}")
