"""Wire protocol of the network front end.

Framing
-------
Every protocol message is one *frame*: a 4-byte big-endian unsigned
length prefix followed by that many bytes of UTF-8 JSON encoding a
single object.  Both sides enforce a maximum frame size — an incoming
length beyond the limit is a :class:`~repro.errors.FrameTooLarge`
protocol violation and closes the connection *before* any payload is
buffered, so a hostile peer cannot make the server allocate an
unbounded buffer.

Large results never need large frames: the server chunks result rows
into as many ``row_batch`` frames as needed
(:func:`iter_result_frames`), each guaranteed to encode within the
limit, and finishes with one ``result`` frame carrying the metadata.

Message flow
------------
Client → server::

    {"type": "hello", "user": ..., "mode": ..., "params": {...}}
    {"type": "query", "id": n, "sql": ..., "deadline": ..., ...}
    {"type": "prepare", "id": n, "sql": ..., "mode": ...}
    {"type": "execute", "id": n, "statement": s, "args": [...], ...}
    {"type": "cancel", "id": n}
    {"type": "stats", "id": n}
    {"type": "health", "id": n}
    {"type": "explain", "id": n, "sql": ..., "mode": ...}
    {"type": "goodbye"}

Server → client::

    {"type": "welcome", "protocol": 1, "server": ..., "session": ...,
     "topology": [{"name": ..., "state": ..., "quarantined": ...}, ...]}
    {"type": "prepared", "id": n, "statement": s, "params": k,
     "signature": ...}
    {"type": "row_batch", "id": n, "seq": k, "rows": [[...], ...]}
    {"type": "result", "id": n, "status": "ok", "columns": [...], ...}
    {"type": "error", "id": n, "code": ..., "message": ..., ...}
    {"type": "stats", "id": n, "stats": {...}}
    {"type": "health", "id": n, "health": {...} | null}
    {"type": "explain", "id": n, "report": {...}, "rendered": [...]}
    {"type": "goodbye"}

Against a cluster deployment the ``welcome`` frame carries a
``topology`` list reflecting *live* replica health — one entry per
replica with its lifecycle state, a ``quarantined`` flag, lag, and
observed policy epoch — and the ``health`` request polls the same
report on demand (``health`` is ``null`` against a single-node
server).  See :mod:`repro.cluster.health` for the state machine.

``explain`` runs the Non-Truman validity check *without executing the
query*, through the gateway (its read lock and default deadline: a
check past the deadline answers a ``timeout`` error), and answers the
full decision trace
(:mod:`repro.rebac.trace`): validity, reason, inference rules fired,
views used, and — when the database carries a compiled ReBAC policy —
the relationship-tuple chains that justify (or fail to justify) the
access.  ``report`` is the structured
:meth:`~repro.rebac.trace.ExplainReport.as_dict` shape; ``rendered``
is the same report as display lines, identical to what the local
shell's ``\\explain`` prints.

Prepared statements (paper §5.6): ``prepare`` parses and
literal-strips the query once, server-side, and answers a ``prepared``
frame naming the per-session statement handle and its parameter count
(one ``$_litN`` placeholder per stripped literal, in query order).
``execute`` binds positional ``args`` to those placeholders and runs
through the gateway's template cache — no parse on the hot path.
Responses to ``execute`` are ordinary ``row_batch``/``result``/
``error`` frames.  Plain repeated ``query`` frames get the same
template treatment transparently; ``prepare`` just pins the handle
and skips even the text-cache lookup.

Typed errors
------------
Error frames carry a ``code`` that mirrors the gateway's typed failure
modes; :func:`error_for_code` maps a code back to the exception class
clients of the in-process gateway already handle (``timeout`` →
:class:`~repro.errors.QueryTimeout`, ``overloaded`` →
:class:`~repro.errors.ServiceOverloaded`, ``rejected`` →
:class:`~repro.errors.QueryRejectedError`, ...), so switching an
application from the library to the wire changes *how* it connects,
not *what* it catches.
"""

from __future__ import annotations

import json
import struct
from typing import Iterable, Iterator, Optional, Sequence

from repro.errors import (
    AccessControlError,
    FrameTooLarge,
    ProtocolError,
    QueryCancelled,
    QueryRejectedError,
    QueryTimeout,
    ReproError,
    ResourceBudgetExceeded,
    ServiceDegraded,
    ServiceOverloaded,
    ServiceShutdown,
)

#: protocol revision announced in hello/welcome; bumped on breaking change
PROTOCOL_VERSION = 1

#: length prefix: 4-byte big-endian unsigned
HEADER = struct.Struct(">I")

#: default maximum encoded frame size (length prefix excluded)
DEFAULT_MAX_FRAME = 1 << 20  # 1 MiB

#: default row count the server *aims* for per row_batch frame; the
#: byte-size guard in :func:`iter_result_frames` always wins
DEFAULT_ROWS_PER_FRAME = 1024


# -- typed error codes ----------------------------------------------------

#: wire code → exception class raised client-side
ERROR_CLASSES = {
    "timeout": QueryTimeout,
    "cancelled": QueryCancelled,
    "overloaded": ServiceOverloaded,
    "rejected": QueryRejectedError,
    "budget": ResourceBudgetExceeded,
    "degraded": ServiceDegraded,
    "shutdown": ServiceShutdown,
    "auth": AccessControlError,
    "protocol": ProtocolError,
    "error": ReproError,
}


def error_for_code(
    code: str, message: str, decision: Optional[dict] = None
) -> ReproError:
    """Instantiate the typed exception a wire error code stands for."""
    cls = ERROR_CLASSES.get(code, ReproError)
    if cls is QueryRejectedError:
        return QueryRejectedError(message, decision=decision)
    return cls(message)


def code_for_status(status: str) -> str:
    """Wire error code for a non-OK gateway RequestStatus value."""
    return {
        "timeout": "timeout",
        "cancelled": "cancelled",
        "rejected": "rejected",
        "degraded": "degraded",
        "error": "error",
    }.get(status, "error")


# -- frame encode / decode ------------------------------------------------


#: one encoder for every payload: ``json.dumps`` with non-default
#: arguments builds a new encoder per call
_ENCODER = json.JSONEncoder(separators=(",", ":"), ensure_ascii=False)


def encode_payload(message: dict) -> bytes:
    """JSON-encode one message (compact separators, UTF-8)."""
    try:
        return _ENCODER.encode(message).encode("utf-8")
    except (TypeError, ValueError) as exc:
        raise ProtocolError(f"message is not JSON-serializable: {exc}") from None


def encode_frame(message: dict, max_frame_size: int = DEFAULT_MAX_FRAME) -> bytes:
    """Length-prefixed frame for ``message``; enforces the size guard."""
    payload = encode_payload(message)
    if len(payload) > max_frame_size:
        raise FrameTooLarge(
            f"encoded frame of {len(payload)} bytes exceeds the "
            f"{max_frame_size}-byte limit"
        )
    return HEADER.pack(len(payload)) + payload


def decode_payload(payload: bytes) -> dict:
    """Decode one frame payload; must be a JSON object."""
    try:
        message = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"frame is not valid JSON: {exc}") from None
    if not isinstance(message, dict):
        raise ProtocolError(
            f"frame must encode a JSON object, got {type(message).__name__}"
        )
    return message


class FrameDecoder:
    """Incremental frame decoder for a byte stream.

    Feed it whatever chunks the transport hands you; it yields complete
    decoded messages and raises :class:`FrameTooLarge` as soon as a
    header announces an oversized frame (without buffering the body).
    """

    def __init__(self, max_frame_size: int = DEFAULT_MAX_FRAME):
        self.max_frame_size = max_frame_size
        self._buffer = bytearray()

    def feed(self, data: bytes) -> Iterator[dict]:
        self._buffer.extend(data)
        while True:
            if len(self._buffer) < HEADER.size:
                return
            (length,) = HEADER.unpack_from(self._buffer)
            if length > self.max_frame_size:
                raise FrameTooLarge(
                    f"incoming frame of {length} bytes exceeds the "
                    f"{self.max_frame_size}-byte limit"
                )
            if len(self._buffer) < HEADER.size + length:
                return
            payload = bytes(self._buffer[HEADER.size : HEADER.size + length])
            del self._buffer[: HEADER.size + length]
            yield decode_payload(payload)

    @property
    def pending_bytes(self) -> int:
        return len(self._buffer)


# -- result streaming ------------------------------------------------------


def iter_result_frames(
    request_id: int,
    rows: Sequence[tuple],
    max_frame_size: int = DEFAULT_MAX_FRAME,
    rows_per_frame: int = DEFAULT_ROWS_PER_FRAME,
) -> Iterator[dict]:
    """Chunk result rows into ``row_batch`` messages.

    Every yielded message is guaranteed to encode within
    ``max_frame_size``: rows are accumulated by their *exact* encoded
    size (the JSON of a batch is the concatenation of its row encodings
    plus fixed framing), flushing whenever the next row would overflow
    the budget or the batch reaches ``rows_per_frame`` rows.  A single
    row that cannot fit in a frame by itself raises
    :class:`FrameTooLarge` — the caller answers a typed error instead
    of shipping an unframeable payload.

    Yields nothing for an empty result; the terminal ``result`` frame
    (built by the server) carries the column names either way.
    """
    # byte budget for the joined row encodings inside this envelope
    envelope = encode_payload(
        {"type": "row_batch", "id": request_id, "seq": 0, "rows": []}
    )
    # seq may grow to several digits; reserve a little slack for it
    budget = max_frame_size - len(envelope) - 16
    if budget <= 0:
        raise FrameTooLarge(
            f"max_frame_size of {max_frame_size} bytes cannot fit even an "
            "empty row_batch envelope"
        )
    seq = 0
    batch: list[tuple] = []
    batch_bytes = 0
    for row in rows:
        encoded = len(encode_payload(row))  # a tuple encodes as a list
        if encoded > budget:
            raise FrameTooLarge(
                f"a single result row encodes to {encoded} bytes, beyond "
                f"the {max_frame_size}-byte frame limit"
            )
        # +1 for the comma joining it to the previous row
        if batch and (
            batch_bytes + 1 + encoded > budget or len(batch) >= rows_per_frame
        ):
            yield {
                "type": "row_batch",
                "id": request_id,
                "seq": seq,
                "rows": [list(r) for r in batch],
            }
            seq += 1
            batch = []
            batch_bytes = 0
        batch.append(row)
        batch_bytes += encoded + (1 if batch_bytes else 0)
    if batch:
        yield {
            "type": "row_batch",
            "id": request_id,
            "seq": seq,
            "rows": [list(r) for r in batch],
        }


# -- decision serialization ------------------------------------------------


def decision_to_wire(decision) -> Optional[dict]:
    """JSON shape of a ValidityDecision (trace and provenance kept)."""
    if decision is None:
        return None
    return {
        "validity": decision.validity.value,
        "reason": decision.reason,
        "rules": [step.rule for step in decision.trace],
        "views_used": list(decision.views_used),
        "probes_executed": decision.probes_executed,
        "from_cache": decision.from_cache,
    }


def sanitize_stats(stats: dict) -> dict:
    """Stats snapshot with every value coerced to a JSON-safe scalar."""
    out: dict[str, object] = {}
    for key, value in stats.items():
        if isinstance(value, (int, float, str, bool)) or value is None:
            out[key] = value
        else:
            out[key] = str(value)
    return out


def rows_to_tuples(rows: Iterable[Sequence]) -> list[tuple]:
    """Wire rows (JSON arrays) back to the engine's tuple shape."""
    return [tuple(row) for row in rows]
