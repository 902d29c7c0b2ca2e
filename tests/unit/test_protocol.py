"""Unit tests for the wire protocol: framing, chunking, error codes."""

import json
import math
import random

import pytest

from repro.net import protocol

from repro.errors import (
    FrameTooLarge,
    ProtocolError,
    QueryCancelled,
    QueryRejectedError,
    QueryTimeout,
    ReproError,
    ServiceDegraded,
    ServiceOverloaded,
)
from repro.net.protocol import (
    DEFAULT_MAX_FRAME,
    FrameDecoder,
    HEADER,
    code_for_status,
    decode_payload,
    encode_frame,
    encode_payload,
    error_for_code,
    iter_result_frames,
    rows_to_tuples,
    sanitize_stats,
)


class TestFraming:
    def test_round_trip(self):
        message = {"type": "query", "id": 7, "sql": "select 1", "x": None}
        frame = encode_frame(message)
        (length,) = HEADER.unpack(frame[: HEADER.size])
        assert length == len(frame) - HEADER.size
        assert decode_payload(frame[HEADER.size:]) == message

    def test_unicode_survives(self):
        message = {"type": "query", "sql": "select 'héllo — ünïcode'"}
        frame = encode_frame(message)
        assert decode_payload(frame[HEADER.size:]) == message

    def test_oversized_frame_refused_on_encode(self):
        with pytest.raises(FrameTooLarge):
            encode_frame({"rows": "x" * 256}, max_frame_size=64)

    def test_unserializable_message(self):
        with pytest.raises(ProtocolError):
            encode_payload({"bad": object()})

    def test_decode_rejects_non_object(self):
        with pytest.raises(ProtocolError):
            decode_payload(b"[1, 2, 3]")

    def test_decode_rejects_garbage(self):
        with pytest.raises(ProtocolError):
            decode_payload(b"\xff\xfe not json")


class TestFrameDecoder:
    def test_single_frame(self):
        decoder = FrameDecoder()
        messages = list(decoder.feed(encode_frame({"type": "a"})))
        assert messages == [{"type": "a"}]
        assert decoder.pending_bytes == 0

    def test_byte_at_a_time(self):
        decoder = FrameDecoder()
        frame = encode_frame({"type": "slow", "n": 42})
        seen = []
        for index in range(len(frame)):
            seen.extend(decoder.feed(frame[index : index + 1]))
        assert seen == [{"type": "slow", "n": 42}]

    def test_multiple_frames_one_chunk(self):
        decoder = FrameDecoder()
        chunk = encode_frame({"i": 1}) + encode_frame({"i": 2}) + encode_frame({"i": 3})
        assert [m["i"] for m in decoder.feed(chunk)] == [1, 2, 3]

    def test_partial_then_rest(self):
        decoder = FrameDecoder()
        frame = encode_frame({"type": "x"})
        assert list(decoder.feed(frame[:3])) == []
        assert decoder.pending_bytes == 3
        assert list(decoder.feed(frame[3:])) == [{"type": "x"}]

    def test_oversized_header_raises_before_body(self):
        decoder = FrameDecoder(max_frame_size=128)
        # announce a 1 GiB frame: must refuse on the header alone
        with pytest.raises(FrameTooLarge):
            list(decoder.feed(HEADER.pack(1 << 30)))


class TestResultChunking:
    def frames_for(self, rows, max_frame_size, **kwargs):
        frames = list(
            iter_result_frames(1, rows, max_frame_size=max_frame_size, **kwargs)
        )
        # every frame must actually encode under the limit: the guard
        # is exact, not an estimate
        for frame in frames:
            assert len(encode_payload(frame)) <= max_frame_size
        return frames

    def test_empty_result_yields_no_frames(self):
        assert self.frames_for([], 1024) == []

    def test_small_result_single_frame(self):
        rows = [(i, "name") for i in range(10)]
        frames = self.frames_for(rows, 64 * 1024)
        assert len(frames) == 1
        assert frames[0]["seq"] == 0
        assert rows_to_tuples(frames[0]["rows"]) == rows

    def test_rows_split_by_byte_budget(self):
        rows = [(i, "x" * 50) for i in range(100)]
        frames = self.frames_for(rows, 1024)
        assert len(frames) > 1
        reassembled = [
            row for frame in frames for row in rows_to_tuples(frame["rows"])
        ]
        assert reassembled == rows
        assert [frame["seq"] for frame in frames] == list(range(len(frames)))

    def test_rows_split_by_row_count(self):
        rows = [(i,) for i in range(2500)]
        frames = self.frames_for(rows, DEFAULT_MAX_FRAME, rows_per_frame=1000)
        assert [len(f["rows"]) for f in frames] == [1000, 1000, 500]

    def test_single_unframeable_row_raises(self):
        rows = [("x" * 4096,)]
        with pytest.raises(FrameTooLarge):
            list(iter_result_frames(1, rows, max_frame_size=512))

    def test_tiny_max_frame_rejected(self):
        with pytest.raises(FrameTooLarge):
            list(iter_result_frames(1, [(1,)], max_frame_size=16))

    def test_order_preserved_with_mixed_row_sizes(self):
        rows = [(i, "y" * (i % 97)) for i in range(500)]
        frames = self.frames_for(rows, 2048)
        reassembled = [
            row for frame in frames for row in rows_to_tuples(frame["rows"])
        ]
        assert reassembled == rows


def reference_frames(request_id, rows, max_frame_size, rows_per_frame):
    """The row-by-row chunker: sizes every row by encoding it alone,
    then encodes each frame again.  ``iter_result_frames`` must yield
    the same bytes, and fail at the same row with the same error."""
    envelope = encode_payload(
        {"type": "row_batch", "id": request_id, "seq": 0, "rows": []}
    )
    budget = max_frame_size - len(envelope) - 16
    if budget <= 0:
        raise FrameTooLarge(
            f"max_frame_size of {max_frame_size} bytes cannot fit even an "
            "empty row_batch envelope"
        )
    seq = 0
    batch = []
    batch_bytes = 0
    for row in rows:
        encoded = len(encode_payload(row))
        if encoded > budget:
            raise FrameTooLarge(
                f"a single result row encodes to {encoded} bytes, beyond "
                f"the {max_frame_size}-byte frame limit"
            )
        if batch and (
            batch_bytes + 1 + encoded > budget or len(batch) >= rows_per_frame
        ):
            yield {"type": "row_batch", "id": request_id, "seq": seq,
                   "rows": [list(r) for r in batch]}
            seq += 1
            batch = []
            batch_bytes = 0
        batch.append(row)
        batch_bytes += encoded + (1 if batch_bytes else 0)
    if batch:
        yield {"type": "row_batch", "id": request_id, "seq": seq,
               "rows": [list(r) for r in batch]}


def outcome(frames):
    """(payloads yielded, error raised) of a frame generator."""
    payloads = []
    try:
        for frame in frames:
            payloads.append(encode_payload(frame))
    except ProtocolError as exc:
        return payloads, (type(exc), str(exc))
    return payloads, None


_SCALARS = (
    lambda rng: None,
    lambda rng: rng.random() < 0.5,
    lambda rng: rng.randint(-10**6, 10**6),
    lambda rng: rng.randint(-10**30, 10**30),
    lambda rng: rng.uniform(-1e6, 1e6),
    lambda rng: rng.choice([math.nan, math.inf, -math.inf, 0.0, -0.0, 1e-300]),
    lambda rng: "".join(
        rng.choice("ab \"\\\n\u00e9\u2014\U0001f600\x00")
        for _ in range(rng.randint(0, 40))
    ),
    lambda rng: "w" * rng.choice([0, 10, 200, 3000]),
)


class TestSinglePassEncoding:
    @pytest.mark.parametrize("seed", range(200))
    def test_matches_reference_encoder(self, seed):
        rng = random.Random(seed)
        width = rng.randint(1, 4)
        rows = [
            tuple(rng.choice(_SCALARS)(rng) for _ in range(width))
            for _ in range(rng.choice([0, 1, 5, 60, 400]))
        ]
        if rows and rng.random() < 0.1:
            # a value JSON cannot encode, somewhere in the result
            at = rng.randrange(len(rows))
            rows[at] = (object(),) + rows[at][1:]
        # from the smallest frame that fits an envelope up to 1 MiB
        max_frame_size = int(62 * (DEFAULT_MAX_FRAME / 62) ** rng.random())
        rows_per_frame = rng.choice([1, 2, 3, 7, 64, 1000, 1024])
        request_id = rng.choice([1, 7, 123456])
        args = (request_id, rows, max_frame_size, rows_per_frame)
        assert outcome(iter_result_frames(*args)) == outcome(
            reference_frames(*args)
        )
        start = 0
        for frame in _until_error(iter_result_frames(*args)):
            # the row tuples themselves, in order (NaN compares by identity)
            assert all(
                a is b for a, b in zip(frame["rows"], rows[start:])
            )
            start += len(frame["rows"])
            assert len(frame.payload) <= max_frame_size

    def test_smallest_frame_size(self):
        envelope = len(encode_payload(
            {"type": "row_batch", "id": 1, "seq": 0, "rows": []}
        ))
        with pytest.raises(FrameTooLarge, match="empty row_batch envelope"):
            list(iter_result_frames(1, [(1,)], max_frame_size=envelope + 16))
        with pytest.raises(FrameTooLarge, match="single result row"):
            list(iter_result_frames(1, [(1,)], max_frame_size=envelope + 18))
        # "[1]" is 3 bytes
        frames = list(iter_result_frames(1, [(1,)], max_frame_size=envelope + 19))
        assert [f["rows"] for f in frames] == [[(1,)]]

    def test_rows_read_back_as_tuples(self):
        rows = [(1, "a"), (2, None), (3, 1.5)]
        (frame,) = iter_result_frames(9, rows)
        assert frame["rows"] == rows
        assert frame == {"type": "row_batch", "id": 9, "seq": 0, "rows": rows}

    def test_one_encoder_call_per_frame(self, monkeypatch):
        rows = [(i, "name", i * 0.5) for i in range(2500)]
        counting = _CountingEncoder()
        monkeypatch.setattr(protocol, "_ENCODER", counting)
        frames = list(iter_result_frames(1, rows, rows_per_frame=1000))
        # the envelope, the request id, the first row alone, then one
        # call per frame
        assert len(frames) == 3
        assert counting.calls == 3 + 3
        assert counting.rows == 1 + len(rows)

    @pytest.mark.parametrize(
        "widths",
        [
            [5000] * 300,
            # narrow stretches that fill frames by count, then wide ones
            ([10] * 1500 + [5000] * 150) * 3,
            [5000, 10] * 400,
        ],
        ids=["wide", "narrow-then-wide", "alternating"],
    )
    def test_wide_rows_encode_at_most_twice(self, widths, monkeypatch):
        rows = [(i, "w" * width) for i, width in enumerate(widths)]
        args = (1, rows, 64 * 1024, 1024)
        expected = outcome(reference_frames(*args))
        counting = _CountingEncoder()
        monkeypatch.setattr(protocol, "_ENCODER", counting)
        frames = list(iter_result_frames(*args))
        assert counting.rows <= 2 * len(rows)
        assert len(frames) > 1
        assert outcome(frames) == expected

    def test_encode_frame_reuses_the_payload(self, monkeypatch):
        rows = [(i, "x" * (i % 50)) for i in range(300)]
        frames = list(iter_result_frames(1, rows, max_frame_size=2048))
        assert len(frames) > 1
        expected = [
            HEADER.pack(len(payload)) + payload
            for payload in outcome(reference_frames(1, rows, 2048, 1024))[0]
        ]
        counting = _CountingEncoder()
        monkeypatch.setattr(protocol, "_ENCODER", counting)
        assert [encode_frame(frame, 2048) for frame in frames] == expected
        assert counting.calls == 0


def _until_error(frames):
    try:
        yield from frames
    except ProtocolError:
        return


class _CountingEncoder:
    """Counts encoder calls, and the result rows those calls encode (a
    list is a run of rows, a tuple one row)."""

    def __init__(self):
        self.calls = 0
        self.rows = 0
        self.encoder = json.JSONEncoder(separators=(",", ":"), ensure_ascii=False)

    def encode(self, value):
        self.calls += 1
        if isinstance(value, list):
            self.rows += len(value)
        elif isinstance(value, tuple):
            self.rows += 1
        return self.encoder.encode(value)


class TestErrorCodes:
    @pytest.mark.parametrize(
        "code,cls",
        [
            ("timeout", QueryTimeout),
            ("cancelled", QueryCancelled),
            ("overloaded", ServiceOverloaded),
            ("rejected", QueryRejectedError),
            ("degraded", ServiceDegraded),
            ("protocol", ProtocolError),
            ("error", ReproError),
            ("never-seen-code", ReproError),
        ],
    )
    def test_error_for_code(self, code, cls):
        exc = error_for_code(code, "boom")
        assert isinstance(exc, cls)
        assert "boom" in str(exc)

    def test_rejected_carries_decision(self):
        decision = {"validity": "invalid", "reason": "nope"}
        exc = error_for_code("rejected", "denied", decision=decision)
        assert isinstance(exc, QueryRejectedError)
        assert exc.decision == decision

    def test_code_for_status_mapping(self):
        assert code_for_status("timeout") == "timeout"
        assert code_for_status("cancelled") == "cancelled"
        assert code_for_status("rejected") == "rejected"
        assert code_for_status("degraded") == "degraded"
        assert code_for_status("anything-else") == "error"


class TestSanitizeStats:
    def test_scalars_kept_objects_stringified(self):
        class Weird:
            def __str__(self):
                return "weird"

        stats = sanitize_stats(
            {"a": 1, "b": 2.5, "c": "x", "d": None, "e": True, "f": Weird()}
        )
        assert stats["a"] == 1 and stats["b"] == 2.5 and stats["e"] is True
        assert stats["f"] == "weird"
        json.dumps(stats)  # must be JSON-safe as a whole
