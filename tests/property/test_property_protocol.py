"""Property tests for the stream readers of the wire protocol.

``read_any_frame`` (asyncio, over a ``StreamReader``) and
``read_frame_sync`` (blocking, over a ``recv(n)`` closure) are the
client-side halves of the framing.  Both must hold the invariants the
runtime leans on:

* any message survives encode -> read verbatim, and frames are
  self-delimiting: two frames back to back read as two;
* a clean EOF between frames, and a frame truncated at *any* byte, is a
  :class:`ConnectionClosed` -- never a hang or a garbage message;
* a length announcement above the 16 MiB cap is refused from the header
  alone, before a payload byte is read;
* arbitrary bytes yield a message dict or a :class:`ProtocolError`, never
  anything else, and a prefix that is not the magic cannot smuggle the
  frame behind it: it is a ``bad-magic`` error.

Both readers and :class:`FrameDecoder` share one header check and one
payload check, so a malformed frame gets the same typed
:class:`DecodeError` code from all three.
"""

import asyncio
import io
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serving.protocol import (
    MAX_FRAME_BYTES,
    ConnectionClosed,
    FrameTooLarge,
    ProtocolError,
)
from repro.serving.protocol_v2 import (
    FLAG_JSON,
    HEADER,
    MAGIC,
    DecodeError,
    FrameDecoder,
    encode_frame_v2,
    encode_reply_v2,
    encode_request_v2,
    read_any_frame,
    read_frame_sync,
)

u64 = st.integers(min_value=0, max_value=2**64 - 1)
u32 = st.integers(min_value=0, max_value=2**32 - 1)

json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-(2**53), 2**53) | st.text(max_size=20),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=10), children, max_size=4),
    max_leaves=8,
)
json_fields = st.dictionaries(
    st.text(min_size=1, max_size=10).filter(lambda k: k not in ("id", "verb", "ok")),
    json_values,
    max_size=4,
)


@st.composite
def frames(draw):
    """``(wire bytes, message)``: binary-codec and JSON requests, replies."""
    rid = draw(u64)
    kind = draw(st.sampled_from(["ping", "query", "query-batch", "json", "reply"]))
    if kind == "ping":
        message = {"id": rid, "verb": "ping"}
    elif kind == "query":
        message = {"id": rid, "verb": "query", "owner": draw(u64)}
    elif kind == "query-batch":
        message = {"id": rid, "verb": "query-batch", "owners": draw(st.lists(u64, max_size=8))}
    elif kind == "json":
        verb = draw(st.sampled_from(["stats", "reload", "search", "repl-segment"]))
        message = {"id": rid, "verb": verb, **draw(json_fields)}
    else:
        message = {
            "id": rid,
            "ok": True,
            "owner": draw(u64),
            "providers": draw(st.lists(u32, max_size=8)),
            "epoch": draw(u64),
        }
        return b"".join(encode_reply_v2("query", message)), message
    return encode_request_v2(message), message


#: four leading bytes that are not the magic, then anything
non_magic = st.binary(min_size=4, max_size=64).filter(lambda b: b[:4] != MAGIC)


class _Blocked(Exception):
    """The sync reader asked for bytes the peer has not sent (it would block)."""


def read_async(data: bytes, n_frames: int = 1, eof: bool = True) -> list:
    """``read_any_frame`` over a fed in-memory stream.  Without ``eof`` a
    read past ``data`` waits: the timeout turns that hang into a failure."""

    async def main():
        reader = asyncio.StreamReader()
        reader.feed_data(data)
        if eof:
            reader.feed_eof()
        return [await read_any_frame(reader) for _ in range(n_frames)]

    async def bounded():
        return await asyncio.wait_for(main(), timeout=5.0)

    return asyncio.run(bounded())


def read_sync(data: bytes, n_frames: int = 1, eof: bool = True) -> list:
    """``read_frame_sync`` over a ``recv`` closure with a socket's contract:
    exactly ``n`` bytes, or raise."""
    stream = io.BytesIO(data)

    def recv(n: int) -> bytes:
        chunk = stream.read(n)
        if len(chunk) < n:
            if not eof:
                raise _Blocked(f"asked for {n} bytes, {len(chunk)} sent")
            raise ConnectionClosed("peer closed the connection")
        return chunk

    return [read_frame_sync(recv) for _ in range(n_frames)]


READERS = pytest.mark.parametrize("read", [read_async, read_sync], ids=["async", "sync"])


@READERS
class TestRoundTrip:
    @given(frame=frames())
    @settings(max_examples=60, deadline=None)
    def test_encode_then_read_is_identity(self, read, frame):
        wire, message = frame
        assert read(wire) == [message]

    @given(first=frames(), second=frames())
    @settings(max_examples=30, deadline=None)
    def test_frames_are_self_delimiting(self, read, first, second):
        assert read(first[0] + second[0], n_frames=2) == [first[1], second[1]]


@READERS
class TestTruncation:
    @given(frame=frames(), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_any_truncation_is_connection_closed(self, read, frame, data):
        wire, _ = frame
        cut = data.draw(st.integers(min_value=0, max_value=len(wire) - 1))
        with pytest.raises(ConnectionClosed):
            read(wire[:cut])

    def test_clean_eof_between_frames(self, read):
        with pytest.raises(ConnectionClosed):
            read(b"")
        with pytest.raises(ConnectionClosed):
            read(encode_frame_v2("ping", 1), n_frames=2)


@READERS
class TestOversize:
    @given(length=st.integers(MAX_FRAME_BYTES + 1, 2**32 - 1), rid=u64)
    @settings(max_examples=30, deadline=None)
    def test_announced_oversize_refused_before_allocation(self, read, length, rid):
        header = HEADER.pack(MAGIC, 2, 4, 0, rid, length, 0)
        # No payload bytes follow and the stream stays open: the cap must
        # trip on the header alone.
        with pytest.raises(DecodeError) as err:
            read(header, eof=False)
        assert err.value.code == "frame-too-large"

    def test_exactly_at_cap_is_announced_ok(self, read):
        # The header check passes; the frame then fails as truncated (the
        # payload is never fed).
        with pytest.raises(ConnectionClosed):
            read(HEADER.pack(MAGIC, 2, 4, 0, 1, MAX_FRAME_BYTES, 0))


def test_encode_refuses_oversized_payload():
    with pytest.raises(FrameTooLarge):
        encode_frame_v2("stats", 1, {"blob": "x" * MAX_FRAME_BYTES})


@READERS
class TestGarbage:
    @given(
        garbage=st.binary(max_size=200)
        | st.binary(max_size=200).map(lambda b: MAGIC + b"\x02" + b)
    )
    @settings(max_examples=80, deadline=None)
    def test_garbage_body_never_yields_a_non_dict(self, read, garbage):
        try:
            (result,) = read(garbage)
        except ProtocolError:
            return  # rejected cleanly (ConnectionClosed and DecodeError included)
        assert isinstance(result, dict)

    @given(prefix=non_magic, frame=frames())
    @settings(max_examples=40, deadline=None)
    def test_garbage_prefix_cannot_smuggle_a_frame(self, read, prefix, frame):
        with pytest.raises(DecodeError) as err:
            read(prefix + frame[0])
        assert err.value.code == "bad-magic"


@given(prefix=non_magic, frame=frames())
@settings(max_examples=40, deadline=None)
def test_decoder_refuses_a_non_magic_prefix_from_four_bytes(prefix, frame):
    decoder = FrameDecoder()
    # Refused without waiting for a whole header...
    assert decoder.feed(prefix[:4]) == []
    assert decoder.error is not None and decoder.error.code == "bad-magic"
    # ...and poisoned: nothing after it decodes.
    assert decoder.feed(prefix[4:] + frame[0]) == []


def malformed(code: str) -> bytes:
    """One frame that fails with ``code``."""
    frame = bytearray(encode_frame_v2("query", 5, {"owner": 9}))
    if code == "bad-magic":
        frame[:4] = b"\x00\x00\x00\x10"
    elif code == "bad-version":
        frame[4] = 3
    elif code == "frame-too-large":
        return HEADER.pack(MAGIC, 2, 4, 0, 5, MAX_FRAME_BYTES + 1, 0)
    elif code == "bad-crc":
        frame[-1] ^= 0x01
    elif code == "bad-payload":
        payload = b"[1, 2]"  # JSON, but not an object
        return HEADER.pack(MAGIC, 2, 0, FLAG_JSON, 5, len(payload), zlib.crc32(payload)) + payload
    return bytes(frame)


def decode_with_feed(data: bytes) -> None:
    decoder = FrameDecoder()
    assert decoder.feed(data) == []
    raise decoder.error


@pytest.mark.parametrize(
    "code", ["bad-magic", "bad-version", "frame-too-large", "bad-crc", "bad-payload"]
)
@pytest.mark.parametrize(
    "decode", [decode_with_feed, read_async, read_sync], ids=["decoder", "async", "sync"]
)
def test_every_decoding_path_raises_the_same_typed_error(decode, code):
    with pytest.raises(DecodeError) as err:
        decode(malformed(code))
    assert err.value.code == code
