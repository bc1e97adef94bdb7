"""Property suite: wire protocol v2 is a lossless, fault-tight codec.

Four invariants, over arbitrary messages and arbitrary byte streams:

* **identity** -- encode -> decode is the identity for every verb, both
  the packed binary forms (ping/query/query-batch) and the JSON fallback
  (operational verbs, extension verbs, unexpressible field values);
* **framing** -- decoding is invariant under how TCP chunks the stream:
  one feed, byte-at-a-time, or arbitrary split points all yield the same
  frame sequence, and a truncated frame is "not yet", never an error;
* **integrity** -- any single corrupted payload byte is caught by the
  crc32 (no silently wrong message ever comes out);
* **robustness** -- ``FrameDecoder.feed`` never raises, whatever bytes
  arrive, and an oversized length announcement is refused from the header
  alone.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serving.protocol import MAX_FRAME_BYTES
from repro.serving.protocol_v2 import (
    HEADER,
    MAGIC,
    FrameDecoder,
    encode_reply_v2,
    encode_request_v2,
)

u64 = st.integers(min_value=0, max_value=2**64 - 1)
u32 = st.integers(min_value=0, max_value=2**32 - 1)

#: JSON-safe field values (the payload universe of the operational verbs)
json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-(2**53), 2**53) | st.text(max_size=20),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=10), children, max_size=4),
    max_leaves=8,
)

#: field names that never collide with the envelope keys
field_names = st.text(min_size=1, max_size=12).filter(
    lambda k: k not in ("id", "verb", "ok")
)
json_fields = st.dictionaries(field_names, json_values, max_size=4)

verb_names = st.sampled_from(
    ["ping", "stats", "info", "query", "query-batch", "reload", "search"]
) | st.text(min_size=1, max_size=16).filter(lambda v: v not in ("",))


@st.composite
def request_messages(draw):
    """Arbitrary v1-shaped requests: binary-codec verbs and JSON ones."""
    rid = draw(u64)
    kind = draw(st.sampled_from(["ping", "query", "query-batch", "json", "ext"]))
    if kind == "ping":
        return {"id": rid, "verb": "ping"}
    if kind == "query":
        # u64 owners pack; anything else (strings, negatives) rides JSON.
        owner = draw(u64 | st.integers(-100, -1) | st.text(max_size=8))
        return {"id": rid, "verb": "query", "owner": owner}
    if kind == "query-batch":
        owners = draw(st.lists(u64, max_size=20))
        return {"id": rid, "verb": "query-batch", "owners": owners}
    verb = draw(verb_names if kind == "ext" else st.sampled_from(["stats", "info", "reload", "search"]))
    return {"id": rid, "verb": verb, **draw(json_fields)}


@st.composite
def response_messages(draw):
    """Arbitrary v1-shaped responses, including error replies."""
    rid = draw(u64)
    verb = draw(verb_names)
    if draw(st.booleans()):
        fields = draw(json_fields)
        fields.update(code=draw(st.sampled_from(["bad-request", "wrong-shard", "internal"])))
        return verb, {"id": rid, "ok": False, **fields}
    kind = draw(st.sampled_from(["query", "batch", "json"]))
    if kind == "query":
        return "query", {
            "id": rid,
            "ok": True,
            "owner": draw(u64),
            "providers": draw(st.lists(u32 | st.integers(2**32, 2**40), max_size=12)),
            "epoch": draw(u64),
        }
    if kind == "batch":
        # int owner keys: the one decoded shape, binary or (ids past u32)
        # JSON fallback alike.
        results = {
            draw(u64): draw(st.lists(u32 | st.integers(2**32, 2**40), max_size=6))
            for _ in range(draw(st.integers(0, 4)))
        }
        return "query-batch", {
            "id": rid,
            "ok": True,
            "results": results,
            "epoch": draw(u64),
        }
    fields = draw(json_fields)
    if verb == "query-batch":
        # A batch reply always maps int owners to int provider lists (the
        # decoder refuses any other); negatives have no binary form.
        ids = st.integers(-(2**53), 2**53)
        fields["results"] = draw(st.dictionaries(ids, st.lists(ids, max_size=4), max_size=3))
    if verb == "query":
        # A query reply always carries int providers (the decoder refuses
        # any other); negatives have no binary form, so they ride JSON.
        fields["providers"] = draw(st.lists(st.integers(-(2**53), 2**53), max_size=4))
    if verb == "search":
        # A search reply always carries a status and records of int owners
        # with str payloads (the decoder refuses any other).
        fields["status"] = draw(st.sampled_from(["ok", "denied"]))
        fields["records"] = draw(st.lists(
            st.fixed_dictionaries(
                {"owner_id": st.integers(-(2**53), 2**53), "payload": st.text(max_size=8)}
            ),
            max_size=3,
        ))
    return verb, {"id": rid, "ok": True, **fields}


def decode_all(blob: bytes):
    decoder = FrameDecoder()
    frames = decoder.feed(blob)
    assert decoder.error is None, decoder.error
    assert decoder.buffered == 0
    return frames


@given(message=request_messages())
@settings(max_examples=300, deadline=None)
def test_request_encode_decode_is_the_identity(message):
    (frame,) = decode_all(encode_request_v2(message))
    assert frame.message == message


@given(data=response_messages())
@settings(max_examples=300, deadline=None)
def test_response_encode_decode_is_the_identity(data):
    verb, response = data
    (frame,) = decode_all(b"".join(encode_reply_v2(verb, response)))
    assert frame.message == response


@given(messages=st.lists(request_messages(), min_size=1, max_size=5), data=st.data())
@settings(max_examples=100, deadline=None)
def test_decoding_is_invariant_under_tcp_chunking(messages, data):
    blob = b"".join(encode_request_v2(m) for m in messages)
    expected = [f.message for f in decode_all(blob)]
    assert expected == messages

    # Arbitrary split points, drawn by hypothesis.
    n_cuts = data.draw(st.integers(0, min(8, len(blob))))
    cuts = sorted(
        data.draw(
            st.lists(
                st.integers(0, len(blob)), min_size=n_cuts, max_size=n_cuts
            )
        )
    )
    decoder = FrameDecoder()
    frames = []
    for lo, hi in zip([0, *cuts], [*cuts, len(blob)]):
        frames.extend(decoder.feed(blob[lo:hi]))
    assert decoder.error is None and [f.message for f in frames] == messages

    # The worst case: one byte per read().
    decoder = FrameDecoder()
    frames = []
    for i in range(len(blob)):
        frames.extend(decoder.feed(blob[i : i + 1]))
    assert decoder.error is None and [f.message for f in frames] == messages


@given(message=request_messages(), data=st.data())
@settings(max_examples=200, deadline=None)
def test_truncation_is_never_an_error_until_the_bytes_complete(message, data):
    blob = encode_request_v2(message)
    cut = data.draw(st.integers(0, len(blob) - 1))
    decoder = FrameDecoder()
    assert decoder.feed(blob[:cut]) == []
    assert decoder.error is None  # "not yet", never "malformed"
    assert decoder.buffered == cut
    (frame,) = decoder.feed(blob[cut:])
    assert frame.message == message


@given(message=request_messages(), data=st.data())
@settings(max_examples=200, deadline=None)
def test_any_corrupted_payload_byte_is_caught_by_the_crc(message, data):
    blob = bytearray(encode_request_v2(message))
    if len(blob) == HEADER.size:  # empty payload: nothing to corrupt
        return
    offset = data.draw(st.integers(HEADER.size, len(blob) - 1))
    bit = data.draw(st.integers(0, 7))
    blob[offset] ^= 1 << bit
    decoder = FrameDecoder()
    assert decoder.feed(bytes(blob)) == []  # never a silently wrong frame
    assert decoder.error is not None
    assert decoder.error.code == "bad-crc"


@given(chunks=st.lists(st.binary(max_size=64), max_size=8))
@settings(max_examples=300, deadline=None)
def test_feed_never_raises_on_arbitrary_bytes(chunks):
    decoder = FrameDecoder()
    for chunk in chunks:
        frames = decoder.feed(chunk)
        assert isinstance(frames, list)
    # Either still waiting for bytes, cleanly decoded, or typed-poisoned --
    # there is no fourth state.
    assert decoder.error is None or decoder.error.code


@given(
    length=st.integers(MAX_FRAME_BYTES + 1, 2**32 - 1),
    verb_id=st.integers(0, 255),
    rid=u64,
)
@settings(max_examples=100, deadline=None)
def test_oversized_length_is_refused_from_the_header_alone(length, verb_id, rid):
    header = HEADER.pack(MAGIC, 2, verb_id, 0, rid, length, 0)
    decoder = FrameDecoder()
    assert decoder.feed(header) == []
    assert decoder.error is not None
    assert decoder.error.code == "frame-too-large"
