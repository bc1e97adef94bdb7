"""Property suite: the columnar ``query-batch`` and ``query`` reply codecs
against a reference written field by field with ``struct`` from the
layout table in :mod:`repro.serving.protocol_v2`.

* **width** -- with the reply's largest id drawn from the width
  boundaries (0, 255, 256, 65535, 65536, 2**32 - 1), both replies carry
  ids at the fewest bytes that hold it, byte-identical to the reference,
  and decode back to what was encoded; an id past u32 rides the JSON
  fallback and decodes the same; an empty provider list and a zero-owner
  batch round-trip;
* **kernel** -- :func:`batch_response_parts` over a CSR gather, its ids at
  any dtype a snapshot maps (``uint8`` / ``uint16`` / ``uint32`` from v4,
  ``int32`` from v1-v3), is the ``encode_reply_v2`` reply of the same
  int-keyed dict;
* **client decode** -- the bulk column decoder agrees with the per-owner
  ``unpack_from`` loop, on valid payloads, on each way of mangling one,
  and on arbitrary bytes (same message, or both refuse).
"""

import struct
import zlib

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serving.protocol_v2 import (
    FLAG_JSON,
    FLAG_RESPONSE,
    HEADER,
    MAGIC,
    FrameDecoder,
    _unpack_batch_response,
    batch_response_parts,
    encode_frame_v2,
    encode_reply_v2,
)

BOUNDARIES = [0, 255, 256, 65535, 65536, 2**32 - 1]
CODES = {1: "B", 2: "H", 4: "I"}

owner_ids = st.one_of(
    st.integers(min_value=0, max_value=200),
    st.integers(min_value=2**32, max_value=2**64 - 1),
)
u64 = st.integers(min_value=0, max_value=2**64 - 1)


def minimal_width(top: int) -> int:
    return next(w for w in (1, 2, 4) if top < 256**w)


@st.composite
def batches(draw, top=st.sampled_from(BOUNDARIES)):
    """``(owners, rows, top)``: unique owners (the server de-duplicates
    before the kernel), their provider rows and the largest id in them,
    ``top`` itself whenever any row is non-empty."""
    top = draw(top)
    n = draw(st.sampled_from([0, 1, 1, 2, 5, 17]))
    owners = draw(st.lists(owner_ids, min_size=n, max_size=n, unique=True))
    ids = st.integers(min_value=0, max_value=top) | st.sampled_from([0, top])
    rows = draw(st.lists(st.lists(ids, max_size=12), min_size=n, max_size=n))
    if n:
        rows[draw(st.integers(min_value=0, max_value=n - 1))] = []
        rows[draw(st.integers(min_value=0, max_value=n - 1))].append(top)
    return owners, rows, top


def frame(payload: bytes, verb_id: int, request_id: int) -> bytes:
    return HEADER.pack(
        MAGIC, 2, verb_id, FLAG_RESPONSE, request_id, len(payload), zlib.crc32(payload)
    ) + payload


def reference_batch_payload(epoch: int, owners, rows) -> bytes:
    flat = [p for row in rows for p in row]
    width = minimal_width(max(flat, default=0))
    return (
        struct.pack("<QIB3x", epoch, len(owners), width)
        + struct.pack(f"<{len(owners)}Q", *owners)
        + struct.pack(f"<{len(rows)}I", *map(len, rows))
        + struct.pack(f"<{len(flat)}{CODES[width]}", *flat)
    )


def reference_unpack_batch_response(payload: bytes) -> dict:
    """The per-owner ``unpack_from`` loop (the oracle for the bulk decoder)."""
    epoch, n, width, pad = struct.unpack_from("<QIB3s", payload)
    if width not in CODES or pad != bytes(3) or len(payload) < 16 + 12 * n:
        raise ValueError("bad head")
    owners = struct.unpack_from(f"<{n}Q", payload, 16)
    counts = struct.unpack_from(f"<{n}I", payload, 16 + 8 * n)
    offset = 16 + 12 * n
    results = {}
    for owner, count in zip(owners, counts):
        results[owner] = list(struct.unpack_from(f"<{count}{CODES[width]}", payload, offset))
        offset += width * count
    if offset != len(payload):
        raise ValueError("query-batch response payload length mismatch")
    return {"results": results, "epoch": epoch}


def id_dtypes(top: int) -> list:
    """Every dtype a snapshot may map ids at that holds ``top``."""
    dtypes = [np.uint32, np.int64]
    if top < 2**31:
        dtypes.append(np.int32)
    if top < 2**16:
        dtypes.append(np.uint16)
    if top < 2**8:
        dtypes.append(np.uint8)
    return dtypes


def decode(blob: bytes) -> dict:
    decoder = FrameDecoder()
    (decoded,) = decoder.feed(blob)
    assert decoder.error is None and decoder.buffered == 0
    return decoded.message


@given(batch=batches(), request_id=u64, epoch=u64)
@settings(max_examples=300, deadline=None)
def test_batch_width_is_minimal_and_decode_inverts_encode(batch, request_id, epoch):
    owners, rows, top = batch
    message = {"id": request_id, "ok": True, "results": dict(zip(owners, rows)), "epoch": epoch}
    blob = b"".join(encode_reply_v2("query-batch", message))
    payload = reference_batch_payload(epoch, owners, rows)
    assert blob == frame(payload, 5, request_id)
    assert blob[HEADER.size + 12] == (minimal_width(top) if owners else 1)
    assert decode(blob) == message


@given(batch=batches(), request_id=u64, epoch=u64, data=st.data())
@settings(max_examples=300, deadline=None)
def test_kernel_reply_is_the_dict_encoded_reply(batch, request_id, epoch, data):
    """The CSR gather's columns, at any id dtype, are the dict-encoded
    reply on the wire and decode to the int-keyed results."""
    owners, rows, top = batch
    dtype = data.draw(st.sampled_from(id_dtypes(top)))
    flat = np.array([p for row in rows for p in row], dtype=dtype)
    counts = np.array([len(row) for row in rows], dtype=np.int64)
    parts = batch_response_parts(
        request_id, epoch, np.array(owners, dtype=np.uint64), counts, flat
    )
    message = {"id": request_id, "ok": True, "results": dict(zip(owners, rows)), "epoch": epoch}
    assert len(parts) == 5 and all(type(part) is bytes for part in parts)
    assert b"".join(parts) == b"".join(encode_reply_v2("query-batch", message))
    assert decode(b"".join(parts)) == message


@given(
    top=st.sampled_from(BOUNDARIES),
    rest=st.lists(st.integers(min_value=0, max_value=2**32 - 1), max_size=12),
    owner=u64,
    epoch=u64,
    data=st.data(),
)
@settings(max_examples=300, deadline=None)
def test_query_width_is_minimal_and_decode_inverts_encode(top, rest, owner, epoch, data):
    providers = sorted({top, *(p for p in rest if p <= top)})
    if data.draw(st.booleans()):
        providers = []  # an owner no provider publishes
    fields = {"owner": owner, "providers": providers, "epoch": epoch}
    blob = encode_frame_v2("query", 3, fields, response=True)
    width = minimal_width(max(providers, default=0))
    payload = struct.pack("<QQIB", owner, epoch, len(providers), width) + struct.pack(
        f"<{len(providers)}{CODES[width]}", *providers
    )
    assert blob == frame(payload, 4, 3)
    assert decode(blob) == {"id": 3, "ok": True, **fields}


@given(batch=batches(), wide=st.integers(min_value=2**32, max_value=2**63))
@settings(max_examples=100, deadline=None)
def test_ids_past_u32_ride_the_json_fallback(batch, wide):
    owners, rows, _ = batch
    results = dict(zip(owners, rows))
    results[7] = [0, wide]
    for verb, fields in (
        ("query-batch", {"results": results, "epoch": 5}),
        ("query", {"owner": 7, "providers": [0, wide], "epoch": 5}),
    ):
        blob = encode_frame_v2(verb, 9, fields, response=True)
        assert HEADER.unpack_from(blob)[3] & FLAG_JSON
        assert decode(blob) == {"id": 9, "ok": True, **fields}


def test_empty_lists_and_the_zero_owner_batch_round_trip():
    for verb, fields, payload in (
        ("query-batch", {"results": {}, "epoch": 5}, struct.pack("<QIB3x", 5, 0, 1)),
        (
            "query-batch",
            {"results": {3: [], 4: []}, "epoch": 5},
            struct.pack("<QIB3x2Q2I", 5, 2, 1, 3, 4, 0, 0),
        ),
        ("query", {"owner": 3, "providers": [], "epoch": 5}, struct.pack("<QQIB", 3, 5, 0, 1)),
    ):
        blob = encode_frame_v2(verb, 9, fields, response=True)
        assert blob[HEADER.size :] == payload
        assert decode(blob) == {"id": 9, "ok": True, **fields}
    none = np.zeros(0, dtype=np.int64)
    assert b"".join(batch_response_parts(9, 5, none, none, none)) == encode_frame_v2(
        "query-batch", 9, {"results": {}, "epoch": 5}, response=True
    )


def _outcome(unpack, payload):
    try:
        return unpack(payload)
    except (struct.error, ValueError):
        return "refused"


@given(batch=batches(), epoch=u64, data=st.data())
@settings(max_examples=200, deadline=None)
def test_bulk_decode_matches_reference_on_valid_and_mangled_payloads(batch, epoch, data):
    owners, rows, _ = batch
    payload = reference_batch_payload(epoch, owners, rows)
    decoded = _unpack_batch_response(payload)
    assert decoded == reference_unpack_batch_response(payload)
    assert all(type(row) is list for row in decoded["results"].values())
    mangled = [payload[:-1], payload + b"\0", payload[:15]]
    for width in (0, 3, 8):
        mangled.append(payload[:12] + bytes([width]) + payload[13:])
    pad = data.draw(st.integers(min_value=13, max_value=15))
    mangled.append(payload[:pad] + b"\1" + payload[pad + 1 :])
    if owners:  # one more id than the payload carries
        at = 16 + 8 * len(owners)
        count = struct.unpack_from("<I", payload, at)[0] + 1
        mangled.append(payload[:at] + struct.pack("<I", count) + payload[at + 4 :])
    for bad in mangled:
        assert _outcome(_unpack_batch_response, bad) == "refused"
        assert _outcome(reference_unpack_batch_response, bad) == "refused"


@given(payload=st.binary(max_size=96))
@settings(max_examples=300, deadline=None)
def test_bulk_decode_matches_reference_on_arbitrary_bytes(payload):
    assert _outcome(_unpack_batch_response, payload) == _outcome(
        reference_unpack_batch_response, payload
    )
