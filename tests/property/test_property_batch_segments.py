"""Property suite: the vectorised ``query-batch`` codecs against their
per-owner reference loops.

* **kernel** -- :func:`pack_batch_segments` (one ``<u4`` buffer filled by
  numpy scatters) is byte-identical to concatenating
  :func:`pack_batch_segment` per owner, over arbitrary CSR inputs
  including empty rows, owner ids past 2**32 (both words of the u64 carry
  bits), the empty batch and the single-owner batch; the reply around it
  is the dict-encoded reply, and decodes to the int-keyed results;
* **client decode** -- the bulk word-stream ``_unpack_batch_response``
  agrees with the two-``unpack_from``-per-owner loop it replaced, on valid
  payloads *and* on arbitrary bytes (same message, or both refuse).
"""

import struct

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serving.protocol_v2 import (
    FrameDecoder,
    _unpack_batch_response,
    batch_response_parts,
    encode_reply_v2,
    pack_batch_segment,
    pack_batch_segments,
)

owner_ids = st.one_of(
    st.integers(min_value=0, max_value=200),
    st.integers(min_value=2**32, max_value=2**64 - 1),
)
provider_rows = st.lists(st.integers(min_value=0, max_value=2**31 - 1), max_size=12)


@st.composite
def csr_batches(draw):
    """``(owners, rows)``: what a gather over ``owners`` (de-duplicated, as
    the server does before the kernel) returned."""
    n = draw(st.sampled_from([0, 1, 1, 2, 5, 17]))
    owners = draw(st.lists(owner_ids, min_size=n, max_size=n, unique=True))
    rows = draw(st.lists(provider_rows, min_size=n, max_size=n))
    if n:
        rows[draw(st.integers(min_value=0, max_value=n - 1))] = []
    return owners, rows


def _as_arrays(rows):
    counts = np.array([len(row) for row in rows], dtype=np.int64)
    flat = np.array([p for row in rows for p in row], dtype=np.int32)
    return counts, flat


@given(batch=csr_batches())
@settings(max_examples=300, deadline=None)
def test_kernel_buffer_equals_per_owner_segments(batch):
    owners, rows = batch
    buffer = pack_batch_segments(owners, *_as_arrays(rows))
    assert isinstance(buffer, bytes)
    assert buffer == b"".join(pack_batch_segment(o, row) for o, row in zip(owners, rows))


@given(
    batch=csr_batches(),
    request_id=st.integers(min_value=0, max_value=2**64 - 1),
    epoch=st.integers(min_value=0, max_value=2**64 - 1),
)
@settings(max_examples=200, deadline=None)
def test_kernel_reply_is_the_dict_encoded_reply(batch, request_id, epoch):
    """The kernel's buffer as one part == the dict-encoded reply, on the
    wire and decoded (int owner keys)."""
    owners, rows = batch
    buffer = pack_batch_segments(owners, *_as_arrays(rows))
    parts = batch_response_parts(request_id, epoch, len(owners), buffer)
    message = {
        "id": request_id,
        "ok": True,
        "results": dict(zip(owners, rows)),
        "epoch": epoch,
    }
    assert len(parts) == 3
    assert b"".join(parts) == b"".join(encode_reply_v2("query-batch", message))
    (frame,) = FrameDecoder().feed(b"".join(parts))
    assert frame.message == message


def _reference_unpack_batch_response(payload: bytes) -> dict:
    """The per-owner loop the bulk decoder replaced (kept as the oracle)."""
    epoch, n = struct.unpack_from("<QI", payload)
    offset = 12
    results = {}
    for _ in range(n):
        owner, count = struct.unpack_from("<QI", payload, offset)
        offset += 12
        providers = list(struct.unpack_from(f"<{count}I", payload, offset))
        offset += 4 * count
        results[owner] = providers
    if offset != len(payload):
        raise ValueError("query-batch response payload length mismatch")
    return {"results": results, "epoch": epoch}


def _outcome(decode, payload):
    try:
        return decode(payload)
    except (struct.error, ValueError):
        return "refused"


@given(batch=csr_batches(), epoch=st.integers(min_value=0, max_value=2**64 - 1))
@settings(max_examples=200, deadline=None)
def test_bulk_decode_matches_reference_on_valid_payloads(batch, epoch):
    owners, rows = batch
    payload = struct.pack("<QI", epoch, len(owners)) + b"".join(
        pack_batch_segment(o, r) for o, r in zip(owners, rows)
    )
    decoded = _unpack_batch_response(payload)
    assert decoded == _reference_unpack_batch_response(payload)
    assert all(type(row) is list for row in decoded["results"].values())
    # Any truncation or trailing garbage is refused by both.
    for mangled in (payload[:-1], payload[:-4], payload + b"\0\0\0\0", payload[:11]):
        assert _outcome(_unpack_batch_response, mangled) == "refused"
        assert _outcome(_reference_unpack_batch_response, mangled) == "refused"


@given(payload=st.binary(max_size=96))
@settings(max_examples=300, deadline=None)
def test_bulk_decode_matches_reference_on_arbitrary_bytes(payload):
    assert _outcome(_unpack_batch_response, payload) == _outcome(
        _reference_unpack_batch_response, payload
    )
