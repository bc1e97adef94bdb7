"""The wire protocol: fixed binary frames with packed little-endian payloads.

Every message (:mod:`repro.serving.protocol`'s dicts) travels as one frame
with a fixed 24-byte header.  The hot verbs have packed binary payloads;
everything the binary codecs do not cover rides as JSON behind a per-frame
flag.

Frame layout (all fixed-width fields little-endian)::

    offset  size  field
    ------  ----  -----------------------------------------------------
         0     4  magic ``b"ePPI"``
         4     1  version (``2``)
         5     1  verb id (``0`` = extended: verb name rides in the
                  JSON payload)
         6     2  flags (bit 0 RESPONSE, bit 1 ERROR, bit 2 JSON payload)
         8     8  request id (u64, echoed verbatim in the response)
        16     4  payload length (u32, <= ``MAX_FRAME_BYTES``)
        20     4  payload crc32
        24     -  payload bytes

Verb ids
--------

======  =============  ==========================================
id      verb           payload codec (request / response)
======  =============  ==========================================
``0``   *extended*     JSON (carries ``verb`` for requests)
``1``   ping           empty / empty
``2``   stats          empty-JSON / JSON
``3``   info           empty-JSON / JSON
``4``   query          ``<Q`` owner / ``<QQIB`` owner,epoch,n,width
                       + n ids
``5``   query-batch    ``<I`` n + n x u64 / ``<QIB3x`` epoch,n,width
                       + n x u64 owners, n x u32 counts, ids
``6``   reload         JSON / JSON
``7``   search         JSON / JSON
======  =============  ==========================================

Both binary replies carry provider ids at one *width* (1, 2 or 4 bytes,
little-endian unsigned), the fewest bytes that hold the reply's largest id
(1 for an empty list), named by the width byte of the reply head.  The
width is a function of the ids alone, so every snapshot format of one
index answers with the same bytes.  A ``query-batch`` reply is columnar:
after its 16-byte head (the three pad bytes are zero) come every owner id,
then every owner's provider count, then all the ids, owner by owner.
A reply in the earlier u32-per-id layout, which shared version byte 2,
fails the width, padding or length checks as ``bad-payload``: always for
``query``, and for ``query-batch`` unless its bytes happen to fit the
columns.

A binary codec that cannot express a message (non-integer owner, huge
provider id, extra fields) falls back to the JSON payload flag instead of
failing, so every message travels -- the binary forms are an
optimization, not a restriction.  Error responses are always JSON.  A
decoded ``query-batch`` response keys ``results`` by ``int`` owner id, and
a decoded ``query`` response's ``providers`` are ``int`` ids (a JSON form
carrying anything else is ``bad-payload``), whichever form carried it.  A
``search`` response's ``status`` is ``ok`` or ``denied`` and its
``records`` are objects with an ``int`` ``owner_id`` and a ``str``
``payload``; any other is ``bad-payload``.

A frame that cannot be decoded -- first four bytes not the magic, another
version, a length over the cap, a crc mismatch, an unreadable payload --
is answered with one typed error frame (:class:`DecodeError`'s ``code``),
after which the endpoint closes the connection: framing is byte-positional,
so every later offset on that stream is untrustworthy.
"""

from __future__ import annotations

import asyncio
import json
import struct
import zlib
from typing import Any, Callable, Optional

import numpy as np

from repro.serving.protocol import (
    MAX_FRAME_BYTES,
    VERB_INFO,
    VERB_PING,
    VERB_QUERY,
    VERB_QUERY_BATCH,
    VERB_RELOAD,
    VERB_SEARCH,
    VERB_STATS,
    ConnectionClosed,
    FrameTooLarge,
    ProtocolError,
)

__all__ = [
    "FLAG_ERROR",
    "FLAG_JSON",
    "FLAG_RESPONSE",
    "HEADER",
    "MAGIC",
    "PROTOCOL_V2",
    "VERB_ID_EXT",
    "VERB_IDS",
    "VERB_NAMES",
    "DecodeError",
    "Frame",
    "FrameDecoder",
    "batch_response_parts",
    "PreparedFrameV2",
    "RawReply",
    "encode_frame_v2",
    "encode_frame_v2_parts",
    "encode_reply_v2",
    "encode_request_v2",
    "prepared_response_v2",
    "read_any_frame",
    "read_frame_sync",
]

PROTOCOL_V2 = 2

MAGIC = b"ePPI"

#: 24-byte fixed header: magic, version, verb id, flags, request id,
#: payload length, payload crc32.
HEADER = struct.Struct("<4sBBHQII")

FLAG_RESPONSE = 0x1
FLAG_ERROR = 0x2
FLAG_JSON = 0x4

#: verb id 0 is the extension escape: the verb name travels in the JSON
#: payload, so v2 can carry verbs minted after this header was frozen.
VERB_ID_EXT = 0

VERB_IDS = {
    VERB_PING: 1,
    VERB_STATS: 2,
    VERB_INFO: 3,
    VERB_QUERY: 4,
    VERB_QUERY_BATCH: 5,
    VERB_RELOAD: 6,
    VERB_SEARCH: 7,
}
VERB_NAMES = {vid: verb for verb, vid in VERB_IDS.items()}

_QUERY_REQ = struct.Struct("<Q")
_QUERY_RESP_HEAD = struct.Struct("<QQIB")  # owner, epoch, n_providers, id width
_BATCH_REQ_HEAD = struct.Struct("<I")  # n_owners, then n x u64
_BATCH_RESP_HEAD = struct.Struct("<QIB3x")  # epoch, n_owners, id width, zero pad

#: provider-id width (the byte in a reply head) -> its struct code / dtype
_ID_CODES = {1: "B", 2: "H", 4: "I"}
_ID_DTYPES = {width: np.dtype(f"<u{width}") for width in _ID_CODES}

_U32_MAX = 2**32 - 1
_U64_MAX = 2**64 - 1


class DecodeError(ProtocolError):
    """A frame that parsed far enough to be answered with a typed error.

    ``code`` is the machine-readable error code the reply carries:
    ``bad-magic``, ``bad-version``, ``frame-too-large``, ``bad-crc`` or
    ``bad-payload``.
    """

    def __init__(self, message: str, code: str):
        super().__init__(message)
        self.code = code


class Frame:
    """One decoded frame's message dict."""

    __slots__ = ("message",)

    def __init__(self, message: dict):
        self.message = message

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Frame({self.message!r})"


class RawReply:
    """A reply already rendered to wire bytes; the server writes the parts
    verbatim (scatter-gather) instead of encoding a dict."""

    __slots__ = ("parts",)

    def __init__(self, parts: list):
        self.parts = parts


class _Unpackable(Exception):
    """A message the binary codec cannot express; fall back to JSON."""


def _json_bytes(fields: dict) -> bytes:
    # Canonical rendering (sorted keys, no whitespace) so golden files and
    # slab caches are byte-stable across dict construction orders.
    return json.dumps(fields, sort_keys=True, separators=(",", ":")).encode("utf-8")


# -- binary payload codecs ---------------------------------------------------


def _require_u64(value: Any) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise _Unpackable(f"not a u64: {value!r}")
    if not 0 <= value <= _U64_MAX:
        raise _Unpackable(f"out of u64 range: {value!r}")
    return value


def _pack_query_request(fields: dict) -> bytes:
    if set(fields) != {"owner"}:
        raise _Unpackable("query request carries exactly one field: owner")
    return _QUERY_REQ.pack(_require_u64(fields["owner"]))


def _unpack_query_request(payload: bytes) -> dict:
    if len(payload) != _QUERY_REQ.size:
        raise ValueError(f"query payload must be {_QUERY_REQ.size} bytes")
    (owner,) = _QUERY_REQ.unpack(payload)
    return {"owner": owner}


def _id_width(top: int) -> int:
    """The fewest bytes (1, 2 or 4) that hold every provider id up to ``top``."""
    return 1 if top <= 0xFF else 2 if top <= 0xFFFF else 4


def _id_top(providers: list) -> int:
    """The largest of ``providers`` (0 for none), once every one is an
    ``int`` in u32 range; anything else has no binary form."""
    if not set(map(type, providers)) <= {int}:
        raise _Unpackable("provider ids must be ints")
    top = max(providers, default=0)
    if top > _U32_MAX or min(providers, default=0) < 0:
        raise _Unpackable("provider id outside u32")
    return top


def _pack_query_response(fields: dict) -> bytes:
    if set(fields) != {"owner", "providers", "epoch"}:
        raise _Unpackable("query response fields are owner/providers/epoch")
    providers = fields["providers"]
    if not isinstance(providers, list):
        raise _Unpackable("providers must be a list")
    width = _id_width(_id_top(providers))
    head = _QUERY_RESP_HEAD.pack(
        _require_u64(fields["owner"]), _require_u64(fields["epoch"]),
        len(providers), width,
    )
    return head + struct.pack(f"<{len(providers)}{_ID_CODES[width]}", *providers)


def _unpack_query_response(payload: bytes) -> dict:
    owner, epoch, n, width = _QUERY_RESP_HEAD.unpack_from(payload)
    code = _ID_CODES.get(width)
    if code is None:
        raise ValueError(f"provider id width {width} is not 1, 2 or 4")
    if len(payload) != _QUERY_RESP_HEAD.size + width * n:
        raise ValueError("query response payload length mismatch")
    providers = list(struct.unpack_from(f"<{n}{code}", payload, _QUERY_RESP_HEAD.size))
    return {"owner": owner, "providers": providers, "epoch": epoch}


def _pack_batch_request(fields: dict) -> bytes:
    if set(fields) != {"owners"}:
        raise _Unpackable("query-batch request carries exactly one field: owners")
    owners = fields["owners"]
    if not isinstance(owners, list):
        raise _Unpackable("owners must be a list")
    if bool in set(map(type, owners)):
        raise _Unpackable("owners must be integers")  # True would pack as 1
    try:
        # struct does the u64 range/type validation in C; anything it
        # rejects (negative, huge, non-int) rides the JSON fallback.
        packed = struct.pack(f"<{len(owners)}Q", *owners)
    except struct.error as exc:
        raise _Unpackable(f"owner outside u64: {exc}") from exc
    return _BATCH_REQ_HEAD.pack(len(owners)) + packed


def _unpack_batch_request(payload: bytes) -> dict:
    (n,) = _BATCH_REQ_HEAD.unpack_from(payload)
    if len(payload) != _BATCH_REQ_HEAD.size + 8 * n:
        raise ValueError("query-batch request payload length mismatch")
    owners = list(struct.unpack_from(f"<{n}Q", payload, _BATCH_REQ_HEAD.size))
    return {"owners": owners}


def _batch_payload(epoch: int, owner_ids, counts, flat_providers) -> list:
    """A binary ``query-batch`` reply payload as four byte strings: its head,
    then the owner, count and provider-id columns.

    The arguments have the shape of a CSR gather: ``counts`` and
    ``flat_providers`` are what ``query_many_arrays`` returns for
    ``owner_ids``.  Each column is one ``tobytes`` of its array at the wire
    dtype; ids already one byte wide (a v4 index of up to 256 providers)
    are written as gathered.  Values come from a validated index or a
    checked dict (non-negative, within the column widths); nothing is
    range-checked here.
    """
    flat = np.asarray(flat_providers)
    # A one-byte id cannot need more than the narrowest width.
    top = int(flat.max()) if flat.size and flat.dtype.itemsize > 1 else 0
    width = _id_width(top)
    return [
        _BATCH_RESP_HEAD.pack(epoch, len(counts), width),
        np.asarray(owner_ids, dtype="<u8").tobytes(),
        np.asarray(counts, dtype="<u4").tobytes(),
        flat.astype(_ID_DTYPES[width], copy=False).tobytes(),
    ]


def _pack_batch_response(fields: dict) -> bytes:
    if set(fields) != {"results", "epoch"}:
        raise _Unpackable("query-batch response fields are results/epoch")
    results = fields["results"]
    if not isinstance(results, dict):
        raise _Unpackable("results must be a dict")
    owners = [_require_u64(oid) for oid in results]
    rows = list(results.values())
    if not all(isinstance(row, list) for row in rows):
        raise _Unpackable("provider lists must be lists")
    flat = [p for row in rows for p in row]
    _id_top(flat)  # every id an int in u32 range, or the reply rides JSON
    return b"".join(
        _batch_payload(
            _require_u64(fields["epoch"]),
            np.array(owners, dtype=np.uint64),
            [len(row) for row in rows],
            np.array(flat, dtype=np.uint32),
        )
    )


def _unpack_batch_response(payload: bytes) -> dict:
    # Three bulk column reads, then one slice of the id list per owner.
    mismatch = "query-batch response payload length mismatch"
    epoch, n, width = _BATCH_RESP_HEAD.unpack_from(payload)
    dtype = _ID_DTYPES.get(width)
    if dtype is None:
        raise ValueError(f"provider id width {width} is not 1, 2 or 4")
    if any(payload[13 : _BATCH_RESP_HEAD.size]):
        raise ValueError("query-batch response head padding is not zero")
    counts_at = _BATCH_RESP_HEAD.size + 8 * n
    ids_at = counts_at + 4 * n
    if len(payload) < ids_at:
        raise ValueError(mismatch)
    counts = np.frombuffer(payload, "<u4", n, counts_at)
    ends = np.cumsum(counts, dtype=np.uint64).tolist()
    total = ends[-1] if n else 0
    if len(payload) != ids_at + width * total:
        raise ValueError(mismatch)
    owners = np.frombuffer(payload, "<u8", n, _BATCH_RESP_HEAD.size).tolist()
    ids = np.frombuffer(payload, dtype, total, ids_at).tolist()
    results: dict[int, list] = {}
    start = 0
    for owner, end in zip(owners, ends):
        results[owner] = ids[start:end]
        start = end
    return {"results": results, "epoch": epoch}


def _pack_empty(fields: dict) -> bytes:
    if fields:
        raise _Unpackable("no binary form for non-empty fields")
    return b""


def _unpack_empty(payload: bytes) -> dict:
    if payload:
        raise ValueError("expected an empty payload")
    return {}


_REQUEST_ENCODERS: dict[str, Callable[[dict], bytes]] = {
    VERB_PING: _pack_empty,
    VERB_QUERY: _pack_query_request,
    VERB_QUERY_BATCH: _pack_batch_request,
}
_REQUEST_DECODERS: dict[str, Callable[[bytes], dict]] = {
    VERB_PING: _unpack_empty,
    VERB_QUERY: _unpack_query_request,
    VERB_QUERY_BATCH: _unpack_batch_request,
}
_RESPONSE_ENCODERS: dict[str, Callable[[dict], bytes]] = {
    VERB_PING: _pack_empty,
    VERB_QUERY: _pack_query_response,
    VERB_QUERY_BATCH: _pack_batch_response,
}
_RESPONSE_DECODERS: dict[str, Callable[[bytes], dict]] = {
    VERB_PING: _unpack_empty,
    VERB_QUERY: _unpack_query_response,
    VERB_QUERY_BATCH: _unpack_batch_response,
}


# -- frame encoding ----------------------------------------------------------


def encode_frame_v2_parts(
    verb: Optional[str],
    request_id: int,
    fields: Optional[dict] = None,
    *,
    response: bool = False,
    error: bool = False,
) -> list:
    """Encode one v2 frame as ``[header, payload]`` parts (scatter-gather).

    Known verbs with a binary codec pack tight little-endian payloads;
    anything else -- unknown verbs, error responses, messages the binary
    form cannot express -- rides as a JSON payload behind ``FLAG_JSON``.
    """
    fields = {} if fields is None else fields
    if isinstance(request_id, bool) or not isinstance(request_id, int):
        raise ProtocolError(f"v2 request ids are u64 integers, got {request_id!r}")
    if not 0 <= request_id <= _U64_MAX:
        raise ProtocolError(f"v2 request id out of u64 range: {request_id!r}")
    flags = FLAG_RESPONSE if response else 0
    verb_id = VERB_IDS.get(verb) if verb is not None else None
    if error:
        if not response:
            raise ProtocolError("error frames are responses")
        flags |= FLAG_ERROR | FLAG_JSON
        verb_id = VERB_ID_EXT if verb_id is None else verb_id
        payload = _json_bytes(fields) if fields else b""
    elif verb_id is None:
        # Extension escape: requests carry the verb name in the payload;
        # responses are matched to requests by id alone, so the name only
        # travels on the request leg.
        verb_id = VERB_ID_EXT
        flags |= FLAG_JSON
        if response:
            payload = _json_bytes(fields) if fields else b""
        else:
            payload = _json_bytes({"verb": verb, **fields})
    else:
        codec = (_RESPONSE_ENCODERS if response else _REQUEST_ENCODERS).get(verb)
        payload = None
        if codec is not None:
            try:
                payload = codec(fields)
            except (_Unpackable, struct.error, OverflowError):
                payload = None
        if payload is None:
            flags |= FLAG_JSON
            payload = _json_bytes(fields) if fields else b""
    if len(payload) > MAX_FRAME_BYTES:
        raise FrameTooLarge(
            f"frame of {len(payload)} bytes exceeds {MAX_FRAME_BYTES}"
        )
    header = HEADER.pack(
        MAGIC, PROTOCOL_V2, verb_id, flags, request_id, len(payload),
        zlib.crc32(payload),
    )
    return [header, payload]


def encode_frame_v2(
    verb: Optional[str],
    request_id: int,
    fields: Optional[dict] = None,
    *,
    response: bool = False,
    error: bool = False,
) -> bytes:
    return b"".join(
        encode_frame_v2_parts(verb, request_id, fields, response=response, error=error)
    )


def encode_request_v2(message: dict) -> bytes:
    """Encode a request dict (``id`` + ``verb`` + fields) as one frame."""
    fields = dict(message)
    request_id = fields.pop("id")
    verb = fields.pop("verb")
    return encode_frame_v2(verb, request_id, fields)


def encode_reply_v2(verb: Optional[str], response: dict) -> list:
    """Encode a response dict (``id`` + ``ok`` + fields) as frame parts."""
    request_id = response.get("id")
    if isinstance(request_id, bool) or not isinstance(request_id, int):
        request_id = 0  # the request carried no usable id
    ok = bool(response.get("ok"))
    fields = {k: v for k, v in response.items() if k not in ("id", "ok")}
    return encode_frame_v2_parts(
        verb, request_id, fields, response=True, error=not ok
    )


class PreparedFrameV2:
    """A response whose payload (and its crc) is fully pre-rendered.

    The per-request work is packing one 24-byte header around the shared
    payload bytes.
    """

    __slots__ = ("verb_id", "flags", "payload", "crc")

    def __init__(self, verb_id: int, payload: bytes, flags: int = FLAG_RESPONSE):
        self.verb_id = verb_id
        self.flags = flags
        self.payload = payload
        self.crc = zlib.crc32(payload)

    def encode(self, request_id: int) -> list:
        header = HEADER.pack(
            MAGIC, PROTOCOL_V2, self.verb_id, self.flags, request_id,
            len(self.payload), self.crc,
        )
        return [header, self.payload]


def batch_response_parts(
    request_id: int, epoch: int, owner_ids, counts, flat_providers
) -> list:
    """A binary ``query-batch`` response straight off a CSR gather (see
    :func:`_batch_payload` for the arguments): the frame header, then the
    payload head and its three columns, handed to ``writer.writelines`` as
    is (scatter-gather), with the crc32 folded across the four.
    """
    payload = _batch_payload(epoch, owner_ids, counts, flat_providers)
    length = sum(map(len, payload))
    if length > MAX_FRAME_BYTES:
        raise FrameTooLarge(f"frame of {length} bytes exceeds {MAX_FRAME_BYTES}")
    crc = 0
    for part in payload:
        crc = zlib.crc32(part, crc)
    header = HEADER.pack(
        MAGIC, PROTOCOL_V2, VERB_IDS[VERB_QUERY_BATCH], FLAG_RESPONSE,
        request_id, length, crc,
    )
    return [header, *payload]


def prepared_response_v2(verb: str, fields: dict) -> PreparedFrameV2:
    """Pre-render an ``ok`` response for a known verb (binary when the
    codec can express it, canonical JSON otherwise)."""
    verb_id = VERB_IDS[verb]
    codec = _RESPONSE_ENCODERS.get(verb)
    payload = None
    flags = FLAG_RESPONSE
    if codec is not None:
        try:
            payload = codec(fields)
        except (_Unpackable, struct.error, OverflowError):
            payload = None
    if payload is None:
        flags |= FLAG_JSON
        payload = _json_bytes(fields) if fields else b""
    return PreparedFrameV2(verb_id, payload, flags)


# -- frame decoding ----------------------------------------------------------


def _int_list(value: Any) -> bool:
    """Whether ``value`` is a list of ``int`` ids (no bools)."""
    return isinstance(value, list) and set(map(type, value)) <= {int}


def _record_list(value: Any) -> bool:
    """Whether ``value`` is a list of records on the wire: objects with an
    ``int`` owner id (no bool) and a ``str`` payload."""
    return isinstance(value, list) and all(
        isinstance(r, dict)
        and type(r.get("owner_id")) is int
        and isinstance(r.get("payload"), str)
        for r in value
    )


def _decode_v2_payload(
    verb_id: int, flags: int, request_id: int, payload: bytes
) -> dict:
    """Rehydrate a payload into its message dict."""
    response = bool(flags & FLAG_RESPONSE)
    error = bool(flags & FLAG_ERROR)
    verb = VERB_NAMES.get(verb_id)
    if flags & FLAG_JSON or error:
        if payload:
            try:
                fields = json.loads(payload.decode("utf-8"))
            except (UnicodeDecodeError, ValueError) as exc:
                raise DecodeError(
                    f"undecodable JSON payload: {exc}", "bad-payload"
                ) from exc
            if not isinstance(fields, dict):
                raise DecodeError("JSON payload must be an object", "bad-payload")
        else:
            fields = {}
        if verb_id == VERB_ID_EXT and not response:
            verb = fields.pop("verb", None)
            if not isinstance(verb, str):
                raise DecodeError("extended request without a verb", "bad-payload")
        # Callers see one shape whichever form arrived: provider lists of
        # ints, never a float or a string id to be coerced onto another one.
        if verb == VERB_QUERY and response and not error:
            if not _int_list(fields.get("providers")):
                raise DecodeError(
                    "query providers must be a list of integer ids", "bad-payload"
                )
        if verb == VERB_SEARCH and response and not error:
            if fields.get("status") not in ("ok", "denied") or not _record_list(
                fields.get("records")
            ):
                raise DecodeError(
                    "search status must be ok or denied, records a list of "
                    "{owner_id: int, payload: str}",
                    "bad-payload",
                )
        if verb == VERB_QUERY_BATCH and response and not error:
            results = fields.get("results")
            if not isinstance(results, dict) or not all(
                map(_int_list, results.values())
            ):
                raise DecodeError(
                    "query-batch results must map owners to lists of integer ids",
                    "bad-payload",
                )
            # JSON object keys are strings: key owners by int, as the binary
            # form does.  Only the canonical spelling maps to an owner, so
            # "1_0" or " 10" cannot collide with "10".
            try:
                owners = [int(k) for k in results]
            except ValueError as exc:
                raise DecodeError(f"owner key not an integer: {exc}", "bad-payload") from exc
            if list(map(str, owners)) != list(results):
                raise DecodeError("owner keys must be canonical integers", "bad-payload")
            fields["results"] = dict(zip(owners, results.values()))
    else:
        codec = (_RESPONSE_DECODERS if response else _REQUEST_DECODERS).get(verb)
        if codec is None:
            if payload:
                raise DecodeError(
                    f"no binary payload codec for verb id {verb_id}", "bad-payload"
                )
            fields = {}
        else:
            try:
                fields = codec(payload)
            except (struct.error, ValueError) as exc:
                raise DecodeError(
                    f"malformed {verb} payload: {exc}", "bad-payload"
                ) from exc
    if response:
        return {"id": request_id, "ok": not error, **fields}
    if verb is None:
        # Unknown binary verb id: surface it so the server answers
        # unknown-verb instead of dropping the connection.
        verb = f"verb-{verb_id}"
    return {"id": request_id, "verb": verb, **fields}


def _check_magic(prefix) -> None:
    if prefix[:4] != MAGIC:
        raise DecodeError(
            f"not a frame of this protocol: starts {bytes(prefix[:4])!r}", "bad-magic"
        )


def _check_header(header) -> tuple:
    """Validate one 24-byte frame header; return ``(verb_id, flags,
    request_id, length, crc)``.  Refuses an oversized length before any
    payload byte is read."""
    _check_magic(header)
    _, version, verb_id, flags, request_id, length, crc = HEADER.unpack_from(header)
    if version != PROTOCOL_V2:
        raise DecodeError(f"unsupported protocol version {version}", "bad-version")
    if length > MAX_FRAME_BYTES:
        raise DecodeError(
            f"peer announced a {length}-byte payload", "frame-too-large"
        )
    return verb_id, flags, request_id, length, crc


def _check_payload(header: tuple, payload: bytes) -> dict:
    """Validate a payload against its checked header; return the message."""
    verb_id, flags, request_id, _, crc = header
    if zlib.crc32(payload) != crc:
        raise DecodeError("payload crc32 mismatch", "bad-crc")
    return _decode_v2_payload(verb_id, flags, request_id, payload)


class FrameDecoder:
    """Incremental frame decoder: feed arbitrary byte chunks, get frames.

    ``feed`` **never raises**: complete frames decoded before a malformed
    one are always returned, and the first malformed frame poisons the
    decoder -- ``error`` is set to a typed :class:`DecodeError` and every
    later ``feed`` returns nothing.  Framing is byte-positional; after one
    undecodable frame the stream offset is untrustworthy, so the only safe
    recovery is answering the error and closing (which the server does).
    Four buffered bytes that are not the magic are refused at once, without
    waiting for a whole header.
    """

    def __init__(self, protocols=(PROTOCOL_V2,)):
        # Kept only for benchmarks/e2e/reads.py, which passes protocols=(2,).
        if tuple(protocols) != (PROTOCOL_V2,):
            raise ValueError(f"protocols must be (2,), got {protocols!r}")
        self.error: Optional[DecodeError] = None
        self._buf = bytearray()

    @property
    def buffered(self) -> int:
        """Bytes received but not yet decoded (mid-frame remainder)."""
        return len(self._buf)

    def feed(self, data: bytes) -> list:
        """Consume a chunk; return every frame it completes, in order."""
        if self.error is not None:
            return []
        self._buf.extend(data)
        frames = []
        while True:
            try:
                frame = self._next_frame()
            except DecodeError as exc:
                self.error = exc
                break
            if frame is None:
                break
            frames.append(frame)
        return frames

    def _next_frame(self) -> Optional[Frame]:
        buf = self._buf
        if len(buf) < HEADER.size:
            if len(buf) >= 4:
                _check_magic(buf)
            return None
        header = _check_header(buf)
        end = HEADER.size + header[3]
        if len(buf) < end:
            return None
        payload = bytes(buf[HEADER.size : end])
        del buf[:end]
        return Frame(_check_payload(header, payload))


# -- stream readers (client side) --------------------------------------------


async def read_any_frame(reader: asyncio.StreamReader) -> dict:
    """Read one frame off a stream; return its message.

    Raises :class:`ConnectionClosed` if the stream ends before the frame
    does, and :class:`DecodeError` for a malformed frame.  Reads only
    through ``reader.readexactly``: the header, then the payload.
    """
    try:
        header = _check_header(await reader.readexactly(HEADER.size))
        payload = await reader.readexactly(header[3])
    except (asyncio.IncompleteReadError, ConnectionResetError) as exc:
        raise ConnectionClosed("peer closed the connection") from exc
    return _check_payload(header, payload)


def read_frame_sync(recv: Callable[[int], bytes]) -> dict:
    """Blocking-socket mirror of :func:`read_any_frame`.

    ``recv(n)`` must return exactly ``n`` bytes or raise.  Used by the
    supervisor's synchronous health probes (:mod:`repro.serving.fleet`).
    """
    header = _check_header(recv(HEADER.size))
    return _check_payload(header, recv(header[3]))
