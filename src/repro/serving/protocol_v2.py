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
``4``   query          ``<Q`` owner / ``<QQI`` owner,epoch,n + n x u32
``5``   query-batch    ``<I`` n + n x u64 / ``<QI`` epoch,n + segments
``6``   reload         JSON / JSON
``7``   search         JSON / JSON
======  =============  ==========================================

A binary codec that cannot express a message (non-integer owner, huge
provider id, extra fields) falls back to the JSON payload flag instead of
failing, so every message travels -- the binary forms are an
optimization, not a restriction.  Error responses are always JSON.

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
    "pack_batch_segment",
    "pack_batch_segments",
    "prepared_response_v2",
    "read_any_frame",
    "read_frame_sync",
    "unpack_batch_segment",
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
_QUERY_RESP_HEAD = struct.Struct("<QQI")  # owner, epoch, n_providers
_BATCH_REQ_HEAD = struct.Struct("<I")  # n_owners, then n x u64
_BATCH_RESP_HEAD = struct.Struct("<QI")  # epoch, n_segments
_SEGMENT_HEAD = struct.Struct("<QI")  # owner, n_providers, then n x u32

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


def _pack_query_response(fields: dict) -> bytes:
    if set(fields) != {"owner", "providers", "epoch"}:
        raise _Unpackable("query response fields are owner/providers/epoch")
    providers = fields["providers"]
    if not isinstance(providers, list):
        raise _Unpackable("providers must be a list")
    head = _QUERY_RESP_HEAD.pack(
        _require_u64(fields["owner"]), _require_u64(fields["epoch"]), len(providers)
    )
    for p in providers:
        if isinstance(p, bool) or not isinstance(p, int):
            raise _Unpackable(f"provider id not an int: {p!r}")
    return head + struct.pack(f"<{len(providers)}I", *providers)


def _unpack_query_response(payload: bytes) -> dict:
    owner, epoch, n = _QUERY_RESP_HEAD.unpack_from(payload)
    if len(payload) != _QUERY_RESP_HEAD.size + 4 * n:
        raise ValueError("query response payload length mismatch")
    providers = list(struct.unpack_from(f"<{n}I", payload, _QUERY_RESP_HEAD.size))
    return {"owner": owner, "providers": providers, "epoch": epoch}


def _pack_batch_request(fields: dict) -> bytes:
    if set(fields) != {"owners"}:
        raise _Unpackable("query-batch request carries exactly one field: owners")
    owners = fields["owners"]
    if not isinstance(owners, list):
        raise _Unpackable("owners must be a list")
    if any(isinstance(o, bool) for o in owners):
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


def pack_batch_segment(owner_id: int, providers: list) -> bytes:
    """One owner's slice of a binary ``query-batch`` response payload."""
    return _SEGMENT_HEAD.pack(owner_id, len(providers)) + struct.pack(
        f"<{len(providers)}I", *providers
    )


def unpack_batch_segment(segment: bytes) -> "tuple[int, list]":
    """Inverse of :func:`pack_batch_segment`: ``(owner_id, providers)``."""
    owner_id, n = _SEGMENT_HEAD.unpack_from(segment)
    return owner_id, list(struct.unpack_from(f"<{n}I", segment, _SEGMENT_HEAD.size))


def pack_batch_segments(owner_ids, counts, flat_providers) -> "tuple[bytes, list]":
    """Every owner's segment of a binary ``query-batch`` response, packed in
    one pass over the CSR gather (``query_many_arrays``'s ``counts`` and
    ``flat_providers`` for ``owner_ids``).

    Every field of a segment is a whole number of little-endian u32 words
    (the u64 owner is two), so the batch is one ``<u4`` buffer filled by a
    few scatters: no per-owner Python work.  Returns ``(buffer, bounds)``
    with owner ``k``'s segment at ``buffer[bounds[k]:bounds[k + 1]]`` --
    byte-identical to :func:`pack_batch_segment` on that owner.  Ids and
    counts come from a validated index (non-negative, within the field
    widths); nothing is range-checked here.
    """
    ids = np.asarray(owner_ids, dtype=np.uint64)
    counts = np.asarray(counts, dtype=np.int64)
    ends = np.cumsum(counts + 3)  # <QI head = 3 words, then the providers
    heads = ends - counts - 3
    words = np.empty(int(ends[-1]) if ends.size else 0, dtype="<u4")
    words[heads] = ids & np.uint64(0xFFFFFFFF)
    words[heads + 1] = ids >> np.uint64(32)
    words[heads + 2] = counts
    provider_words = np.ones(words.size, dtype=bool)
    provider_words[heads] = provider_words[heads + 1] = provider_words[heads + 2] = False
    words[provider_words] = flat_providers
    return words.tobytes(), [0, *(ends * 4).tolist()]


def _pack_batch_response(fields: dict) -> bytes:
    if set(fields) != {"results", "epoch"}:
        raise _Unpackable("query-batch response fields are results/epoch")
    results = fields["results"]
    if not isinstance(results, dict):
        raise _Unpackable("results must be a dict")
    parts = [_BATCH_RESP_HEAD.pack(_require_u64(fields["epoch"]), len(results))]
    for oid, providers in results.items():
        if isinstance(oid, str):
            if not oid.isdigit():
                raise _Unpackable(f"owner key not an integer: {oid!r}")
            oid = int(oid)
        if not isinstance(providers, list):
            raise _Unpackable("provider lists must be lists")
        for p in providers:
            if isinstance(p, bool) or not isinstance(p, int):
                raise _Unpackable(f"provider id not an int: {p!r}")
        parts.append(pack_batch_segment(_require_u64(oid), providers))
    return b"".join(parts)


def _unpack_batch_response(payload: bytes) -> dict:
    # Every field is a whole number of u32 words: one bulk unpack of the
    # word stream, then list slices -- no struct call per owner.
    mismatch = "query-batch response payload length mismatch"
    if len(payload) % 4 or len(payload) < _BATCH_RESP_HEAD.size:
        raise ValueError(mismatch)
    words = list(struct.unpack(f"<{len(payload) // 4}I", payload))
    epoch, n = words[0] | words[1] << 32, words[2]
    offset = 3
    results: dict[str, list] = {}
    try:
        for _ in range(n):
            start = offset + 3
            end = start + words[offset + 2]
            # str keys: the shape the JSON fallback decodes to, so code
            # upstream of the codec never sees which form arrived.
            results[str(words[offset] | words[offset + 1] << 32)] = words[start:end]
            offset = end
    except IndexError:  # a segment head past the end of the payload
        raise ValueError(mismatch) from None
    if offset != len(words):  # also catches a count running past the end
        raise ValueError(mismatch)
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
    request_id: int, epoch: int, segments: list, n_owners: Optional[int] = None
) -> list:
    """Assemble a binary ``query-batch`` response from pre-packed per-owner
    segments (see :func:`pack_batch_segment`) without concatenating them:
    the parts list goes to ``writer.writelines`` as-is (scatter-gather),
    and the crc32 is folded incrementally across the segments.

    ``n_owners`` is the number of owner segments when a part holds more
    than one -- :func:`pack_batch_segments`'s whole buffer passed as a
    single part costs one crc call and a three-part write.
    """
    head = _BATCH_RESP_HEAD.pack(
        epoch, len(segments) if n_owners is None else n_owners
    )
    length = len(head) + sum(len(s) for s in segments)
    if length > MAX_FRAME_BYTES:
        raise FrameTooLarge(f"frame of {length} bytes exceeds {MAX_FRAME_BYTES}")
    crc = zlib.crc32(head)
    for segment in segments:
        crc = zlib.crc32(segment, crc)
    header = HEADER.pack(
        MAGIC, PROTOCOL_V2, VERB_IDS[VERB_QUERY_BATCH], FLAG_RESPONSE,
        request_id, length, crc,
    )
    return [header, head, *segments]


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
