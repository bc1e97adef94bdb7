"""Conformance suite for the wire protocol (``repro.serving.protocol_v2``).

Four layers, from bytes up:

* **codecs** -- packed binary payloads round-trip exactly, and every
  message the binary form cannot express falls back to JSON instead of
  failing (the binary forms are an optimization, never a restriction);
* **golden files** -- the byte layouts in ``tests/serving/data/`` are
  pinned: re-encoding must reproduce them bit for bit, and a hand-written
  hex literal pins the header layout independently of the encoder;
* **corruption** -- a live server answers every malformed frame (flipped
  crc, truncated tail, oversized length announcement, bad version, bytes
  that are not a frame at all) with a *typed* error and never crashes,
  never mixes responses across pipelined requests;
* **compat points** -- the four option values the frozen benchmark
  harness still passes are accepted, and every other value is refused.
"""

import asyncio
import binascii
import pathlib
import struct
import subprocess
import sys
import zlib

import numpy as np
import pytest

from repro.core.postings import PostingsIndex
from repro.serving.client import LocatorClient
from repro.serving.protocol import (
    MAX_FRAME_BYTES,
    ConnectionClosed,
    FrameTooLarge,
    ProtocolError,
    error_response,
)
from repro.serving.protocol_v2 import (
    FLAG_ERROR,
    FLAG_JSON,
    FLAG_RESPONSE,
    HEADER,
    MAGIC,
    FrameDecoder,
    batch_response_parts,
    encode_frame_v2,
    encode_reply_v2,
    prepared_response_v2,
    read_any_frame,
)
from repro.serving.server import PPIServer

DATA = pathlib.Path(__file__).parent / "data"
SRC = pathlib.Path(__file__).resolve().parents[2] / "src"

N_PROVIDERS = 6
N_OWNERS = 12


def make_index() -> PostingsIndex:
    """Deterministic truth: provider i publishes owner j iff (i+j) % 3 == 0."""
    matrix = np.zeros((N_PROVIDERS, N_OWNERS), dtype=np.uint8)
    for i in range(N_PROVIDERS):
        for j in range(N_OWNERS):
            if (i + j) % 3 == 0:
                matrix[i, j] = 1
    return PostingsIndex.from_dense(matrix)


def decode_one(blob: bytes):
    """Decode exactly one frame from ``blob`` (must consume it fully)."""
    decoder = FrameDecoder()
    frames = decoder.feed(blob)
    assert decoder.error is None, decoder.error
    assert len(frames) == 1 and decoder.buffered == 0
    return frames[0]


# -- codec layer --------------------------------------------------------------


class TestCodecs:
    def test_query_request_binary_roundtrip(self):
        blob = encode_frame_v2("query", 7, {"owner": 42})
        _, _, _, flags, _, length, _ = HEADER.unpack(blob[: HEADER.size])
        assert not flags & FLAG_JSON  # packed form, not JSON
        assert length == 8  # one u64
        frame = decode_one(blob)
        assert frame.message == {"id": 7, "verb": "query", "owner": 42}

    def test_query_response_binary_roundtrip(self):
        blob = encode_frame_v2(
            "query",
            7,
            {"owner": 42, "providers": [3, 9, 17], "epoch": 7},
            response=True,
        )
        frame = decode_one(blob)
        assert frame.message == {
            "id": 7,
            "ok": True,
            "owner": 42,
            "providers": [3, 9, 17],
            "epoch": 7,
        }

    def test_batch_roundtrip(self):
        req = decode_one(encode_frame_v2("query-batch", 9, {"owners": [1, 2, 3]}))
        assert req.message == {"id": 9, "verb": "query-batch", "owners": [1, 2, 3]}
        resp = decode_one(
            encode_frame_v2(
                "query-batch",
                9,
                {"results": {1: [0, 2], 2: [1]}, "epoch": 5},
                response=True,
            )
        )
        assert resp.message == {
            "id": 9,
            "ok": True,
            "results": {1: [0, 2], 2: [1]},
            "epoch": 5,
        }

    def test_json_fallback_batch_response_decodes_to_int_keys(self):
        # A provider id wider than u32 has no binary form: the reply rides
        # JSON, whose object keys are strings, and still decodes int-keyed.
        wide = {"results": {1: [0, 2**40], 2: []}, "epoch": 5}
        blob = encode_frame_v2("query-batch", 9, wide, response=True)
        _, _, _, flags, _, _, _ = HEADER.unpack(blob[: HEADER.size])
        assert flags & FLAG_JSON
        assert decode_one(blob).message == {"id": 9, "ok": True, **wide}

    def test_json_batch_response_with_a_non_integer_owner_key_is_refused(self):
        payload = b'{"epoch":5,"results":{"x":[1]}}'
        header = HEADER.pack(
            MAGIC, 2, 5, FLAG_RESPONSE | FLAG_JSON, 9, len(payload), zlib.crc32(payload)
        )
        decoder = FrameDecoder()
        assert decoder.feed(header + payload) == []
        assert decoder.error is not None and decoder.error.code == "bad-payload"

    @pytest.mark.parametrize("key", ["1_0", " 10", "+10", "010", "-0"])
    def test_json_batch_response_with_a_non_canonical_owner_key_is_refused(self, key):
        """``int()`` also reads "1_0" or " 10": such a key used to decode
        as owner 10 and silently replace the row of the real "10"."""
        payload = b'{"epoch":5,"results":{"10":[3],"%s":[1]}}' % key.encode()
        header = HEADER.pack(
            MAGIC, 2, 5, FLAG_RESPONSE | FLAG_JSON, 9, len(payload), zlib.crc32(payload)
        )
        decoder = FrameDecoder()
        assert decoder.feed(header + payload) == []
        assert decoder.error is not None and decoder.error.code == "bad-payload"

    @pytest.mark.parametrize(
        "fields",
        [
            {"results": {1: [1.5, "3", True]}, "epoch": 5},
            {"results": {1: [0], 2: [True]}, "epoch": 5},
            {"results": {1: "0,2"}, "epoch": 5},
            {"results": {1: None}, "epoch": 5},
            {"results": [[1, [0, 2]]], "epoch": 5},
            {"results": "x", "epoch": 5},
            {"epoch": 5},
        ],
        ids=["mixed-ids", "bool-id", "string-row", "null-row", "list", "string", "missing"],
    )
    def test_json_batch_response_without_int_provider_lists_is_refused(self, fields):
        """A JSON batch reply gets the ``query`` reply's rule: every value
        a list of non-bool ints, under a ``results`` object."""
        blob = encode_frame_v2("query-batch", 9, fields, response=True)
        assert HEADER.unpack_from(blob)[3] & FLAG_JSON
        decoder = FrameDecoder()
        assert decoder.feed(blob) == []
        assert decoder.error is not None and decoder.error.code == "bad-payload"

    def test_unexpressible_messages_fall_back_to_json(self):
        # A non-integer owner has no binary form -- but still travels.
        blob = encode_frame_v2("query", 1, {"owner": "zero"})
        _, _, _, flags, _, _, _ = HEADER.unpack(blob[: HEADER.size])
        assert flags & FLAG_JSON
        assert decode_one(blob).message == {"id": 1, "verb": "query", "owner": "zero"}
        # Provider ids wider than u32 overflow the packed form, not the wire.
        wide = {"owner": 1, "providers": [2**40], "epoch": 0}
        blob = encode_frame_v2("query", 2, wide, response=True)
        _, _, _, flags, _, _, _ = HEADER.unpack(blob[: HEADER.size])
        assert flags & FLAG_JSON
        assert decode_one(blob).message == {"id": 2, "ok": True, **wide}

    def test_extension_verbs_carry_the_name_in_the_payload(self):
        blob = encode_frame_v2("frobnicate", 11, {"knob": 5})
        _, _, verb_id, flags, _, _, _ = HEADER.unpack(blob[: HEADER.size])
        assert verb_id == 0 and flags & FLAG_JSON
        frame = decode_one(blob)
        assert frame.message == {"id": 11, "verb": "frobnicate", "knob": 5}

    def test_error_replies_are_typed_json(self):
        reply = error_response(13, "wrong-shard", "owner 5 lives on shard 1", shard=1)
        blob = b"".join(encode_reply_v2("query", reply))
        _, _, _, flags, _, _, _ = HEADER.unpack(blob[: HEADER.size])
        assert flags & FLAG_ERROR and flags & FLAG_JSON and flags & FLAG_RESPONSE
        message = decode_one(blob).message
        assert message["ok"] is False and message["code"] == "wrong-shard"
        assert message["shard"] == 1 and message["id"] == 13

    def test_reply_with_a_non_integer_id_encodes_id_zero(self):
        # A reply to a request without a usable id: u64 headers say 0.
        blob = b"".join(encode_reply_v2(None, error_response(None, "bad-request", "x")))
        assert decode_one(blob).message["id"] == 0

    def test_request_id_must_be_a_u64(self):
        for bad in (-1, 2**64, True, "7", None):
            with pytest.raises(ProtocolError):
                encode_frame_v2("ping", bad)

    def test_prepared_frames_share_payload_across_request_ids(self):
        prepared = prepared_response_v2(
            "query", {"owner": 4, "providers": [1, 2], "epoch": 0}
        )
        a, b = b"".join(prepared.encode(1)), b"".join(prepared.encode(2))
        assert a[HEADER.size :] == b[HEADER.size :]
        # Only the request id field (bytes 8..16) may differ.
        assert a[:8] == b[:8] and a[16 : HEADER.size] == b[16 : HEADER.size]
        assert prepared_response_v2("stats", {"stats": {"x": 1}}).flags & FLAG_JSON

    def test_scatter_gather_batch_matches_monolithic_encoding(self):
        parts = batch_response_parts(
            9, 5, np.array([1, 2]), np.array([2, 1]), np.array([0, 2, 1], dtype=np.uint8)
        )
        monolithic = encode_frame_v2(
            "query-batch",
            9,
            {"results": {1: [0, 2], 2: [1]}, "epoch": 5},
            response=True,
        )
        # frame header, batch head, then the owner, count and id columns
        assert len(parts) == 5
        assert b"".join(parts) == monolithic

    def test_oversized_batch_response_is_refused_at_encode_time(self):
        with pytest.raises(FrameTooLarge):
            batch_response_parts(
                1, 0, [0], [MAX_FRAME_BYTES], np.zeros(MAX_FRAME_BYTES, dtype=np.uint8)
            )


# -- golden files -------------------------------------------------------------

#: filename -> (builder producing the exact bytes, expected decoded messages)
GOLDENS = {
    "protocol_v2_ping_request.bin": (
        lambda: encode_frame_v2("ping", 1),
        [{"id": 1, "verb": "ping"}],
    ),
    "protocol_v2_query_request.bin": (
        lambda: encode_frame_v2("query", 7, {"owner": 42}),
        [{"id": 7, "verb": "query", "owner": 42}],
    ),
    "protocol_v2_batch_request.bin": (
        lambda: encode_frame_v2("query-batch", 9, {"owners": [1, 2, 3]}),
        [{"id": 9, "verb": "query-batch", "owners": [1, 2, 3]}],
    ),
    "protocol_v2_stats_request.bin": (
        lambda: encode_frame_v2("stats", 3),
        [{"id": 3, "verb": "stats"}],
    ),
    "protocol_v2_ext_request.bin": (
        lambda: encode_frame_v2("frobnicate", 11, {"knob": 5}),
        [{"id": 11, "verb": "frobnicate", "knob": 5}],
    ),
    "protocol_v2_query_response.bin": (
        lambda: encode_frame_v2(
            "query",
            7,
            {"owner": 42, "providers": [3, 9, 17], "epoch": 7},
            response=True,
        ),
        [{"id": 7, "ok": True, "owner": 42, "providers": [3, 9, 17], "epoch": 7}],
    ),
    "protocol_v2_batch_response.bin": (
        lambda: b"".join(
            batch_response_parts(
                9, 5, np.array([1, 2]), np.array([2, 1]), np.array([0, 2, 1], dtype=np.uint8)
            )
        ),
        [{"id": 9, "ok": True, "results": {1: [0, 2], 2: [1]}, "epoch": 5}],
    ),
    "protocol_v2_error_wrong_shard.bin": (
        lambda: b"".join(
            encode_reply_v2(
                "query",
                error_response(13, "wrong-shard", "owner 5 lives on shard 1", shard=1),
            )
        ),
        [
            {
                "id": 13,
                "ok": False,
                "code": "wrong-shard",
                "error": "owner 5 lives on shard 1",
                "shard": 1,
            }
        ],
    ),
}


class TestGoldenFiles:
    @pytest.mark.parametrize("name", sorted(GOLDENS))
    def test_reencoding_reproduces_the_pinned_bytes(self, name):
        """An encoder change that shifts the wire layout fails here first."""
        build, _ = GOLDENS[name]
        assert (DATA / name).read_bytes() == build()

    @pytest.mark.parametrize("name", sorted(GOLDENS))
    def test_pinned_bytes_decode_to_the_expected_messages(self, name):
        _, expected = GOLDENS[name]
        decoder = FrameDecoder()
        frames = decoder.feed((DATA / name).read_bytes())
        assert decoder.error is None and decoder.buffered == 0
        assert [f.message for f in frames] == expected

    def test_header_layout_pinned_by_hand(self):
        """The 24-byte header, asserted against a hex literal written from
        the spec table -- independent of ``HEADER.pack``."""
        assert binascii.hexlify(encode_frame_v2("ping", 1)).decode() == (
            "65505049"  # magic "ePPI"
            "02"  # version 2
            "01"  # verb id: ping
            "0000"  # flags: request, binary payload
            "0100000000000000"  # request id 1 (u64 LE)
            "00000000"  # payload length 0
            "00000000"  # crc32 of b""
        )
        assert binascii.hexlify(
            encode_frame_v2("query", 7, {"owner": 42})
        ).decode() == (
            "65505049"
            "02"
            "04"  # verb id: query
            "0000"
            "0700000000000000"
            "08000000"  # payload: one u64
            "f7a1940d"  # crc32 of the owner field
            "2a00000000000000"  # owner 42
        )


def reply_frame(verb_id: int, payload: bytes) -> bytes:
    return HEADER.pack(
        MAGIC, 2, verb_id, FLAG_RESPONSE, 9, len(payload), zlib.crc32(payload)
    ) + payload


def old_query_reply(owner: int, epoch: int, providers: list) -> bytes:
    """The earlier ``query`` reply layout: ``<QQI`` then n x u32."""
    return struct.pack(f"<QQI{len(providers)}I", owner, epoch, len(providers), *providers)


def old_batch_reply(epoch: int, results: dict) -> bytes:
    """The earlier ``query-batch`` reply layout: ``<QI`` then one
    ``<QI`` + n x u32 segment per owner."""
    return struct.pack("<QI", epoch, len(results)) + b"".join(
        struct.pack(f"<QI{len(row)}I", owner, len(row), *row)
        for owner, row in results.items()
    )


#: name -> (verb id, reply payload) that must decode as ``bad-payload``
REFUSED_REPLIES = {
    # The earlier u32-per-id layouts, including misread width bytes that
    # are legal widths.
    "old-query": (4, old_query_reply(42, 7, [3, 9, 17])),  # width byte reads 3
    "old-query-width-1": (4, old_query_reply(42, 7, [1, 2])),
    "old-query-width-4": (4, old_query_reply(42, 7, [4])),
    "old-query-empty": (4, old_query_reply(42, 7, [])),  # a byte short of a head
    "old-batch": (5, old_batch_reply(5, {1: [0, 2], 2: [1]})),  # width 1, zero pad
    "old-batch-width-4": (5, old_batch_reply(5, {4: [0, 1, 2, 3]})),
    "old-batch-pad": (5, old_batch_reply(5, {257: [7]})),  # width 1, pad byte 1
    "old-batch-empty": (5, old_batch_reply(5, {})),  # four bytes short of a head
    # A width outside {1, 2, 4}.
    "query-width-0": (4, struct.pack("<QQIB", 42, 7, 1, 0) + b"\x03"),
    "query-width-3": (4, struct.pack("<QQIB", 42, 7, 1, 3) + b"\x03\x00\x00"),
    "query-width-8": (4, struct.pack("<QQIB", 42, 7, 1, 8) + bytes(8)),
    "batch-width-0": (5, struct.pack("<QIB3x", 5, 0, 0)),
    "batch-width-3": (5, struct.pack("<QIB3xQIB", 5, 1, 3, 1, 1, 0)),
    "batch-width-255": (5, struct.pack("<QIB3x", 5, 0, 255)),
    # A non-zero pad byte.
    "batch-pad-last": (5, struct.pack("<QIB3B", 5, 0, 1, 0, 0, 1)),
    "batch-pad-first": (5, struct.pack("<QIB3B", 5, 0, 1, 7, 0, 0)),
    # Counts that overrun the payload.
    "batch-count-overrun": (5, struct.pack("<QIB3xQIB", 5, 1, 1, 1, 2, 0)),
    "batch-count-max": (5, struct.pack("<QIB3xQI", 5, 1, 1, 1, 2**32 - 1)),
    "batch-owners-short": (5, struct.pack("<QIB3xQ", 5, 2, 1, 1)),
    "batch-n-max": (5, struct.pack("<QIB3x", 5, 2**32 - 1, 1)),
    "query-n-max": (4, struct.pack("<QQIB", 42, 7, 2**32 - 1, 1) + b"\x03"),
}


class TestReplyLayoutRefusals:
    """Version byte 2 carries the id-width replies only: replies in the
    earlier u32-per-id layout and replies whose width, padding or counts
    do not fit their payload are a typed ``bad-payload``, not some other
    message."""

    @pytest.mark.parametrize("name", sorted(REFUSED_REPLIES))
    def test_refused_as_bad_payload(self, name):
        decoder = FrameDecoder()
        assert decoder.feed(reply_frame(*REFUSED_REPLIES[name])) == []
        assert decoder.error is not None and decoder.error.code == "bad-payload"

    def test_reply_layouts_pinned_by_hand(self):
        """Both reply payloads, asserted against hex literals written from
        the layout table -- independent of the encoders."""
        query = encode_frame_v2(
            "query", 7, {"owner": 42, "providers": [3, 9, 300], "epoch": 7}, response=True
        )
        assert binascii.hexlify(query[HEADER.size :]).decode() == (
            "2a00000000000000"  # owner 42
            "0700000000000000"  # epoch 7
            "03000000"  # three providers
            "02"  # id width 2: 300 needs two bytes
            "0300" "0900" "2c01"  # 3, 9, 300
        )
        batch = encode_frame_v2(
            "query-batch", 9, {"results": {1: [0, 2], 2: [1]}, "epoch": 5}, response=True
        )
        assert binascii.hexlify(batch[HEADER.size :]).decode() == (
            "0500000000000000"  # epoch 5
            "02000000"  # two owners
            "01"  # id width 1
            "000000"  # zero pad
            "0100000000000000" "0200000000000000"  # owners 1, 2
            "02000000" "01000000"  # their counts
            "00" "02" "01"  # ids: [0, 2], then [1]
        )


# -- decoder fault handling ---------------------------------------------------


class TestFrameDecoder:
    def test_byte_at_a_time_feed(self):
        blob = encode_frame_v2("query", 5, {"owner": 9}) + encode_frame_v2("ping", 6)
        decoder = FrameDecoder()
        frames = []
        for i in range(len(blob)):
            frames.extend(decoder.feed(blob[i : i + 1]))
        assert [f.message["id"] for f in frames] == [5, 6]
        assert decoder.buffered == 0

    def test_crc_flip_poisons_with_bad_crc(self):
        blob = bytearray(encode_frame_v2("query", 5, {"owner": 9}))
        blob[HEADER.size] ^= 0xFF  # flip a payload byte, crc now stale
        decoder = FrameDecoder()
        assert decoder.feed(bytes(blob)) == []
        assert decoder.error is not None and decoder.error.code == "bad-crc"
        # Poisoned: later feeds yield nothing even for valid frames.
        assert decoder.feed(encode_frame_v2("ping", 1)) == []

    def test_frames_before_the_malformed_one_still_come_out(self):
        good = encode_frame_v2("ping", 1)
        bad = bytearray(encode_frame_v2("query", 2, {"owner": 3}))
        bad[-1] ^= 0x01
        decoder = FrameDecoder()
        frames = decoder.feed(good + bytes(bad))
        assert [f.message["id"] for f in frames] == [1]
        assert decoder.error.code == "bad-crc"

    def test_bad_version_byte(self):
        blob = bytearray(encode_frame_v2("ping", 1))
        blob[4] = 3
        decoder = FrameDecoder()
        decoder.feed(bytes(blob))
        assert decoder.error.code == "bad-version"

    def test_giant_length_rejected_from_the_header_alone(self):
        header = HEADER.pack(MAGIC, 2, 1, 0, 1, MAX_FRAME_BYTES + 1, 0)
        decoder = FrameDecoder()
        decoder.feed(header)  # no payload bytes needed to refuse
        assert decoder.error.code == "frame-too-large"

    def test_truncated_frame_is_not_an_error_yet(self):
        blob = encode_frame_v2("query", 5, {"owner": 9})
        decoder = FrameDecoder()
        assert decoder.feed(blob[:-1]) == [] and decoder.error is None
        assert decoder.buffered == len(blob) - 1
        assert [f.message["id"] for f in decoder.feed(blob[-1:])] == [5]

    def test_bytes_without_the_magic_are_bad_magic(self):
        # A length-prefixed JSON frame is not a frame of this protocol.
        decoder = FrameDecoder()
        decoder.feed(b"\x00\x00\x00\x04oops")
        assert decoder.error.code == "bad-magic"


# -- live-server corruption / fuzz harness ------------------------------------


def run_against_server(body, **server_kwargs):
    """Start a PPIServer on the test's index, run ``body(server)``."""

    async def main():
        server = await PPIServer(make_index(), **server_kwargs).start()
        try:
            await body(server)
        finally:
            await server.stop()

    asyncio.run(main())


async def raw_connection(server):
    return await asyncio.open_connection(*server.address)


class TestServerConformance:
    def test_pipelined_requests_answered_in_order_never_mixed(self):
        index = make_index()

        async def body(server):
            reader, writer = await raw_connection(server)
            owners = [3, 0, 7, 1, 11, 5, 2, 9]
            burst = b"".join(
                encode_frame_v2("query", 100 + k, {"owner": oid})
                for k, oid in enumerate(owners)
            )
            writer.write(burst)  # one write: one server read, one writev back
            await writer.drain()
            for k, oid in enumerate(owners):
                message = await read_any_frame(reader)
                assert message["id"] == 100 + k  # in order, ids never swapped
                assert message["owner"] == oid
                assert message["providers"] == index.query(oid)
            writer.close()

        run_against_server(body)

    def test_crc_flip_gets_a_typed_error_then_eof(self):
        async def body(server):
            reader, writer = await raw_connection(server)
            blob = bytearray(encode_frame_v2("query", 5, {"owner": 9}))
            blob[HEADER.size] ^= 0xFF
            writer.write(bytes(blob))
            await writer.drain()
            message = await read_any_frame(reader)
            assert message["ok"] is False and message["code"] == "bad-crc"
            with pytest.raises(ConnectionClosed):
                await read_any_frame(reader)  # framing lost: connection dropped
            writer.close()
            # The *server* survived; a fresh connection still works.
            reader, writer = await raw_connection(server)
            writer.write(encode_frame_v2("ping", 1))
            await writer.drain()
            pong = await read_any_frame(reader)
            assert pong["ok"] is True
            writer.close()

        run_against_server(body)

    def test_good_frames_in_the_same_chunk_are_answered_before_the_error(self):
        async def body(server):
            reader, writer = await raw_connection(server)
            bad = bytearray(encode_frame_v2("query", 2, {"owner": 3}))
            bad[-1] ^= 0x01
            writer.write(encode_frame_v2("ping", 1) + bytes(bad))
            await writer.drain()
            pong = await read_any_frame(reader)
            assert pong == {"id": 1, "ok": True}
            err = await read_any_frame(reader)
            assert err["ok"] is False and err["code"] == "bad-crc"
            writer.close()

        run_against_server(body)

    def test_giant_declared_length_is_refused_before_the_payload(self):
        async def body(server):
            reader, writer = await raw_connection(server)
            writer.write(HEADER.pack(MAGIC, 2, 1, 0, 1, MAX_FRAME_BYTES + 1, 0))
            await writer.drain()
            message = await read_any_frame(reader)
            assert message["code"] == "frame-too-large"
            writer.close()

        run_against_server(body)

    def test_bad_version_is_refused_with_a_typed_error(self):
        async def body(server):
            reader, writer = await raw_connection(server)
            blob = bytearray(encode_frame_v2("ping", 1))
            blob[4] = 9
            writer.write(bytes(blob))
            await writer.drain()
            message = await read_any_frame(reader)
            assert message["code"] == "bad-version"
            writer.close()

        run_against_server(body)

    def test_mid_frame_disconnect_leaves_the_server_healthy(self):
        async def body(server):
            _, writer = await raw_connection(server)
            writer.write(encode_frame_v2("query", 5, {"owner": 9})[:10])
            await writer.drain()
            writer.close()  # half a frame, then gone
            await asyncio.sleep(0)  # let the server task observe the EOF
            reader, writer = await raw_connection(server)
            writer.write(encode_frame_v2("query", 6, {"owner": 9}))
            await writer.drain()
            message = await read_any_frame(reader)
            assert message["ok"] is True and message["id"] == 6
            writer.close()

        run_against_server(body)

    @pytest.mark.parametrize(
        "garbage",
        [
            b'\x00\x00\x00\x13{"id":1,"verb":"ping"}',  # length-prefixed JSON
            b"GET / HTTP/1.1\r\n\r\n",
            b"ePP",  # a magic cut short, then more bytes than a header
        ],
        ids=["json-frame", "http", "short-magic"],
    )
    def test_non_magic_bytes_get_a_typed_error_then_eof(self, garbage):
        async def body(server):
            reader, writer = await raw_connection(server)
            writer.write(garbage + bytes(HEADER.size))
            await writer.drain()
            message = await read_any_frame(reader)
            assert message["ok"] is False and message["code"] == "bad-magic"
            with pytest.raises(ConnectionClosed):
                await read_any_frame(reader)  # framing lost: connection dropped
            writer.close()

        run_against_server(body)

    def test_protocol_error_counter_increments_on_garbage(self):
        async def body(server):
            reader, writer = await raw_connection(server)
            writer.write(b"\xff\xff\xff\xff garbage")
            await writer.drain()
            message = await read_any_frame(reader)
            assert message["code"] == "bad-magic"
            writer.close()
            reader, writer = await raw_connection(server)
            writer.write(encode_frame_v2("stats", 1))
            await writer.drain()
            message = await read_any_frame(reader)
            assert message["stats"]["counters"]["protocol_errors_total"] == 1
            writer.close()

        run_against_server(body)

    def test_warm_response_is_byte_identical_modulo_request_id(self):
        """The slab cache's zero-copy promise, observed on the wire."""

        async def body(server):
            reader, writer = await raw_connection(server)

            async def raw_reply(rid):
                writer.write(encode_frame_v2("query", rid, {"owner": 4}))
                await writer.drain()
                header = await reader.readexactly(HEADER.size)
                (length,) = struct.unpack_from("<I", header, 16)
                return header, await reader.readexactly(length)

            cold_head, cold_payload = await raw_reply(1)
            warm_head, warm_payload = await raw_reply(2)
            assert cold_payload == warm_payload
            assert cold_head[:8] == warm_head[:8]  # magic/version/verb/flags
            assert cold_head[16:] == warm_head[16:]  # length + crc
            assert struct.unpack_from("<Q", cold_head, 8)[0] == 1
            assert struct.unpack_from("<Q", warm_head, 8)[0] == 2
            assert zlib.crc32(warm_payload) == struct.unpack_from("<I", warm_head, 20)[0]
            writer.close()

        run_against_server(body)


# -- compat points ------------------------------------------------------------
#
# Each is an option that takes one value: the frozen benchmark harness
# passes it.  Any other value is refused, never silently ignored.


class TestCompatPoints:
    def test_server_handle_takes_only_protocol_2(self):
        server = PPIServer(make_index())

        async def body():
            reply = await server.handle("query", {"owner": 4}, 7, 2)
            assert decode_one(b"".join(reply.parts)).message["owner"] == 4
            with pytest.raises(ValueError, match="protocol"):
                await server.handle("query", {"owner": 4}, 7, 1)

        asyncio.run(body())

    @pytest.mark.parametrize("protocols", [(1,), (1, 2), ()])
    def test_frame_decoder_takes_only_protocols_2(self, protocols):
        FrameDecoder(protocols=(2,))
        with pytest.raises(ValueError, match="protocols"):
            FrameDecoder(protocols=protocols)

    @pytest.mark.parametrize("protocol", ["v1", "auto"])
    def test_client_takes_only_protocol_v2(self, protocol):
        LocatorClient([("127.0.0.1", 1)], protocol="v2")
        with pytest.raises(ValueError, match="protocol"):
            LocatorClient([("127.0.0.1", 1)], protocol=protocol)

    @pytest.mark.parametrize("protocol", ["v1", "both"])
    def test_serve_takes_only_protocol_v2(self, protocol):
        refused = subprocess.run(
            [sys.executable, "-m", "repro", "serve", "--snapshot", "missing.npz",
             "--protocol", protocol],
            capture_output=True, text=True, env={"PYTHONPATH": str(SRC)},
        )
        assert refused.returncode == 2  # argparse: invalid choice
        assert "invalid choice" in refused.stderr
