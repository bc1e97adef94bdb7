"""The v2 ``query-batch`` path: one kernel call per batch, no slab, and
the checks the vectorised path must keep.

A batch neither reads nor fills the server's ``ResponseSlab`` LRU, which
holds point-query frames only.  Most tests drive ``PPIServer._serve_one`` /
``_encode_reply`` in process (the exact calls the connection loop makes
per frame) so they can compare reply *bytes* with a reference encoding
written field by field with ``struct`` and look inside the slab; the
reload and bool-id tests go over real sockets.
"""

import asyncio
import json
import pathlib
import struct
import zlib

import numpy as np
import pytest

from repro.core.postings import PostingsIndex
from repro.serving.client import LocatorClient, RetryPolicy
from repro.serving.protocol import VERB_QUERY, VERB_QUERY_BATCH, VERB_RELOAD, RemoteError
from repro.serving.protocol_v2 import (
    FLAG_JSON,
    FLAG_RESPONSE,
    HEADER,
    MAGIC,
    FrameDecoder,
    encode_frame_v2,
)
from repro.serving.server import PPIServer, ShardSpec
from repro.serving.snapshot import save_snapshot
from repro.updates.deltalog import DeltaLog
from repro.updates.segments import load_segment, merge_segments, seal_segment

DATA = pathlib.Path(__file__).parent / "data"

N_PROVIDERS = 9
N_OWNERS = 40


def dense_index(seed: int = 0, n_providers: int = N_PROVIDERS) -> PostingsIndex:
    rng = np.random.default_rng(seed)
    matrix = (rng.random((n_providers, N_OWNERS)) < 0.4).astype(np.uint8)
    matrix[:, 3] = 0  # an empty row
    matrix[:, 4] = 1  # a broadcast row
    return PostingsIndex.from_dense(matrix)


def merged_index(tmp_path) -> PostingsIndex:
    """The dense index with one sealed segment folded in: an upsert, a
    tombstone and a newcomer past the base (so id-gap owners exist too)."""
    log_path = str(tmp_path / "delta.log")
    with DeltaLog.create(log_path, N_PROVIDERS, noise_key=b"k" * 32) as log:
        log.upsert(5, [0, 8], beta=0.5)
        log.remove(7)
        log.upsert(N_OWNERS + 2, [1], beta=0.9)
        segment_path = str(tmp_path / "0000.seg.npz")
        seal_segment(log, segment_path, base_epoch=0)
    return merge_segments(dense_index(), [load_segment(segment_path)])


@pytest.fixture(params=["dense", "postings", "merged", "wide"])
def index(request, tmp_path):
    """Every ``ServableIndex`` feeds the same kernel; ``wide`` has ids past
    one byte, so its replies carry two-byte ids."""
    if request.param == "dense":
        return dense_index()
    if request.param == "postings":
        return dense_index()
    if request.param == "wide":
        return dense_index(n_providers=300)
    return merged_index(tmp_path)


def serve(server: PPIServer, verb: str, request_id: int, **fields):
    """One frame through the server, as the connection loop does it: the
    reply's wire bytes and its decoded message."""

    async def body():
        message = {"id": request_id, "verb": verb, **fields}
        response = await server._serve_one(message)
        return b"".join(server._encode_reply(verb, response))

    wire = asyncio.run(body())
    (frame,) = FrameDecoder().feed(wire)
    return wire, frame.message


def reference_batch_reply(index, owners, request_id: int, epoch: int) -> bytes:
    """The reply from the layout table: the unique owners' ids, counts and
    provider ids as three columns, ids at the fewest bytes that hold the
    largest."""
    unique = list(dict.fromkeys(owners))
    rows = [index.query(o) for o in unique]
    flat = [p for row in rows for p in row]
    width, code = next(
        (w, c) for w, c in ((1, "B"), (2, "H"), (4, "I")) if max(flat, default=0) < 256**w
    )
    payload = (
        struct.pack("<QIB3x", epoch, len(unique), width)
        + struct.pack(f"<{len(unique)}Q", *unique)
        + struct.pack(f"<{len(rows)}I", *map(len, rows))
        + struct.pack(f"<{len(flat)}{code}", *flat)
    )
    return HEADER.pack(
        MAGIC, 2, 5, FLAG_RESPONSE, request_id, len(payload), zlib.crc32(payload)
    ) + payload


def slab_state(server: PPIServer) -> list:
    """The slab's entries, in LRU order (least recent first)."""
    return list(server._response_cache._data.items())


def cache_counters(server: PPIServer) -> tuple:
    counters = server.metrics.snapshot()["counters"]
    return (
        counters.get("response_cache_hits_total", 0),
        counters.get("response_cache_misses_total", 0),
    )


class TestBatchReplies:
    def test_cold_duplicate_and_mixed_batches_match_the_reference(self, index):
        server = PPIServer(index, epoch=3)
        n = index.n_owners
        for owner in (0, 1, 2, 6):  # point slabs the batches must not use
            serve(server, VERB_QUERY, 100 + owner, owner=owner)
        batches = [
            list(range(0, n, 3)),
            [4, 4, 3, 4, 3],  # duplicates
            [1, 0, 2, 3, 5, 4, 6],  # owners with and without a point slab
            [6, 1, 6, 7, 8, 1, n - 1],  # duplicates of both kinds
            list(range(n)),
            [],
        ]
        for k, owners in enumerate(batches):
            wire, message = serve(server, VERB_QUERY_BATCH, k + 1, owners=owners)
            assert wire == reference_batch_reply(index, owners, k + 1, 3)
            assert message == {
                "id": k + 1,
                "ok": True,
                "results": {o: index.query(o) for o in dict.fromkeys(owners)},
                "epoch": 3,
            }

    def test_every_reply_is_the_gathers_three_columns(self):
        server = PPIServer(dense_index())

        async def body():
            await server.handle(VERB_QUERY, {"owner": 2}, 1)  # a point slab
            cold = await server.handle(VERB_QUERY_BATCH, {"owners": [0, 1, 3, 1]}, 2)
            mixed = await server.handle(VERB_QUERY_BATCH, {"owners": [2, 9, 0]}, 3)
            return cold.parts, mixed.parts

        for parts in asyncio.run(body()):
            # frame header, batch head, then the owner, count and id columns
            assert len(parts) == 5

    def test_every_unique_batch_owner_counts_as_a_miss(self, index):
        server = PPIServer(index)
        serve(server, VERB_QUERY_BATCH, 1, owners=[0, 1, 1, 2])
        assert cache_counters(server) == (0, 3)
        serve(server, VERB_QUERY, 2, owner=0)  # a point miss fills the slab
        serve(server, VERB_QUERY, 3, owner=0)  # ... and the next one hits it
        assert cache_counters(server) == (1, 4)
        serve(server, VERB_QUERY_BATCH, 4, owners=[2, 3, 0, 3])  # 0 is cached
        assert cache_counters(server) == (1, 7)
        assert server.metrics.snapshot()["counters"]["queries_served"] == 10

    def test_live_cold_reply_reproduces_the_golden_batch_frame(self):
        """The kernel path writes the pinned bytes of
        ``protocol_v2_batch_response.bin`` (owners 1 -> [0, 2], 2 -> [1])."""
        matrix = np.zeros((3, 3), dtype=np.uint8)
        matrix[[0, 2], 1] = 1
        matrix[1, 2] = 1
        server = PPIServer(PostingsIndex.from_dense(matrix), epoch=5)
        wire, _ = serve(server, VERB_QUERY_BATCH, 9, owners=[1, 2])
        assert wire == (DATA / "protocol_v2_batch_response.bin").read_bytes()


class TestRejectedBatchesLeaveNoTrace:
    @pytest.mark.parametrize(
        "bad, code",
        [(7, "wrong-shard"), (N_OWNERS + 100, "bad-request")],
        ids=["wrong-shard", "unknown-owner"],
    )
    @pytest.mark.parametrize("position", ["first", "middle", "last"])
    def test_cache_and_counters_untouched(self, index, bad, code, position):
        server = PPIServer(index, ShardSpec(0, 2))
        for owner in (0, 2, 4):
            serve(server, VERB_QUERY, 1, owner=owner)
        serve(server, VERB_QUERY_BATCH, 1, owners=[0, 2, 4])
        cached = slab_state(server)
        counters = cache_counters(server)
        served = server.metrics.snapshot()["counters"]["queries_served"]
        good = [2, 6, 8, 0, 10]  # hits (0, 2) and would-be misses, all shard 0
        cut = {"first": 0, "middle": 3, "last": len(good)}[position]
        _, message = serve(
            server, VERB_QUERY_BATCH, 2, owners=good[:cut] + [bad] + good[cut:]
        )
        assert message["ok"] is False and message["code"] == code
        assert slab_state(server) == cached
        assert cache_counters(server) == counters
        assert server.metrics.snapshot()["counters"]["queries_served"] == served

    @pytest.mark.parametrize("owner", [2**63, 2**64 + 5], ids=["2^63", "2^64+5"])
    def test_owner_ids_past_int64_are_unknown_like_query_says(self, index, owner):
        """An id outside int64 used to overflow the id array and answer
        ``internal``; it is an unknown owner, whichever verb asks."""
        server = PPIServer(index)
        for verb, fields in (
            (VERB_QUERY, {"owner": owner}),
            (VERB_QUERY_BATCH, {"owners": [1, owner]}),
        ):
            _, message = serve(server, verb, 1, **fields)
            assert message["ok"] is False
            assert message["code"] == "bad-request", message
            assert f"unknown owner id {owner}" in message["error"]
        assert cache_counters(server) == (0, 0)

    @pytest.mark.parametrize("owner", [2**63, 2**64 + 5], ids=["2^63", "2^64+5"])
    def test_owner_ids_past_int64_over_the_wire(self, owner):
        """2^64 + 5 has no u64 form: the request rides the JSON fallback."""

        async def body():
            server = await PPIServer(dense_index()).start()
            client = LocatorClient(
                [server.address], retry=RetryPolicy(max_retries=0, timeout_s=2.0)
            )
            try:
                with pytest.raises(RemoteError) as err:
                    await client.query_batch([0, owner])
                assert err.value.code == "bad-request"
                assert await client.query_batch([0]) == {0: dense_index().query(0)}
            finally:
                await client.close()
                await server.stop()

        asyncio.run(body())

    def test_boolean_owner_ids_are_rejected_like_query_rejects_them(self):
        """``True`` is an ``int``: the batch verb used to answer owner 1."""

        async def body():
            server = await PPIServer(dense_index()).start()
            client = LocatorClient(
                [server.address],
                retry=RetryPolicy(max_retries=0, timeout_s=2.0),
            )
            try:
                for verb, fields in (
                    (VERB_QUERY_BATCH, {"owners": [2, True]}),
                    (VERB_QUERY_BATCH, {"owners": [False]}),
                    (VERB_QUERY, {"owner": True}),
                ):
                    with pytest.raises(RemoteError) as err:
                        await client.call(server.address, verb, **fields)
                    assert err.value.code == "bad-request"
                    assert "integer" in str(err.value)
                # Nothing was looked up, and the connection still serves.
                assert cache_counters(server) == (0, 0)
                assert await client.query_batch([1, 2]) == {
                    1: dense_index().query(1),
                    2: dense_index().query(2),
                }
            finally:
                await client.close()
                await server.stop()

        asyncio.run(body())


class TestBatchesBypassTheSlab:
    def test_batch_leaves_slab_contents_and_lru_order_untouched(self, index):
        server = PPIServer(index)
        for owner in (5, 1, 7):
            serve(server, VERB_QUERY, 1, owner=owner)
        before = slab_state(server)
        serve(server, VERB_QUERY_BATCH, 2, owners=[7, 5, 9, 1, 0, 5])
        serve(server, VERB_QUERY_BATCH, 3, owners=list(range(index.n_owners)))
        after = slab_state(server)
        assert [k for k, _ in after] == [5, 1, 7]  # no batch owner moved or joined
        assert all(a is b for (_, a), (_, b) in zip(after, before))

    def test_point_hot_set_survives_a_cold_batch_lap(self, index):
        """A lap of batches over more owners than the slab holds used to
        evict every point-query slab."""
        capacity = 8
        server = PPIServer(index, response_cache_size=capacity)
        hot = list(range(0, 2 * capacity, 2))
        for owner in hot:
            serve(server, VERB_QUERY, 1, owner=owner)
        owners = list(range(index.n_owners))
        assert len(owners) > capacity
        for k, start in enumerate(range(0, len(owners), 5)):
            serve(server, VERB_QUERY_BATCH, k + 2, owners=owners[start : start + 5])
        hits, misses = cache_counters(server)
        for owner in hot:
            _, message = serve(server, VERB_QUERY, 99, owner=owner)
            assert message["providers"] == index.query(owner)
        assert cache_counters(server) == (hits + len(hot), misses)

    def test_point_miss_renders_the_query_frame(self, index):
        server = PPIServer(index, epoch=2)
        wire, message = serve(server, VERB_QUERY, 7, owner=5)
        assert message == {
            "id": 7, "ok": True, "owner": 5, "providers": index.query(5), "epoch": 2,
        }
        slab = server._response_cache.get(5)
        assert (slab.owner_id, slab.epoch) == (5, 2)
        assert b"".join(slab.v2_frame.encode(7)) == wire

    def test_query_after_a_batch_renders_from_the_index(self, index):
        server = PPIServer(index, epoch=2)
        owners = list(range(index.n_owners))
        serve(server, VERB_QUERY_BATCH, 1, owners=owners)
        reference = PPIServer(index, epoch=2)  # never saw a batch
        for owner in owners:
            wire, message = serve(server, VERB_QUERY, 7, owner=owner)
            assert message == {
                "id": 7,
                "ok": True,
                "owner": owner,
                "providers": index.query(owner),
                "epoch": 2,
            }
            assert wire == serve(reference, VERB_QUERY, 7, owner=owner)[0]
        # The batch left no slab behind: every point query was a miss.
        assert cache_counters(server) == (0, 2 * len(owners))


class TestDecodedShape:
    def test_binary_and_json_replies_decode_to_the_same_int_keyed_dict(self):
        results = {2**40 + 1: [0, 3], 7: [], 0: [5]}
        binary = encode_frame_v2("query-batch", 9, {"results": results, "epoch": 4}, response=True)
        assert not HEADER.unpack_from(binary)[3] & FLAG_JSON
        payload = json.dumps({"epoch": 4, "results": results}).encode()
        as_json = HEADER.pack(
            MAGIC, 2, 5, FLAG_RESPONSE | FLAG_JSON, 9, len(payload), zlib.crc32(payload)
        ) + payload
        (a,), (b,) = FrameDecoder().feed(binary), FrameDecoder().feed(as_json)
        assert a.message == b.message == {"id": 9, "ok": True, "results": results, "epoch": 4}
        for message in (a.message, b.message):
            assert [type(o) for o in message["results"]] == [int] * len(results)
            assert list(message["results"]) == list(results)  # reply order kept

    @pytest.mark.parametrize("cache_size", [0, 16], ids=["uncached", "cached"])
    @pytest.mark.parametrize("n_shards", [1, 2])
    def test_query_batch_answers_int_keys_on_every_path(self, n_shards, cache_size):
        index = dense_index()
        owners = [3, 0, 5, 3, 8, 1]
        expected = {o: index.query(o) for o in dict.fromkeys(owners)}

        async def body():
            servers = [
                await PPIServer(index, ShardSpec(k, n_shards)).start()
                for k in range(n_shards)
            ]
            client = LocatorClient(
                [s.address for s in servers], cache_size=cache_size,
                retry=RetryPolicy(max_retries=0, timeout_s=2.0),
            )
            try:
                first = await client.query_batch(owners)
                again = await client.query_batch(owners)  # hits, when cached
                empty = await client.query_batch([])
            finally:
                await client.close()
                for server in servers:
                    await server.stop()
            return first, again, empty

        first, again, empty = asyncio.run(body())
        assert first == again == expected and empty == {}
        assert all(type(o) is int for o in first)


class TestReloadBetweenBatches:
    N = 10

    def index_a(self) -> PostingsIndex:
        matrix = np.zeros((8, self.N), dtype=np.uint8)
        for j in range(self.N):
            matrix[: j % 8 + 1 : 2, j] = 1
        return PostingsIndex.from_dense(matrix)

    def index_b(self) -> PostingsIndex:
        return PostingsIndex.from_dense(1 - self.index_a().to_dense())  # A and B never agree

    def test_no_reply_mixes_epochs_or_serves_pre_swap_segments(self, tmp_path):
        path_a, path_b = str(tmp_path / "a.npz"), str(tmp_path / "b.npz")
        save_snapshot(self.index_a(), path_a, format_version=3, epoch=0)
        save_snapshot(self.index_b(), path_b, format_version=3, epoch=1)
        rows = {
            0: {j: self.index_a().query(j) for j in range(self.N)},
            1: {j: self.index_b().query(j) for j in range(self.N)},
        }

        async def body():
            server = await PPIServer(self.index_a(), snapshot_path=path_a).start()
            retry = RetryPolicy(max_retries=1, timeout_s=5.0, base_delay_s=0.005)
            clients = [
                LocatorClient([server.address], retry=retry, cache_size=0)
                for _ in range(3)
            ]
            observed = []
            stop = asyncio.Event()

            async def hammer(client, offset):
                k = offset
                while not stop.is_set():
                    # Overlapping windows: every batch mixes owners another
                    # connection just cached with ones it did not.
                    owners = [(k + i) % self.N for i in range(4)] + [k % self.N]
                    response = await client.call(
                        server.address, VERB_QUERY_BATCH, owners=owners
                    )
                    observed.append((owners, response))
                    k += 3

            try:
                tasks = [asyncio.ensure_future(hammer(c, i)) for i, c in enumerate(clients)]
                while len(observed) < 30:
                    await asyncio.sleep(0)
                await clients[0].call(server.address, VERB_RELOAD, snapshot=path_b)
                seen = len(observed)
                while len(observed) < seen + 30:
                    await asyncio.sleep(0)
                stop.set()
                await asyncio.gather(*tasks)
                # Post-swap point queries render epoch-1 bytes into the slab.
                for owner in range(self.N):
                    answer = await clients[0].call(server.address, VERB_QUERY, owner=owner)
                    assert (answer["epoch"], answer["providers"]) == (1, rows[1][owner])
                for slab in server._response_cache._data.values():
                    assert slab.epoch == 1
            finally:
                stop.set()
                for client in clients:
                    await client.close()
                await server.stop()
            return observed

        observed = asyncio.run(body())
        assert {response["epoch"] for _, response in observed} == {0, 1}
        for owners, response in observed:
            expected = rows[response["epoch"]]
            assert response["results"] == {o: expected[o] for o in dict.fromkeys(owners)}
