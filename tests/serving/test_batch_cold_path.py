"""The v2 ``query-batch`` path: kernel-packed cold replies, the lazy
``ResponseSlab``, and the checks the vectorised path must keep.

Most tests drive ``PPIServer._serve_one`` / ``_encode_reply`` in process
(the exact calls the connection loop makes per frame) so they can compare
reply *bytes* with a per-owner reference encoding and look inside the
slab; the reload and bool-id tests go over real sockets.
"""

import asyncio
import gc
import pathlib

import numpy as np
import pytest

from repro.core.index import PPIIndex
from repro.core.postings import PostingsIndex
from repro.serving.client import LocatorClient, RetryPolicy
from repro.serving.protocol import VERB_QUERY, VERB_QUERY_BATCH, VERB_RELOAD, RemoteError
from repro.serving.protocol_v2 import (
    FrameDecoder,
    batch_response_parts,
    pack_batch_segment,
)
from repro.serving.server import PPIServer, ResponseSlab, ShardSpec
from repro.serving.snapshot import save_snapshot
from repro.updates.deltalog import DeltaLog
from repro.updates.segments import OverlayIndex, load_segment, seal_segment

DATA = pathlib.Path(__file__).parent / "data"

N_PROVIDERS = 9
N_OWNERS = 40


def dense_index(seed: int = 0) -> PPIIndex:
    rng = np.random.default_rng(seed)
    matrix = (rng.random((N_PROVIDERS, N_OWNERS)) < 0.4).astype(np.uint8)
    matrix[:, 3] = 0  # an empty row
    matrix[:, 4] = 1  # a broadcast row
    return PPIIndex(matrix)


def overlay_index(tmp_path) -> OverlayIndex:
    """The dense index under one sealed segment: an upsert, a tombstone and
    a newcomer past the base (so id-gap owners exist too)."""
    log_path = str(tmp_path / "delta.log")
    with DeltaLog.create(log_path, N_PROVIDERS, noise_key=b"k" * 32) as log:
        log.upsert(5, [0, 8], beta=0.5)
        log.remove(7)
        log.upsert(N_OWNERS + 2, [1], beta=0.9)
        segment_path = str(tmp_path / "0000.seg.npz")
        seal_segment(log, segment_path, base_epoch=0)
    return OverlayIndex(PostingsIndex.from_index(dense_index()), [load_segment(segment_path)])


@pytest.fixture(params=["dense", "postings", "overlay"])
def index(request, tmp_path):
    """Every ``ServableIndex`` feeds the same kernel."""
    if request.param == "dense":
        return dense_index()
    if request.param == "postings":
        return PostingsIndex.from_index(dense_index())
    return overlay_index(tmp_path)


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
    """The parent's rendering: one ``pack_batch_segment`` per unique owner."""
    unique = list(dict.fromkeys(owners))
    return b"".join(
        batch_response_parts(
            request_id, epoch, [pack_batch_segment(o, index.query(o)) for o in unique]
        )
    )


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
        batches = [
            list(range(0, n, 3)),  # fully cold: the contiguous reply
            [4, 4, 3, 4, 3],  # duplicates, cold
            [1, 0, 2, 3, 5, 4, 6],  # hits and misses interleaved
            [6, 1, 6, 7, 8, 1, n - 1],  # duplicates across hits and misses
            list(range(n)),  # every owner, mostly warm
            [],
        ]
        for k, owners in enumerate(batches):
            wire, message = serve(server, VERB_QUERY_BATCH, k + 1, owners=owners)
            assert wire == reference_batch_reply(index, owners, k + 1, 3)
            assert message == {
                "id": k + 1,
                "ok": True,
                "results": {str(o): index.query(o) for o in dict.fromkeys(owners)},
                "epoch": 3,
            }

    def test_fully_cold_reply_is_one_contiguous_part(self):
        server = PPIServer(dense_index())

        async def body():
            reply = await server.handle(VERB_QUERY_BATCH, {"owners": [0, 1, 2, 1]}, 1)
            mixed = await server.handle(VERB_QUERY_BATCH, {"owners": [2, 9, 0]}, 2)
            return reply.parts, mixed.parts

        cold, mixed = asyncio.run(body())
        assert len(cold) == 3  # frame header, batch head, the kernel's buffer
        assert len(mixed) == 2 + 3  # scatter-gathered per owner

    def test_hit_and_miss_counters_count_unique_owners(self, index):
        server = PPIServer(index)
        serve(server, VERB_QUERY_BATCH, 1, owners=[0, 1, 1, 2])
        assert cache_counters(server) == (0, 3)
        serve(server, VERB_QUERY_BATCH, 2, owners=[2, 3, 0, 3])
        assert cache_counters(server) == (2, 4)

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
        serve(server, VERB_QUERY_BATCH, 1, owners=[0, 2, 4])
        cached = dict(server._response_cache._data)  # contents; recency may move
        counters = cache_counters(server)
        served = server.metrics.snapshot()["counters"]["queries_served"]
        good = [2, 6, 8, 0, 10]  # hits (0, 2) and would-be misses, all shard 0
        cut = {"first": 0, "middle": 3, "last": len(good)}[position]
        _, message = serve(
            server, VERB_QUERY_BATCH, 2, owners=good[:cut] + [bad] + good[cut:]
        )
        assert message["ok"] is False and message["code"] == code
        assert dict(server._response_cache._data) == cached
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


class TestLazySlab:
    def test_batch_miss_renders_a_segment_only(self, index):
        server = PPIServer(index)
        serve(server, VERB_QUERY_BATCH, 1, owners=[5, 6])
        slab = server._response_cache.get(5)
        assert type(slab._v2_segment) is bytes
        assert slab._providers is None
        assert slab._v2_frame is None

    def test_point_miss_renders_its_own_encoding_only(self, index):
        server = PPIServer(index)
        serve(server, VERB_QUERY, 1, owner=5)
        slab = server._response_cache.get(5)
        assert slab._v2_frame is not None
        assert slab._v2_segment is None

    def test_query_after_a_batch_miss_renders_lazily_and_matches_the_index(
        self, index
    ):
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
        # Every one of those was a slab hit rendered from the cached segment.
        assert cache_counters(server) == (len(owners), len(owners))

    def test_batch_after_a_point_miss_packs_the_segment_lazily(self, index):
        server = PPIServer(index)
        serve(server, VERB_QUERY, 1, owner=5)
        wire, _ = serve(server, VERB_QUERY_BATCH, 2, owners=[4, 5])
        assert wire == reference_batch_reply(index, [4, 5], 2, 0)
        assert cache_counters(server) == (1, 2)

    def test_every_encoding_agrees_from_either_source(self):
        providers = [0, 3, 2**31 - 1]
        from_list = ResponseSlab(2**40 + 1, providers, 9)
        from_segment = ResponseSlab(
            2**40 + 1, pack_batch_segment(2**40 + 1, providers), 9
        )
        assert from_segment.providers == providers
        assert from_list.v2_segment == from_segment.v2_segment
        assert from_list.v2_frame.encode(1) == from_segment.v2_frame.encode(1)


def _reachable_buffer_bytes(root) -> int:
    """Bytes of every buffer reachable from ``root`` (a view counts for the
    whole buffer it keeps alive)."""
    seen, stack, total = set(), [root], 0
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, type):
            continue
        seen.add(id(obj))
        if isinstance(obj, (bytes, bytearray)):
            total += len(obj)
        elif isinstance(obj, memoryview):
            stack.append(obj.obj)
        elif isinstance(obj, np.ndarray):
            total += obj.nbytes if obj.base is None else 0
            stack.append(obj.base)
        stack.extend(gc.get_referents(obj))
    return total


class TestSlabMemoryIsBounded:
    def test_cache_keeps_at_most_capacity_segments_worth_of_bytes(self):
        """One surviving LRU entry must not pin a whole batch buffer."""
        capacity = 6
        index = PostingsIndex.from_index(dense_index())
        server = PPIServer(index, response_cache_size=capacity)
        segment_bytes = [len(pack_batch_segment(o, index.query(o))) for o in range(N_OWNERS)]
        for k, start in enumerate(range(0, N_OWNERS, 8)):
            owners = list(range(start, start + 8))
            wire, _ = serve(server, VERB_QUERY_BATCH, k + 1, owners=owners)
            assert wire == reference_batch_reply(index, owners, k + 1, 0)
        cache = server._response_cache
        assert len(cache) == capacity
        assert all(type(slab._v2_segment) is bytes for slab in cache._data.values())
        assert _reachable_buffer_bytes(cache._data) == sum(segment_bytes[-capacity:])
        assert _reachable_buffer_bytes(cache._data) <= capacity * max(segment_bytes)


class TestReloadBetweenBatches:
    N = 10

    def index_a(self) -> PPIIndex:
        matrix = np.zeros((8, self.N), dtype=np.uint8)
        for j in range(self.N):
            matrix[: j % 8 + 1 : 2, j] = 1
        return PPIIndex(matrix)

    def index_b(self) -> PPIIndex:
        return PPIIndex(1 - self.index_a().matrix)  # A and B never agree

    def test_no_reply_mixes_epochs_or_serves_pre_swap_segments(self, tmp_path):
        path_a, path_b = str(tmp_path / "a.npz"), str(tmp_path / "b.npz")
        save_snapshot(self.index_a(), path_a, format_version=3, epoch=0)
        save_snapshot(self.index_b(), path_b, format_version=3, epoch=1)
        rows = {
            0: {str(j): self.index_a().query(j) for j in range(self.N)},
            1: {str(j): self.index_b().query(j) for j in range(self.N)},
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
                # Post-swap, straight off the slab: the cached segments are
                # epoch-1 bytes.
                for slab in server._response_cache._data.values():
                    assert slab.epoch == 1
                    assert slab.v2_segment == pack_batch_segment(
                        slab.owner_id, self.index_b().query(slab.owner_id)
                    )
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
            assert response["results"] == {str(o): expected[str(o)] for o in dict.fromkeys(owners)}
