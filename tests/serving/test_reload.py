"""Hot-swap (``reload``) tests: epoch coherence end to end.

The regression at the heart of this file: a query that straddles a reload
must never be answered with pre-swap bytes.  The server swaps index, epoch
and pre-encoded response cache in one event-loop step, and every response
carries its epoch -- so the test can assert, for every response observed
under concurrent reloads, that the provider list is exactly the one its
epoch published.
"""

import asyncio
import os

import numpy as np
import pytest

from repro.core.index import PPIIndex
from repro.core.postings import PostingsIndex
from repro.serving.client import LocatorClient, RetryPolicy
from repro.serving.protocol import VERB_QUERY_BATCH, VERB_RELOAD, RemoteError
from repro.serving.server import PPIServer
from repro.serving.snapshot import save_snapshot

N_PROVIDERS = 8
N_OWNERS = 10


def index_a() -> PPIIndex:
    """Epoch-0 truth: owner j is published at even providers <= j."""
    matrix = np.zeros((N_PROVIDERS, N_OWNERS), dtype=np.uint8)
    for j in range(N_OWNERS):
        matrix[: j % N_PROVIDERS + 1 : 2, j] = 1
    return PPIIndex(matrix)


def index_b() -> PPIIndex:
    """Epoch-1 truth: complementary rows, so A and B never agree."""
    return PPIIndex(1 - index_a().matrix)


@pytest.fixture
def snapshots(tmp_path):
    a, b = str(tmp_path / "a.npz"), str(tmp_path / "b.npz")
    save_snapshot(index_a(), a, format_version=3, epoch=0)
    save_snapshot(index_b(), b, format_version=3, epoch=1)
    return a, b


def make_client(server, **kwargs) -> LocatorClient:
    kwargs.setdefault(
        "retry", RetryPolicy(max_retries=1, timeout_s=2.0, base_delay_s=0.005)
    )
    return LocatorClient(servers=[server.address], **kwargs)


class TestReloadVerb:
    def test_reload_swaps_index_epoch_and_counters(self, snapshots):
        path_a, path_b = snapshots

        async def body():
            server = await PPIServer(index_a(), snapshot_path=path_a).start()
            client = make_client(server)
            try:
                assert await client.query(3) == index_a().query(3)
                response = await client.call(
                    server.address, VERB_RELOAD, snapshot=path_b
                )
                assert response["epoch"] == 1
                assert server.epoch == 1
                assert server.snapshot_path == path_b
                stats = await client.stats(server.address)
                assert stats["counters"]["reloads_total"] == 1
                assert stats["gauges"]["epoch"] == 1.0
                # queries_served survived the swap (monotone counters).
                assert stats["counters"]["queries_served"] >= 1
            finally:
                await client.close()
                await server.stop()

        asyncio.run(body())

    def test_counters_accumulate_across_reloads(self, snapshots):
        """A reload swaps the index and response cache, never the metrics:
        monotone counters keep counting, and the emptied response cache
        shows up as a fresh miss for a previously hot owner."""
        path_a, path_b = snapshots

        async def body():
            server = await PPIServer(index_a(), snapshot_path=path_a).start()
            client = make_client(server, cache_size=0)
            try:
                await client.query(3)
                await client.query(3)  # served from the response cache
                stats = await client.stats(server.address)
                assert stats["counters"]["queries_served"] == 2
                assert stats["counters"]["response_cache_hits_total"] == 1
                assert stats["counters"]["response_cache_misses_total"] == 1

                await client.call(server.address, VERB_RELOAD, snapshot=path_b)
                await client.query(3)  # cache was dropped: a miss again
                stats = await client.stats(server.address)
                assert stats["counters"]["queries_served"] == 3
                assert stats["counters"]["response_cache_misses_total"] == 2
                assert stats["counters"]["reloads_total"] == 1
            finally:
                await client.close()
                await server.stop()

        asyncio.run(body())

    def test_reload_without_a_path_is_a_bad_request(self):
        async def body():
            server = await PPIServer(index_a()).start()  # no snapshot_path
            client = make_client(server)
            try:
                with pytest.raises(RemoteError, match="no snapshot path"):
                    await client.call(server.address, VERB_RELOAD)
            finally:
                await client.close()
                await server.stop()

        asyncio.run(body())

    def test_reload_defaults_to_the_boot_snapshot(self, snapshots):
        path_a, _ = snapshots

        async def body():
            server = await PPIServer(
                index_a(), snapshot_path=path_a, epoch=0
            ).start()
            client = make_client(server)
            try:
                response = await client.call(server.address, VERB_RELOAD)
                assert response["snapshot"] == path_a
                assert response["epoch"] == 0  # same epoch: allowed, not stale
            finally:
                await client.close()
                await server.stop()

        asyncio.run(body())

    def test_stale_snapshot_is_refused(self, snapshots):
        path_a, path_b = snapshots

        async def body():
            server = await PPIServer(index_b(), epoch=1).start()
            client = make_client(server)
            try:
                with pytest.raises(RemoteError, match="older than serving epoch"):
                    await client.call(server.address, VERB_RELOAD, snapshot=path_a)
                assert server.epoch == 1  # swap did not happen
            finally:
                await client.close()
                await server.stop()

        asyncio.run(body())


class TestStraddleRegression:
    def test_no_response_ever_mixes_epochs_under_concurrent_reload(self, snapshots):
        """Hammer one owner while the index hot-swaps underneath.

        Every single response must be self-consistent: epoch 0 with A's
        row, or epoch >= 1 with B's row.  A pre-swap payload served after
        the swap (the stale-response-cache bug) fails the assertion.
        """
        path_a, path_b = snapshots
        rows_a = {j: index_a().query(j) for j in range(N_OWNERS)}
        rows_b = {j: index_b().query(j) for j in range(N_OWNERS)}

        async def body():
            server = await PPIServer(index_a(), snapshot_path=path_a).start()
            client = make_client(server)
            observed = []
            stop = asyncio.Event()

            async def hammer(owner_id: int):
                while not stop.is_set():
                    response = await client.call(
                        server.address, "query", owner=owner_id
                    )
                    observed.append(
                        (owner_id, response["epoch"], response["providers"])
                    )

            try:
                tasks = [asyncio.ensure_future(hammer(j)) for j in range(4)]
                await asyncio.sleep(0.05)  # prime the pre-swap response cache
                await client.call(server.address, VERB_RELOAD, snapshot=path_b)
                await asyncio.sleep(0.05)  # keep querying post-swap
                stop.set()
                await asyncio.gather(*tasks)
            finally:
                await client.close()
                await server.stop()

            assert observed, "the hammer tasks never got a response in"
            epochs = {epoch for _, epoch, _ in observed}
            assert epochs == {0, 1}, "load did not straddle the reload"
            for owner_id, epoch, providers in observed:
                expected = rows_a[owner_id] if epoch == 0 else rows_b[owner_id]
                assert providers == expected, (
                    f"epoch-{epoch} response for owner {owner_id} carried "
                    f"the other epoch's bytes"
                )

        asyncio.run(body())

    def test_batch_responses_are_epoch_consistent_too(self, snapshots):
        path_a, path_b = snapshots

        async def body():
            server = await PPIServer(index_a(), snapshot_path=path_a).start()
            client = make_client(server)
            try:
                before = await client.call(
                    server.address, VERB_QUERY_BATCH, owners=[1, 3]
                )
                assert before["epoch"] == 0
                await client.call(server.address, VERB_RELOAD, snapshot=path_b)
                after = await client.call(
                    server.address, VERB_QUERY_BATCH, owners=[1, 3]
                )
                assert after["epoch"] == 1
                assert after["results"]["1"] == index_b().query(1)
            finally:
                await client.close()
                await server.stop()

        asyncio.run(body())


class TestClientCacheInvalidation:
    def test_first_newer_epoch_response_invalidates_older_entries(
        self, snapshots
    ):
        path_a, path_b = snapshots

        async def body():
            server = await PPIServer(index_a(), snapshot_path=path_a).start()
            client = make_client(server)
            try:
                assert await client.query(2) == index_a().query(2)
                assert await client.query(2) == index_a().query(2)  # cache hit
                assert client.cache.hits == 1

                await client.call(server.address, VERB_RELOAD, snapshot=path_b)
                # A different owner's fetch carries epoch 1 -> high-water
                # mark moves, every epoch-0 entry becomes a miss.
                assert await client.query(5) == index_b().query(5)
                assert client.fleet_epoch == 1
                assert client.epoch_invalidations == 1
                assert await client.query(2) == index_b().query(2)
            finally:
                await client.close()
                await server.stop()

        asyncio.run(body())

    def test_batch_entries_are_epoch_tagged_as_well(self, snapshots):
        path_a, path_b = snapshots

        async def body():
            server = await PPIServer(index_a(), snapshot_path=path_a).start()
            client = make_client(server)
            try:
                await client.query_batch([1, 2, 3])
                await client.call(server.address, VERB_RELOAD, snapshot=path_b)
                await client.query(4)  # observe epoch 1
                refreshed = await client.query_batch([1, 2, 3])
                assert refreshed == {j: index_b().query(j) for j in (1, 2, 3)}
            finally:
                await client.close()
                await server.stop()

        asyncio.run(body())


class TestFdLifetime:
    def test_reload_loop_leaks_no_file_descriptors(self, snapshots):
        """Each swap must release the previous snapshot's mmap + fd."""
        path_a, _ = snapshots

        async def body():
            server = await PPIServer(index_a(), snapshot_path=path_a).start()
            client = make_client(server)
            try:
                # One warm-up swap so lazily created executor threads and
                # pool connections are already accounted for.
                await client.call(server.address, VERB_RELOAD)
                fds_before = len(os.listdir("/proc/self/fd"))
                for _ in range(30):
                    await client.call(server.address, VERB_RELOAD)
                fds_after = len(os.listdir("/proc/self/fd"))
            finally:
                await client.close()
                await server.stop()
            assert fds_after - fds_before <= 2, (
                f"reload loop leaked {fds_after - fds_before} fds"
            )
            assert isinstance(server.store.index, PostingsIndex)

        asyncio.run(body())

    def test_release_closes_the_mmap_and_is_idempotent(self, snapshots):
        from repro.serving.snapshot import load_postings

        path_a, _ = snapshots
        postings = load_postings(path_a, mmap=True)
        assert postings.query(1) == index_a().query(1)
        postings.release()
        postings.release()  # second call is a no-op, not an error
        assert postings.n_owners == 0  # buffers dropped
