"""LocatorClient machinery: LRU cache, pooling, retries, timeouts, routing."""

import asyncio
import random
import time

import pytest

from repro.serving import PPIServer, ShardSpec, TransportError
from repro.serving.client import ConnectionPool, LocatorClient, LRUCache, RetryPolicy


def run(coro):
    return asyncio.run(coro)


class TestLRUCache:
    def test_eviction_order(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # refreshes a
        cache.put("c", 3)  # evicts b
        assert cache.get("b") is None
        assert cache.get("a") == 1
        assert cache.get("c") == 3

    def test_hit_miss_accounting(self):
        cache = LRUCache(4)
        cache.put("k", "v")
        cache.get("k")
        cache.get("nope")
        assert cache.hits == 1
        assert cache.misses == 1

    def test_zero_capacity_disables(self):
        cache = LRUCache(0)
        cache.put("k", "v")
        assert cache.get("k") is None
        assert len(cache) == 0

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            LRUCache(-1)

    def test_capacity_one_holds_exactly_the_last_key(self):
        cache = LRUCache(1)
        cache.put("a", 1)
        assert cache.get("a") == 1
        cache.put("b", 2)  # evicts a immediately
        assert cache.get("a") is None
        assert cache.get("b") == 2
        assert len(cache) == 1
        # Re-putting the resident key must not evict it.
        cache.put("b", 3)
        assert cache.get("b") == 3

    def test_eviction_follows_recency_not_insertion(self):
        cache = LRUCache(3)
        for key in "abc":
            cache.put(key, key)
        # Touch in reverse insertion order: recency is now c < b < a... no:
        # get() refreshes, so after touching a, b the LRU victim is c.
        cache.get("a")
        cache.get("b")
        cache.put("d", "d")
        assert cache.get("c") is None
        assert all(cache.get(k) is not None for k in "abd")

    def test_overwrite_refreshes_recency(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("a", 10)  # overwrite must refresh a, making b the victim
        cache.put("c", 3)
        assert cache.get("b") is None
        assert cache.get("a") == 10
        assert cache.get("c") == 3


class TestRetryPolicy:
    def test_backoff_is_capped_and_jittered(self):
        policy = RetryPolicy(base_delay_s=0.1, max_delay_s=0.3)
        rng = random.Random(0)
        delays = [policy.backoff_s(attempt, rng) for attempt in range(10)]
        assert all(0.0 <= d <= 0.3 for d in delays)

    def test_invalid_policy_rejected(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_retries=-1)
        with pytest.raises(ValueError):
            RetryPolicy(timeout_s=0)


class TestCaching:
    def test_repeat_queries_served_from_cache(self, served_network):
        _, index = served_network

        async def main():
            server = await PPIServer(index).start()
            client = LocatorClient(
                [server.address],
                retry=RetryPolicy(max_retries=0, timeout_s=0.5),
                cache_size=64,
            )
            try:
                first = await client.query(0)
                for _ in range(9):
                    assert await client.query(0) == first
                assert server.metrics.counter("queries_served").value == 1
                assert client.cache.hits == 9
            finally:
                await client.close()
                await server.stop()

        run(main())

    def test_cached_lists_are_isolated_copies(self, served_network):
        _, index = served_network

        async def main():
            server = await PPIServer(index).start()
            client = LocatorClient(
                [server.address],
                retry=RetryPolicy(max_retries=0, timeout_s=0.5),
            )
            try:
                first = await client.query(0)
                first.append(999_999)
                assert 999_999 not in await client.query(0)
            finally:
                await client.close()
                await server.stop()

        run(main())


class _FlakyServer:
    """Accepts connections but slams the door the first ``failures`` times."""

    def __init__(self, failures: int):
        self.failures = failures
        self.connections = 0
        self.server = None

    async def start(self):
        self.server = await asyncio.start_server(self._on_conn, "127.0.0.1", 0)
        return self.server.sockets[0].getsockname()[:2]

    def _on_conn(self, reader, writer):
        self.connections += 1
        if self.connections <= self.failures:
            writer.close()
            return
        asyncio.ensure_future(self._answer(reader, writer))

    async def _answer(self, reader, writer):
        from repro.serving.protocol import ok_response
        from repro.serving.protocol_v2 import encode_reply_v2, read_any_frame

        try:
            while True:
                message = await read_any_frame(reader)
                writer.writelines(
                    encode_reply_v2(message["verb"], ok_response(message["id"], pong=True))
                )
                await writer.drain()
        except Exception:
            writer.close()

    async def stop(self):
        self.server.close()
        await self.server.wait_closed()


class TestRetries:
    def test_transport_failures_retried_until_success(self):
        async def main():
            flaky = _FlakyServer(failures=2)
            addr = await flaky.start()
            client = LocatorClient(
                [addr],
                retry=RetryPolicy(
                    max_retries=3, timeout_s=0.5, base_delay_s=0.001
                ),
            )
            try:
                response = await client.call(addr, "ping")
                assert response["pong"] is True
                assert client.retries_total == 2
            finally:
                await client.close()
                await flaky.stop()

        run(main())

    def test_exhausted_retries_raise_transport_error(self):
        async def main():
            client = LocatorClient(
                [("127.0.0.1", 1)],  # nothing listens on port 1
                retry=RetryPolicy(
                    max_retries=2, timeout_s=0.2, base_delay_s=0.001
                ),
            )
            try:
                with pytest.raises(TransportError):
                    await client.call(("127.0.0.1", 1), "ping")
                assert client.retries_total == 2
            finally:
                await client.close()

        run(main())

    def test_unresponsive_server_times_out(self):
        async def main():
            # A listener that accepts and then says nothing.
            silent = await asyncio.start_server(
                lambda r, w: None, "127.0.0.1", 0
            )
            addr = silent.sockets[0].getsockname()[:2]
            client = LocatorClient(
                [addr],
                retry=RetryPolicy(
                    max_retries=1, timeout_s=0.1, base_delay_s=0.001
                ),
            )
            try:
                started = time.monotonic()
                with pytest.raises(TransportError):
                    await client.call(addr, "ping")
                elapsed = time.monotonic() - started
                # Two attempts at 0.1 s timeout plus bounded backoff.
                assert elapsed < 2.0
            finally:
                await client.close()
                silent.close()
                await silent.wait_closed()

        run(main())


class TestConnectionPoolInternals:
    def test_released_connection_is_reused(self, served_network):
        _, index = served_network

        async def main():
            server = await PPIServer(index).start()
            pool = ConnectionPool()
            try:
                conn = await pool.acquire(server.address)
                pool.release(server.address, conn)
                reused = await pool.acquire(server.address)
                assert reused[0] is conn[0] and reused[1] is conn[1]
            finally:
                pool.discard(conn)
                await pool.close()
                await server.stop()

        run(main())

    def test_closed_idle_connection_never_handed_back(self, served_network):
        _, index = served_network

        async def main():
            server = await PPIServer(index).start()
            pool = ConnectionPool()
            try:
                conn = await pool.acquire(server.address)
                pool.release(server.address, conn)
                conn[1].close()  # dies while idle (server restart, LB reap...)
                fresh = await pool.acquire(server.address)
                assert fresh is not conn
                assert not fresh[1].is_closing()
                pool.discard(fresh)
            finally:
                await pool.close()
                await server.stop()

        run(main())

    def test_discarded_connection_leaves_the_pool(self, served_network):
        _, index = served_network

        async def main():
            server = await PPIServer(index).start()
            pool = ConnectionPool()
            try:
                conn = await pool.acquire(server.address)
                pool.discard(conn)
                assert conn[1].is_closing()
                fresh = await pool.acquire(server.address)
                assert fresh is not conn
                pool.discard(fresh)
            finally:
                await pool.close()
                await server.stop()

        run(main())

    def test_idle_cap_closes_overflow_connections(self, served_network):
        _, index = served_network

        async def main():
            server = await PPIServer(index).start()
            pool = ConnectionPool(max_idle_per_host=1)
            try:
                first = await pool.acquire(server.address)
                second = await pool.acquire(server.address)
                pool.release(server.address, first)
                pool.release(server.address, second)  # over the cap: closed
                assert not first[1].is_closing()
                assert second[1].is_closing()
            finally:
                await pool.close()
                await server.stop()

        run(main())

    def test_connection_discarded_after_transport_error(self, served_network):
        """A timed-out request orphans its in-flight response; the client
        must dial fresh instead of reusing the poisoned connection."""
        _, index = served_network

        async def main():
            # A listener that accepts and never answers: the first call
            # times out, poisoning its connection.
            silent = await asyncio.start_server(lambda r, w: None, "127.0.0.1", 0)
            addr = silent.sockets[0].getsockname()[:2]
            client = LocatorClient(
                [addr],
                retry=RetryPolicy(max_retries=1, timeout_s=0.1, base_delay_s=0.001),
            )
            try:
                with pytest.raises(TransportError):
                    await client.call(addr, "ping")
                # Both attempts' connections were discarded, not pooled.
                assert client.pool._idle.get(tuple(addr), []) == []
            finally:
                await client.close()
                silent.close()
                await silent.wait_closed()

        run(main())


class TestWrongShardRecovery:
    def test_query_reroutes_to_shard_named_in_error(self, served_network):
        _, index = served_network

        async def main():
            shard0 = await PPIServer(index, ShardSpec(0, 2)).start()
            shard1 = await PPIServer(index, ShardSpec(1, 2)).start()
            # Misconfigured: servers list NOT in shard order.
            client = LocatorClient(
                [shard1.address, shard0.address],
                retry=RetryPolicy(max_retries=0, timeout_s=1.0),
            )
            try:
                # Owner 0 lives on shard 0; the client asks shard 1 first,
                # gets wrong-shard, refreshes its table, and recovers.
                assert await client.query(0) == index.query(0)
                assert client.wrong_shard_reroutes == 1
                assert client.routing_refreshes == 1
                assert shard1.metrics.counter("wrong_shard_total").value == 1
                # The table is fixed: shard order now matches server order.
                assert client.servers == [shard0.address, shard1.address]
                # Subsequent queries for either shard route directly.
                assert await client.query(2) == index.query(2)
                assert await client.query(3) == index.query(3)
                assert client.wrong_shard_reroutes == 1
                assert shard0.metrics.counter("wrong_shard_total").value == 0
            finally:
                await client.close()
                await shard0.stop()
                await shard1.stop()

        run(main())

    def test_query_batch_reroutes(self, served_network):
        _, index = served_network

        async def main():
            shard0 = await PPIServer(index, ShardSpec(0, 2)).start()
            shard1 = await PPIServer(index, ShardSpec(1, 2)).start()
            client = LocatorClient(
                [shard1.address, shard0.address],
                retry=RetryPolicy(max_retries=0, timeout_s=1.0),
            )
            try:
                owners = list(range(8))
                results = await client.query_batch(owners)
                assert results == {o: index.query(o) for o in owners}
                # Each shard chunk was misrouted at most once (a chunk that
                # dispatched after the other's refresh routes correctly).
                assert 1 <= client.wrong_shard_reroutes <= 2
                assert client.servers == [shard0.address, shard1.address]
            finally:
                await client.close()
                await shard0.stop()
                await shard1.stop()

        run(main())

    def test_unfixable_misrouting_surfaces_the_error(self, served_network):
        """A fleet the client cannot see completely (one address for a
        two-shard fleet) re-raises wrong-shard instead of looping."""
        from repro.serving.protocol import RemoteError

        _, index = served_network

        async def main():
            shard1 = await PPIServer(index, ShardSpec(1, 2)).start()
            client = LocatorClient(
                [shard1.address],
                retry=RetryPolicy(max_retries=0, timeout_s=1.0),
            )
            try:
                with pytest.raises(RemoteError) as excinfo:
                    await client.query(0)  # owner 0 -> shard 0, unreachable
                assert excinfo.value.code == "wrong-shard"
            finally:
                await client.close()
                await shard1.stop()

        run(main())


class TestPooling:
    def test_connections_reused_across_requests(self, served_network):
        _, index = served_network

        async def main():
            server = await PPIServer(index).start()
            client = LocatorClient(
                [server.address],
                retry=RetryPolicy(max_retries=0, timeout_s=0.5),
                cache_size=0,
            )
            try:
                for owner in range(10):
                    await client.query(owner % index.n_owners)
                assert server.metrics.counter("connections_total").value == 1
            finally:
                await client.close()
                await server.stop()

        run(main())
