"""PPIServer behavior over real sockets: verbs, sharding, backpressure,
shutdown."""

import asyncio
import socket

import pytest

from repro.serving import (
    IndexShardStore,
    PPIServer,
    RemoteError,
    ShardSpec,
    WrongShard,
    shard_of,
)
from repro.serving.client import ConnectionPool, LocatorClient, RetryPolicy
from repro.serving.protocol_v2 import encode_frame_v2, read_any_frame

FAST_RETRY = RetryPolicy(max_retries=0, timeout_s=0.5)


def run(coro):
    return asyncio.run(coro)


class TestShardSpec:
    def test_routing_function(self):
        assert shard_of(10, 1) == 0
        assert shard_of(10, 4) == 2
        with pytest.raises(ValueError):
            shard_of(1, 0)

    def test_invalid_specs_rejected(self):
        with pytest.raises(ValueError):
            ShardSpec(2, 2)
        with pytest.raises(ValueError):
            ShardSpec(-1, 2)

    def test_store_refuses_foreign_owner(self, served_network):
        _, index = served_network
        store = IndexShardStore(index, ShardSpec(0, 2))
        assert store.lookup(2) == index.query(2)
        with pytest.raises(WrongShard) as err:
            store.lookup(3)
        assert err.value.expected_shard == 1


class TestVerbs:
    def test_query_matches_index(self, served_network):
        _, index = served_network

        async def main():
            server = await PPIServer(index).start()
            client = LocatorClient([server.address], retry=FAST_RETRY, cache_size=0)
            try:
                for owner in range(index.n_owners):
                    assert await client.query(owner) == index.query(owner)
            finally:
                await client.close()
                await server.stop()

        run(main())

    def test_batch_query_and_shard_routing(self, served_network):
        _, index = served_network

        async def main():
            servers = [
                await PPIServer(index, ShardSpec(i, 2)).start() for i in range(2)
            ]
            client = LocatorClient(
                [s.address for s in servers], retry=FAST_RETRY, cache_size=0
            )
            try:
                owners = list(range(index.n_owners))
                results = await client.query_batch(owners)
                assert set(results) == set(owners)
                for owner in owners:
                    assert results[owner] == index.query(owner)
                # Each shard only ever saw its own owners.
                for i, server in enumerate(servers):
                    served = server.metrics.counter("queries_served").value
                    assert served == sum(1 for o in owners if o % 2 == i)
            finally:
                await client.close()
                for s in servers:
                    await s.stop()

        run(main())

    def test_wrong_shard_error_names_the_right_shard(self, served_network):
        _, index = served_network

        async def main():
            server = await PPIServer(index, ShardSpec(0, 2)).start()
            client = LocatorClient([server.address], retry=FAST_RETRY, cache_size=0)
            try:
                with pytest.raises(RemoteError) as err:
                    # Client thinks there is one shard; owner 3 lives on shard 1.
                    await client.query(3)
                assert err.value.code == "wrong-shard"
                assert err.value.detail["shard"] == 1
            finally:
                await client.close()
                await server.stop()

        run(main())

    def test_unknown_owner_is_bad_request(self, served_network):
        _, index = served_network

        async def main():
            server = await PPIServer(index).start()
            client = LocatorClient([server.address], retry=FAST_RETRY, cache_size=0)
            try:
                with pytest.raises(RemoteError) as err:
                    await client.query(index.n_owners + 5)
                assert err.value.code == "bad-request"
                with pytest.raises(RemoteError) as err:
                    await client.call(server.address, "query", owner="zero")
                assert err.value.code == "bad-request"
            finally:
                await client.close()
                await server.stop()

        run(main())

    def test_unknown_verb(self, served_network):
        _, index = served_network

        async def main():
            server = await PPIServer(index).start()
            client = LocatorClient([server.address], retry=FAST_RETRY)
            try:
                with pytest.raises(RemoteError) as err:
                    await client.call(server.address, "frobnicate")
                assert err.value.code == "unknown-verb"
            finally:
                await client.close()
                await server.stop()

        run(main())

    def test_stats_and_info(self, served_network):
        _, index = served_network

        async def main():
            server = await PPIServer(index, ShardSpec(0, 1)).start()
            client = LocatorClient([server.address], retry=FAST_RETRY, cache_size=0)
            try:
                await client.query(0)
                await client.query(1)
                stats = await client.stats(server.address)
                assert stats["counters"]["queries_served"] == 2
                assert stats["counters"]["requests_query_total"] == 2
                assert stats["histograms"]["request_latency_s"]["count"] >= 2
                info = await client.info(server.address)
                assert info["role"] == "ppi-server"
                assert info["n_owners"] == index.n_owners
                assert info["n_shards"] == 1
            finally:
                await client.close()
                await server.stop()

        run(main())


class TestRuntime:
    def test_backpressure_bound_still_serves_all(self, served_network):
        _, index = served_network

        async def main():
            server = await PPIServer(index, max_inflight=1).start()
            client = LocatorClient(
                [server.address], retry=FAST_RETRY, cache_size=0,
                max_idle_per_host=32,
            )
            try:
                owners = [o % index.n_owners for o in range(50)]
                results = await asyncio.gather(
                    *(client.query(o) for o in owners)
                )
                assert all(r == index.query(o) for r, o in zip(results, owners))
                assert server.metrics.counter("queries_served").value == 50
            finally:
                await client.close()
                await server.stop()

        run(main())

    def test_graceful_stop_refuses_new_connections(self, served_network):
        _, index = served_network

        async def main():
            server = await PPIServer(index).start()
            addr = server.address
            client = LocatorClient([addr], retry=FAST_RETRY, cache_size=0)
            try:
                assert await client.ping(addr)
                await server.stop()
                fresh = LocatorClient([addr], retry=FAST_RETRY, cache_size=0)
                try:
                    assert not await fresh.ping(addr)
                finally:
                    await fresh.close()
            finally:
                await client.close()

        run(main())

    def test_double_start_rejected(self, served_network):
        _, index = served_network

        async def main():
            server = await PPIServer(index).start()
            try:
                with pytest.raises(RuntimeError):
                    await server.start()
            finally:
                await server.stop()

        run(main())

    def test_plain_server_still_refuses_a_taken_port(self, served_network):
        _, index = served_network

        async def main():
            first = await PPIServer(index).start()
            host, port = first.address
            try:
                with pytest.raises(OSError):
                    await PPIServer(index, host=host, port=port).start()
            finally:
                await first.stop()

        run(main())

    def test_tcp_nodelay_is_set_on_both_ends(self, served_network):
        """One small frame per reply: a Nagle delay on either socket would
        sit on top of every point read."""
        _, index = served_network

        async def main():
            server = PPIServer(index)
            accepted = []
            handle_connection = server._handle_connection

            def spy(reader, writer):
                accepted.append(writer.get_extra_info("socket"))
                return handle_connection(reader, writer)

            server._handle_connection = spy
            await server.start()
            pool = ConnectionPool()
            try:
                conn = await pool.acquire(server.address)
                reader, writer = conn
                writer.write(encode_frame_v2("ping", 1))
                assert (await asyncio.wait_for(read_any_frame(reader), 1.0))["ok"]
                socks = [writer.get_extra_info("socket"), *accepted]
                assert len(socks) == 2
                for sock in socks:
                    assert sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)
                pool.release(server.address, conn)
            finally:
                await pool.close()
                await server.stop()

        run(main())

    def test_garbled_frame_answered_then_disconnected(self, served_network):
        _, index = served_network

        async def main():
            server = await PPIServer(index).start()
            try:
                reader, writer = await asyncio.open_connection(*server.address)
                writer.write(b"\x00\x00\x00\x04oops")
                await writer.drain()
                response = await asyncio.wait_for(read_any_frame(reader), timeout=1.0)
                assert response["ok"] is False
                assert response["code"] == "bad-magic"
                assert await reader.read() == b""  # server hung up
                writer.close()
            finally:
                await server.stop()

        run(main())


class TestResponseCache:
    """The pre-encoded response payload cache on the query hot path."""

    def test_repeat_queries_hit_the_cache(self, served_network):
        _, index = served_network

        async def main():
            server = await PPIServer(index).start()
            client = LocatorClient([server.address], retry=FAST_RETRY, cache_size=0)
            try:
                first = await client.query(3)
                second = await client.query(3)
                assert first == second == index.query(3)
                counters = server.metrics.snapshot()["counters"]
                assert counters["response_cache_misses_total"] == 1
                assert counters["response_cache_hits_total"] == 1
                assert counters["queries_served"] == 2
            finally:
                await client.close()
                await server.stop()

        run(main())

    def test_cached_and_uncached_frames_are_identical(self, served_network):
        _, index = served_network

        async def main():
            cold = await PPIServer(index, response_cache_size=0).start()
            warm = await PPIServer(index).start()
            client = LocatorClient(
                [cold.address], retry=FAST_RETRY, cache_size=0
            )
            try:
                for owner in range(index.n_owners):
                    expected = await client.call(cold.address, "query", owner=owner)
                    await client.call(warm.address, "query", owner=owner)  # warm it
                    hit = await client.call(warm.address, "query", owner=owner)
                    # ids are per-request; everything else must be identical.
                    expected.pop("id"), hit.pop("id")
                    assert hit == expected
                assert cold.metrics.snapshot()["counters"].get(
                    "response_cache_hits_total", 0
                ) == 0
            finally:
                await client.close()
                await cold.stop()
                await warm.stop()

        run(main())

    def test_errors_are_not_cached(self, served_network):
        _, index = served_network

        async def main():
            server = await PPIServer(index, shard=ShardSpec(0, 2)).start()
            client = LocatorClient([server.address], retry=FAST_RETRY, cache_size=0)
            try:
                for _ in range(2):
                    with pytest.raises(RemoteError):
                        await client.query(3)  # wrong shard
                    with pytest.raises(RemoteError):
                        await client.call(
                            server.address, "query", owner=index.n_owners + 1
                        )
                counters = server.metrics.snapshot()["counters"]
                assert "response_cache_hits_total" not in counters
                assert "response_cache_misses_total" not in counters
            finally:
                await client.close()
                await server.stop()

        run(main())

    def test_lru_eviction_is_bounded(self, served_network):
        _, index = served_network

        async def main():
            server = await PPIServer(index, response_cache_size=2).start()
            client = LocatorClient([server.address], retry=FAST_RETRY, cache_size=0)
            try:
                assert index.n_owners > 3
                for owner in range(4):
                    await client.query(owner)
                # 0 and 1 were evicted by 2 and 3: re-asking misses again.
                await client.query(0)
                counters = server.metrics.snapshot()["counters"]
                assert counters["response_cache_misses_total"] == 5
                info = await client.info(server.address)
                assert info["response_cache_size"] == 2
            finally:
                await client.close()
                await server.stop()

        run(main())


class TestPostingsBackedServer:
    """The server answers identically when booted on the CSR engine."""

    def test_query_and_batch_match_dense(self, served_network):
        from repro.core.postings import PostingsIndex

        _, index = served_network
        postings = PostingsIndex.from_index(index)

        async def main():
            server = await PPIServer(postings).start()
            client = LocatorClient([server.address], retry=FAST_RETRY, cache_size=0)
            try:
                owners = list(range(index.n_owners))
                for owner in owners:
                    assert await client.query(owner) == index.query(owner)
                results = await client.query_batch(owners)
                for owner in owners:
                    assert results[owner] == index.query(owner)
                info = await client.info(server.address)
                assert info["index_engine"] == "PostingsIndex"
                assert info["n_owners"] == index.n_owners
            finally:
                await client.close()
                await server.stop()

        run(main())
