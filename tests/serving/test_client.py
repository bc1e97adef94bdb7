"""LocatorClient machinery: LRU cache, pooling, retries, timeouts, routing."""

import asyncio
import random
import time

import numpy as np
import pytest

from repro.core.postings import PostingsIndex
from repro.serving import PPIServer, ShardSpec, TransportError
from repro.serving.client import ConnectionPool, LocatorClient, LRUCache, RetryPolicy
from repro.serving.protocol import ok_response
from repro.serving.protocol_v2 import DecodeError, FrameDecoder, encode_reply_v2


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

    def test_a_reply_failing_its_crc_is_retried(self):
        async def main():
            listener = _Listener(garble=True)
            addr = await listener.start()
            retry = RetryPolicy(max_retries=2, timeout_s=5.0, base_delay_s=0.001)
            client = LocatorClient([addr], retry=retry, cache_size=0)
            try:
                with pytest.raises(TransportError) as err:
                    await client.query(7)
                cause = err.value.__cause__
                assert isinstance(cause, DecodeError) and cause.code == "bad-crc"
                assert (client.retries_total, listener.requests) == (2, 3)
            finally:
                await client.close()
                await listener.stop()

        run(main())

    def test_search_reports_only_its_own_retries(self):
        """Each retry counts once, in the search that made it: not once per
        concurrent provider call, and not in another search on the client."""
        # owner 0 is published at providers 0, 1, 2; owner 1 at provider 0
        index = PostingsIndex.from_dense(np.array([[1, 1], [1, 0], [1, 0]], dtype=np.uint8))
        dead = ("127.0.0.1", 1)  # nothing listens on port 1

        async def main():
            server = await PPIServer(index).start()
            client = LocatorClient(
                [server.address],
                providers={0: dead, 1: dead, 2: dead},
                retry=RetryPolicy(max_retries=2, timeout_s=0.2, base_delay_s=0.001),
            )
            try:
                alone = await client.search(0)
                assert alone.failed_providers == [0, 1, 2]
                assert (alone.retries, client.retries_total) == (6, 6)
                both = await asyncio.gather(client.search(0), client.search(1))
                assert [o.retries for o in both] == [6, 2]
                assert client.retries_total == 14
            finally:
                await client.close()
                await server.stop()

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


class _Listener:
    """A protocol-level server (it runs no task of its own) answering every
    request with ``providers``.  Connections numbered in ``silent`` (from 1,
    in accept order) never get an answer; ``hold`` keeps every reply until
    :meth:`release`.  A ``search`` is answered with ``search_reply``.
    ``garble`` flips a payload bit of every reply, after its crc was taken."""

    def __init__(
        self, providers=(3, 5), silent=(), hold=False, search_reply=None, garble=False
    ):
        self.providers = providers
        self.search_reply = search_reply
        self.garble = garble
        self.silent = set(silent)
        self.hold = hold
        self.connections = self.requests = self.lost = 0
        self.held = []
        self.transports = []

    async def start(self):
        loop = asyncio.get_running_loop()
        self.server = await loop.create_server(lambda: _ListenerConn(self), "127.0.0.1", 0)
        return self.server.sockets[0].getsockname()[:2]

    def release(self):
        for transport, reply in self.held:
            transport.write(reply)
        self.held.clear()

    async def stop(self):
        self.server.close()
        for transport in self.transports:
            transport.close()
        await self.server.wait_closed()


class _ListenerConn(asyncio.Protocol):
    def __init__(self, listener):
        self.listener = listener
        self.decoder = FrameDecoder()

    def connection_made(self, transport):
        self.listener.connections += 1
        self.number = self.listener.connections
        self.transport = transport
        self.listener.transports.append(transport)

    def connection_lost(self, exc):
        self.listener.lost += 1

    def data_received(self, data):
        for frame in self.decoder.feed(data):
            self.listener.requests += 1
            if self.number in self.listener.silent:
                continue
            message = frame.message
            if message["verb"] == "search":
                fields = self.listener.search_reply
            else:
                fields = dict(owner=7, providers=self.listener.providers, epoch=0)
            reply = b"".join(
                encode_reply_v2(message["verb"], ok_response(message["id"], **fields))
            )
            if self.listener.garble:
                reply = reply[:-1] + bytes([reply[-1] ^ 1])
            if self.listener.hold:
                self.listener.held.append((self.transport, reply))
            else:
                self.transport.write(reply)


async def _until(predicate, limit_s=2.0):
    deadline = time.monotonic() + limit_s
    while not predicate():
        assert time.monotonic() < deadline, "condition never held"
        await asyncio.sleep(0.002)


class TestInTaskDeadline:
    """Each attempt's timeout runs in the caller's task: no task per request,
    the same retries, and a cancel from outside stays a cancel."""

    @staticmethod
    def client(addr, max_retries=0, timeout_s=5.0):
        retry = RetryPolicy(max_retries=max_retries, timeout_s=timeout_s, base_delay_s=0.001)
        return LocatorClient([addr], retry=retry, cache_size=0)

    def test_a_query_in_flight_runs_no_task_of_its_own(self):
        async def main():
            listener = _Listener(hold=True)
            client = self.client(await listener.start())
            try:
                pending = asyncio.ensure_future(client.query(7))
                await _until(lambda: listener.held)
                assert asyncio.all_tasks() == {asyncio.current_task(), pending}
                listener.release()
                assert await pending == [3, 5]
            finally:
                await client.close()
                await listener.stop()

        run(main())

    def test_every_attempt_times_out_against_a_silent_listener(self):
        async def main():
            listener = _Listener(silent={1, 2, 3})
            addr = await listener.start()
            client = self.client(addr, max_retries=2, timeout_s=0.05)
            try:
                with pytest.raises(TransportError) as err:
                    await client.query(7)
                assert isinstance(err.value.__cause__, asyncio.TimeoutError)
                assert (listener.connections, listener.requests) == (3, 3)
                assert client.retries_total == 2
                assert client.pool._idle.get(addr, []) == []
                await _until(lambda: listener.lost == 3)  # each one discarded
            finally:
                await client.close()
                await listener.stop()

        run(main())

    def test_an_outside_cancel_propagates_as_a_cancel(self):
        async def main():
            listener = _Listener(silent={1})
            addr = await listener.start()
            client = self.client(addr, max_retries=3)
            try:
                pending = asyncio.ensure_future(client.query(7))
                await _until(lambda: listener.requests == 1)
                pending.cancel()
                with pytest.raises(asyncio.CancelledError):
                    await pending
                assert client.retries_total == 0
                assert listener.connections == 1
                assert client.pool._idle.get(addr, []) == []
                await _until(lambda: listener.lost == 1)
            finally:
                await client.close()
                await listener.stop()

        run(main())

    @pytest.mark.skipif(
        not hasattr(asyncio, "timeout"), reason="Task.cancelling is Python 3.11+"
    )
    def test_a_timed_out_attempt_leaves_the_cancel_count_clean(self):
        async def main():
            listener = _Listener(silent={1})
            client = self.client(await listener.start(), max_retries=1, timeout_s=0.05)
            task = asyncio.current_task()
            try:
                with pytest.raises(TimeoutError):
                    async with asyncio.timeout(0.5):
                        assert await client.query(7) == [3, 5]
                        assert client.retries_total == 1
                        assert task.cancelling() == 0
                        await asyncio.sleep(5)  # the enclosing timeout still fires
                assert task.cancelling() == 0
            finally:
                await client.close()
                await listener.stop()

        run(main())

    @pytest.mark.parametrize("providers", [[1.5], ["3"], [True], "3", None])
    def test_a_json_query_reply_with_non_int_providers_is_refused(self, providers):
        async def main():
            listener = _Listener(providers=providers)
            client = self.client(await listener.start(), max_retries=2)
            try:
                with pytest.raises(TransportError) as err:
                    await client.query(7)
                cause = err.value.__cause__
                assert isinstance(cause, DecodeError) and cause.code == "bad-payload"
                # The frame checked out, so the same reply would come back:
                # it fails at once.
                assert (client.retries_total, listener.requests) == (0, 1)
            finally:
                await client.close()
                await listener.stop()

        run(main())


def _search_with(reply):
    """Search owner 1 against a stub that lists providers 3 and 5 and
    answers every AuthSearch with ``reply``."""

    async def main():
        listener = _Listener(search_reply=reply)
        addr = await listener.start()
        retry = RetryPolicy(max_retries=1, timeout_s=5.0, base_delay_s=0.001)
        client = LocatorClient([addr], {3: addr, 5: addr}, retry=retry, cache_size=0)
        try:
            return await client.search(1)
        finally:
            await client.close()
            await listener.stop()

    return run(main())


class TestAuthSearchReplies:
    """A provider's reply is filed only if it is one: a status of ``ok`` or
    ``denied`` and a list of records of the owner searched for.  Anything
    else files that provider as failed, and the search still returns."""

    @pytest.mark.parametrize(
        "reply",
        [
            {"status": "ok", "records": [{"owner_id": 99, "payload": "x"}]},
            {"status": "ok", "records": [{"owner_id": "1", "payload": "x"}]},
            {"status": "ok", "records": [{"owner_id": True, "payload": "x"}]},
            {"status": "ok", "records": [{"owner_id": 1.0, "payload": "x"}]},
            {"status": "ok", "records": [{"owner_id": 1, "payload": 5}]},
            {"status": "ok", "records": [{"owner_id": 1}]},
            {"status": "ok", "records": ["x"]},
            {"status": "ok", "records": {"owner_id": 1, "payload": "x"}},
            {"status": "ok"},
            {"status": 7, "records": []},
            {"status": "noise", "records": []},
        ],
        ids=[
            "other-owner", "str-owner", "bool-owner", "float-owner", "int-payload",
            "no-payload", "str-record", "dict-records", "no-records", "int-status",
            "unknown-status",
        ],
    )
    def test_a_malformed_reply_files_the_provider_as_failed(self, reply):
        outcome = _search_with(reply)
        # Refused by the decoder or by the client's owner check, a reply
        # fails its provider at once: no retry.
        assert outcome.retries == 0
        assert outcome.failed_providers == [3, 5]
        assert outcome.records == []
        assert outcome.positive_providers == outcome.noise_providers == []
        assert outcome.denied_providers == []

    @pytest.mark.parametrize(
        "reply, filed",
        [
            ({"status": "ok", "records": [{"owner_id": 1, "payload": "x"}]}, "positive"),
            ({"status": "ok", "records": []}, "noise"),
            ({"status": "denied", "records": []}, "denied"),
        ],
    )
    def test_a_well_formed_reply_is_filed(self, reply, filed):
        outcome = _search_with(reply)
        assert getattr(outcome, f"{filed}_providers") == [3, 5]
        assert outcome.failed_providers == []


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
