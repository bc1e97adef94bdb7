"""Client-side replica routing: rendezvous affinity, read-your-epoch
failover, and routing-table refresh under replica sets.

Covers the cases a geo-replicated read tier adds on top of plain shard
routing: a dead replica fails over without moving other owners, a replica
still catching up is skipped (and its answers rejected) once the client
has seen a newer epoch, and ``refresh_routing`` stays correct when run
concurrently while part of the fleet is down.
"""

import asyncio

import pytest

from repro.serving import LocatorClient, PPIServer, RetryPolicy, ShardSpec
from repro.serving.client import TransportError

FAST = RetryPolicy(max_retries=1, timeout_s=0.5, base_delay_s=0.005)
N_OWNERS = 20


def make_client(servers, **kwargs):
    kwargs.setdefault("retry", FAST)
    kwargs.setdefault("cache_size", 0)
    return LocatorClient(servers=servers, **kwargs)


async def start_server(index, shard=0, n_shards=1, epoch=0) -> PPIServer:
    server = PPIServer(index, ShardSpec(shard, n_shards), epoch=epoch)
    await server.start()
    return server


class TestRendezvous:
    REPLICAS = [("10.0.0.1", 7000), ("10.0.0.2", 7000), ("10.0.0.3", 7000)]

    def test_affinity_is_deterministic_and_spread(self):
        client = make_client([self.REPLICAS])
        assignment = {o: client.server_for(o) for o in range(200)}
        again = {o: client.server_for(o) for o in range(200)}
        assert assignment == again
        # All three replicas carry some owners.
        assert set(assignment.values()) == set(self.REPLICAS)

    def test_removing_a_replica_moves_only_its_owners(self):
        full = make_client([self.REPLICAS])
        shrunk = make_client([self.REPLICAS[:2]])
        for owner in range(200):
            before = full.server_for(owner)
            after = shrunk.server_for(owner)
            if before != self.REPLICAS[2]:
                assert after == before  # survivors keep their owners
            else:
                assert after in self.REPLICAS[:2]


class TestFailover:
    def test_dead_first_choice_fails_over_to_survivor(self, served_network):
        _, index = served_network

        async def _main():
            live = await start_server(index)
            dead = await start_server(index)
            await dead.stop()  # port now refuses connections
            client = make_client([[dead.address, live.address]])
            try:
                # An owner whose rendezvous first choice is the dead node.
                owner = next(
                    o for o in range(N_OWNERS)
                    if client.server_for(o) == dead.address
                )
                direct = await client.call(live.address, "query", owner=owner)
                assert await client.query(owner) == direct["providers"]
            finally:
                await client.close()
                await live.stop()

        asyncio.run(_main())

    def test_behind_replica_answers_are_rejected(self, served_network):
        _, index = served_network

        async def _main():
            ahead = await start_server(index, epoch=1)
            behind = await start_server(index, epoch=0)
            client = make_client([[ahead.address, behind.address]])
            try:
                # Learn epoch 1 from whichever owner routes to the fresh
                # node, then sweep: every answer must carry epoch >= 1.
                for owner in range(N_OWNERS):
                    await client.query(owner)
                assert client.fleet_epoch == 1
                client.addr_epochs.pop(behind.address, None)
                skips_before = client.stale_replica_skips
                for owner in range(N_OWNERS):
                    await client.query(owner)
                assert client.stale_replica_skips > skips_before
                assert client.addr_epochs[behind.address] == 0
                # With its lag recorded, the behind node is not routed to.
                assert all(
                    client.server_for(o) == ahead.address
                    for o in range(N_OWNERS)
                )
            finally:
                await client.close()
                await behind.stop()
                await ahead.stop()

        asyncio.run(_main())

    def test_no_caught_up_replica_is_a_typed_failure(self, served_network):
        _, index = served_network

        async def _main():
            a = await start_server(index, epoch=0)
            b = await start_server(index, epoch=0)
            client = make_client([[a.address, b.address]])
            try:
                client.shard_epochs[0] = 5  # learned elsewhere; nobody has it
                with pytest.raises(TransportError, match="caught up"):
                    await client.query(0)
                assert client.stale_replica_skips == 2  # both were tried
            finally:
                await client.close()
                await a.stop()
                await b.stop()

        asyncio.run(_main())


class TestReadYourEpochPerShard:
    def test_a_shard_not_yet_rolled_is_not_stale(self):
        """A rolling rollout moves shards one at a time: after shard 0
        answered epoch 1, shard 1's replicas still at epoch 0 are that
        shard's newest state and their answer is served."""
        shard0 = [("10.0.0.1", 7000), ("10.0.0.2", 7000)]
        shard1 = [("10.0.1.1", 7000), ("10.0.1.2", 7000)]
        client = make_client([shard0, shard1])
        asked = []

        async def call(addr, verb, **fields):
            asked.append(addr)
            return {"epoch": 1 if addr in shard0 else 0, "providers": [3]}

        client.call = call

        async def _main():
            assert await client.query(0) == [3]  # shard 0 answers epoch 1
            assert await client.query(1) == [3]  # shard 1 answers epoch 0

        asyncio.run(_main())
        assert client.fleet_epoch == 1 and client.shard_epochs == {0: 1}
        assert client.stale_replica_skips == 0
        assert len(asked) == 2 and asked[0] in shard0 and asked[1] in shard1


class TestRoutingRefresh:
    async def _fleet(self, index):
        """Two shards, two replicas each."""
        servers = [
            await start_server(index, shard=s, n_shards=2)
            for s in (0, 0, 1, 1)
        ]
        sets = [
            [servers[0].address, servers[1].address],
            [servers[2].address, servers[3].address],
        ]
        return servers, sets

    def test_concurrent_refresh_with_mid_refresh_failover(self, served_network):
        _, index = served_network

        async def _main():
            servers, sets = await self._fleet(index)
            client = make_client(sets)
            try:
                await servers[1].stop()  # one shard-0 replica dies
                results = await asyncio.gather(
                    client.refresh_routing(), client.refresh_routing()
                )
                assert results == [True, True]
                assert client.routing_refreshes == 2
                dead = servers[1].address
                assert all(
                    dead not in rs for rs in client.replica_sets
                )
                assert client.replica_sets[0] == [servers[0].address]
                assert set(client.replica_sets[1]) == set(sets[1])
                # The rebuilt table still answers for every owner.
                for owner in range(N_OWNERS):
                    assert await client.query(owner) is not None
            finally:
                await client.close()
                for s in servers:
                    if s.address != servers[1].address:
                        await s.stop()

        asyncio.run(_main())

    def test_refresh_keeps_old_table_when_a_shard_is_dark(self, served_network):
        _, index = served_network

        async def _main():
            servers, sets = await self._fleet(index)
            client = make_client(sets)
            try:
                await servers[2].stop()
                await servers[3].stop()  # shard 1 fully dark
                assert await client.refresh_routing() is False
                assert client.replica_sets == sets  # untouched
                assert client.routing_refreshes == 0
            finally:
                await client.close()
                await servers[0].stop()
                await servers[1].stop()

        asyncio.run(_main())

    def test_wrong_shard_reroute_skips_behind_replica(self, served_network):
        """A misrouted query recovers via refresh, and the retried shard
        call still honors read-your-epoch against a lagging replica."""
        _, index = served_network

        async def _main():
            fresh0 = await start_server(index, shard=0, n_shards=2, epoch=1)
            behind0 = await start_server(index, shard=0, n_shards=2, epoch=0)
            s1a = await start_server(index, shard=1, n_shards=2, epoch=1)
            s1b = await start_server(index, shard=1, n_shards=2, epoch=1)
            servers = [fresh0, behind0, s1a, s1b]
            # Shard order swapped: owner 2k dials shard-1 servers first.
            client = make_client([
                [s1a.address, s1b.address],
                [fresh0.address, behind0.address],
            ])
            try:
                client.shard_epochs = {0: 1, 1: 1}  # as learned from a prior session
                shard0_set = [fresh0.address, behind0.address]
                owner = next(
                    o for o in range(0, N_OWNERS, 2)
                    if client._replica_order(o, shard0_set)[0] == behind0.address
                )
                direct = await client.call(fresh0.address, "query", owner=owner)
                assert await client.query(owner) == direct["providers"]
                assert client.wrong_shard_reroutes == 1
                assert client.routing_refreshes == 1
                # The refresh itself learned behind0's lag from its info
                # answer, so the retried shard call skipped it upfront --
                # rendezvous preference notwithstanding.
                assert client.addr_epochs[behind0.address] == 0
                assert client.server_for(owner) == fresh0.address
                assert client.replica_sets[0] == shard0_set or set(
                    client.replica_sets[0]
                ) == set(shard0_set)
            finally:
                await client.close()
                for s in servers:
                    await s.stop()

        asyncio.run(_main())
