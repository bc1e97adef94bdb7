"""End-to-end serving tests: the paper's two-phase search over real TCP.

The locator invariant under test is the paper's: every search must reach
*every* provider that truly holds the owner's records (100 % recall --
noise may only add contacts, never hide true positives), and the runtime
must degrade gracefully -- a dead provider is recorded as failed, never
hung on.
"""

import asyncio

import pytest

from repro.core.authsearch import AccessControl
from repro.serving import LocatorClient, ProviderEndpoint, RetryPolicy
from repro.serving.protocol import VERB_SEARCH, RemoteError

from .conftest import cluster


def run(coro):
    return asyncio.run(coro)


class TestTwoPhaseSearch:
    def test_full_recall_with_noise_contacts(self, served_network):
        network, index = served_network
        matrix = network.membership_matrix()

        async def main():
            async with cluster(network, index, n_shards=2) as c:
                client = c.client()
                try:
                    noise_contacts = 0
                    for owner in range(network.n_owners):
                        report = await client.search(owner)
                        true_set = matrix.providers_of(owner)
                        # The paper's invariant: obscured, never lossy.
                        assert set(report.positive_providers) == set(true_set)
                        assert not report.failed_providers
                        assert not report.denied_providers
                        # Records really came back, one per delegation.
                        assert {r.owner_id for r in report.records} == (
                            {owner} if true_set else set()
                        )
                        noise_contacts += len(report.noise_providers)
                    # The index was built with nontrivial epsilons: noise
                    # providers must exist somewhere in the workload.
                    assert noise_contacts > 0
                finally:
                    await client.close()

        run(main())

    def test_search_respects_acls(self, served_network):
        network, index = served_network
        matrix = network.membership_matrix()
        # Provider 0 trusts nobody: every contact to it must be denied.
        acls = {0: AccessControl()}

        async def main():
            async with cluster(network, index, acls=acls) as c:
                client = c.client()
                try:
                    saw_denial = False
                    for owner in range(network.n_owners):
                        report = await client.search(owner)
                        assert set(report.denied_providers) <= {0}
                        saw_denial |= bool(report.denied_providers)
                        expected = set(matrix.providers_of(owner)) - {0}
                        assert set(report.positive_providers) == expected
                    assert saw_denial
                finally:
                    await client.close()

        run(main())

    def test_search_metrics_consistent_across_fleet(self, served_network):
        network, index = served_network

        async def main():
            async with cluster(network, index) as c:
                client = c.client(cache_size=0)
                try:
                    owners = list(range(network.n_owners))
                    contacted = 0
                    for owner in owners:
                        report = await client.search(owner)
                        contacted += report.contacted
                    stats = await client.stats(c.servers[0].address)
                    assert stats["counters"]["queries_served"] == len(owners)
                    fleet_searches = 0
                    for endpoint in c.providers.values():
                        snap = await client.stats(endpoint.address)
                        fleet_searches += snap["counters"].get(
                            "searches_served", 0
                        )
                    assert fleet_searches == contacted
                finally:
                    await client.close()

        run(main())


class TestProviderEndpoint:
    def test_non_integer_owner_is_a_bad_request(self, served_network):
        """``owner: true`` is not owner 1, just as ``owner: 1.0`` is not."""
        network, _ = served_network
        provider = next(p for p in network.providers if 1 in p.records)

        async def main():
            endpoint = await ProviderEndpoint(
                provider, AccessControl(trusted={"s"})
            ).start()
            client = LocatorClient(servers=[endpoint.address], name="s")
            try:
                answer = await client.call(
                    endpoint.address, VERB_SEARCH, searcher="s", owner=1
                )
                assert answer["status"] == "ok" and answer["records"]
                for owner in (True, 1.0):
                    with pytest.raises(RemoteError) as err:
                        await client.call(
                            endpoint.address, VERB_SEARCH, searcher="s", owner=owner
                        )
                    assert err.value.code == "bad-request"
            finally:
                await client.close()
                await endpoint.stop()

        run(main())


class TestFaultInjection:
    def test_dead_provider_recorded_not_hung(self, served_network):
        network, index = served_network
        matrix = network.membership_matrix()

        async def main():
            async with cluster(network, index) as c:
                client = c.client(
                    retry=RetryPolicy(
                        max_retries=1, timeout_s=0.15, base_delay_s=0.005
                    )
                )
                try:
                    # Pick an owner with >= 2 true providers, kill one of them.
                    owner = next(
                        j for j in range(network.n_owners)
                        if len(matrix.providers_of(j)) >= 2
                    )
                    victim = min(matrix.providers_of(owner))
                    await c.providers[victim].stop()

                    report = await asyncio.wait_for(
                        client.search(owner), timeout=5.0
                    )
                    assert victim in report.failed_providers
                    expected = set(matrix.providers_of(owner)) - {victim}
                    assert set(report.positive_providers) == expected
                finally:
                    await client.close()

        run(main())

    def test_provider_restart_restores_coverage(self, served_network):
        network, index = served_network
        matrix = network.membership_matrix()

        async def main():
            async with cluster(network, index) as c:
                client = c.client(
                    retry=RetryPolicy(
                        max_retries=1, timeout_s=0.15, base_delay_s=0.005
                    )
                )
                try:
                    owner = next(
                        j for j in range(network.n_owners)
                        if len(matrix.providers_of(j)) >= 2
                    )
                    victim = min(matrix.providers_of(owner))
                    port = c.providers[victim].port
                    await c.providers[victim].stop()

                    degraded = await asyncio.wait_for(
                        client.search(owner), timeout=5.0
                    )
                    assert victim in degraded.failed_providers

                    # Bring the provider back on the same port; the very
                    # next search recovers full coverage (client state is
                    # per-request, nothing needs resetting).
                    revived = ProviderEndpoint(
                        network.providers[victim],
                        AccessControl(trusted={"searcher"}),
                        port=port,
                    )
                    await revived.start()
                    try:
                        healed = await asyncio.wait_for(
                            client.search(owner), timeout=5.0
                        )
                        assert not healed.failed_providers
                        assert set(healed.positive_providers) == set(
                            matrix.providers_of(owner)
                        )
                    finally:
                        await revived.stop()
                finally:
                    await client.close()

        run(main())

    def test_all_servers_down_degrades_to_empty_report(self, served_network):
        network, index = served_network

        async def main():
            async with cluster(network, index) as c:
                client = c.client(
                    retry=RetryPolicy(
                        max_retries=1, timeout_s=0.1, base_delay_s=0.005
                    )
                )
                try:
                    await c.servers[0].stop()
                    report = await asyncio.wait_for(
                        client.search(0), timeout=5.0
                    )
                    assert report.contacted == 0
                    assert not report.records
                finally:
                    await client.close()

        run(main())
