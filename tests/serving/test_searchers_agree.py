"""The three searchers agree: in process, on the simulator, over sockets.

All three run phase 2 through the same provider answer and the same
classifier, so on one network, one index and one set of ACLs they must
file every provider of every owner the same way and return the same
records.
"""

import asyncio

from repro.core.authsearch import AccessControl, auth_search
from repro.service import run_locator_service

from .conftest import cluster


def _filed(outcome):
    """An outcome's provider sets and records, order-free."""
    return (
        outcome.owner_id,
        sorted(outcome.positive_providers),
        sorted(outcome.noise_providers),
        sorted(outcome.denied_providers),
        sorted(outcome.failed_providers),
        sorted((r.owner_id, r.payload) for r in outcome.records),
    )


def test_in_process_simulated_and_socket_searchers_agree(served_network):
    network, index = served_network
    owners = list(range(network.n_owners))
    # Provider 0 trusts nobody, provider 1 grants the even owners only,
    # every other provider trusts the searcher.
    acls = {
        pid: AccessControl(trusted={"searcher"})
        for pid in range(network.n_providers)
    }
    acls[0] = AccessControl()
    acls[1] = AccessControl(grants={"searcher": set(owners[::2])})

    in_process = [
        auth_search(network, acls, "searcher", index.query(j), j) for j in owners
    ]
    simulated = run_locator_service(network, index, owners, acls=acls).outcomes

    async def over_sockets():
        async with cluster(network, index, n_shards=2, acls=acls) as c:
            client = c.client()
            try:
                return [await client.search(j) for j in owners]
            finally:
                await client.close()

    sockets = asyncio.run(over_sockets())

    filed = [_filed(o) for o in in_process]
    assert [_filed(o) for o in simulated] == filed
    assert [_filed(o) for o in sockets] == filed
    # The workload exercises every class but failure.
    assert any(o.denied_providers for o in in_process)
    assert any(o.noise_providers for o in in_process)
    assert any(o.positive_providers for o in in_process)
    assert not any(o.failed_providers for o in in_process)
