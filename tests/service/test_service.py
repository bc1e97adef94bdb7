"""Tests for the live locator-service deployment (Fig. 1 actors)."""

import numpy as np
import pytest

from repro.core import (
    AccessControl,
    ChernoffPolicy,
    construct_epsilon_ppi,
)
from repro.core.postings import PostingsIndex
from repro.service import run_locator_service


@pytest.fixture
def deployed(hospital_network, np_rng):
    result = construct_epsilon_ppi(hospital_network, ChernoffPolicy(0.9), np_rng)
    return hospital_network, result.index


class TestTwoPhaseService:
    def test_searcher_finds_all_records(self, deployed):
        network, index = deployed
        celeb = network.owner_by_name("celebrity")
        run = run_locator_service(network, index, queries=[celeb.owner_id])
        assert len(run.outcomes) == 1
        outcome = run.outcomes[0]
        assert outcome.positive_providers == [2]
        assert outcome.records[0].payload == "oncology record"
        assert run.recall == 1.0

    def test_noise_providers_contacted(self, deployed):
        network, index = deployed
        celeb = network.owner_by_name("celebrity")
        run = run_locator_service(network, index, queries=[celeb.owner_id])
        outcome = run.outcomes[0]
        expected_candidates = set(index.query(celeb.owner_id))
        assert set(outcome.noise_providers) == expected_candidates - {2}
        assert outcome.contacted == len(expected_candidates)

    def test_query_sequence_processed_in_order(self, deployed):
        network, index = deployed
        ids = [o.owner_id for o in network.owners]
        run = run_locator_service(network, index, queries=ids)
        assert [o.owner_id for o in run.outcomes] == ids
        assert run.queries_served == len(ids)

    def test_latency_positive_and_bounded(self, deployed):
        network, index = deployed
        run = run_locator_service(network, index, queries=[0])
        assert run.outcomes[0].latency_s > 0
        assert run.mean_latency_s == pytest.approx(run.outcomes[0].latency_s)

    def test_acl_denials_recorded(self, deployed):
        network, index = deployed
        celeb = network.owner_by_name("celebrity")
        # Searcher authorized nowhere.
        acls = {pid: AccessControl() for pid in range(network.n_providers)}
        run = run_locator_service(
            network, index, queries=[celeb.owner_id], acls=acls
        )
        outcome = run.outcomes[0]
        assert not outcome.records
        assert len(outcome.denied_providers) == outcome.contacted

    def test_partial_authorization(self, deployed):
        network, index = deployed
        celeb = network.owner_by_name("celebrity")
        acls = {pid: AccessControl() for pid in range(network.n_providers)}
        acls[2].grant("searcher", celeb.owner_id)
        run = run_locator_service(
            network, index, queries=[celeb.owner_id], acls=acls
        )
        outcome = run.outcomes[0]
        assert outcome.positive_providers == [2]
        assert run.recall == 1.0  # denied providers excluded from the check

    def test_empty_candidate_list_terminates(self, hospital_network):
        # An index that lists nobody for owner 0.
        empty = PostingsIndex.from_dense(
            np.zeros((hospital_network.n_providers, hospital_network.n_owners),
                     dtype=np.uint8)
        )
        run = run_locator_service(hospital_network, empty, queries=[0])
        assert run.outcomes[0].contacted == 0

    def test_broadcast_owner_contacts_everyone(self, deployed):
        network, index = deployed
        frequent = network.owner_by_name("frequent-flyer")
        run = run_locator_service(network, index, queries=[frequent.owner_id])
        assert run.outcomes[0].contacted == network.n_providers
        assert len(run.outcomes[0].records) == 5

    def test_message_accounting(self, deployed):
        network, index = deployed
        run = run_locator_service(network, index, queries=[0])
        kinds = run.metrics.per_kind_messages
        assert kinds["query"] == 1
        assert kinds["query-reply"] == 1
        assert kinds["search"] == run.outcomes[0].contacted
        assert kinds["search-reply"] == run.outcomes[0].contacted


class TestCostScaling:
    def test_higher_epsilon_costs_more_latency(self):
        """The personalized trade-off, end to end: a high-ǫ owner's searches
        contact more providers and therefore take longer."""
        from repro.core.model import InformationNetwork

        rng = np.random.default_rng(5)
        latencies = {}
        for eps in (0.1, 0.9):
            net = InformationNetwork(80)
            owner = net.register_owner("o", eps)
            for pid in (3, 11, 40):
                net.delegate(owner, pid)
            result = construct_epsilon_ppi(net, ChernoffPolicy(0.9), rng)
            run = run_locator_service(net, result.index, queries=[owner.owner_id])
            latencies[eps] = (run.mean_contacted, run.mean_latency_s)
        assert latencies[0.9][0] > latencies[0.1][0]


class TestConcurrentSearchers:
    def test_all_queries_answered(self, deployed):
        from repro.service import run_concurrent_searchers

        network, index = deployed
        query_lists = [[0, 1], [2], [0]]
        run = run_concurrent_searchers(network, index, query_lists)
        assert run.total_queries == 4
        assert len(run.per_searcher) == 3
        assert [len(r.outcomes) for r in run.per_searcher] == [2, 1, 1]

    def test_concurrency_raises_throughput(self, deployed):
        from repro.service import run_concurrent_searchers

        network, index = deployed
        single = run_concurrent_searchers(network, index, [[0, 1, 2]])
        multi = run_concurrent_searchers(network, index, [[0], [1], [2]])
        assert multi.throughput_qps > single.throughput_qps

    def test_results_match_sequential(self, deployed):
        from repro.service import run_concurrent_searchers, run_locator_service

        network, index = deployed
        concurrent = run_concurrent_searchers(network, index, [[0], [1]])
        for run in concurrent.per_searcher:
            owner = run.outcomes[0].owner_id
            seq = run_locator_service(network, index, queries=[owner])
            assert (
                sorted(run.outcomes[0].positive_providers)
                == sorted(seq.outcomes[0].positive_providers)
            )

    def test_empty_lists(self, deployed):
        from repro.service import run_concurrent_searchers

        network, index = deployed
        run = run_concurrent_searchers(network, index, [[]])
        assert run.total_queries == 0
        assert run.throughput_qps == 0.0
