"""End-to-end integration: Delegate -> ConstructPPI -> QueryPPI -> AuthSearch."""

import numpy as np

from repro.core import (
    AccessControl,
    ChernoffPolicy,
    auth_search,
    construct_epsilon_ppi,
)
from repro.datasets import TrecLikeConfig, build_trec_like_network


class TestTwoPhaseSearch:
    def test_full_hie_flow(self, hospital_network, np_rng):
        """The Fig. 1 scenario: search for an owner through PPI + AuthSearch."""
        result = construct_epsilon_ppi(hospital_network, ChernoffPolicy(0.9), np_rng)
        celeb = hospital_network.owner_by_name("celebrity")

        # Phase 1: QueryPPI gives an obscured candidate list.
        candidates = result.index.query(celeb.owner_id)
        assert 2 in candidates  # true positive guaranteed

        # Phase 2: AuthSearch with a trusted searcher.
        acls = {pid: AccessControl(trusted={"er"}) for pid in range(5)}
        search = auth_search(
            hospital_network, acls, "er", candidates, celeb.owner_id
        )
        assert search.found
        assert search.positive_providers == [2]
        assert search.records[0].payload == "oncology record"
        # Noise contacts are exactly candidates minus true positives.
        assert set(search.noise_providers) == set(candidates) - {2}

    def test_search_misses_nothing_over_many_owners(self, np_rng):
        net = build_trec_like_network(
            TrecLikeConfig(n_providers=30, n_owners=80), seed=3
        )
        result = construct_epsilon_ppi(net, ChernoffPolicy(0.9), np_rng)
        matrix = net.membership_matrix()
        acls = {pid: AccessControl(trusted={"s"}) for pid in range(30)}
        for owner in net.owners[:20]:
            candidates = result.index.query(owner.owner_id)
            search = auth_search(net, acls, "s", candidates, owner.owner_id)
            true_providers = matrix.providers_of(owner.owner_id)
            assert set(search.positive_providers) == true_providers

    def test_index_serialization_preserves_queries(
        self, hospital_network, np_rng, tmp_path
    ):
        from repro.serving.snapshot import load_postings, save_snapshot

        result = construct_epsilon_ppi(hospital_network, ChernoffPolicy(0.9), np_rng)
        save_snapshot(result.index, str(tmp_path / "index.npz"))
        loaded = load_postings(str(tmp_path / "index.npz"))
        for owner in hospital_network.owners:
            assert loaded.query(owner.owner_id) == result.index.query(owner.owner_id)


class TestPersonalization:
    def test_higher_epsilon_more_noise(self):
        """The privacy knob works: at equal frequency, a higher-ǫ owner gets
        a (statistically) larger published list."""
        from repro.core import InformationNetwork

        rng = np.random.default_rng(11)
        sizes = {0.2: [], 0.9: []}
        for trial in range(30):
            net = InformationNetwork(100)
            low = net.register_owner("low", 0.2)
            high = net.register_owner("high", 0.9)
            for pid in (3, 17, 42):
                net.delegate(low, pid)
                net.delegate(high, pid)
            result = construct_epsilon_ppi(net, ChernoffPolicy(0.9), rng)
            sizes[0.2].append(result.index.result_size(low.owner_id))
            sizes[0.9].append(result.index.result_size(high.owner_id))
        assert np.mean(sizes[0.9]) > np.mean(sizes[0.2]) * 2

    def test_epsilon_zero_truthful_list(self, np_rng):
        from repro.core import InformationNetwork

        net = InformationNetwork(50)
        owner = net.register_owner("nobody-special", 0.0)
        net.delegate(owner, 5)
        result = construct_epsilon_ppi(net, ChernoffPolicy(0.9), np_rng)
        assert result.index.query(owner.owner_id) == [5]

    def test_epsilon_one_broadcast(self, np_rng):
        from repro.core import InformationNetwork

        net = InformationNetwork(50)
        owner = net.register_owner("vip", 1.0)
        net.delegate(owner, 5)
        result = construct_epsilon_ppi(net, ChernoffPolicy(0.9), np_rng)
        assert result.index.result_size(owner.owner_id) == 50
