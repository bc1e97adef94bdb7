"""Tests for the centralized reference construction (ConstructPPI)."""

import numpy as np
import pytest

from repro.core.construction import compute_betas, construct_epsilon_ppi
from repro.core.errors import ConstructionError
from repro.core.model import InformationNetwork
from repro.core.policies import BasicPolicy, ChernoffPolicy


class TestComputeBetas:
    def test_policy_betas_from_sigmas(self, small_matrix, np_rng):
        eps = np.array([0.5, 0.5, 0.5])
        policy = BasicPolicy()
        policy_betas, mixing = compute_betas(small_matrix, eps, policy, np_rng)
        for j in range(3):
            expected = policy.beta(small_matrix.sigma(j), 0.5, 3)
            assert policy_betas[j] == pytest.approx(expected)

    def test_epsilon_count_checked(self, small_matrix, np_rng):
        with pytest.raises(ConstructionError):
            compute_betas(small_matrix, np.array([0.5]), BasicPolicy(), np_rng)

    def test_mixing_disabled_flag(self, small_matrix, np_rng):
        eps = np.array([0.9, 0.9, 0.9])
        _, mixing = compute_betas(
            small_matrix, eps, BasicPolicy(), np_rng, mixing_enabled=False
        )
        assert len(mixing.decoy_ids) == 0


class TestConstructEpsilonPPI:
    def test_full_flow(self, hospital_network, np_rng):
        result = construct_epsilon_ppi(
            hospital_network, ChernoffPolicy(0.9), np_rng
        )
        assert result.index.n_providers == 5
        assert result.index.n_owners == 3
        assert result.report.n_owners == 3
        assert 0.0 <= result.report.success_ratio <= 1.0

    def test_recall_guarantee(self, hospital_network, np_rng):
        """QueryPPI must always include the true positives."""
        result = construct_epsilon_ppi(hospital_network, BasicPolicy(), np_rng)
        matrix = hospital_network.membership_matrix()
        for owner in hospital_network.owners:
            hits = set(result.index.query(owner.owner_id))
            assert matrix.providers_of(owner.owner_id) <= hits

    def test_common_owner_broadcast(self, hospital_network, np_rng):
        """frequent-flyer is at all 5 hospitals: it must publish everywhere."""
        result = construct_epsilon_ppi(hospital_network, BasicPolicy(), np_rng)
        frequent = hospital_network.owner_by_name("frequent-flyer")
        assert result.index.result_size(frequent.owner_id) == 5
        assert result.betas[frequent.owner_id] == 1.0

    def test_owner_names_resolvable(self, hospital_network, np_rng):
        result = construct_epsilon_ppi(hospital_network, BasicPolicy(), np_rng)
        assert result.index.query_by_name("celebrity") == result.index.query(0)

    def test_defaults_used(self, hospital_network):
        result = construct_epsilon_ppi(hospital_network)
        assert result.index.n_owners == 3

    def test_empty_network_rejected(self):
        net = InformationNetwork(3)
        with pytest.raises(ConstructionError):
            construct_epsilon_ppi(net)

    def test_policy_betas_preserved(self, hospital_network, np_rng):
        result = construct_epsilon_ppi(hospital_network, BasicPolicy(), np_rng)
        # mixing may raise some to 1, but never lowers.
        assert np.all(result.betas >= result.policy_betas - 1e-12)

    def test_deterministic_given_seed(self, hospital_network):
        a = construct_epsilon_ppi(
            hospital_network, BasicPolicy(), np.random.default_rng(5)
        )
        b = construct_epsilon_ppi(
            hospital_network, BasicPolicy(), np.random.default_rng(5)
        )
        assert np.array_equal(a.index.to_dense(), b.index.to_dense())
