"""Grand end-to-end: every subsystem in one flow.

TREC-like network → *secure distributed* construction (SecSumShare +
CountBelow under GMW, timed on the simulator) → randomized publication from
the securely computed β → deployed locator service (server + providers +
fault-tolerant searcher) → attacks → per-owner audit.
"""

import random

import numpy as np
import pytest

from repro.analysis.audit import audit_index
from repro.attacks.adversary import AdversaryKnowledge
from repro.attacks.common_identity import common_identity_attack
from repro.attacks.primary import primary_attack_confidences
from repro.core.policies import ChernoffPolicy
from repro.core.postings import PostingsIndex
from repro.core.publication import publish_matrix
from repro.datasets.trec_like import TrecLikeConfig, build_trec_like_network
from repro.protocol import run_distributed_construction
from repro.service import run_locator_service


@pytest.fixture(scope="module")
def full_system():
    """Build once: the flow is deterministic given the seeds."""
    net = build_trec_like_network(
        TrecLikeConfig(
            n_providers=30, n_owners=60, mean_collection_size=5.0,
            attachment=0.4,
        ),
        seed=42,
    )
    matrix = net.membership_matrix()
    policy = ChernoffPolicy(0.9)

    # Phase 1, securely and distributed: providers' private rows in, betas out.
    provider_bits = [
        [1 if matrix.get(pid, j) else 0 for j in range(net.n_owners)]
        for pid in range(net.n_providers)
    ]
    epsilons = [float(o.epsilon) for o in net.owners]
    construction = run_distributed_construction(
        provider_bits, epsilons, policy, c=3, rng=random.Random(7)
    )

    # Phase 2: providers publish with the securely computed betas.
    rng = np.random.default_rng(8)
    published = publish_matrix(matrix, construction.betas, rng)
    index = PostingsIndex.from_dense(published, owner_names=[o.name for o in net.owners])
    return net, matrix, construction, index


class TestFullSystem:
    def test_secure_construction_produced_valid_betas(self, full_system):
        _, _, construction, _ = full_system
        assert len(construction.betas) == 60
        assert all(0.0 <= b <= 1.0 for b in construction.betas)
        assert construction.execution_time_s > 0
        assert construction.metrics.per_kind_messages["secsum/share"] > 0
        assert construction.metrics.per_kind_messages["mpc/round"] > 0

    def test_service_serves_every_owner_with_full_recall(self, full_system):
        net, _, _, index = full_system
        run = run_locator_service(
            net, index, queries=[o.owner_id for o in net.owners]
        )
        assert run.recall == 1.0
        assert run.queries_served == 60

    def test_service_survives_message_loss(self, full_system):
        net, _, _, index = full_system
        run = run_locator_service(
            net, index, queries=[o.owner_id for o in net.owners],
            loss_probability=0.15, loss_seed=5, max_retries=8,
        )
        assert run.recall == 1.0  # enough retries recover everything

    def test_primary_attack_bounded_for_protected_owners(self, full_system):
        net, matrix, _, index = full_system
        conf = primary_attack_confidences(
            matrix, AdversaryKnowledge(published=index.to_dense())
        )
        eps = net.epsilons()
        # Statistical guarantee: >= ~gamma of non-broadcast owners bounded.
        sizes = index.to_dense().sum(axis=0)
        protected = sizes < net.n_providers
        assert protected.sum() > 0  # the network is not degenerate
        satisfied = np.mean(conf[protected] <= (1 - eps[protected]) + 0.02)
        assert satisfied >= 0.7  # small-n slack around gamma=0.9

    def test_common_identity_attack_blunted(self, full_system):
        net, matrix, _, index = full_system
        attack = common_identity_attack(
            matrix,
            AdversaryKnowledge(published=index.to_dense()),
            np.random.default_rng(3),
        )
        if attack.attacked and len(attack.truly_common):
            assert attack.identification_confidence < 1.0

    def test_audit_agrees_with_attack_surface(self, full_system):
        net, matrix, _, index = full_system
        audit = audit_index(
            matrix,
            index.to_dense(),
            net.epsilons(),
            owner_names=[o.name for o in net.owners],
        )
        conf = primary_attack_confidences(
            matrix, AdversaryKnowledge(published=index.to_dense())
        )
        for owner_audit in audit.owners:
            if owner_audit.published_size > 0:
                assert owner_audit.attacker_confidence == pytest.approx(
                    conf[owner_audit.owner_id]
                )
