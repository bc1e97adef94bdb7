"""Primary attack (paper Sec. II-B): membership claims from the public index.

The attacker picks an owner ``t_j`` and a provider with ``M'(i, j) = 1`` and
claims "t_j has records at p_i".  The per-owner disclosure metric is the
average success probability over the published positives, which equals
``1 − fp_j`` -- we measure it both exactly (from the true matrix) and
empirically (Monte-Carlo claims), and the tests check the two agree.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.attacks.adversary import AdversaryKnowledge
from repro.core.model import MembershipMatrix
from repro.core.privacy import check_published_shape

__all__ = ["PrimaryAttackResult", "primary_attack", "primary_attack_confidences"]


@dataclass
class PrimaryAttackResult:
    """Outcome of attacking a set of owners."""

    owner_ids: np.ndarray
    confidences: np.ndarray  # per-owner empirical success probability
    trials: int

    @property
    def mean_confidence(self) -> float:
        return float(self.confidences.mean()) if len(self.confidences) else 0.0


def primary_attack_confidences(
    matrix: MembershipMatrix, knowledge: AdversaryKnowledge
) -> np.ndarray:
    """Exact attack confidence per owner: ``Pr(M=1 | M'=1) = 1 − fp_j``.

    Owners with no published positives cannot be attacked at all; their
    confidence is 0.
    """
    published = knowledge.published
    check_published_shape(matrix, published)
    dense = matrix.to_dense()
    pub_counts = published.sum(axis=0).astype(float)
    true_counts = (dense & published).sum(axis=0).astype(float)
    with np.errstate(divide="ignore", invalid="ignore"):
        conf = true_counts / pub_counts
    return np.where(pub_counts == 0, 0.0, conf)


def primary_attack(
    matrix: MembershipMatrix,
    knowledge: AdversaryKnowledge,
    owner_ids: np.ndarray,
    rng: np.random.Generator,
    trials: int = 100,
) -> PrimaryAttackResult:
    """Monte-Carlo primary attack: random candidate picks, measured hits."""
    owner_ids = np.asarray(owner_ids)
    confidences = np.zeros(len(owner_ids), dtype=float)
    for idx, j in enumerate(owner_ids):
        candidates = knowledge.candidate_providers(int(j))
        if len(candidates) == 0:
            continue
        picks = rng.choice(candidates, size=trials, replace=True)
        hits = sum(1 for pid in picks if matrix.get(int(pid), int(j)))
        confidences[idx] = hits / trials
    return PrimaryAttackResult(
        owner_ids=owner_ids, confidences=confidences, trials=trials
    )
