"""Centralized (reference) ǫ-PPI construction.

This is the *computation model* of paper Sec. III run in one process:

    frequencies σ → policy β* → identity mixing (Eq. 6/7) → final β
    → randomized publication (Eq. 2) → published index M'

The distributed realization in :mod:`repro.protocol` computes the same
function securely (SecSumShare + CountBelow + local publication) and the test
suite checks the two agree distributionally.  Keeping a trusted reference
implementation is what lets every secure-path test assert "same β vector,
same mixing decisions" without re-deriving the math.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.errors import ConstructionError
from repro.core.mixing import MixingResult, mix_betas
from repro.core.model import InformationNetwork, MembershipMatrix
from repro.core.policies import BetaPolicy, ChernoffPolicy
from repro.core.postings import PostingsIndex
from repro.core.privacy import PrivacyReport, evaluate_index
from repro.core.publication import publish_matrix

__all__ = ["ConstructionResult", "construct_epsilon_ppi", "compute_betas"]


@dataclass
class ConstructionResult:
    """Everything produced by one ConstructPPI run."""

    index: PostingsIndex
    policy_betas: np.ndarray  # β* straight from the policy (pre-mixing)
    mixing: MixingResult  # final β + mixing diagnostics
    report: PrivacyReport  # realized privacy of the published index

    @property
    def betas(self) -> np.ndarray:
        """Final publishing probabilities used by providers."""
        return self.mixing.betas


def compute_betas(
    matrix: MembershipMatrix,
    epsilons: np.ndarray,
    policy: BetaPolicy,
    rng: np.random.Generator,
    mixing_enabled: bool = True,
) -> tuple[np.ndarray, MixingResult]:
    """Phase 1 of construction: σ → β* → mixed β (Eq. 3-7)."""
    epsilons = np.asarray(epsilons, dtype=float)
    if epsilons.shape != (matrix.n_owners,):
        raise ConstructionError(
            f"need one epsilon per owner ({matrix.n_owners}), got {epsilons.shape}"
        )
    sigmas = matrix.sigmas()
    policy_betas = policy.beta_vector(sigmas, epsilons, matrix.n_providers)
    mixing = mix_betas(
        policy_betas, epsilons, rng, sigmas=sigmas, enabled=mixing_enabled
    )
    return policy_betas, mixing


def construct_epsilon_ppi(
    network: InformationNetwork,
    policy: BetaPolicy | None = None,
    rng: np.random.Generator | None = None,
    mixing_enabled: bool = True,
) -> ConstructionResult:
    """``ConstructPPI({ǫ_j})``: build the personalized index for a network.

    Defaults follow the paper's recommended configuration: Chernoff policy
    with γ = 0.9.
    """
    if network.n_owners == 0:
        raise ConstructionError("cannot construct an index over zero owners")
    policy = policy if policy is not None else ChernoffPolicy(gamma=0.9)
    rng = rng if rng is not None else np.random.default_rng()
    matrix = network.membership_matrix()
    epsilons = network.epsilons()

    policy_betas, mixing = compute_betas(matrix, epsilons, policy, rng, mixing_enabled)
    published = publish_matrix(matrix, mixing.betas, rng)
    index = PostingsIndex.from_dense(
        published, owner_names=[o.name for o in network.owners]
    )
    report = evaluate_index(matrix, published, epsilons)
    return ConstructionResult(
        index=index,
        policy_betas=policy_betas,
        mixing=mixing,
        report=report,
    )
