"""Core ǫ-PPI library: data model, β policies, mixing, publication, metrics.

This package is the paper's primary contribution; the secure distributed
realization lives in :mod:`repro.mpc` and :mod:`repro.protocol`.
"""

from repro.core.authsearch import (
    AccessControl,
    SearchOutcome,
    answer_search,
    auth_search,
)
from repro.core.construction import (
    ConstructionResult,
    compute_betas,
    construct_epsilon_ppi,
)
from repro.core.errors import (
    AccessDenied,
    ConstructionError,
    ModelError,
    PolicyError,
    ReproError,
)
from repro.core.mixing import MixingResult, compute_lambda, mix_betas
from repro.core.postings import IndexStats, PostingsIndex
from repro.core.model import (
    InformationNetwork,
    MembershipMatrix,
    Owner,
    Provider,
    Record,
)
from repro.core.policies import (
    BasicPolicy,
    BetaPolicy,
    ChernoffPolicy,
    IncrementedExpectationPolicy,
    basic_beta,
    chernoff_beta,
)
from repro.core.privacy import (
    PrivacyDegree,
    PrivacyReport,
    attacker_confidences,
    classify_degree,
    evaluate_index,
    published_false_positive_rates,
    success_ratio,
)
from repro.core.publication import (
    false_positive_rates,
    publish_matrix,
    publish_provider_row,
    sample_false_positive_counts,
)

__all__ = [
    "AccessControl",
    "AccessDenied",
    "BasicPolicy",
    "BetaPolicy",
    "ChernoffPolicy",
    "ConstructionError",
    "ConstructionResult",
    "IncrementedExpectationPolicy",
    "IndexStats",
    "InformationNetwork",
    "MembershipMatrix",
    "MixingResult",
    "ModelError",
    "Owner",
    "PolicyError",
    "PostingsIndex",
    "PrivacyDegree",
    "PrivacyReport",
    "Provider",
    "Record",
    "ReproError",
    "SearchOutcome",
    "answer_search",
    "attacker_confidences",
    "auth_search",
    "basic_beta",
    "chernoff_beta",
    "classify_degree",
    "compute_betas",
    "compute_lambda",
    "construct_epsilon_ppi",
    "evaluate_index",
    "false_positive_rates",
    "mix_betas",
    "publish_matrix",
    "publish_provider_row",
    "published_false_positive_rates",
    "sample_false_positive_counts",
    "success_ratio",
]
