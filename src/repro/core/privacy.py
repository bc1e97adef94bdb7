"""Privacy metrics and degrees (paper Sec. II-C).

The disclosure metric for owner ``t_j`` is the attacker's average success
probability over published positives:

    Pr(M(·,j) | M'(·,j)) = 1 − fp_j

where ``fp_j`` is the false-positive rate of the owner's published provider
list.  The *success ratio* of a constructed index is the fraction of owners
whose realized ``fp_j`` meets their requested degree (``fp_j ≥ ǫ_j``) -- the
headline metric of Fig. 4 and Fig. 5.

Privacy degrees (Table II) are represented by :class:`PrivacyDegree`;
:func:`classify_degree` maps empirical attack measurements onto them the way
the paper's analysis does.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from repro.core.errors import ModelError
from repro.core.model import MembershipMatrix

__all__ = [
    "PrivacyDegree",
    "PrivacyReport",
    "check_published_shape",
    "published_false_positive_rates",
    "attacker_confidences",
    "success_ratio",
    "evaluate_index",
    "classify_degree",
]


class PrivacyDegree(enum.Enum):
    """The four degrees of paper Sec. II-C, ordered strongest to weakest."""

    UNLEAKED = "unleaked"
    EPS_PRIVATE = "eps-private"
    NO_GUARANTEE = "no-guarantee"
    NO_PROTECT = "no-protect"


@dataclass
class PrivacyReport:
    """Per-owner privacy measurements of one published index."""

    false_positive_rates: np.ndarray  # fp_j per owner
    attacker_confidences: np.ndarray  # 1 - fp_j per owner
    epsilons: np.ndarray
    success_ratio: float  # fraction of owners with fp_j >= eps_j

    @property
    def n_owners(self) -> int:
        return len(self.false_positive_rates)

    def violations(self) -> np.ndarray:
        """Owner ids whose privacy requirement is not met."""
        return np.nonzero(self.false_positive_rates < self.epsilons)[0]


def check_published_shape(matrix: MembershipMatrix, published: np.ndarray) -> None:
    """Refuse a published ``M'`` that is not the true matrix's shape: an
    index of another network, which no metric or attack can compare."""
    if published.shape != (matrix.n_providers, matrix.n_owners):
        raise ModelError(
            f"published matrix shape {published.shape} does not match "
            f"({matrix.n_providers}, {matrix.n_owners})"
        )


def published_false_positive_rates(
    matrix: MembershipMatrix, published: np.ndarray
) -> np.ndarray:
    """``fp_j`` for every owner from the true matrix and published ``M'``.

    Owners with an empty published list get fp = 1.0 (nothing disclosed).
    """
    published = np.asarray(published)
    check_published_shape(matrix, published)
    dense_true = matrix.to_dense()
    if np.any((dense_true == 1) & (published == 0)):
        raise ModelError("published index dropped a true positive (recall violation)")
    published_counts = published.sum(axis=0).astype(float)
    true_counts = dense_true.sum(axis=0).astype(float)
    false_counts = published_counts - true_counts
    with np.errstate(divide="ignore", invalid="ignore"):
        fp = false_counts / published_counts
    return np.where(published_counts == 0, 1.0, fp)


def attacker_confidences(false_positive_rates: np.ndarray) -> np.ndarray:
    """Primary-attack success probability per owner: ``1 − fp_j``."""
    return 1.0 - np.asarray(false_positive_rates, dtype=float)


def success_ratio(
    false_positive_rates: np.ndarray, epsilons: np.ndarray
) -> float:
    """Fraction of owners whose privacy requirement ``fp_j ≥ ǫ_j`` holds."""
    fp = np.asarray(false_positive_rates, dtype=float)
    eps = np.asarray(epsilons, dtype=float)
    if fp.shape != eps.shape:
        raise ModelError("fp/epsilon shapes must match")
    if fp.size == 0:
        return 1.0
    return float(np.mean(fp >= eps))


def evaluate_index(
    matrix: MembershipMatrix, published: np.ndarray, epsilons: np.ndarray
) -> PrivacyReport:
    """Full privacy evaluation of one published index."""
    fp = published_false_positive_rates(matrix, published)
    eps = np.asarray(epsilons, dtype=float)
    return PrivacyReport(
        false_positive_rates=fp,
        attacker_confidences=attacker_confidences(fp),
        epsilons=eps,
        success_ratio=success_ratio(fp, eps),
    )


def classify_degree(
    confidences: np.ndarray,
    epsilons: np.ndarray,
    tolerance: float = 0.02,
    certainty_threshold: float = 0.999,
    required_fraction: float = 1.0,
) -> PrivacyDegree:
    """Classify empirical attack results into a privacy degree (Table II).

    * every attack fully certain  → NO_PROTECT;
    * at least ``required_fraction`` of owners have confidence ≤ 1 − ǫ_j
      (within ``tolerance``) → EPS_PRIVATE.  ǫ-PPI's guarantee is statistical
      (Thm. 3.1 holds with success ratio γ), so Table II experiments pass the
      configured γ here;
    * otherwise → NO_GUARANTEE (a bound holds for some owners but not
      dependably, i.e. the achieved leakage is unpredictable).
    """
    conf = np.asarray(confidences, dtype=float)
    eps = np.asarray(epsilons, dtype=float)
    if conf.shape != eps.shape:
        raise ModelError("confidence/epsilon shapes must match")
    if not 0.0 < required_fraction <= 1.0:
        raise ModelError(
            f"required_fraction must be in (0, 1], got {required_fraction}"
        )
    if conf.size == 0:
        return PrivacyDegree.UNLEAKED
    if np.all(conf >= certainty_threshold):
        return PrivacyDegree.NO_PROTECT
    satisfied = np.mean(conf <= (1.0 - eps) + tolerance)
    if satisfied >= required_fraction:
        return PrivacyDegree.EPS_PRIVATE
    return PrivacyDegree.NO_GUARANTEE
