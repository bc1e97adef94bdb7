"""Multi-version intersection attack and the sticky-noise countermeasure.

The paper argues (Sec. III-C) that ǫ-PPI "is fully resistant to repeated
attacks against the same identity over time, because the ǫ-PPI is static".
That resistance evaporates the moment the index is *reconstructed* -- e.g.
after new delegations -- with fresh randomness: true positives appear in
every version while independent false positives survive k versions only
with probability β^k, so intersecting versions strips the noise.

:func:`intersection_attack` implements the attack; it is the motivation for
the *sticky noise* extension (`repro/updates/noise.py`): deriving each
owner's flip coins from a keyed stream per owner instead of fresh
randomness, so re-publications reproduce the same false positives and the
intersection converges to the first published version instead of the truth.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.core.model import MembershipMatrix

__all__ = ["IntersectionAttackResult", "intersection_attack"]


@dataclass
class IntersectionAttackResult:
    """Attack outcome over a sequence of published index versions."""

    versions: int
    intersection: np.ndarray  # providers x owners, cells positive in all
    confidences: np.ndarray  # per-owner exact claim success on intersection
    survivors_per_owner: np.ndarray  # intersection column sums

    @property
    def mean_confidence(self) -> float:
        mask = self.survivors_per_owner > 0
        if not mask.any():
            return 0.0
        return float(self.confidences[mask].mean())


def intersection_attack(
    matrix: MembershipMatrix, published_versions: Sequence[np.ndarray]
) -> IntersectionAttackResult:
    """Intersect ``k`` published versions and attack the survivors.

    Per owner the confidence is
    ``|true ∩ survivors| / |survivors|`` -- the exact success probability of
    a membership claim against a surviving candidate.  Recall guarantees
    true positives survive every version, so the numerator equals the true
    frequency whenever any candidate survives.
    """
    if not published_versions:
        raise ValueError("need at least one published version")
    shape = (matrix.n_providers, matrix.n_owners)
    intersection = np.ones(shape, dtype=np.uint8)
    for version in published_versions:
        version = np.asarray(version, dtype=np.uint8)
        if version.shape != shape:
            raise ValueError(
                f"version shape {version.shape} does not match {shape}"
            )
        intersection &= version

    dense = matrix.to_dense()
    survivors = intersection.sum(axis=0).astype(np.int64)
    true_survivors = (intersection & dense).sum(axis=0).astype(float)
    with np.errstate(divide="ignore", invalid="ignore"):
        conf = true_survivors / survivors
    conf = np.where(survivors == 0, 0.0, conf)
    return IntersectionAttackResult(
        versions=len(published_versions),
        intersection=intersection,
        confidences=conf,
        survivors_per_owner=survivors,
    )
