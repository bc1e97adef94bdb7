"""Randomized publication (paper Eq. 2, phase 2 of construction).

Each provider independently publishes its private membership bit per owner:

* ``M(i, j) = 1`` is always published as ``M'(i, j) = 1`` (truthful rule --
  this is what guarantees 100 % query recall);
* ``M(i, j) = 0`` is flipped to ``M'(i, j) = 1`` with probability β_j
  (false-positive rule -- the source of privacy).

Two equivalent implementations are provided:

* :func:`publish_matrix` -- the exact per-cell Bernoulli process, used by the
  end-to-end system and the distributed protocol (each provider flips its own
  row);
* :func:`sample_false_positive_counts` -- the per-identity Binomial shortcut
  used by the large-scale effectiveness experiments: since the m − f_j
  negative providers flip i.i.d., the number of false positives is exactly
  ``Binomial(m − f_j, β_j)``.  Sampling the count directly is
  distribution-identical to flipping cells and lets Fig. 4/5 sweep thousands
  of identities at 10,000 providers cheaply.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.errors import ConstructionError
from repro.core.model import MembershipMatrix

__all__ = [
    "publish_matrix",
    "publish_provider_row",
    "sample_false_positive_counts",
    "false_positive_rates",
]

# Cells per Bernoulli block in :func:`publish_matrix`: 4 MB of float64.
PUBLISH_BLOCK_CELLS = 1 << 19


def publish_provider_row(
    private_row: np.ndarray, betas: Sequence[float], rng: np.random.Generator
) -> np.ndarray:
    """One provider's published vector from its private vector (Eq. 2).

    This is the only publication primitive a real provider runs: it needs its
    own row and the public β vector, nothing else.
    """
    private_row = np.asarray(private_row, dtype=np.uint8)
    betas = np.asarray(betas, dtype=float)
    if private_row.shape != betas.shape:
        raise ConstructionError(
            f"row has {private_row.shape} entries but betas has {betas.shape}"
        )
    if np.any((betas < 0.0) | (betas > 1.0)):
        raise ConstructionError("beta values must lie in [0, 1]")
    flips = rng.random(private_row.shape) < betas
    return np.where(private_row == 1, 1, flips.astype(np.uint8))


def publish_matrix(
    matrix: MembershipMatrix, betas: Sequence[float], rng: np.random.Generator
) -> np.ndarray:
    """Full published matrix ``M'`` (dense uint8, providers x owners).

    The Bernoulli field ``rng.random((m, n)) < betas`` is drawn in blocks of
    whole provider rows, so the float64 temporary stays a few MB however
    large the matrix.  The generator fills in C order, so the blocks consume
    the *identical* uniform stream as one whole-matrix draw and as the
    per-provider :func:`publish_provider_row` loop -- bit-for-bit the same
    output for the same seed (``tests/core/test_publication.py`` pins both
    at a block boundary, and the Binomial marginals).
    """
    betas = np.asarray(betas, dtype=float)
    if betas.shape != (matrix.n_owners,):
        raise ConstructionError(
            f"need one beta per owner ({matrix.n_owners}), got shape {betas.shape}"
        )
    if np.any((betas < 0.0) | (betas > 1.0)):
        raise ConstructionError("beta values must lie in [0, 1]")
    published = matrix.to_dense()
    block_rows = max(1, PUBLISH_BLOCK_CELLS // max(1, matrix.n_owners))
    for lo in range(0, matrix.n_providers, block_rows):
        block = published[lo : lo + block_rows]
        block |= rng.random(block.shape) < betas
    return published


def sample_false_positive_counts(
    frequencies: np.ndarray,
    betas: np.ndarray,
    m: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Sample per-identity false-positive counts ``X_j ~ Binomial(m−f_j, β_j)``."""
    frequencies = np.asarray(frequencies)
    betas = np.asarray(betas, dtype=float)
    if frequencies.shape != betas.shape:
        raise ConstructionError("frequencies/betas shapes must match")
    if np.any(frequencies > m) or np.any(frequencies < 0):
        raise ConstructionError("frequencies must lie in [0, m]")
    negatives = m - frequencies
    return rng.binomial(negatives.astype(np.int64), betas)


def false_positive_rates(
    frequencies: np.ndarray, false_positives: np.ndarray
) -> np.ndarray:
    """``fp_j = X_j / (X_j + f_j)`` -- the privacy metric denominator is the
    full published positive list (paper Sec. II-C).

    Identities with no published positives at all (f = 0 and X = 0) get
    fp = 1.0: an empty result list discloses nothing.
    """
    frequencies = np.asarray(frequencies, dtype=float)
    false_positives = np.asarray(false_positives, dtype=float)
    published = frequencies + false_positives
    with np.errstate(divide="ignore", invalid="ignore"):
        fp = false_positives / published
    return np.where(published == 0, 1.0, fp)
