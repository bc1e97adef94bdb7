"""Per-owner sticky-noise streams: the one coin function of republication.

When an owner's row changes (enrollment, move, revocation, a refreshed β),
the delta pipeline must re-publish it -- and ``bench_ablation_refresh.py``
shows that doing so with *fresh* flip coins hands the multi-version
intersection attack a β^k confidence boost per republication.  Sticky coins
fix this, in the owner-major view the update path works in, and an owner
keeps the same coin function for its whole life:

* each delta log holds one long-lived ``noise_key`` (persisted in the log
  header, so reopening the log reproduces the identical streams);
* owner ``j``'s flip coins are one deterministic PRG stream seeded by
  ``SHA-256(domain || key || j)`` -- **prefix-stable**, so growing the
  provider universe extends the stream without disturbing earlier coins;
* the published row is ``true ∪ {p : coin[p] < β_j}``: monotone in β, and
  republishing with the same β_j reproduces the *same* false positives.

The intersection of any number of republications of owner ``j`` therefore
equals the first one, and an observer diffing index versions learns only
the true bit changes the owner actually made -- never which standing bits
are noise.
"""

from __future__ import annotations

import hashlib

import numpy as np

from repro.core.errors import ConstructionError

__all__ = ["StickyOwnerStream"]

_DOMAIN = b"eppi-sticky-owner-v1"


class StickyOwnerStream:
    """Deterministic per-owner flip-coin streams under one secret key."""

    def __init__(self, key: bytes):
        if not key:
            raise ConstructionError("noise key must be non-empty")
        self._key = bytes(key)

    @property
    def key(self) -> bytes:
        return self._key

    def coins(self, owner_id: int, n_providers: int) -> np.ndarray:
        """The first ``n_providers`` uniform draws of owner ``owner_id``'s
        stream.  Prefix-stable: ``coins(j, n)[:k] == coins(j, k)`` for any
        ``k <= n``, so the same coins survive provider-universe growth.
        """
        if owner_id < 0:
            raise ConstructionError(f"invalid owner id {owner_id}")
        if n_providers < 0:
            raise ConstructionError(f"invalid provider count {n_providers}")
        digest = hashlib.sha256(
            _DOMAIN + self._key + owner_id.to_bytes(8, "big")
        ).digest()
        rng = np.random.default_rng(int.from_bytes(digest, "big"))
        return rng.random(n_providers)

    def publish_row(
        self,
        owner_id: int,
        true_providers,
        beta: float,
        n_providers: int,
    ) -> np.ndarray:
        """Sticky owner-major analogue of Eq. 2: the published provider ids.

        Returns a sorted ``int32`` array ``true ∪ {p : coin[p] < beta}``.
        Same β -> identical false-positive set; β' >= β -> superset
        (coins are compared, never redrawn).
        """
        if not 0.0 <= beta <= 1.0:
            raise ConstructionError(f"beta must lie in [0, 1], got {beta}")
        true = np.asarray(true_providers, dtype=np.int64)
        if true.ndim != 1:
            raise ConstructionError("true_providers must be a flat id sequence")
        if true.size and (true.min() < 0 or true.max() >= n_providers):
            raise ConstructionError("true provider id out of range")
        published = self.coins(owner_id, n_providers) < beta
        published[true] = True
        return np.nonzero(published)[0].astype(np.int32)
