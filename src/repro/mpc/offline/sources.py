"""Triple sources: the seam between preprocessing and the online engines.

A *triple source* is anything exposing the dealer surface the batch GMW
engine consumes (``deal_batch`` / ``issued``, see
:mod:`repro.mpc.triples`).  This module provides the offline-fed
implementations:

* :class:`PrefetchedTripleSource` -- a fixed pool of dealerless triples,
  fully produced up front.  This is the *sequential* offline-then-online
  shape: the offline phase sits on the critical path.
* :class:`FactoryTripleSource` (in :mod:`repro.mpc.offline.factory`) --
  streams from the asynchronous factory queue, overlapping production with
  online evaluation.

Both serve words from 64-lane blocks.  When an engine asks for fewer lanes
(the tail chunk of a batch run), a full word is consumed and the dead lanes
are masked off -- the gap shows up as ``utilization < 1`` in the phase
report rather than as silently recycled randomness, matching how a real
deployment burns preprocessed material.
"""

from __future__ import annotations

import numpy as np

from repro.core.errors import ReproError
from repro.mpc.triples import mask_dead_lanes

__all__ = ["OfflineError", "OfflineExhausted", "PrefetchedTripleSource"]


class OfflineError(ReproError):
    """Base class for offline-subsystem failures."""


class OfflineExhausted(OfflineError):
    """A triple source ran out of preprocessed material."""


class _WordServingSource:
    """Shared machinery: serve bitsliced words, masking unused lanes."""

    parties: int

    def __init__(self, parties: int):
        self.parties = parties
        self.issued = 0
        self.words_consumed = 0

    # Subclasses implement: fetch ``count`` full 64-lane words.
    def _take_words(self, count: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        raise NotImplementedError

    def deal_batch(
        self, count: int, lanes: int = 64
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        if count < 0:
            raise ValueError(f"count must be non-negative, got {count}")
        if not 1 <= lanes <= 64:
            raise ValueError(f"lanes must be in [1, 64], got {lanes}")
        if count == 0:
            empty = np.zeros((0, self.parties), dtype=np.uint64)
            return empty, empty.copy(), empty.copy()
        arrays = self._take_words(count)
        self.words_consumed += count
        self.issued += count * lanes
        return mask_dead_lanes(arrays, lanes)


class PrefetchedTripleSource(_WordServingSource):
    """A bounded, fully-materialized pool of dealerless triple words."""

    def __init__(
        self, a: np.ndarray, b: np.ndarray, c: np.ndarray, parties: int | None = None
    ):
        if a.shape != b.shape or a.shape != c.shape:
            raise ValueError("share arrays must have identical shapes")
        super().__init__(parties if parties is not None else int(a.shape[1]))
        self._a, self._b, self._c = a, b, c
        self._cursor = 0

    @property
    def words_remaining(self) -> int:
        return int(self._a.shape[0]) - self._cursor

    def _take_words(self, count: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        if count > self.words_remaining:
            raise OfflineExhausted(
                f"prefetched pool exhausted: need {count} words, "
                f"have {self.words_remaining}"
            )
        lo, hi = self._cursor, self._cursor + count
        self._cursor = hi
        return self._a[lo:hi], self._b[lo:hi], self._c[lo:hi]
