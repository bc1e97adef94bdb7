"""Compressed-sparse postings over the published index (the read-path engine).

``QueryPPI`` is the one operation the third-party server answers for every
searcher (paper Sec. II-A), and the published matrix ``M'`` is *static* once
constructed (Sec. III-C).  That makes the classic IR trade the right one:
precompute the per-owner provider list -- the *postings list* -- once, and
answer every query with an O(result-size) slice instead of an O(m) column
scan over the dense matrix.

:class:`PostingsIndex` stores the owner-major CSR form of ``M'``:

* ``indptr``  -- ``int64[n_owners + 1]``, monotone; owner ``j``'s postings
  occupy ``indices[indptr[j]:indptr[j + 1]]``;
* ``indices`` -- ``integer[nnz]``, provider ids, strictly increasing within
  each owner's slice (matching the sorted order ``np.nonzero`` emits).

The builders store ids at :func:`provider_id_dtype` width -- one byte each
for up to 256 providers -- and the constructor keeps whatever integer
dtype it is handed, so an ``int32`` array mapped from an older snapshot is
served as is, never converted.

This is the one representation of ``M'`` in the package: construction
returns it, every server and simulator node serves it, and a snapshot is
its only file form.  Every query answers exactly what a column read of the
dense matrix answers (property-tested against ``np.flatnonzero(M[:, j])``
in ``tests/property/test_property_postings.py``); code that needs the
dense ``M'`` itself -- the attacks and the audit -- asks
:meth:`PostingsIndex.to_dense` for it.  The arrays are plain contiguous
buffers, so a snapshot can store them verbatim and a serving worker can
boot from an ``mmap`` of the file without copying (see
:mod:`repro.serving.snapshot`).
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

import numpy as np

from repro.core.errors import ModelError

__all__ = ["IndexStats", "PostingsIndex", "provider_id_dtype"]


@dataclass(frozen=True)
class IndexStats:
    """Size/cost statistics of a published index."""

    n_providers: int
    n_owners: int
    published_positives: int
    avg_result_size: float  # mean providers returned per owner (search cost)
    broadcast_owners: int  # owners whose query hits every provider


def provider_id_dtype(n_providers: int) -> np.dtype:
    """The narrowest unsigned dtype that holds every id below
    ``n_providers`` -- a function of the data, never a setting."""
    if n_providers <= 1 << 8:
        return np.dtype(np.uint8)
    return np.dtype(np.uint16 if n_providers <= 1 << 16 else np.uint32)


class PostingsIndex:
    """Owner-major CSR postings of a published index ``M'``.

    The constructor takes ownership of the arrays (they are marked
    read-only); use the ``from_*`` classmethods in normal code.
    ``validate=False`` skips the O(nnz) structural checks -- reserved for
    trusted sources such as a checksummed snapshot, where re-validation
    would force every page of an otherwise lazily-mapped file.
    """

    def __init__(
        self,
        indptr: np.ndarray,
        indices: np.ndarray,
        n_providers: int,
        owner_names=None,
        *,
        validate: bool = True,
    ):
        # asanyarray: a memmap stays a memmap (zero-copy snapshot boot).
        indptr = np.asanyarray(indptr, dtype=np.int64)
        indices = np.asanyarray(indices)
        if indices.dtype.kind not in "iu":  # e.g. ``[]`` parses as float64
            indices = indices.astype(np.int64)
        if n_providers < 0:
            raise ModelError(f"invalid provider count {n_providers}")
        if indptr.ndim != 1 or indptr.size < 1:
            raise ModelError("indptr must be a 1-D array of n_owners + 1 offsets")
        if indices.ndim != 1:
            raise ModelError("indices must be a flat provider-id array")
        if validate:
            if indptr[0] != 0 or indptr[-1] != indices.size:
                raise ModelError("indptr must start at 0 and end at len(indices)")
            if np.any(np.diff(indptr) < 0):
                raise ModelError("indptr must be monotonically non-decreasing")
            if indices.size:
                if indices.min() < 0 or indices.max() >= n_providers:
                    raise ModelError("postings provider id out of range")
                # Strictly increasing inside each owner slice: the only
                # non-increasing steps in the concatenation may occur at
                # slice boundaries.
                steps = np.nonzero(indices[1:] <= indices[:-1])[0] + 1
                if not np.isin(steps, indptr).all():
                    raise ModelError(
                        "postings must be sorted and duplicate-free per owner"
                    )
        for arr in (indptr, indices):
            if arr.flags.writeable:
                arr.setflags(write=False)
        # What was handed in (an ``np.memmap`` on the snapshot boot path)
        # backs the public properties and ``release``; queries index plain
        # ``ndarray`` views of the same buffers, which skip the subclass's
        # Python-level ``__getitem__`` / ``__array_finalize__`` per gather.
        self._mapped = (indptr, indices)
        self._indptr = np.asarray(indptr)
        self._indices = np.asarray(indices)
        self._n_providers = int(n_providers)
        if owner_names is not None and len(owner_names) != indptr.size - 1:
            raise ModelError(
                f"{indptr.size - 1} owners but {len(owner_names)} names"
            )
        self._owner_names = owner_names
        self._name_to_id: dict | None = None  # built lazily; may be large

    # -- construction ---------------------------------------------------------

    @classmethod
    def from_dense(cls, published: np.ndarray, owner_names=None) -> "PostingsIndex":
        """Build from a dense ``providers x owners`` 0/1 matrix."""
        published = np.asarray(published)
        if published.ndim != 2:
            raise ModelError("published matrix must be 2-D (providers x owners)")
        if not np.all((published == 0) | (published == 1)):
            raise ModelError("published matrix must be Boolean")
        owners, providers = np.nonzero(published.T)
        indptr = np.zeros(published.shape[1] + 1, dtype=np.int64)
        np.cumsum(np.bincount(owners, minlength=published.shape[1]), out=indptr[1:])
        return cls(
            indptr,
            providers.astype(provider_id_dtype(published.shape[0])),
            published.shape[0],
            owner_names=owner_names,
        )

    @classmethod
    def from_provider_rows(
        cls, rows, n_owners: int, owner_names=None
    ) -> "PostingsIndex":
        """Build directly from per-provider published rows, never holding the
        dense matrix: this is how a real server would ingest the publication
        phase, where each provider uploads only its own ``M'(i, .)`` row."""
        counts = np.zeros(n_owners, dtype=np.int64)
        per_provider: list[np.ndarray] = []
        for row in rows:
            row = np.asarray(row)
            if row.shape != (n_owners,):
                raise ModelError(
                    f"provider row has shape {row.shape}, expected ({n_owners},)"
                )
            positives = np.nonzero(row)[0]
            counts[positives] += 1
            per_provider.append(positives)
        indptr = np.zeros(n_owners + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        indices = np.empty(int(indptr[-1]), dtype=provider_id_dtype(len(per_provider)))
        cursor = indptr[:-1].copy()
        # Providers arrive in id order, so appending preserves sortedness.
        for pid, positives in enumerate(per_provider):
            indices[cursor[positives]] = pid
            cursor[positives] += 1
        return cls(indptr, indices, len(per_provider), owner_names=owner_names)

    # -- QueryPPI -------------------------------------------------------------

    def query(self, owner_id: int) -> list[int]:
        """``QueryPPI(t_j) -> {p_i}``: an O(result-size) postings slice."""
        self._check_owner(owner_id)
        return self._indices[
            self._indptr[owner_id] : self._indptr[owner_id + 1]
        ].tolist()

    def query_by_name(self, name: str) -> list[int]:
        if self._name_to_id is None:
            self._name_to_id = (
                {str(n): j for j, n in enumerate(self._owner_names)}
                if self._owner_names is not None
                else {}
            )
        if name not in self._name_to_id:
            raise ModelError(f"unknown owner name {name!r}")
        return self.query(self._name_to_id[name])

    def query_many(self, owner_ids) -> list[list[int]]:
        """Vectorized ``QueryPPI``: one concatenated gather over the postings
        touched by the batch -- O(total result size), independent of ``m``."""
        ids = self._owner_ids(owner_ids)
        if ids.size == 0:
            return []
        counts, flat = self._gather(ids)
        # One bulk tolist + pointer-copy slices beats per-owner ndarray
        # materialization by a wide margin at serving batch sizes.
        flat_list = flat.tolist()
        bounds = np.zeros(ids.size + 1, dtype=np.int64)
        np.cumsum(counts, out=bounds[1:])
        bounds_list = bounds.tolist()
        return [
            flat_list[bounds_list[k] : bounds_list[k + 1]] for k in range(ids.size)
        ]

    def query_many_arrays(self, owner_ids) -> tuple[np.ndarray, np.ndarray]:
        """Zero-copy-ish batch form: ``(counts, flat_providers)`` where owner
        ``k``'s postings are ``flat[counts[:k].sum():][:counts[k]]``.  This is
        the fastest surface for numeric consumers (benchmarks, recall
        computation) that never need Python lists."""
        ids = self._owner_ids(owner_ids)
        if ids.size == 0:
            return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int32)
        return self._gather(ids)

    def _owner_ids(self, owner_ids) -> np.ndarray:
        """A batch as an ``int64`` id array, every id a known owner.

        Only the dtype decides what is an id: a float or bool would index
        some other owner's row once cast, so anything but an integer array
        is refused -- except an empty batch, which ``np.asarray([])``
        types as float64.
        """
        ids = np.asarray(owner_ids)
        if ids.ndim != 1:
            raise ModelError("owner_ids must be a flat sequence of ids")
        if ids.dtype.kind not in "iu" and ids.size:
            raise ModelError(f"owner ids must be integers, not {ids.dtype}")
        ids = ids.astype(np.int64, copy=False)
        out_of_range = (ids < 0) | (ids >= self.n_owners)
        if out_of_range.any():
            raise ModelError(f"unknown owner id {int(ids[out_of_range][0])}")
        return ids

    def _gather(self, ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        indptr = self._indptr
        starts = indptr[ids]
        counts = indptr[ids + 1] - starts
        bounds = np.cumsum(counts)
        total = int(bounds[-1])
        if total == 0:
            return counts, np.zeros(0, dtype=np.int32)
        # CSR multi-row gather: output slot ``i`` of row ``k`` reads
        # ``starts[k] + (i - first slot of row k)``, so one repeat of each
        # row's shift plus one arange is every position.
        shift = np.repeat(starts - (bounds - counts), counts)
        shift += np.arange(total)
        return counts, self._indices[shift]

    def result_size(self, owner_id: int) -> int:
        """Search cost of one query: number of providers to contact."""
        self._check_owner(owner_id)
        return int(self._indptr[owner_id + 1] - self._indptr[owner_id])

    def result_sizes(self) -> np.ndarray:
        """Per-owner result sizes in one vectorized read (``diff(indptr)``)."""
        return np.diff(self._indptr)

    def published_frequency(self, owner_id: int) -> float:
        """Apparent frequency of an identity in the public index."""
        return self.result_size(owner_id) / self._n_providers

    def stats(self) -> IndexStats:
        per_owner = self.result_sizes()
        return IndexStats(
            n_providers=self.n_providers,
            n_owners=self.n_owners,
            published_positives=int(self._indptr[-1]),
            avg_result_size=float(per_owner.mean()) if self.n_owners else 0.0,
            broadcast_owners=int(np.sum(per_owner == self.n_providers)),
        )

    # -- views ----------------------------------------------------------------

    @property
    def indptr(self) -> np.ndarray:
        return self._mapped[0]

    @property
    def indices(self) -> np.ndarray:
        return self._mapped[1]

    @property
    def nnz(self) -> int:
        """Total published positives (length of ``indices``)."""
        return int(self._indptr[-1])

    @property
    def n_providers(self) -> int:
        return self._n_providers

    @property
    def n_owners(self) -> int:
        return self._indptr.size - 1

    @property
    def owner_names(self) -> list[str] | None:
        if self._owner_names is None:
            return None
        return [str(name) for name in self._owner_names]

    @property
    def nbytes(self) -> int:
        """Resident bytes of the postings arrays (names excluded)."""
        return int(self._indptr.nbytes + self._indices.nbytes)

    # -- conversions ----------------------------------------------------------

    def to_dense(self) -> np.ndarray:
        """Materialize the dense ``providers x owners`` matrix ``M'``."""
        dense = np.zeros((self._n_providers, self.n_owners), dtype=np.uint8)
        owners = np.repeat(np.arange(self.n_owners), self.result_sizes())
        dense[self._indices, owners] = 1
        return dense

    def release(self) -> None:
        """Drop the backing buffers, closing any mmap (and its fd) now.

        A hot-swapping server replaces its index on every ``reload``; if the
        old arrays were memory-mapped from a snapshot, waiting for the GC to
        collect them leaks one fd + mapping per swap until a collection
        happens to run.  After ``release`` the index answers every query as
        empty (0 owners) rather than keeping the file pinned.

        A mapping that an outside array still reaches -- an ``indptr`` or
        ``indices`` view a caller kept -- is not closed here: numpy takes no
        buffer export of the ``mmap`` it maps, so ``close`` would succeed and
        unmap the pages under the view.  That mapping (and its fd) closes
        when the last such array is dropped.
        """
        mms = []
        for arr in (*self._mapped, self._owner_names):
            mm = getattr(arr, "_mmap", None)
            if mm is not None:
                mms.append(mm)
        arr = mm = None  # loop variables are live refs too; drop them
        self._indptr = np.zeros(1, dtype=np.int64)
        self._indices = np.zeros(0, dtype=np.int32)
        self._mapped = (self._indptr, self._indices)
        self._owner_names = None
        self._name_to_id = None
        while mms:
            mm = mms.pop()
            # Referenced by ``mm`` and getrefcount's argument alone: no
            # array anywhere still maps these pages.
            if sys.getrefcount(mm) == 2:
                mm.close()

    def _check_owner(self, owner_id: int) -> None:
        # bool is an int subclass, but True is not owner 1.
        if isinstance(owner_id, bool) or not isinstance(owner_id, (int, np.integer)):
            raise ModelError(f"owner id must be an integer, not {owner_id!r}")
        if not 0 <= owner_id < self.n_owners:
            raise ModelError(f"unknown owner id {owner_id}")
