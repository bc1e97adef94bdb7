"""Sealed segments: immutable published overlays between compactions.

Sealing a :class:`~repro.updates.deltalog.DeltaLog` materializes its net
per-owner state into a *segment*: a mini postings index of only the changed
owners, with sticky noise already applied (the segment stores **published**
rows -- true bits plus the owner's stable false positives -- never the raw
truth, so a segment file is as public as the snapshot it overlays).

A segment is a snapshot-v4 archive (:mod:`repro.serving.snapshot`) of the
changed owners' rows plus three per-row arrays, written and read by the
same codec (:func:`~repro.core.storage.write_archive` /
:func:`~repro.core.storage.load_archive`).  Format v2, the one
:func:`seal_segment` writes::

    meta        uint64[6] = [format_version=2, n_providers, n_entries,
                             base_epoch, n_ops, checksum]
    indptr      int64[n_entries + 1]  row offsets
    indices     uint8/16/32[...]      published provider ids, at
                                      ``provider_id_dtype(n_providers)``
    owner_names unicode[n_entries]    "" when unknown
    owners      int64[n_entries]      changed owner ids, strictly increasing
    tombstones  uint8[n_entries]      1 = owner removed (row empty)
    betas       float64[n_entries]    β_j at sealing time (0 for tombstones)

``n_ops`` counts the log records folded in (drift accounting for the
compactor).  ``checksum`` is one crc32 over every meta field before it and
then every member in the order above, so no field can change unnoticed.

Format v1 is read-only -- leaders' stream archives and followers' local
directories keep v1 files across an upgrade.  It held ids as ``int32``,
``meta = [1, n_providers, n_entries, base_epoch, checksum]`` with the crc
over ``owners``, ``indptr``, ``indices``, ``tombstones`` and ``betas``
only, and optional ``owner_names`` / ``n_ops`` members.  Its meta fields,
names and op count sit outside that crc, and a v1 file cannot be fixed in
place: only a re-seal guards them.

``base_epoch`` records which snapshot epoch the segment was cut against;
the compactor refuses to fold a segment into a different base.  Every row
is checked as a :class:`~repro.core.postings.PostingsIndex` on load (ids
in range, strictly increasing per row), because a merge copies it
unchecked.

:class:`OverlayIndex` layers segments (newest wins per owner) over a base
:class:`~repro.core.postings.PostingsIndex` and reproduces its full query
surface with identical results and error behavior -- property-tested
byte-for-byte against a from-scratch rebuild in
``tests/property/test_property_updates.py``.
"""

from __future__ import annotations

from typing import Any, Optional, Sequence, Union

import numpy as np

from repro.core.errors import ModelError
from repro.core.index import IndexStats, PPIIndex
from repro.core.postings import PostingsIndex, provider_id_dtype
from repro.core.storage import ArchiveLayout, load_archive, write_archive
from repro.updates.deltalog import DeltaLog
from repro.updates.noise import StickyOwnerStream

__all__ = [
    "OverlayIndex",
    "SEGMENT_FORMAT_VERSION",
    "Segment",
    "SegmentError",
    "load_segment",
    "seal_segment",
]

SEGMENT_FORMAT_VERSION = 2

_HEAD = ("format_version", "n_providers", "n_entries", "base_epoch")
_V1_ROWS = ("owners", "indptr", "indices", "tombstones", "betas")
_V2_ROWS = ("indptr", "indices", "owner_names", "owners", "tombstones", "betas")
_LAYOUTS = {
    1: ArchiveLayout(_HEAD + ("checksum",), _V1_ROWS, checksum=_V1_ROWS),
    2: ArchiveLayout(_HEAD + ("n_ops", "checksum"), _V2_ROWS, checksum=("meta",) + _V2_ROWS),
}


class SegmentError(ModelError):
    """The file is not a readable segment of a supported version."""


def seal_segment(log: DeltaLog, path: str, base_epoch: int) -> dict[str, Any]:
    """Publish ``log``'s net state into an immutable segment at ``path``.

    Every changed owner's row goes through the log's sticky stream, all
    in one :meth:`StickyOwnerStream.publish_rows` batch (bit for bit what
    ``publish_row`` gives each owner), so re-sealing the same log -- or
    sealing a later log that upserts the same truth with the same β --
    reproduces the identical published row.  Returns a summary dict.
    """
    if base_epoch < 0:
        raise SegmentError(f"base epoch must be >= 0, got {base_epoch}")
    state = log.state()
    owners = np.array(sorted(state), dtype=np.int64)
    deltas = [state[owner] for owner in owners.tolist()]
    tombstones = np.array([delta.removed for delta in deltas], dtype=np.uint8)
    live = tombstones == 0
    live_deltas = [delta for delta in deltas if not delta.removed]
    betas = np.zeros(owners.size, dtype=np.float64)
    betas[live] = [delta.beta for delta in live_deltas]
    counts, indices = StickyOwnerStream(log.noise_key).publish_rows(
        owners[live].tolist(),
        [sorted(delta.providers) for delta in live_deltas],
        betas[live],
        log.n_providers,
    )
    sizes = np.zeros(owners.size, dtype=np.int64)
    sizes[live] = counts
    indptr = np.zeros(owners.size + 1, dtype=np.int64)
    np.cumsum(sizes, out=indptr[1:])
    arrays = {
        "indptr": indptr,
        "indices": indices.astype(provider_id_dtype(log.n_providers)),
        "owner_names": np.array([delta.name or "" for delta in deltas], dtype=np.str_),
        "owners": owners,
        "tombstones": tombstones,
        "betas": betas,
    }
    meta = [SEGMENT_FORMAT_VERSION, log.n_providers, owners.size, base_epoch, len(log)]
    file_bytes = write_archive(path, _LAYOUTS[SEGMENT_FORMAT_VERSION], meta, arrays)
    return {
        "path": path,
        "n_entries": int(owners.size),
        "n_providers": log.n_providers,
        "base_epoch": base_epoch,
        "n_ops": len(log),
        "tombstones": int(tombstones.sum()),
        "published_positives": int(indices.size),
        "file_bytes": file_bytes,
    }


class Segment:
    """One loaded segment: an immutable owner -> published-row overlay."""

    def __init__(
        self,
        owners: np.ndarray,
        indptr: np.ndarray,
        indices: np.ndarray,
        tombstones: np.ndarray,
        betas: np.ndarray,
        n_providers: int,
        base_epoch: int,
        owner_names: Optional[Sequence[str]] = None,
        path: Optional[str] = None,
        n_ops: Optional[int] = None,
    ):
        self.owners = owners
        self.indptr = indptr
        self.indices = indices
        self.tombstones = tombstones
        self.betas = betas
        self.n_providers = int(n_providers)
        self.base_epoch = int(base_epoch)
        self.owner_names = list(owner_names) if owner_names is not None else None
        self.path = path
        # Log records folded into this segment; older segment files don't
        # record it, where one-op-per-changed-owner is the best lower bound.
        self.n_ops = int(n_ops) if n_ops is not None else int(owners.size)

    def __len__(self) -> int:
        return self.owners.size

    def __contains__(self, owner_id: int) -> bool:
        return self._slot(owner_id) is not None

    def _slot(self, owner_id: int) -> Optional[int]:
        """Position of ``owner_id`` in the sorted ``owners``, or ``None``."""
        if not 0 <= owner_id <= self.max_owner():
            return None
        slot = int(np.searchsorted(self.owners, owner_id))
        return slot if self.owners[slot] == owner_id else None

    def postings(self, owner_id: int) -> Optional[np.ndarray]:
        """Published row for ``owner_id``: an id array (empty for a
        tombstone), or ``None`` when this segment doesn't touch the owner."""
        slot = self._slot(owner_id)
        if slot is None:
            return None
        return self.indices[self.indptr[slot] : self.indptr[slot + 1]]

    def name_of(self, owner_id: int) -> Optional[str]:
        slot = self._slot(owner_id)
        if slot is None or self.owner_names is None:
            return None
        return self.owner_names[slot] or None

    def max_owner(self) -> int:
        return int(self.owners[-1]) if self.owners.size else -1


def load_segment(path: str) -> Segment:
    """Load and fully verify one segment file (format v1 or v2)."""
    meta, arrays = load_archive(path, _LAYOUTS, "segment", SegmentError)
    names = arrays.get("owner_names")
    if names is not None:
        names = [str(name) for name in names]
    try:
        rows = PostingsIndex(
            arrays["indptr"], arrays["indices"], meta["n_providers"], owner_names=names
        )
    except ModelError as exc:
        raise SegmentError(f"segment {path!r} has malformed rows: {exc}") from exc
    owners, n_entries = arrays["owners"], meta["n_entries"]
    if (
        rows.n_owners != n_entries
        or any(arrays[k].shape != (n_entries,) for k in ("owners", "tombstones", "betas"))
        or (owners.size and (owners[0] < 0 or np.any(owners[1:] <= owners[:-1])))
    ):
        raise SegmentError(f"segment {path!r} has malformed arrays")
    n_ops = meta.get("n_ops")
    if n_ops is None and "n_ops" in arrays:  # an optional member in v1
        n_ops = int(arrays["n_ops"][0])
    return Segment(
        owners,
        rows.indptr,
        rows.indices,
        arrays["tombstones"],
        arrays["betas"],
        meta["n_providers"],
        meta["base_epoch"],
        owner_names=names,
        path=path,
        n_ops=n_ops,
    )


class OverlayIndex:
    """Base postings + sealed segments, serving the merged view.

    Newest segment wins per owner; owners past the base that no segment
    names (id gaps) answer the empty list, exactly as a from-scratch
    rebuild with the same owner-id space would.  Implements the complete
    :class:`PostingsIndex` query surface so every serving-layer consumer
    (shard stores, stats, recall checks) works unchanged.
    """

    def __init__(
        self,
        base: Union[PostingsIndex, PPIIndex],
        segments: Sequence[Segment] = (),
    ):
        if isinstance(base, PPIIndex):
            base = PostingsIndex.from_index(base)
        self.base = base
        self.segments = list(segments)
        for segment in self.segments:
            if segment.n_providers != base.n_providers:
                raise ModelError(
                    f"segment spans {segment.n_providers} providers, "
                    f"base has {base.n_providers}"
                )
        self._owners, self._delta = self._newest_rows()
        n_owners = base.n_owners
        if self._owners.size:
            n_owners = max(n_owners, int(self._owners[-1]) + 1)
        self._n_owners = n_owners
        self._owner_names = self._merge_names()
        self._name_to_id: Optional[dict] = None
        sizes = np.zeros(n_owners, dtype=np.int64)
        sizes[: base.n_owners] = base.result_sizes()
        sizes[self._owners] = self._delta.result_sizes()
        overlaid = np.zeros(n_owners, dtype=bool)
        overlaid[self._owners] = True
        self._sizes = sizes
        self._overlaid = overlaid

    def _newest_rows(self) -> tuple[np.ndarray, PostingsIndex]:
        """The overlaid owners, sorted, and one delta CSR whose row ``k`` is
        owner ``owners[k]``'s row in the newest segment naming it."""
        if not self.segments:
            empty = PostingsIndex(
                np.zeros(1, dtype=np.int64),
                np.zeros(0, dtype=np.int32),
                self.base.n_providers,
                validate=False,
            )
            return np.zeros(0, dtype=np.int64), empty
        every = np.concatenate([s.owners for s in self.segments])
        # np.unique keeps each owner's first occurrence: scanning the
        # entries newest first makes that the newest segment's.
        owners, first = np.unique(every[::-1], return_index=True)
        indptr = np.zeros(every.size + 1, dtype=np.int64)
        np.cumsum(
            np.concatenate([np.diff(s.indptr) for s in self.segments]),
            out=indptr[1:],
        )
        every_row = PostingsIndex(
            indptr,
            np.concatenate([s.indices for s in self.segments]),
            self.base.n_providers,
            validate=False,
        )
        counts, flat = every_row.query_many_arrays(every.size - 1 - first)
        delta_indptr = np.zeros(owners.size + 1, dtype=np.int64)
        np.cumsum(counts, out=delta_indptr[1:])
        return owners, PostingsIndex(
            delta_indptr, flat, self.base.n_providers, validate=False
        )

    def _merge_names(self) -> Optional[list]:
        """Base names, then every segment's non-empty names, oldest to
        newest; ``None`` when no owner has a name."""
        names = self.base.owner_names
        if names is not None:
            names += [""] * (self._n_owners - len(names))
        for segment in self.segments:
            if segment.owner_names is None:
                continue
            for owner, name in zip(segment.owners.tolist(), segment.owner_names):
                if name:
                    if names is None:
                        names = [""] * self._n_owners
                    names[owner] = name
        return names

    # -- QueryPPI (PostingsIndex-compatible surface) --------------------------

    def query(self, owner_id: int) -> list[int]:
        self._check_owner(owner_id)
        if self._overlaid[owner_id]:
            return self._delta.query(int(np.searchsorted(self._owners, owner_id)))
        if owner_id < self.base.n_owners:
            return self.base.query(owner_id)
        return []  # id-gap owner: enrolled later than this one, empty row

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
        ids = self._check_batch(owner_ids)
        return [self.query(int(owner)) for owner in ids]

    def query_many_arrays(self, owner_ids) -> tuple[np.ndarray, np.ndarray]:
        """One base gather for every owner the base still answers, one delta
        gather for every overlaid owner, each spliced in at its offsets."""
        ids = self._check_batch(owner_ids)
        counts = self._sizes[ids]
        flat = np.empty(int(counts.sum()), dtype=np.int32)
        overlaid = self._overlaid[ids]
        from_base = ~overlaid & (ids < self.base.n_owners)
        _, base_flat = self.base.query_many_arrays(ids[from_base])
        flat[np.repeat(from_base, counts)] = base_flat
        slots = np.searchsorted(self._owners, ids[overlaid])
        _, delta_flat = self._delta.query_many_arrays(slots)
        flat[np.repeat(overlaid, counts)] = delta_flat
        return counts, flat

    def _check_batch(self, owner_ids) -> np.ndarray:
        ids = np.asarray(owner_ids, dtype=np.int64)
        if ids.ndim != 1:
            raise ModelError("owner_ids must be a flat sequence of ids")
        if ids.size:
            out_of_range = (ids < 0) | (ids >= self.n_owners)
            if out_of_range.any():
                raise ModelError(f"unknown owner id {int(ids[out_of_range][0])}")
        return ids

    def result_size(self, owner_id: int) -> int:
        self._check_owner(owner_id)
        return int(self._sizes[owner_id])

    def result_sizes(self) -> np.ndarray:
        return self._sizes.copy()

    def published_frequency(self, owner_id: int) -> float:
        return self.result_size(owner_id) / self.base.n_providers

    def stats(self) -> IndexStats:
        return IndexStats(
            n_providers=self.n_providers,
            n_owners=self.n_owners,
            published_positives=self.nnz,
            avg_result_size=float(self._sizes.mean()) if self.n_owners else 0.0,
            broadcast_owners=int(np.sum(self._sizes == self.n_providers)),
        )

    # -- views ----------------------------------------------------------------

    @property
    def nnz(self) -> int:
        return int(self._sizes.sum())

    @property
    def n_providers(self) -> int:
        return self.base.n_providers

    @property
    def n_owners(self) -> int:
        return self._n_owners

    @property
    def owner_names(self) -> Optional[list]:
        return list(self._owner_names) if self._owner_names is not None else None

    @property
    def overlay_owners(self) -> list[int]:
        """Owners whose rows come from segments rather than the base."""
        return self._owners.tolist()

    def _check_owner(self, owner_id: int) -> None:
        if not 0 <= owner_id < self.n_owners:
            raise ModelError(f"unknown owner id {owner_id}")

    # -- conversions ----------------------------------------------------------

    def to_postings(self) -> PostingsIndex:
        """Materialize the merged index -- the compactor's core step.

        Splice merge: base CSR runs between overlaid owners are copied as
        single slices (their offsets shift but their relative layout is
        unchanged), and the delta rows land in one scatter, so the merge is
        O(nnz copy + #overlaid owners), never a per-owner Python loop over
        the whole base.  The output holds ids at :func:`provider_id_dtype`
        width and is not re-validated: the base is a valid (or checksummed)
        index and every overlay row passed :func:`load_segment`'s checks,
        so the splice of both is valid too.
        """
        n_owners = self.n_owners
        indptr = np.zeros(n_owners + 1, dtype=np.int64)
        np.cumsum(self._sizes, out=indptr[1:])
        indices = np.empty(int(indptr[-1]), dtype=provider_id_dtype(self.n_providers))
        # Untouched base runs [lo, hi): from just past one overlaid owner to
        # the next (or the end of the base).
        lo = np.concatenate(([0], self._owners + 1))
        hi = np.minimum(np.append(self._owners, n_owners), self.base.n_owners)
        runs = lo < hi
        lo, hi = lo[runs], hi[runs]
        base_indptr, base_indices = self.base.indptr, self.base.indices
        for src_lo, src_hi, dst_lo in zip(
            base_indptr[lo].tolist(), base_indptr[hi].tolist(), indptr[lo].tolist()
        ):
            indices[dst_lo : dst_lo + (src_hi - src_lo)] = base_indices[src_lo:src_hi]
        delta = self._delta
        shift = np.repeat(indptr[self._owners] - delta.indptr[:-1], delta.result_sizes())
        indices[shift + np.arange(delta.nnz)] = delta.indices
        return PostingsIndex(
            indptr,
            indices,
            self.n_providers,
            owner_names=self.owner_names,
            validate=False,
        )
