"""Sealed segments: immutable published overlays between compactions.

Sealing a :class:`~repro.updates.deltalog.DeltaLog` materializes its net
per-owner state into a *segment*: a mini postings index of only the changed
owners, with sticky noise already applied (the segment stores **published**
rows -- true bits plus the owner's stable false positives -- never the raw
truth, so a segment file is as public as the snapshot it overlays).

Archive layout (npz, stored uncompressed, atomic-rename write)::

    meta        uint64[5] = [segment_version=1, n_providers, n_entries,
                             base_epoch, crc32(owner/postings/flag bytes)]
    owners      int64[n_entries]      changed owner ids, strictly increasing
    indptr      int64[n_entries + 1]  postings offsets per changed owner
    indices     int32[...]            published provider ids
    tombstones  uint8[n_entries]      1 = owner removed (postings empty)
    betas       float64[n_entries]    β_j at sealing time (0 for tombstones)
    owner_names unicode[n_entries]    "" when unknown

``base_epoch`` records which snapshot epoch the segment was cut against;
the compactor refuses to fold a segment into a different base.

:class:`OverlayIndex` layers segments (newest wins per owner) over a base
:class:`~repro.core.postings.PostingsIndex` and reproduces its full query
surface with identical results and error behavior -- property-tested
byte-for-byte against a from-scratch rebuild in
``tests/property/test_property_updates.py``.
"""

from __future__ import annotations

import os
import zlib
from typing import Any, Optional, Sequence, Union

import numpy as np

from repro.core.errors import ModelError
from repro.core.index import IndexStats, PPIIndex
from repro.core.postings import PostingsIndex
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

SEGMENT_FORMAT_VERSION = 1


class SegmentError(ModelError):
    """The file is not a readable segment of a supported version."""


def _segment_checksum(
    owners: np.ndarray,
    indptr: np.ndarray,
    indices: np.ndarray,
    tombstones: np.ndarray,
    betas: np.ndarray,
) -> int:
    crc = 0
    for arr in (owners, indptr, indices, tombstones, betas):
        crc = zlib.crc32(np.ascontiguousarray(arr).tobytes(), crc)
    return crc


def seal_segment(log: DeltaLog, path: str, base_epoch: int) -> dict[str, Any]:
    """Publish ``log``'s net state into an immutable segment at ``path``.

    Every changed owner's row goes through the log's sticky stream
    (:class:`StickyOwnerStream`), so re-sealing the same log -- or sealing
    a later log that upserts the same truth with the same β -- reproduces
    the identical published row.  Returns a summary dict.
    """
    if base_epoch < 0:
        raise SegmentError(f"base epoch must be >= 0, got {base_epoch}")
    state = log.state()
    owners = np.array(sorted(state), dtype=np.int64)
    stream = StickyOwnerStream(log.noise_key)
    rows: list[np.ndarray] = []
    tombstones = np.zeros(owners.size, dtype=np.uint8)
    betas = np.zeros(owners.size, dtype=np.float64)
    names = []
    for k, owner in enumerate(owners.tolist()):
        delta = state[owner]
        names.append(delta.name or "")
        if delta.removed:
            tombstones[k] = 1
            rows.append(np.zeros(0, dtype=np.int32))
            continue
        betas[k] = delta.beta
        rows.append(
            stream.publish_row(
                owner, sorted(delta.providers), delta.beta, log.n_providers
            )
        )
    indptr = np.zeros(owners.size + 1, dtype=np.int64)
    np.cumsum([row.size for row in rows], out=indptr[1:])
    indices = (
        np.concatenate(rows).astype(np.int32)
        if rows
        else np.zeros(0, dtype=np.int32)
    )
    meta = np.array(
        [
            SEGMENT_FORMAT_VERSION,
            log.n_providers,
            owners.size,
            base_epoch,
            _segment_checksum(owners, indptr, indices, tombstones, betas),
        ],
        dtype=np.uint64,
    )
    arrays = {
        "meta": meta,
        "owners": owners,
        "indptr": indptr,
        "indices": indices,
        "tombstones": tombstones,
        "betas": betas,
        "owner_names": np.array(names, dtype=np.str_),
        # Log records folded into this segment -- drift accounting for the
        # compactor.  Optional (outside the checksum) so segments sealed by
        # older writers still load; readers default it to n_entries.
        "n_ops": np.array([len(log)], dtype=np.uint64),
    }
    tmp_path = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp_path, "wb") as f:
            np.savez(f, **arrays)
        os.replace(tmp_path, path)
    finally:
        if os.path.exists(tmp_path):
            os.unlink(tmp_path)
    return {
        "path": path,
        "n_entries": int(owners.size),
        "n_providers": log.n_providers,
        "base_epoch": base_epoch,
        "n_ops": len(log),
        "tombstones": int(tombstones.sum()),
        "published_positives": int(indices.size),
        "file_bytes": os.path.getsize(path),
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
        self._slot = {int(o): k for k, o in enumerate(owners.tolist())}

    def __len__(self) -> int:
        return self.owners.size

    def __contains__(self, owner_id: int) -> bool:
        return owner_id in self._slot

    def postings(self, owner_id: int) -> Optional[np.ndarray]:
        """Published row for ``owner_id``: an id array (empty for a
        tombstone), or ``None`` when this segment doesn't touch the owner."""
        slot = self._slot.get(owner_id)
        if slot is None:
            return None
        return self.indices[self.indptr[slot] : self.indptr[slot + 1]]

    def name_of(self, owner_id: int) -> Optional[str]:
        slot = self._slot.get(owner_id)
        if slot is None or self.owner_names is None:
            return None
        return self.owner_names[slot] or None

    def max_owner(self) -> int:
        return int(self.owners[-1]) if self.owners.size else -1


def load_segment(path: str) -> Segment:
    """Load and fully verify one segment file."""
    try:
        archive = np.load(path, allow_pickle=False)
    except (OSError, ValueError) as exc:
        raise SegmentError(f"cannot read segment {path!r}: {exc}") from exc
    with archive:
        required = ("meta", "owners", "indptr", "indices", "tombstones", "betas")
        if any(key not in archive for key in required):
            raise SegmentError(f"{path!r} is not a segment (missing keys)")
        meta = archive["meta"]
        if meta.shape != (5,):
            raise SegmentError(f"{path!r} has a malformed meta block")
        version = int(meta[0])
        if version != SEGMENT_FORMAT_VERSION:
            raise SegmentError(
                f"segment format version {version} unsupported "
                f"(this reader speaks version {SEGMENT_FORMAT_VERSION})"
            )
        n_providers, n_entries = int(meta[1]), int(meta[2])
        owners = archive["owners"]
        indptr = archive["indptr"]
        indices = archive["indices"]
        tombstones = archive["tombstones"]
        betas = archive["betas"]
        names = (
            [str(n) for n in archive["owner_names"]]
            if "owner_names" in archive
            else None
        )
        n_ops = int(archive["n_ops"][0]) if "n_ops" in archive else None
    checksum = _segment_checksum(owners, indptr, indices, tombstones, betas)
    if checksum != int(meta[4]):
        raise SegmentError(f"segment {path!r} failed its checksum")
    if (
        owners.shape != (n_entries,)
        or indptr.shape != (n_entries + 1,)
        or tombstones.shape != (n_entries,)
        or betas.shape != (n_entries,)
        or indices.shape != (int(indptr[-1]) if indptr.size else 0,)
        or (owners.size and (owners[0] < 0 or np.any(np.diff(owners) <= 0)))
    ):
        raise SegmentError(f"segment {path!r} has malformed arrays")
    if indices.size and (indices.min() < 0 or indices.max() >= n_providers):
        raise SegmentError(f"segment {path!r} has provider ids out of range")
    return Segment(
        owners,
        indptr,
        indices,
        tombstones,
        betas,
        n_providers,
        int(meta[3]),
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
        n_owners = base.n_owners
        overlay: dict[int, np.ndarray] = {}
        names: dict[int, str] = {}
        for segment in self.segments:  # oldest -> newest: later wins
            if segment.n_providers != base.n_providers:
                raise ModelError(
                    f"segment spans {segment.n_providers} providers, "
                    f"base has {base.n_providers}"
                )
            for owner in segment.owners.tolist():
                overlay[owner] = segment.postings(owner)
                name = segment.name_of(owner)
                if name is not None:
                    names[owner] = name
            n_owners = max(n_owners, segment.max_owner() + 1)
        self._overlay = overlay
        self._n_owners = n_owners
        self._owner_names = self._merge_names(names)
        self._name_to_id: Optional[dict] = None
        sizes = np.zeros(n_owners, dtype=np.int64)
        sizes[: base.n_owners] = base.result_sizes()
        overlaid = np.zeros(n_owners, dtype=bool)
        for owner, postings in overlay.items():
            sizes[owner] = postings.size
            overlaid[owner] = True
        self._sizes = sizes
        self._overlaid = overlaid

    def _merge_names(self, segment_names: dict[int, str]) -> Optional[list]:
        base_names = self.base.owner_names
        if base_names is None and not segment_names:
            return None
        names = [""] * self._n_owners
        if base_names is not None:
            names[: len(base_names)] = base_names
        for owner, name in segment_names.items():
            names[owner] = name
        return names

    # -- QueryPPI (PostingsIndex-compatible surface) --------------------------

    def query(self, owner_id: int) -> list[int]:
        self._check_owner(owner_id)
        postings = self._overlay.get(owner_id)
        if postings is not None:
            return postings.tolist()
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
        """One base gather for every owner the base still answers, then the
        batch's overlay rows spliced in at their offsets."""
        ids = self._check_batch(owner_ids)
        counts = self._sizes[ids]
        flat = np.empty(int(counts.sum()), dtype=np.int32)
        overlaid = self._overlaid[ids]
        from_base = ~overlaid & (ids < self.base.n_owners)
        _, base_flat = self.base.query_many_arrays(ids[from_base])
        flat[np.repeat(from_base, counts)] = base_flat
        starts = np.cumsum(counts) - counts
        for k in np.nonzero(overlaid)[0].tolist():
            row = self._overlay[int(ids[k])]
            flat[starts[k] : starts[k] + row.size] = row
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
        return sorted(self._overlay)

    def _check_owner(self, owner_id: int) -> None:
        if not 0 <= owner_id < self.n_owners:
            raise ModelError(f"unknown owner id {owner_id}")

    # -- conversions ----------------------------------------------------------

    def to_postings(self) -> PostingsIndex:
        """Materialize the merged index -- the compactor's core step.

        Splice merge: base CSR runs between overlaid owners are copied as
        single slices (their offsets shift but their relative layout is
        unchanged), so the merge is O(nnz copy + #overlaid owners), never
        a per-owner Python loop over the whole base.
        """
        n_owners = self.n_owners
        base_n = self.base.n_owners
        indptr = np.zeros(n_owners + 1, dtype=np.int64)
        np.cumsum(self._sizes, out=indptr[1:])
        indices = np.empty(int(indptr[-1]), dtype=np.int32)
        boundary = sorted(self._overlay) + [n_owners]
        prev = 0
        for owner in boundary:
            lo, hi = prev, min(owner, base_n)
            if lo < hi:  # untouched base run [lo, hi)
                src_lo = int(self.base.indptr[lo])
                src_hi = int(self.base.indptr[hi])
                dst_lo = int(indptr[lo])
                indices[dst_lo : dst_lo + (src_hi - src_lo)] = self.base.indices[
                    src_lo:src_hi
                ]
            if owner < n_owners:
                postings = self._overlay[owner]
                dst_lo = int(indptr[owner])
                indices[dst_lo : dst_lo + postings.size] = postings
            prev = owner + 1
        return PostingsIndex(
            indptr,
            indices,
            self.n_providers,
            owner_names=self.owner_names,
        )
