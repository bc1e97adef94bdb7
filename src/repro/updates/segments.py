"""Sealed segments: immutable published overlays between compactions.

Sealing a :class:`~repro.updates.deltalog.DeltaLog` materializes its net
per-owner state into a *segment*: a mini postings index of only the changed
owners, with sticky noise already applied (the segment stores **published**
rows -- true bits plus the owner's stable false positives -- never the raw
truth, so a segment file is as public as the snapshot it overlays).

A segment is a snapshot-v4 archive (:mod:`repro.serving.snapshot`) of the
changed owners' rows plus two per-row arrays, written and read by the
same codec (:func:`~repro.core.storage.write_archive` /
:func:`~repro.core.storage.load_archive`).  Format v3, the one
:func:`seal_segment` writes::

    meta        uint64[6] = [format_version=3, n_providers, n_entries,
                             base_epoch, n_ops, checksum]
    indptr      int64[n_entries + 1]  row offsets
    indices     uint8/16/32[...]      published provider ids, at
                                      ``provider_id_dtype(n_providers)``
    owner_names unicode[n_entries]    "" when unknown
    owners      int64[n_entries]      changed owner ids, strictly increasing
    tombstones  uint8[n_entries]      1 = owner removed (row empty)

``n_ops`` counts the log records folded in (drift accounting for the
compactor).  ``checksum`` is one crc32 over every meta field before it and
then every member in the order above, so no field can change unnoticed.

No β is written: below saturation β is strictly increasing in the true
frequency σ_j (Eqs. 3 and 5), so a per-owner β would tell anyone who
knows the owner's ǫ its exact provider count.  The delta log keeps β;
the published file holds only published rows.

Formats v1 and v2 are read-only -- leaders' stream archives and
followers' local directories keep them across an upgrade -- and their
``betas`` member is verified by the crc, then discarded.  v2 is v3 plus
a trailing float64 ``betas`` member (covered by the crc).  v1 held ids as
``int32``, ``meta = [1, n_providers, n_entries, base_epoch, checksum]``
with the crc over ``owners``, ``indptr``, ``indices``, ``tombstones`` and
``betas`` only, and optional ``owner_names`` / ``n_ops`` members.  Its
meta fields, names and op count sit outside that crc, and a v1 file
cannot be fixed in place: only a re-seal guards them.

``base_epoch`` records which snapshot epoch the segment was cut against;
the compactor refuses to fold a segment into a different base.  Every row
is checked as a :class:`~repro.core.postings.PostingsIndex` on load (ids
in range, strictly increasing per row), because a merge copies it
unchecked.

:func:`merge_segments` lays segments (newest wins per owner) over a base
:class:`~repro.core.postings.PostingsIndex` and returns the merged CSR
index -- property-tested against a from-scratch rebuild in
``tests/property/test_property_updates.py``.  Nothing serves a base and
its segments side by side: a segment is read only once it is folded.
"""

from __future__ import annotations

from typing import Any, Optional, Sequence

import numpy as np

from repro.core.errors import ModelError
from repro.core.postings import PostingsIndex, provider_id_dtype
from repro.core.storage import ArchiveLayout, load_archive, write_archive
from repro.updates.deltalog import DeltaLog
from repro.updates.noise import StickyOwnerStream

__all__ = [
    "SEGMENT_FORMAT_VERSION",
    "Segment",
    "SegmentError",
    "load_segment",
    "merge_segments",
    "seal_segment",
]

SEGMENT_FORMAT_VERSION = 3

_HEAD = ("format_version", "n_providers", "n_entries", "base_epoch")
_V1_ROWS = ("owners", "indptr", "indices", "tombstones", "betas")
_V3_ROWS = ("indptr", "indices", "owner_names", "owners", "tombstones")
_V2_ROWS = _V3_ROWS + ("betas",)
_LAYOUTS = {
    1: ArchiveLayout(_HEAD + ("checksum",), _V1_ROWS, checksum=_V1_ROWS),
    2: ArchiveLayout(_HEAD + ("n_ops", "checksum"), _V2_ROWS, checksum=("meta",) + _V2_ROWS),
    3: ArchiveLayout(_HEAD + ("n_ops", "checksum"), _V3_ROWS, checksum=("meta",) + _V3_ROWS),
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
    counts, indices = StickyOwnerStream(log.noise_key).publish_rows(
        owners[live].tolist(),
        [sorted(delta.providers) for delta in live_deltas],
        [delta.beta for delta in live_deltas],
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
    """Load and fully verify one segment file (format v1, v2 or v3)."""
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
        or any(arrays[k].shape != (n_entries,) for k in ("owners", "tombstones"))
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
        meta["n_providers"],
        meta["base_epoch"],
        owner_names=names,
        path=path,
        n_ops=n_ops,
    )


def merge_segments(
    base: PostingsIndex, segments: Sequence[Segment] = ()
) -> PostingsIndex:
    """``base`` with ``segments`` laid over it, as one CSR index -- the
    compactor's core step.

    Newest segment wins per owner; owners past the base that no segment
    names (id gaps) get the empty row, exactly as a from-scratch rebuild
    with the same owner-id space would.  Names merge the same way: the
    base's, then every segment's non-empty names, oldest to newest.

    Splice merge: base CSR runs between overlaid owners are copied as
    single slices (their offsets shift but their relative layout is
    unchanged), and the delta rows land in one scatter, so the merge is
    O(nnz copy + #overlaid owners), never a per-owner Python loop over the
    whole base.  The output holds ids at :func:`provider_id_dtype` width
    and is not re-validated: the base is a valid (or checksummed) index
    and every segment row passed :func:`load_segment`'s checks, so the
    splice of both is valid too.
    """
    n_providers = base.n_providers
    for segment in segments:
        if segment.n_providers != n_providers:
            raise ModelError(
                f"segment spans {segment.n_providers} providers, "
                f"base has {n_providers}"
            )
    owners, delta = _newest_rows(segments, n_providers)
    n_owners = max(base.n_owners, int(owners[-1]) + 1) if owners.size else base.n_owners
    sizes = np.zeros(n_owners, dtype=np.int64)
    sizes[: base.n_owners] = base.result_sizes()
    sizes[owners] = delta.result_sizes()
    indptr = np.zeros(n_owners + 1, dtype=np.int64)
    np.cumsum(sizes, out=indptr[1:])
    indices = np.empty(int(indptr[-1]), dtype=provider_id_dtype(n_providers))
    # Untouched base runs [lo, hi): from just past one overlaid owner to
    # the next (or the end of the base).
    lo = np.concatenate(([0], owners + 1))
    hi = np.minimum(np.append(owners, n_owners), base.n_owners)
    runs = lo < hi
    lo, hi = lo[runs], hi[runs]
    base_indptr, base_indices = base.indptr, base.indices
    for src_lo, src_hi, dst_lo in zip(
        base_indptr[lo].tolist(), base_indptr[hi].tolist(), indptr[lo].tolist()
    ):
        indices[dst_lo : dst_lo + (src_hi - src_lo)] = base_indices[src_lo:src_hi]
    shift = np.repeat(indptr[owners] - delta.indptr[:-1], delta.result_sizes())
    indices[shift + np.arange(delta.nnz)] = delta.indices
    return PostingsIndex(
        indptr,
        indices,
        n_providers,
        owner_names=_merge_names(base.owner_names, segments, n_owners),
        validate=False,
    )


def _newest_rows(
    segments: Sequence[Segment], n_providers: int
) -> tuple[np.ndarray, PostingsIndex]:
    """The overlaid owners, sorted, and one delta CSR whose row ``k`` is
    owner ``owners[k]``'s row in the newest segment naming it."""
    if not segments:
        empty = PostingsIndex(
            np.zeros(1, dtype=np.int64),
            np.zeros(0, dtype=np.int32),
            n_providers,
            validate=False,
        )
        return np.zeros(0, dtype=np.int64), empty
    every = np.concatenate([s.owners for s in segments])
    # np.unique keeps each owner's first occurrence: scanning the entries
    # newest first makes that the newest segment's.
    owners, first = np.unique(every[::-1], return_index=True)
    indptr = np.zeros(every.size + 1, dtype=np.int64)
    np.cumsum(np.concatenate([np.diff(s.indptr) for s in segments]), out=indptr[1:])
    every_row = PostingsIndex(
        indptr,
        np.concatenate([s.indices for s in segments]),
        n_providers,
        validate=False,
    )
    counts, flat = every_row.query_many_arrays(every.size - 1 - first)
    delta_indptr = np.zeros(owners.size + 1, dtype=np.int64)
    np.cumsum(counts, out=delta_indptr[1:])
    return owners, PostingsIndex(delta_indptr, flat, n_providers, validate=False)


def _merge_names(
    names: Optional[list], segments: Sequence[Segment], n_owners: int
) -> Optional[list]:
    """``names`` (the base's), then every segment's non-empty names, oldest
    to newest; ``None`` when no owner has a name."""
    if names is not None:
        names += [""] * (n_owners - len(names))
    for segment in segments:
        if segment.owner_names is None:
            continue
        for owner, name in zip(segment.owners.tolist(), segment.owner_names):
            if name:
                if names is None:
                    names = [""] * n_owners
                names[owner] = name
    return names
