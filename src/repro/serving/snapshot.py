"""Binary index snapshots: the one file format of a published index.

``eppi construct`` writes a snapshot, every offline command reads one,
and a worker process restarted by the supervisor boots from one instead of
re-running construction.  It stores a
:class:`~repro.core.postings.PostingsIndex` -- the only index type -- as a
NumPy ``npz`` archive (members stored uncompressed, which is what makes
the mmap boot path below possible).

Archive layout (format version 1)::

    meta        uint64[4]  = [format_version, n_providers, n_owners,
                              crc32(packed bytes)]
    packed      uint8[ceil(n_providers * n_owners / 8)]
                           = packbits(M', C-order, big-endian within a byte)
    owner_names unicode[n_owners]   (key absent when the index is unnamed)

Format version 2 keeps ``packed`` (so a dense load and a popcount
``inspect`` stay possible) and adds the owner-major CSR postings of
:class:`~repro.core.postings.PostingsIndex` precomputed at write time::

    meta        uint64[5]  = [format_version, n_providers, n_owners,
                              crc32(packed bytes),
                              crc32(indptr bytes || indices bytes)]
    packed      as in v1
    indptr      int64[n_owners + 1]
    indices     int32[published positives]
    owner_names as in v1

Format version 3 is v2 plus one trailing meta field: the publication
**epoch**, a monotonically increasing counter stamped by the compactor
(:mod:`repro.updates.compactor`) every time base + delta segments are
merged into a fresh snapshot.  Servers expose the epoch in every query
response so clients (and the fleet supervisor's rolling reload) can detect
stale caches across a hot-swap; v1/v2 snapshots read back as epoch 0.

Format version 4 (the default, and what every compaction writes) is the
CSR form alone -- no serving path reads ``packed`` -- with provider ids at
their natural width::

    meta        uint64[5]  = [format_version, n_providers, n_owners,
                              crc32(indptr bytes || indices bytes), epoch]
    indptr      int64[n_owners + 1]
    indices     uint8 / uint16 / uint32[published positives]
                           (the narrowest that holds n_providers - 1, from
                           :func:`~repro.core.postings.provider_id_dtype`)
    owner_names as in v1

The point of v2 is the *boot path*: :func:`load_postings` memory-maps the
CSR arrays straight out of the archive (npz members are stored, not
deflated, so each is a contiguous ``.npy`` at a computable offset), which
makes worker boot O(1) in the index size -- pages fault in on demand and
are shared across every shard process on the host through the OS page
cache.  Only the small CSR checksum is verified on that path; the packed
bits stay untouched on disk.

The matrix is public by design (the PPI server is untrusted), so the
checksums guard against corruption, not tampering.  ``allow_pickle`` is
never enabled: a snapshot is pure arrays and loading one from an untrusted
operator cannot execute code.

Snapshots go through the archive codec of :mod:`repro.core.storage`,
which sealed segments share (segment v2 is this v4 layout plus three
per-row arrays): ``_LAYOUTS`` maps each version to its meta fields and
required members, and :func:`~repro.core.storage.open_archive` checks a
file against it before any reader here looks inside.

Every format is pinned by golden files under ``tests/serving/data/`` --
any byte-layout change must bump :data:`SNAPSHOT_FORMAT_VERSION` and keep
the old readers or fail loudly, never drift silently.
"""

from __future__ import annotations

import os
import zipfile
from typing import Any

import numpy as np

from repro.core.errors import ModelError
from repro.core.postings import PostingsIndex, provider_id_dtype
from repro.core.storage import ArchiveLayout, crc32_arrays, open_archive, write_archive

__all__ = [
    "SNAPSHOT_FORMAT_V1",
    "SNAPSHOT_FORMAT_V2",
    "SNAPSHOT_FORMAT_VERSION",
    "SnapshotError",
    "inspect_snapshot",
    "load_postings",
    "load_serving_state",
    "load_snapshot",
    "save_snapshot",
    "snapshot_epoch",
    "snapshot_version",
]

SNAPSHOT_FORMAT_V1 = 1
SNAPSHOT_FORMAT_V2 = 2
SNAPSHOT_FORMAT_VERSION = 4

_HEAD = ("format_version", "n_providers", "n_owners")
_CSR = ("indptr", "indices")
_LAYOUTS = {
    1: ArchiveLayout(_HEAD + ("checksum",), ("packed",)),
    2: ArchiveLayout(_HEAD + ("checksum", "checksum_csr"), ("packed",) + _CSR),
    3: ArchiveLayout(_HEAD + ("checksum", "checksum_csr", "epoch"), ("packed",) + _CSR),
    4: ArchiveLayout(_HEAD + ("checksum_csr", "epoch"), _CSR),
}


class SnapshotError(ModelError):
    """The file is not a readable snapshot of a supported version."""


def save_snapshot(
    index: PostingsIndex,
    path: str,
    format_version: int = SNAPSHOT_FORMAT_VERSION,
    epoch: int = 0,
) -> dict[str, Any]:
    """Write ``index`` to ``path`` in snapshot format; return its summary.

    The default v4 writes the CSR arrays alone and never builds the dense
    matrix; ``format_version=1`` writes the legacy packed-bits-only layout
    byte-identically to older builds, ``2`` the epoch-less packed + CSR
    layout and ``3`` that plus the epoch.  ``epoch`` is stored only by
    v3/v4 (writing an older format with a non-zero epoch is an error, not a
    silent drop).  The write is :func:`~repro.core.storage.write_archive`'s
    atomic rename, so a crashed writer can never leave a torn snapshot where
    a restarting worker will find it.  The returned summary is
    :func:`inspect_snapshot`'s, built from what was written rather than by
    reading the file back.
    """
    if format_version not in _LAYOUTS:
        raise SnapshotError(f"cannot write snapshot format version {format_version}")
    if epoch < 0:
        raise SnapshotError(f"epoch must be >= 0, got {epoch}")
    if epoch and format_version < 3:
        raise SnapshotError(
            f"format version {format_version} cannot carry epoch {epoch}"
        )
    arrays: dict[str, np.ndarray] = {}
    shape = (index.n_providers, index.n_owners)
    meta_values = [format_version, *shape]
    if format_version < 4:  # the packed bits of the dense M'
        packed = np.packbits(index.to_dense())
        meta_values.append(crc32_arrays(packed))
        arrays["packed"] = packed
    if format_version >= 2:
        id_dtype = provider_id_dtype(shape[0]) if format_version >= 4 else np.int32
        indptr = np.ascontiguousarray(index.indptr, dtype=np.int64)
        indices = np.ascontiguousarray(index.indices, dtype=id_dtype)
        meta_values.append(crc32_arrays(indptr, indices))
        arrays["indptr"] = indptr
        arrays["indices"] = indices
    if format_version >= 3:
        meta_values.append(epoch)
    names = index.owner_names
    if names is not None:
        arrays["owner_names"] = np.array(names, dtype=np.str_)
    layout = _LAYOUTS[format_version]
    file_bytes = write_archive(path, layout, meta_values, arrays)
    meta = dict(zip(layout.meta, meta_values))
    return _summary(meta, index.nnz, names is not None, True, file_bytes)


def _read_archive(path: str) -> tuple[dict[str, int], "np.lib.npyio.NpzFile"]:
    return open_archive(path, _LAYOUTS, "snapshot", SnapshotError)


def snapshot_version(path: str) -> int:
    """Format version of the snapshot at ``path`` (reads only the meta)."""
    meta, archive = _read_archive(path)
    archive.close()
    return meta["format_version"]


def load_snapshot(path: str) -> PostingsIndex:
    """Load a snapshot into memory, verified: the audit reader.

    Where the file holds packed bits (v1-v3) the index is rebuilt from
    them, so their checksum is checked and the stored CSR arrays are not
    trusted; v4 holds only the CSR form, read with its checksum checked.
    Nothing stays mapped.
    """
    meta, archive = _read_archive(path)
    if meta["format_version"] >= 4:  # the CSR form is all v4 stores
        archive.close()
        return load_postings(path, mmap=False)
    with archive:
        packed = archive["packed"]
        if crc32_arrays(packed) != meta["checksum"]:
            raise SnapshotError(f"snapshot {path!r} failed its checksum")
        n_cells = meta["n_providers"] * meta["n_owners"]
        if packed.size * 8 < n_cells:
            raise SnapshotError(f"snapshot {path!r} is truncated")
        matrix = (
            np.unpackbits(packed, count=n_cells)
            .reshape(meta["n_providers"], meta["n_owners"])
        )
        owner_names = None
        if "owner_names" in archive:
            owner_names = [str(name) for name in archive["owner_names"]]
    return PostingsIndex.from_dense(matrix, owner_names=owner_names)


def load_postings(path: str, mmap: bool = True) -> PostingsIndex:
    """Load a snapshot as a :class:`PostingsIndex` -- the serving boot path.

    For a v2+ snapshot with ``mmap=True`` the CSR arrays are memory-mapped
    in place: boot cost is independent of index size, and shard processes
    on one host share the pages.  The ids keep their stored dtype (``int32``
    up to v3, narrow in v4).  The CSR checksum is verified (touching only
    the postings pages); a v2/v3 packed-bits checksum is *not* -- use
    :func:`load_snapshot` or :func:`inspect_snapshot` for a full audit.

    A v1 snapshot has no stored postings, so it falls back to
    :func:`load_snapshot`'s unpack and CSR build -- correct, but paying the
    old boot cost.
    """
    meta, archive = _read_archive(path)
    if meta["format_version"] == 1:
        archive.close()
        return load_snapshot(path)
    names = _CSR + (("owner_names",) if "owner_names" in archive else ())
    with archive:
        members = _mmap_npz_members(path, names) if mmap else {}
        for name in names:
            if name not in members:  # not mapped: a copying read
                members[name] = archive[name]
    indptr, indices = members["indptr"], members["indices"]
    id_dtype = provider_id_dtype(meta["n_providers"]) if meta["format_version"] >= 4 else np.int32
    if (
        indptr.shape != (meta["n_owners"] + 1,)
        or indices.shape != (int(indptr[-1]) if indptr.size else 0,)
        or indices.dtype != id_dtype
    ):
        raise SnapshotError(f"snapshot {path!r} has malformed postings arrays")
    if crc32_arrays(indptr, indices) != meta["checksum_csr"]:
        raise SnapshotError(f"snapshot {path!r} failed its postings checksum")
    return PostingsIndex(
        indptr,
        indices,
        meta["n_providers"],
        owner_names=members.get("owner_names"),
        validate=False,
    )


def snapshot_epoch(path: str) -> int:
    """Publication epoch of the snapshot at ``path`` (0 for v1/v2)."""
    meta, archive = _read_archive(path)
    archive.close()
    return meta.get("epoch", 0)


def load_serving_state(path: str) -> tuple[PostingsIndex, int]:
    """Boot path with provenance: the served ``(index, epoch)`` pair.

    This is what a fleet worker boots from and a hot-swapping server loads
    on ``reload``: :func:`load_postings` with provenance.  The epoch must
    describe the same file the index was read from, but a compactor can
    :func:`os.replace` the snapshot between any two opens -- so read the
    epoch, load, and re-read: a changed epoch means the load raced a swap
    and must be retried against the new file.
    """
    for _ in range(8):
        epoch = snapshot_epoch(path)
        index = load_postings(path, mmap=True)
        if snapshot_epoch(path) == epoch:
            return index, epoch
        index.release()
    raise SnapshotError(f"snapshot {path!r} kept changing underfoot during load")


# Bytes 26:28 / 28:30 of a zip local file header hold the name/extra-field
# lengths; the member's data starts right after both.  The *central*
# directory's extra field may differ, so the local header must be read.
_ZIP_LOCAL_HEADER = 30
_ZIP_LOCAL_MAGIC = b"PK\x03\x04"


def _mmap_npz_members(path: str, names: tuple) -> dict[str, np.ndarray]:
    """Memory-map the named members an npz archive stores uncompressed.

    ``np.load`` ignores ``mmap_mode`` for npz files, but ``np.savez``
    stores members without compression, so each is a plain ``.npy`` blob at
    a computable offset inside the zip: parse the npy header there, then
    :class:`np.memmap` the payload.  A deflated member (e.g. from a
    ``savez_compressed`` archive) is left out, for a copying read.
    """
    members: dict[str, np.ndarray] = {}
    try:
        with zipfile.ZipFile(path) as zf, open(path, "rb") as f:
            infos = {info.filename: info for info in zf.infolist()}
            for name in names:
                info = infos.get(f"{name}.npy")
                if info is None:
                    raise SnapshotError(f"{path!r} has no member {name!r}")
                if info.compress_type != zipfile.ZIP_STORED:
                    continue
                f.seek(info.header_offset)
                local = f.read(_ZIP_LOCAL_HEADER)
                if len(local) != _ZIP_LOCAL_HEADER or local[:4] != _ZIP_LOCAL_MAGIC:
                    raise SnapshotError(f"{path!r} has a torn zip member {name!r}")
                name_len = int.from_bytes(local[26:28], "little")
                extra_len = int.from_bytes(local[28:30], "little")
                f.seek(info.header_offset + _ZIP_LOCAL_HEADER + name_len + extra_len)
                version = np.lib.format.read_magic(f)
                if version == (1, 0):
                    shape, fortran, dtype = np.lib.format.read_array_header_1_0(f)
                elif version == (2, 0):
                    shape, fortran, dtype = np.lib.format.read_array_header_2_0(f)
                else:
                    raise SnapshotError(
                        f"member {name!r} uses npy format {version}, cannot mmap"
                    )
                if int(np.prod(shape)) == 0:
                    members[name] = np.zeros(shape, dtype=dtype)
                    continue
                members[name] = np.memmap(
                    path,
                    dtype=dtype,
                    mode="r",
                    offset=f.tell(),
                    shape=shape,
                    order="F" if fortran else "C",
                )
    except (OSError, zipfile.BadZipFile) as exc:
        raise SnapshotError(f"cannot mmap snapshot {path!r}: {exc}") from exc
    return members


if hasattr(np, "bitwise_count"):  # numpy >= 2.0

    def _popcount(packed: np.ndarray) -> int:
        return int(np.bitwise_count(packed).sum(dtype=np.int64))

else:  # pragma: no cover -- exercised only on numpy 1.x

    _POPCOUNT_TABLE = np.unpackbits(
        np.arange(256, dtype=np.uint8)[:, None], axis=1
    ).sum(axis=1, dtype=np.int64)

    def _popcount(packed: np.ndarray) -> int:
        # One 256-bin histogram instead of an 8x unpacked copy: O(1) extra
        # memory however large the matrix is.
        return int(np.bincount(packed, minlength=256) @ _POPCOUNT_TABLE)


def inspect_snapshot(path: str) -> dict[str, Any]:
    """Summarize a snapshot without materializing the unpacked matrix."""
    meta, archive = _read_archive(path)
    with archive:
        packed = archive["packed"] if meta["format_version"] < 4 else None
        checksum_ok = packed is None or crc32_arrays(packed) == meta["checksum"]
        if checksum_ok and meta["format_version"] >= 2:
            indices = archive["indices"]
            checksum_ok = crc32_arrays(archive["indptr"], indices) == meta["checksum_csr"]
        positives = 0
        if checksum_ok:
            positives = _popcount(packed) if packed is not None else indices.size
        has_names = "owner_names" in archive
    return _summary(meta, positives, has_names, checksum_ok, os.path.getsize(path))


def _summary(
    meta: dict, positives: int, has_names: bool, checksum_ok: bool, file_bytes: int
) -> dict[str, Any]:
    """The summary :func:`inspect_snapshot` and :func:`save_snapshot` return."""
    n_cells = meta["n_providers"] * meta["n_owners"]
    return {
        "format_version": meta["format_version"],
        "epoch": meta.get("epoch", 0),
        "n_providers": meta["n_providers"],
        "n_owners": meta["n_owners"],
        "published_positives": positives,
        "density": positives / n_cells if n_cells else 0.0,
        "has_owner_names": has_names,
        "checksum_ok": checksum_ok,
        "file_bytes": file_bytes,
    }
