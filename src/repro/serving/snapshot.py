"""Binary index snapshots: the fleet's boot format for a published index.

A worker process restarted by the supervisor must get back to serving as
fast as possible, so it loads the index from a compact binary *snapshot*
instead of re-running construction or parsing the O(n·m) JSON adjacency
lists of :meth:`~repro.core.index.PPIIndex.from_json`.  The snapshot is a
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

Both formats are pinned by golden files under ``tests/serving/data/`` --
any byte-layout change must bump :data:`SNAPSHOT_FORMAT_VERSION` and keep
the old readers or fail loudly, never drift silently.
"""

from __future__ import annotations

import os
import zipfile
import zlib
from typing import Any, Union

import numpy as np

from repro.core.errors import ModelError
from repro.core.index import PPIIndex
from repro.core.postings import PostingsIndex

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
SNAPSHOT_FORMAT_VERSION = 3

_META_FIELDS = {
    1: ("format_version", "n_providers", "n_owners", "checksum"),
    2: ("format_version", "n_providers", "n_owners", "checksum", "checksum_csr"),
    3: (
        "format_version",
        "n_providers",
        "n_owners",
        "checksum",
        "checksum_csr",
        "epoch",
    ),
}


class SnapshotError(ModelError):
    """The file is not a readable snapshot of a supported version."""


def _csr_checksum(indptr: np.ndarray, indices: np.ndarray) -> int:
    return zlib.crc32(indices.tobytes(), zlib.crc32(indptr.tobytes()))


def save_snapshot(
    index: Union[PPIIndex, PostingsIndex],
    path: str,
    format_version: int = SNAPSHOT_FORMAT_VERSION,
    epoch: int = 0,
) -> dict[str, Any]:
    """Write ``index`` to ``path`` in snapshot format; return its summary.

    Accepts either index representation; ``format_version=1`` writes the
    legacy packed-bits-only layout byte-identically to older builds, and
    ``format_version=2`` the epoch-less CSR layout.  ``epoch`` is stored
    only by v3 (writing an older format with a non-zero epoch is an
    error, not a silent drop).  The write goes through a same-directory
    temp file + :func:`os.replace` so a crashed writer can never leave a
    torn snapshot where a restarting worker will find it.
    """
    if format_version not in _META_FIELDS:
        raise SnapshotError(f"cannot write snapshot format version {format_version}")
    if epoch < 0:
        raise SnapshotError(f"epoch must be >= 0, got {epoch}")
    if epoch and format_version < 3:
        raise SnapshotError(
            f"format version {format_version} cannot carry epoch {epoch}"
        )
    if isinstance(index, PostingsIndex):
        postings, matrix = index, index.to_dense()
    else:
        postings, matrix = None, np.asarray(index.matrix, dtype=np.uint8)
    packed = np.packbits(matrix)
    meta_values = [
        format_version,
        matrix.shape[0],
        matrix.shape[1],
        zlib.crc32(packed.tobytes()),
    ]
    arrays: dict[str, np.ndarray] = {"packed": packed}
    if format_version >= 2:
        if postings is None:
            postings = PostingsIndex.from_dense(matrix)
        indptr = np.ascontiguousarray(postings.indptr, dtype=np.int64)
        indices = np.ascontiguousarray(postings.indices, dtype=np.int32)
        meta_values.append(_csr_checksum(indptr, indices))
        arrays["indptr"] = indptr
        arrays["indices"] = indices
    if format_version >= 3:
        meta_values.append(epoch)
    arrays = {"meta": np.array(meta_values, dtype=np.uint64), **arrays}
    names = index.owner_names
    if names is not None:
        arrays["owner_names"] = np.array(names, dtype=np.str_)
    tmp_path = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp_path, "wb") as f:
            np.savez(f, **arrays)
        os.replace(tmp_path, path)
    finally:
        if os.path.exists(tmp_path):
            os.unlink(tmp_path)
    return inspect_snapshot(path)


def _read_archive(path: str) -> tuple[dict[str, int], "np.lib.npyio.NpzFile"]:
    try:
        archive = np.load(path, allow_pickle=False)
    except (OSError, ValueError) as exc:
        raise SnapshotError(f"cannot read snapshot {path!r}: {exc}") from exc
    if "meta" not in archive or "packed" not in archive:
        archive.close()
        raise SnapshotError(f"{path!r} is not an index snapshot (missing keys)")
    raw_meta = archive["meta"]
    if raw_meta.ndim != 1 or raw_meta.size < 1:
        archive.close()
        raise SnapshotError(f"{path!r} has a malformed meta block")
    version = int(raw_meta[0])
    fields = _META_FIELDS.get(version)
    if fields is None:
        archive.close()
        supported = "/".join(str(v) for v in sorted(_META_FIELDS))
        raise SnapshotError(
            f"snapshot format version {version} unsupported "
            f"(this reader speaks versions {supported})"
        )
    if raw_meta.shape != (len(fields),):
        archive.close()
        raise SnapshotError(f"{path!r} has a malformed meta block")
    meta = {k: int(v) for k, v in zip(fields, raw_meta)}
    if version >= 2 and ("indptr" not in archive or "indices" not in archive):
        archive.close()
        raise SnapshotError(f"{path!r} is missing its v2 postings arrays")
    return meta, archive


def snapshot_version(path: str) -> int:
    """Format version of the snapshot at ``path`` (reads only the meta)."""
    meta, archive = _read_archive(path)
    archive.close()
    return meta["format_version"]


def load_snapshot(path: str) -> PPIIndex:
    """Load a snapshot back into a dense, fully-verified :class:`PPIIndex`."""
    meta, archive = _read_archive(path)
    with archive:
        packed = archive["packed"]
        if zlib.crc32(packed.tobytes()) != meta["checksum"]:
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
    return PPIIndex(matrix, owner_names=owner_names)


def load_postings(path: str, mmap: bool = True) -> PostingsIndex:
    """Load a snapshot as a :class:`PostingsIndex` -- the serving boot path.

    For a v2 snapshot with ``mmap=True`` the CSR arrays are memory-mapped
    in place: boot cost is independent of index size, and shard processes
    on one host share the pages.  The CSR checksum is verified (touching
    only the postings pages); the packed-bits checksum is *not* -- use
    :func:`load_snapshot` or :func:`inspect_snapshot` for a full audit.

    A v1 snapshot has no stored postings, so it falls back to the dense
    load and an O(nnz) CSR build -- correct, but paying the old boot cost.
    """
    meta, archive = _read_archive(path)
    if meta["format_version"] == 1:
        archive.close()
        return PostingsIndex.from_index(load_snapshot(path))
    names = ("indptr", "indices") + (
        ("owner_names",) if "owner_names" in archive else ()
    )
    if mmap:
        archive.close()
        members = _mmap_npz_members(path, names)
    else:
        with archive:
            members = {name: archive[name] for name in names}
    indptr, indices = members["indptr"], members["indices"]
    if indptr.shape != (meta["n_owners"] + 1,) or indices.shape != (
        int(indptr[-1]) if indptr.size else 0,
    ):
        raise SnapshotError(f"snapshot {path!r} has malformed postings arrays")
    if _csr_checksum(indptr, indices) != meta["checksum_csr"]:
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
    """Memory-map named members of an *uncompressed* npz archive.

    ``np.load`` ignores ``mmap_mode`` for npz files, but ``np.savez``
    stores members without compression, so each is a plain ``.npy`` blob at
    a computable offset inside the zip: parse the npy header there, then
    :class:`np.memmap` the payload.  Falls back to a copying read for any
    member that is deflated (e.g. a ``savez_compressed`` archive).
    """
    members: dict[str, np.ndarray] = {}
    fallback: list[str] = []
    try:
        with zipfile.ZipFile(path) as zf, open(path, "rb") as f:
            infos = {info.filename: info for info in zf.infolist()}
            for name in names:
                info = infos.get(f"{name}.npy")
                if info is None:
                    raise SnapshotError(f"{path!r} has no member {name!r}")
                if info.compress_type != zipfile.ZIP_STORED:
                    fallback.append(name)
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
    if fallback:
        with np.load(path, allow_pickle=False) as archive:
            for name in fallback:
                members[name] = archive[name]
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
        packed = archive["packed"]
        checksum_ok = zlib.crc32(packed.tobytes()) == meta["checksum"]
        if meta["format_version"] >= 2:
            checksum_ok = checksum_ok and _csr_checksum(
                archive["indptr"], archive["indices"]
            ) == meta["checksum_csr"]
        positives = _popcount(packed) if checksum_ok else 0
        has_names = "owner_names" in archive
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
        "file_bytes": os.path.getsize(path),
    }
