"""Byte-level storage: the record file, the array archive, the atomic
writer, the array checksum.

:class:`RecordFile` holds the delta log and the observation log::

    magic | u32 header_len | header | ( u32 body_len | u32 crc32(body) | body ) *

A record that is short or fails its crc is a tear (a crash mid-append): it
and everything behind it are cut on open, so no append lands behind bytes
the next open would cut.  A crc-valid body the codec cannot decode is not
a tear: the codec raises and nothing is cut.

:func:`write_archive` / :func:`open_archive` / :func:`load_archive` hold the
snapshots and the sealed segments: an uncompressed npz whose ``meta``
member is a ``uint64`` block that starts with the format version, and
whose version picks an :class:`ArchiveLayout` -- the meta fields and the
members the file must hold.
"""

from __future__ import annotations

import os
import struct
import threading
import zipfile
import zlib
from typing import BinaryIO, Callable, Iterator, Mapping, NamedTuple, Optional, Sequence

import numpy as np

__all__ = [
    "ArchiveLayout",
    "RecordFile",
    "crc32_arrays",
    "load_archive",
    "open_archive",
    "write_archive",
    "write_atomic",
]

_U32 = struct.Struct(">I")
_RECORD_HEADER = struct.Struct(">II")  # body length, crc32(body)


def crc32_arrays(*arrays: np.ndarray) -> int:
    """crc32 of the arrays' C-order bytes, concatenated in argument order."""
    crc = 0
    for arr in arrays:
        crc = zlib.crc32(np.ascontiguousarray(arr), crc)
    return crc


def write_atomic(path: str, write: Callable[[BinaryIO], None]) -> int:
    """Publish what ``write(f)`` writes at ``path`` whole; returns its size.

    A crashed writer leaves at most a stray ``<path>.tmp.*``; the temp name
    is per thread, so two threads publishing one path never share it.
    """
    tmp_path = f"{path}.tmp.{os.getpid()}.{threading.get_ident()}"
    try:
        with open(tmp_path, "wb") as f:
            write(f)
            size = f.tell()
        os.replace(tmp_path, path)
    finally:
        if os.path.exists(tmp_path):
            os.unlink(tmp_path)
    return size


class ArchiveLayout(NamedTuple):
    """One format version of an array archive."""

    meta: tuple[str, ...]  # the meta block's fields, in order
    members: tuple[str, ...]  # the arrays the archive must hold
    # What the trailing ``checksum`` meta field covers, in order: members
    # by name, where ``"meta"`` is every meta field before the checksum.
    # Empty when the format's reader checks its own crcs.
    checksum: tuple[str, ...] = ()


def _layout_crc(layout: ArchiveLayout, meta: np.ndarray, arrays: Mapping) -> int:
    return crc32_arrays(
        *(meta[:-1] if name == "meta" else arrays[name] for name in layout.checksum)
    )


def write_archive(
    path: str, layout: ArchiveLayout, meta: Sequence[int], arrays: Mapping
) -> int:
    """Publish ``arrays`` under a meta block at ``path``; returns its size.

    ``meta`` holds every field of ``layout.meta`` except a trailing
    checksum, which is computed here when the layout has one.
    """
    block = np.array(list(meta) + [0] * bool(layout.checksum), dtype=np.uint64)
    if layout.checksum:
        block[-1] = _layout_crc(layout, block, arrays)
    return write_atomic(path, lambda f: np.savez(f, meta=block, **arrays))


def open_archive(
    path: str, layouts: Mapping[int, ArchiveLayout], kind: str, error: type
) -> tuple[dict[str, int], "np.lib.npyio.NpzFile"]:
    """Open the archive at ``path`` as one of ``layouts`` (format version
    -> layout); returns its meta fields by name and the open archive.

    The meta block must name a known version and hold that version's
    fields, and every member the layout lists must be present.  Anything
    else raises ``error``, naming the file by ``kind``, with the archive
    closed.
    """
    try:
        archive = np.load(path, allow_pickle=False)
    except (OSError, ValueError, zipfile.BadZipFile) as exc:
        raise error(f"cannot read {kind} {path!r}: {exc}") from exc
    try:
        if "meta" not in archive:
            raise error(f"{path!r} is not a {kind} (missing keys)")
        raw = archive["meta"]
        if raw.ndim != 1 or raw.size < 1:
            raise error(f"{path!r} has a malformed meta block")
        layout = layouts.get(int(raw[0]))
        if layout is None:
            supported = "/".join(str(v) for v in sorted(layouts))
            raise error(
                f"{kind} format version {int(raw[0])} unsupported "
                f"(this reader speaks versions {supported})"
            )
        if raw.shape != (len(layout.meta),):
            raise error(f"{path!r} has a malformed meta block")
        missing = [name for name in layout.members if name not in archive]
        if missing:
            raise error(
                f"{kind} {path!r} is missing keys: its postings arrays "
                f"lack {', '.join(missing)}"
            )
    except BaseException:
        archive.close()
        raise
    return {field: int(value) for field, value in zip(layout.meta, raw)}, archive


def load_archive(
    path: str, layouts: Mapping[int, ArchiveLayout], kind: str, error: type
) -> tuple[dict[str, int], dict[str, np.ndarray]]:
    """:func:`open_archive`, then read every member and verify the
    layout's checksum; returns the meta fields and the arrays by name."""
    meta, archive = open_archive(path, layouts, kind, error)
    with archive:
        try:
            arrays = {name: archive[name] for name in archive.files}
        except (OSError, ValueError, zipfile.BadZipFile) as exc:
            raise error(f"cannot read {kind} {path!r}: {exc}") from exc
    layout = layouts[meta["format_version"]]
    if layout.checksum and _layout_crc(layout, arrays["meta"], arrays) != meta["checksum"]:
        raise error(f"{kind} {path!r} failed its checksum")
    return meta, arrays


class RecordFile:
    """One record file with a single writer.  Errors are raised as the
    codec's ``error`` type and name the file by the codec's ``kind``."""

    def __init__(self, path: str, header: bytes, data_start: int, error: type):
        self.path = path
        self.header = header
        self.data_start = data_start  # byte offset of the first record
        self.end_offset = data_start  # one past the last good record
        self.error = error
        self._file: Optional[BinaryIO] = None

    @classmethod
    def create(
        cls, path: str, magic: bytes, header: bytes, kind: str, error: type
    ) -> "RecordFile":
        """Write a file holding only ``magic`` and ``header`` (never clobbers)."""
        try:
            with open(path, "xb") as f:
                f.write(magic + _U32.pack(len(header)) + header)
        except FileExistsError:
            raise error(f"{kind} {path!r} already exists") from None
        return cls(path, header, len(magic) + _U32.size + len(header), error)

    @classmethod
    def open(cls, path: str, magic: bytes, kind: str, error: type) -> "RecordFile":
        """Read an existing file's header; :meth:`replay` it before appending."""
        try:
            with open(path, "rb") as f:
                if f.read(len(magic)) != magic:
                    raise error(f"{path!r} is not a {kind} (bad magic)")
                raw_len = f.read(_U32.size)
                if len(raw_len) < _U32.size:
                    raise error(f"{path!r} has a truncated header")
                (header_len,) = _U32.unpack(raw_len)
                header = f.read(header_len)
                if len(header) < header_len:
                    raise error(f"{path!r} has a truncated header")
        except OSError as exc:
            raise error(f"cannot read {kind} {path!r}: {exc}") from exc
        return cls(path, header, len(magic) + _U32.size + header_len, error)

    def replay(self, decode: Callable[[bytes], None]) -> int:
        """Pass each intact record's body to ``decode``, then cut a torn
        tail; returns the bytes cut.  A ``decode`` error cuts nothing."""
        end = self.data_start
        with open(self.path, "rb") as f:
            size = os.fstat(f.fileno()).st_size
            for body, next_offset in self._scan(f, end, size):
                decode(body)
                end = next_offset
        if end < size:
            with open(self.path, "r+b") as f:
                f.truncate(end)
        self.end_offset = end
        return size - end

    def records_from(self, offset: int) -> Iterator[tuple[bytes, int]]:
        """Crc-verified scan from byte ``offset`` to the current end, as
        ``(body, next_offset)``."""
        end = self.end_offset
        if not self.data_start <= offset <= end:
            raise self.error(
                f"offset {offset} outside the record region "
                f"[{self.data_start}, {end}] of {self.path!r}"
            )
        with open(self.path, "rb") as f:
            for body, offset in self._scan(f, offset, end):
                yield body, offset
        if offset != end:
            raise self.error(f"{self.path!r} corrupted under our feet")

    @staticmethod
    def _scan(f: BinaryIO, offset: int, end: int) -> Iterator[tuple[bytes, int]]:
        """Records in ``[offset, end)`` up to the first short or crc-failing one."""
        f.seek(offset)
        while end - offset >= _RECORD_HEADER.size:
            head = f.read(_RECORD_HEADER.size)
            if len(head) < _RECORD_HEADER.size:  # the file shrank underfoot
                return
            length, crc = _RECORD_HEADER.unpack(head)
            offset += _RECORD_HEADER.size + length
            if offset > end:  # the body runs past the end: torn, or a corrupt length
                return
            body = f.read(length)
            if len(body) < length or zlib.crc32(body) != crc:
                return
            yield body, offset

    def append(self, body: bytes) -> None:
        """Frame, write and flush one record."""
        if self._file is None:
            self._file = open(self.path, "ab")
        self._file.write(_RECORD_HEADER.pack(len(body), zlib.crc32(body)) + body)
        self._file.flush()
        self.end_offset += _RECORD_HEADER.size + len(body)

    def sync(self) -> None:
        """fsync the appended records (durability barrier)."""
        if self._file is not None:
            self._file.flush()
            os.fsync(self._file.fileno())

    def close(self) -> None:
        if self._file is not None:
            self._file.close()
            self._file = None
