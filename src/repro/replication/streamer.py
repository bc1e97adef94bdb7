"""Leader-side segment streamer: the source of a replication stream.

A :class:`SegmentStreamer` sits next to the leader's compaction pipeline
and serves three verbs (as extension verbs of the wire protocol; see
``wire.py``):

``repl-epoch`` / ``repl-subscribe``
    The leader's current snapshot epoch plus a manifest of retained sealed
    segments -- name, ``base_epoch``, op count, byte size.  ``repl-subscribe``
    takes an ``after`` cursor (the last segment name a follower holds) and
    answers only the tail, so a resumed subscription never re-lists or
    re-fetches what the follower already applied.

``repl-segment``
    One bounded, base64-armored chunk of one retained segment's bytes,
    addressed by ``(name, offset)`` -- resumable at byte granularity.

The streamer *archives* every sealed segment it sees: the leader's own
:class:`~repro.updates.compactor.Compactor` deletes consumed segments the
moment the merged snapshot is durable, which would strand any follower that
had not fetched them yet.  ``refresh()`` therefore hard-copies new segments
from ``segment_dir`` into ``archive_dir`` before they can disappear, and
serves the manifest from the archive.  ``retain_epochs`` bounds the archive:
segments whose ``base_epoch`` has fallen that far behind the leader's
current epoch are dropped (a follower further behind than the retention
window must re-seed from a snapshot -- the one transfer this plane is
designed to make rare).
"""

from __future__ import annotations

import glob
import os
import shutil
from typing import Any, Optional

from repro.replication.wire import (
    DEFAULT_CHUNK_BYTES,
    VERB_REPL_EPOCH,
    VERB_REPL_SEGMENT,
    VERB_REPL_SUBSCRIBE,
    encode_chunk,
)
from repro.serving.protocol import error_response, ok_response
from repro.serving.server import ServingNode
from repro.serving.snapshot import snapshot_epoch
from repro.updates.segments import load_segment

__all__ = ["SegmentStreamer"]


class SegmentStreamer(ServingNode):
    """Serve sealed delta segments to follower fleets."""

    role = "segment-streamer"
    verbs = ServingNode.verbs | {VERB_REPL_EPOCH, VERB_REPL_SUBSCRIBE, VERB_REPL_SEGMENT}

    def __init__(
        self,
        snapshot_path: str,
        segment_dir: str,
        archive_dir: Optional[str] = None,
        pattern: str = "*.seg.npz",
        chunk_bytes: int = DEFAULT_CHUNK_BYTES,
        retain_epochs: Optional[int] = None,
        host: str = "127.0.0.1",
        port: int = 0,
        max_inflight: int = 64,
    ):
        super().__init__(host=host, port=port, max_inflight=max_inflight)
        if chunk_bytes < 1:
            raise ValueError("chunk_bytes must be >= 1")
        if retain_epochs is not None and retain_epochs < 1:
            raise ValueError("retain_epochs must be >= 1 (or None for unbounded)")
        self.snapshot_path = snapshot_path
        self.segment_dir = segment_dir
        self.archive_dir = archive_dir or os.path.join(segment_dir, "repl-archive")
        self.pattern = pattern
        self.chunk_bytes = chunk_bytes
        self.retain_epochs = retain_epochs
        #: name -> {"name", "base_epoch", "n_ops", "size"}
        self._meta: dict[str, dict[str, Any]] = {}
        os.makedirs(self.archive_dir, exist_ok=True)
        self._recover_archive()

    # -- archive maintenance ---------------------------------------------------

    def _recover_archive(self) -> None:
        """Rebuild the manifest from a previous run's archive."""
        for path in sorted(glob.glob(os.path.join(self.archive_dir, self.pattern))):
            try:
                self._remember(path)
            except Exception:  # noqa: BLE001 -- drop what a crash left torn
                os.unlink(path)
        for stray in glob.glob(os.path.join(self.archive_dir, "*.part")):
            os.unlink(stray)

    def _remember(self, archived_path: str) -> dict[str, Any]:
        segment = load_segment(archived_path)  # full crc verification
        meta = {
            "name": os.path.basename(archived_path),
            "base_epoch": segment.base_epoch,
            "n_ops": segment.n_ops,
            "size": os.path.getsize(archived_path),
        }
        self._meta[meta["name"]] = meta
        return meta

    def refresh(self) -> int:
        """Archive newly sealed segments; returns how many were picked up.

        Safe against the compactor racing us: the copy goes to a ``.part``
        temp then ``os.replace``, and a sealed segment is immutable, so a
        half-copied file can never be listed.  A source unlinked before we
        copied it is simply gone -- the follower that needed it re-seeds.
        """
        picked_up = 0
        for path in sorted(glob.glob(os.path.join(self.segment_dir, self.pattern))):
            name = os.path.basename(path)
            if name in self._meta:
                continue
            archived = os.path.join(self.archive_dir, name)
            tmp = archived + ".part"
            try:
                shutil.copyfile(path, tmp)
                os.replace(tmp, archived)
                self._remember(archived)
            except FileNotFoundError:
                continue  # compacted away mid-copy
            finally:
                if os.path.exists(tmp):
                    os.unlink(tmp)
            picked_up += 1
            self.metrics.counter("repl_segments_archived_total").inc()
        self._trim(self.epoch())
        return picked_up

    def _trim(self, epoch: int) -> None:
        if self.retain_epochs is None:
            return
        floor = epoch - self.retain_epochs
        for name in [n for n, m in self._meta.items() if m["base_epoch"] < floor]:
            del self._meta[name]
            retired = os.path.join(self.archive_dir, name)
            if os.path.exists(retired):
                os.unlink(retired)
            self.metrics.counter("repl_segments_retired_total").inc()

    def epoch(self) -> int:
        """The leader's current published epoch."""
        return snapshot_epoch(self.snapshot_path)

    def manifest(self, after: Optional[str] = None) -> list[dict[str, Any]]:
        """Retained segments in name (= creation) order, past a cursor.

        An unknown ``after`` answers the full manifest: the follower's
        cursor predates the retention window, and re-listing everything is
        the safe resume.
        """
        names = sorted(self._meta)
        if after is not None and after in self._meta:
            names = [n for n in names if n > after]
        return [dict(self._meta[n]) for n in names]

    # -- verbs -----------------------------------------------------------------

    async def handle(self, verb: str, message: dict[str, Any], request_id: Any) -> Any:
        if verb in (VERB_REPL_EPOCH, VERB_REPL_SUBSCRIBE):
            self.refresh()
            after = message.get("after")
            if after is not None and not isinstance(after, str):
                raise ValueError(f"'after' must be a segment name, got {after!r}")
            if verb == VERB_REPL_SUBSCRIBE:
                self.metrics.counter("repl_subscriptions_total").inc()
            return ok_response(
                request_id,
                epoch=self.epoch(),
                segments=self.manifest(after),
                chunk_bytes=self.chunk_bytes,
            )
        if verb == VERB_REPL_SEGMENT:
            return self._handle_segment(message, request_id)
        return await super().handle(verb, message, request_id)

    def _handle_segment(self, message: dict[str, Any], request_id: Any) -> Any:
        name = message.get("name")
        offset = message.get("offset", 0)
        if not isinstance(name, str) or os.path.basename(name) != name:
            raise ValueError(f"'name' must be a bare segment name, got {name!r}")
        if not isinstance(offset, int) or isinstance(offset, bool) or offset < 0:
            raise ValueError(f"'offset' must be a byte offset >= 0, got {offset!r}")
        meta = self._meta.get(name)
        if meta is None:
            return error_response(
                request_id,
                "not-found",
                f"segment {name!r} is not retained (behind the retention window?)",
            )
        if offset > meta["size"]:
            raise ValueError(
                f"offset {offset} past the end of {name!r} ({meta['size']} bytes)"
            )
        with open(os.path.join(self.archive_dir, name), "rb") as f:
            f.seek(offset)
            data = f.read(self.chunk_bytes)
        self.metrics.counter("repl_bytes_streamed_total").inc(len(data))
        return ok_response(
            request_id,
            name=name,
            offset=offset,
            size=meta["size"],
            eof=offset + len(data) >= meta["size"],
            data=encode_chunk(data),
        )

    def describe(self) -> dict[str, Any]:
        base = super().describe()
        base.update(
            epoch=self.epoch(),
            snapshot_path=self.snapshot_path,
            segment_dir=self.segment_dir,
            archive_dir=self.archive_dir,
            retained_segments=len(self._meta),
            chunk_bytes=self.chunk_bytes,
            retain_epochs=self.retain_epochs,
        )
        return base
