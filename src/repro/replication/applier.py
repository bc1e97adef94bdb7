"""Follower-side replication: tail the stream, overlay, compact, swap.

A :class:`ReplicaApplier` keeps one follower's serving state converging on
its leader using only delta traffic:

1. **tail** -- ``repl-subscribe`` from a name cursor; download any sealed
   segments it does not hold, chunk by resumable chunk, into its local
   segment directory (temp file + ``os.replace``: a SIGKILL mid-transfer
   leaves at worst a ``.part`` to resume or discard, never a torn segment);
2. **overlay** -- install base + local segments as an
   :class:`~repro.updates.segments.OverlayIndex` on the follower's server
   (same epoch, fresher rows), so reads see new data the moment a segment
   lands;
3. **compact** -- once the overlay chain is ``compact_threshold`` deep and
   the leader has sealed epoch boundaries past us, fold each completed
   epoch's segment set into the local base with
   :func:`~repro.updates.compactor.compact_snapshot` -- the *same* merge
   the leader ran, over the same inputs, so the follower's epoch-``E+1``
   snapshot is byte-identical to the leader's;
4. **swap** -- publish every state change through
   :meth:`~repro.serving.server.PPIServer.swap_index` (the swap half of the
   ``reload`` path): the epoch never regresses and a response can never mix
   epochs.

The base snapshot moves exactly once -- the initial seed.  After that,
bytes-on-wire track churn, not corpus size (the replication bench holds a
floor on exactly this ratio).
"""

from __future__ import annotations

import asyncio
import glob
import os
import time
from typing import Any, Optional, Union

from repro.core.errors import ModelError
from repro.core.postings import PostingsIndex
from repro.replication.costmodel import ReplicationCostModel
from repro.replication.wire import (
    VERB_REPL_PROMOTE,
    VERB_REPL_SEGMENT,
    VERB_REPL_STATUS,
    VERB_REPL_SUBSCRIBE,
    decode_chunk,
)
from repro.serving.client import LocatorClient, RetryPolicy
from repro.serving.protocol import ok_response
from repro.serving.server import PPIServer, ShardSpec
from repro.serving.snapshot import load_postings, snapshot_epoch
from repro.updates.compactor import compact_snapshot
from repro.updates.segments import OverlayIndex, load_segment

__all__ = ["ReplicaApplier", "ReplicaServer", "ReplicationError"]


class ReplicationError(ModelError):
    """The follower cannot converge (e.g. fell behind the retention window)."""


def _as_address(leader: Union[str, tuple]) -> tuple:
    if isinstance(leader, str):
        host, _, port = leader.rpartition(":")
        if not host or not port.isdigit():
            raise ValueError(f"leader must be 'host:port', got {leader!r}")
        return (host, int(port))
    return tuple(leader)


class ReplicaApplier:
    """Converge one follower's base + overlay chain on a leader's stream."""

    def __init__(
        self,
        leader: Union[str, tuple],
        base_path: str,
        segment_dir: Optional[str] = None,
        server: Optional[PPIServer] = None,
        compact_threshold: int = 4,
        client: Optional[LocatorClient] = None,
        retry: RetryPolicy = RetryPolicy(),
        protocol: str = "auto",
        cost_model: Optional[ReplicationCostModel] = None,
    ):
        if compact_threshold < 1:
            raise ValueError("compact_threshold must be >= 1")
        self.leader = _as_address(leader)
        self.base_path = base_path
        self.segment_dir = segment_dir or f"{base_path}.segments"
        self.server = server
        self.compact_threshold = compact_threshold
        self.cost_model = cost_model
        self.epoch = snapshot_epoch(base_path)
        self.leader_epoch = self.epoch
        self.detached = False
        self.bytes_fetched = 0
        self.segments_fetched = 0
        self.compactions = 0
        self.swaps = 0
        self.wan_seconds = 0.0
        self.last_sync_at = 0.0
        self._cursor: Optional[str] = None
        self._base_index: Optional[PostingsIndex] = None
        self._client = client or LocatorClient(
            servers=[self.leader], retry=retry, cache_size=0, protocol=protocol
        )
        self._owns_client = client is None
        os.makedirs(self.segment_dir, exist_ok=True)
        self.recover()

    # -- local state -----------------------------------------------------------

    def recover(self) -> None:
        """Restore a clean segment directory after a crash/SIGKILL.

        ``.part`` downloads resume from their current size (the final crc
        verification catches a torn tail and triggers a clean refetch);
        finished segments that fail verification, or that were cut against
        an epoch this follower already compacted past, are dropped.
        """
        for path in sorted(self._local_segments()):
            try:
                segment = load_segment(path)
            except Exception:  # noqa: BLE001 -- unreadable: refetch from leader
                os.unlink(path)
                continue
            if segment.base_epoch < self.epoch:
                os.unlink(path)  # consumed by a compaction we already took
        names = [os.path.basename(p) for p in self._local_segments()]
        self._cursor = max(names) if names else None

    def _local_segments(self) -> list[str]:
        return sorted(glob.glob(os.path.join(self.segment_dir, "*.seg.npz")))

    def _base(self) -> PostingsIndex:
        if self._base_index is None:
            self._base_index = load_postings(self.base_path, mmap=True)
        return self._base_index

    def overlay_depth(self) -> int:
        return len(self._local_segments())

    def serving_index(self) -> Union[PostingsIndex, OverlayIndex]:
        """Base + current overlay chain (what the server should serve)."""
        segments = [load_segment(p) for p in self._local_segments()]
        if not segments:
            return self._base()
        return OverlayIndex(self._base(), segments)

    # -- one sync round --------------------------------------------------------

    async def sync_once(self, force_compact: bool = False) -> dict[str, Any]:
        """Tail + overlay + (maybe) compact + swap; returns round stats."""
        if self.detached:
            raise ReplicationError("applier is detached (promoted?); not syncing")
        started = time.monotonic()
        response = await self._client.call(
            self.leader, VERB_REPL_SUBSCRIBE, after=self._cursor
        )
        self.leader_epoch = int(response["epoch"])
        fetched = 0
        for entry in response["segments"]:
            name, base_epoch = str(entry["name"]), int(entry["base_epoch"])
            if base_epoch < self.epoch:
                # Cut against an epoch we already compacted past: the
                # leader's copy of history we have in compacted form.
                self._advance_cursor(name)
                continue
            path = os.path.join(self.segment_dir, name)
            if not os.path.exists(path):
                await self._fetch_segment(name, int(entry["size"]), path)
                fetched += 1
            self._advance_cursor(name)
        self.segments_fetched += fetched
        compacted = self._maybe_compact(force_compact)
        if fetched or compacted or self.swaps == 0:
            self._install()
        self.last_sync_at = time.monotonic()
        return {
            "epoch": self.epoch,
            "leader_epoch": self.leader_epoch,
            "epochs_behind": self.leader_epoch - self.epoch,
            "segments_fetched": fetched,
            "epochs_compacted": compacted,
            "overlay_depth": self.overlay_depth(),
            "bytes_fetched": self.bytes_fetched,
            "sync_s": time.monotonic() - started,
        }

    def _advance_cursor(self, name: str) -> None:
        if self._cursor is None or name > self._cursor:
            self._cursor = name

    async def _fetch_segment(self, name: str, size: int, path: str) -> None:
        """Chunked, resumable, crc-verified download of one segment."""
        part = path + ".part"
        for attempt in (0, 1):
            offset = os.path.getsize(part) if os.path.exists(part) else 0
            chunks = 0
            with open(part, "ab") as out:
                while offset < size:
                    response = await self._client.call(
                        self.leader, VERB_REPL_SEGMENT, name=name, offset=offset
                    )
                    data = decode_chunk(response["data"])
                    if not data and not response["eof"]:
                        raise ReplicationError(
                            f"leader sent an empty non-final chunk of {name!r}"
                        )
                    out.write(data)
                    out.flush()
                    offset += len(data)
                    chunks += 1
                    self.bytes_fetched += len(data)
                    if response["eof"]:
                        break
            if self.cost_model is not None and chunks:
                self.wan_seconds += self.cost_model.transfer(
                    offset, n_transfers=chunks
                ).seconds
            try:
                load_segment(part)  # full crc verification before adoption
            except Exception as exc:  # noqa: BLE001 -- SegmentError or worse
                # Torn resume (we appended past a partial write) or a
                # corrupt transfer: drop and refetch once from scratch.
                os.unlink(part)
                if attempt:
                    raise ReplicationError(
                        f"segment {name!r} failed verification twice: {exc}"
                    ) from exc
                continue
            os.replace(part, path)
            return

    def _maybe_compact(self, force: bool) -> int:
        """Fold completed epochs into the local base; returns epochs taken.

        Only epochs the leader has sealed (``base_epoch < leader_epoch``)
        are ever folded -- their segment set is final, so the merge inputs
        equal the leader's and the output snapshot is byte-identical.  The
        fold is deferred until the chain is ``compact_threshold`` deep
        (overlay reads are cheap; compaction is the expensive step), unless
        ``force`` is set.
        """
        completed = [
            p
            for p in self._local_segments()
            if load_segment(p).base_epoch < self.leader_epoch
        ]
        if not completed:
            return 0
        if not force and len(completed) < self.compact_threshold:
            return 0
        taken = 0
        while self.epoch < self.leader_epoch:
            group = [
                p
                for p in self._local_segments()
                if load_segment(p).base_epoch == self.epoch
            ]
            if not group:
                raise ReplicationError(
                    f"cannot advance past epoch {self.epoch}: its segments are "
                    f"gone (behind the leader's retention window?); re-seed "
                    f"the base snapshot"
                )
            compact_snapshot(self.base_path, group, out_path=self.base_path)
            for path in group:
                os.unlink(path)
            self.epoch += 1
            taken += 1
            self.compactions += 1
        if taken:
            old = self._base_index
            self._base_index = None  # reload lazily from the new base
            if old is not None and hasattr(old, "release"):
                old.release()
        return taken

    def _install(self) -> None:
        """Publish the current base + overlay chain to the serving node."""
        if self.server is None:
            return
        self.server.swap_index(
            self.serving_index(), self.epoch, snapshot_path=self.base_path
        )
        self.swaps += 1

    # -- lifecycle -------------------------------------------------------------

    async def run(
        self, interval_s: float = 0.5, stop: Optional[asyncio.Event] = None
    ) -> None:
        """Poll-tail the leader until ``stop`` is set (or detached)."""
        if interval_s <= 0:
            raise ValueError("interval_s must be > 0")
        stop = stop or asyncio.Event()
        while not stop.is_set() and not self.detached:
            try:
                await self.sync_once()
            except ReplicationError:
                raise
            except Exception:  # noqa: BLE001 -- leader blip: next round retries
                pass
            try:
                await asyncio.wait_for(stop.wait(), timeout=interval_s)
            except asyncio.TimeoutError:
                pass

    async def promote(self) -> dict[str, Any]:
        """Failover: detach from the leader and become a clean primary.

        Every local segment group is folded into the base -- a promoted
        node defines epoch boundaries now, so nothing stays pending -- and
        the compacted snapshot is swapped in.  Returns the final status.
        """
        self.detached = True
        loop = asyncio.get_running_loop()
        while True:
            group_epoch = self.epoch
            group = [
                p
                for p in self._local_segments()
                if load_segment(p).base_epoch == group_epoch
            ]
            if not group:
                break
            await loop.run_in_executor(
                None, compact_snapshot, self.base_path, group, self.base_path
            )
            for path in group:
                os.unlink(path)
            self.epoch += 1
            self.compactions += 1
            old = self._base_index
            self._base_index = None
            if old is not None and hasattr(old, "release"):
                old.release()
        self.leader_epoch = self.epoch
        self._install()
        return self.status()

    def status(self) -> dict[str, Any]:
        return {
            "leader": f"{self.leader[0]}:{self.leader[1]}",
            "epoch": self.epoch,
            "leader_epoch": self.leader_epoch,
            "epochs_behind": self.leader_epoch - self.epoch,
            "overlay_depth": self.overlay_depth(),
            "compact_threshold": self.compact_threshold,
            "detached": self.detached,
            "bytes_fetched": self.bytes_fetched,
            "segments_fetched": self.segments_fetched,
            "compactions": self.compactions,
            "swaps": self.swaps,
            "wan_seconds": self.wan_seconds,
            "base_path": self.base_path,
        }

    async def close(self) -> None:
        if self._owns_client:
            await self._client.close()
        base, self._base_index = self._base_index, None
        if base is not None and hasattr(base, "release"):
            base.release()


class ReplicaServer(PPIServer):
    """A follower's serving node: a ``PPIServer`` fed by an applier.

    Serves the ordinary query surface from the applier's base + overlay
    chain, plus ``repl-status`` (the applier's convergence state) and
    ``repl-promote`` (failover: detach, fold everything local, answer as a
    primary).  ``info`` reports role ``ppi-replica`` until promotion.
    """

    role = "ppi-replica"

    def __init__(
        self,
        applier: ReplicaApplier,
        shard: ShardSpec = ShardSpec(),
        **kwargs: Any,
    ):
        super().__init__(
            applier.serving_index(),
            shard,
            snapshot_path=applier.base_path,
            epoch=applier.epoch,
            **kwargs,
        )
        self.applier = applier
        applier.server = self

    async def handle(
        self, verb: str, message: dict[str, Any], request_id: Any, protocol: int = 1
    ) -> Any:
        if verb == VERB_REPL_STATUS:
            return ok_response(request_id, role=self.role, **self.applier.status())
        if verb == VERB_REPL_PROMOTE:
            status = await self.applier.promote()
            self.role = "ppi-server"  # a primary from here on
            return ok_response(request_id, role=self.role, **status)
        return await super().handle(verb, message, request_id, protocol)

    def describe(self) -> dict[str, Any]:
        base = super().describe()
        base.update(
            leader=f"{self.applier.leader[0]}:{self.applier.leader[1]}",
            epochs_behind=self.applier.leader_epoch - self.applier.epoch,
            overlay_depth=self.applier.overlay_depth(),
            detached=self.applier.detached,
        )
        return base
