"""Background compaction: fold sealed segments back into one snapshot.

Serving a long segment chain costs memory and boot time, so a compactor
periodically merges base + segments into a fresh format-v4 snapshot with
``epoch = base_epoch + 1``.  Two invariants carry the whole design:

* **atomicity** -- the merged snapshot goes through
  :func:`~repro.serving.snapshot.save_snapshot`'s same-directory temp file
  + ``os.replace`` (:func:`~repro.core.storage.write_atomic`), so a
  compactor killed mid-write leaves the base snapshot byte-identical and
  at most a stray ``<snapshot>.tmp.*`` file; a partial compaction is
  *invisible*, never a torn snapshot;
* **epoch discipline** -- every segment records the ``base_epoch`` it was
  cut against, and :func:`compact_snapshot` refuses a mismatched segment:
  folding deltas into the wrong base would silently resurrect rows the
  segment meant to overwrite.

:class:`Compactor` wraps the one-shot merge in a directory-watching
background thread (seal segments into ``segment_dir``; they are deleted
only after the new snapshot is durably in place).
"""

from __future__ import annotations

import glob
import os
import threading
from dataclasses import dataclass, field
from typing import Any, Callable, Optional, Sequence, Union

from repro.serving.snapshot import (
    load_postings,
    save_snapshot,
    snapshot_epoch,
)
from repro.updates.segments import Segment, SegmentError, load_segment, merge_segments

__all__ = ["CompactionStats", "Compactor", "compact_snapshot"]


@dataclass
class CompactionStats:
    """What one compaction folded, and the snapshot it wrote.

    The drift triple -- ``ops_applied`` (delta-log records folded),
    ``owners_touched`` (entries across segments, with multiplicity),
    ``identities_dirtied`` (distinct owners, i.e. the dirty set an
    incremental β refresh re-evaluates, listed sorted in ``dirty_owners``)
    -- is what :class:`~repro.updates.refresh.BetaRefresher` consumes to
    decide when privacy maintenance must run.  ``snapshot`` is
    :func:`~repro.serving.snapshot.save_snapshot`'s summary of the new file.
    """

    epoch: int
    base_epoch: int
    n_segments: int
    ops_applied: int
    owners_touched: int
    identities_dirtied: int
    dirty_owners: list[int]
    tombstones: int
    consumed_segments: list[str]
    snapshot: dict[str, Any] = field(default_factory=dict)


def compact_snapshot(
    base_path: str,
    segment_paths: Sequence[Union[str, Segment]],
    out_path: Optional[str] = None,
) -> CompactionStats:
    """Merge ``base_path`` + segments into a v4 snapshot at ``out_path``.

    Each segment is given by path, or as the :class:`Segment`
    :func:`load_segment` already returned for it (so a caller that has
    read the segments is not made to read them again).  ``out_path``
    defaults to ``base_path`` (compact in place; readers that already
    mmap'd the old file keep their pages -- the old inode lives until they
    release it).  Returns the round's :class:`CompactionStats`: the bumped
    ``epoch``, the segment paths it consumed and their drift, read from the
    segments the merge loads anyway (they hold only the *changed* owners,
    so this is O(churn), not O(index)).
    """
    base_epoch = snapshot_epoch(base_path)
    segments = [
        s if isinstance(s, Segment) else load_segment(s) for s in segment_paths
    ]
    for segment in segments:
        if segment.base_epoch != base_epoch:
            raise SegmentError(
                f"segment {segment.path!r} was cut against epoch "
                f"{segment.base_epoch}, base {base_path!r} is at epoch {base_epoch}"
            )
    # Copying load, not mmap: the merge reads every base byte exactly once,
    # and holding no mapping lets an in-place replace retire the old inode.
    base = load_postings(base_path, mmap=False)
    merged = merge_segments(base, segments)
    summary = save_snapshot(merged, out_path or base_path, epoch=base_epoch + 1)
    dirty = sorted({owner for s in segments for owner in s.owners.tolist()})
    return CompactionStats(
        epoch=base_epoch + 1,
        base_epoch=base_epoch,
        n_segments=len(segments),
        ops_applied=sum(s.n_ops for s in segments),
        owners_touched=sum(len(s) for s in segments),
        identities_dirtied=len(dirty),
        dirty_owners=dirty,
        tombstones=sum(int(s.tombstones.sum()) for s in segments),
        consumed_segments=[str(s.path) for s in segments],
        snapshot=summary,
    )


class Compactor:
    """Watch a segment directory; compact when enough segments pile up.

    Segment files are consumed in name order, which is creation order when
    the sealer names them with a zero-padded sequence (the CLI does).  A
    consumed segment is unlinked only *after* ``os.replace`` has published
    the merged snapshot, so a crash at any point loses no update: either
    the old base + segments survive, or the new base does.
    """

    def __init__(
        self,
        base_path: str,
        segment_dir: str,
        min_segments: int = 1,
        interval_s: float = 1.0,
        pattern: str = "*.seg.npz",
        on_compaction: Optional[Callable[["CompactionStats"], Any]] = None,
    ):
        if min_segments < 1:
            raise ValueError("min_segments must be >= 1")
        if interval_s <= 0:
            raise ValueError("interval_s must be > 0")
        self.base_path = base_path
        self.segment_dir = segment_dir
        self.min_segments = min_segments
        self.interval_s = interval_s
        self.pattern = pattern
        # Called with the round's CompactionStats after every successful
        # compaction -- the drift hook an incremental β refresher latches
        # onto (see :mod:`repro.updates.refresh`).
        self.on_compaction = on_compaction
        self.compactions = 0
        self.last_summary: Optional[CompactionStats] = None
        # Background rounds that raised since the last one that did not,
        # and the latest such exception: a compactor that keeps failing
        # leaves the fleet on a stale epoch, and this is where it shows.
        self.failed_rounds = 0
        self.last_error: Optional[Exception] = None
        self._thread: Optional[threading.Thread] = None
        self._stop = threading.Event()

    def pending(self) -> list[str]:
        """Sealed segments waiting to be folded in, oldest first."""
        return sorted(glob.glob(os.path.join(self.segment_dir, self.pattern)))

    def run_once(self) -> Optional[CompactionStats]:
        """One compaction round; returns the round's drift stats, or
        ``None`` when the backlog is below ``min_segments``."""
        pending = self.pending()
        if len(pending) < self.min_segments:
            return None
        stats = compact_snapshot(self.base_path, pending)
        for path in pending:
            os.unlink(path)
        self.compactions += 1
        self.last_summary = stats
        if self.on_compaction is not None:
            self.on_compaction(stats)
        return stats

    # -- background thread ----------------------------------------------------

    def start(self) -> "Compactor":
        if self._thread is not None:
            raise RuntimeError("compactor already running")
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._loop, name="compactor", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        if self._thread is None:
            return
        self._stop.set()
        self._thread.join(timeout=30.0)
        self._thread = None

    def _loop(self) -> None:
        while not self._stop.wait(self.interval_s):
            try:
                self.run_once()
            except Exception as exc:  # noqa: BLE001 -- keep watching; next round retries
                self.last_error = exc
                self.failed_rounds += 1
            else:
                self.failed_rounds = 0
                self.last_error = None

    def __enter__(self) -> "Compactor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()
