"""Live index maintenance: delta log -> sealed segments -> compaction.

The paper builds the ǫ-PPI index once and serves it statically; this
package makes it a living index without giving up the privacy argument:

* :class:`DeltaLog` -- crc-checksummed append-only log of owner
  add/remove/bit-flip operations (:mod:`repro.updates.deltalog`);
* :class:`StickyOwnerStream` -- per-owner persisted noise streams, so a
  republished row keeps the *same* false positives and the multi-version
  intersection attack stays defeated (:mod:`repro.updates.noise`);
* :func:`seal_segment` / :func:`merge_segments` -- immutable mini postings
  of the changed owners, and their newest-wins merge into a base
  (:mod:`repro.updates.segments`);
* :func:`compact_snapshot` / :class:`Compactor` -- atomic merge of base +
  segments into a fresh epoch-stamped snapshot
  (:mod:`repro.updates.compactor`);
* :func:`diff_snapshots` -- operator-facing snapshot diff
  (:mod:`repro.updates.diff`).

The serving side (``reload`` verb, :meth:`FleetSupervisor.rollout`,
epoch-tagged caches) lives in :mod:`repro.serving`; ``docs/PROTOCOL.md``
and DESIGN.md §7.8 describe the end-to-end update path.
"""

from repro.updates.compactor import CompactionStats, Compactor, compact_snapshot
from repro.updates.deltalog import (
    OP_FLIP,
    OP_REMOVE,
    OP_UPSERT,
    DeltaLog,
    DeltaLogError,
    OwnerDelta,
)
from repro.updates.diff import diff_snapshots
from repro.updates.noise import StickyOwnerStream
from repro.updates.refresh import BetaRefresher, OutOfUniverseError, RefreshOutcome
from repro.updates.segments import (
    SEGMENT_FORMAT_VERSION,
    Segment,
    SegmentError,
    load_segment,
    merge_segments,
    seal_segment,
)

__all__ = [
    "BetaRefresher",
    "CompactionStats",
    "Compactor",
    "DeltaLog",
    "DeltaLogError",
    "OP_FLIP",
    "OP_REMOVE",
    "OP_UPSERT",
    "OutOfUniverseError",
    "OwnerDelta",
    "RefreshOutcome",
    "SEGMENT_FORMAT_VERSION",
    "Segment",
    "SegmentError",
    "StickyOwnerStream",
    "compact_snapshot",
    "diff_snapshots",
    "load_segment",
    "merge_segments",
    "seal_segment",
]
