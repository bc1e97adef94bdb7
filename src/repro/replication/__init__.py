"""Geo-replicated read tier: delta-streamed follower catch-up.

The locator service is read-dominated and changes slowly under churn, so a
follower fleet should refresh at the cost of the *delta*, not the corpus.
This package wires the live-update substrate (``repro.updates``: crc-framed
delta log, sealed segments, overlay indexes, epoch-stamped compaction) into
a leader -> follower replication plane:

* :class:`SegmentStreamer` -- leader side; archives sealed segments and
  serves them over the ordinary wire protocol (``repl-subscribe`` /
  ``repl-segment`` / ``repl-epoch``, riding its extension escape);
* :class:`ReplicaApplier` / :class:`ReplicaServer` -- follower side; tails
  the stream, serves base + overlays immediately, folds completed epochs
  into a byte-identical local snapshot, and hot-swaps through the ``reload``
  path's epoch-guarded swap;
* :class:`ReplicationCostModel` -- prices catch-up strategies on the
  ``repro.net`` WAN profile (snapshot shipping vs. delta streaming).

See DESIGN.md §7.11 for the invariants and ``benchmarks/bench_replication``
for the measured bandwidth/catch-up numbers.
"""

from repro.replication.applier import (
    ReplicaApplier,
    ReplicaServer,
    ReplicationError,
)
from repro.replication.costmodel import ReplicationCostModel, TransferCost
from repro.replication.streamer import SegmentStreamer
from repro.replication.wire import (
    DEFAULT_CHUNK_BYTES,
    VERB_REPL_EPOCH,
    VERB_REPL_PROMOTE,
    VERB_REPL_SEGMENT,
    VERB_REPL_STATUS,
    VERB_REPL_SUBSCRIBE,
    decode_chunk,
    encode_chunk,
)

__all__ = [
    "DEFAULT_CHUNK_BYTES",
    "ReplicaApplier",
    "ReplicaServer",
    "ReplicationCostModel",
    "ReplicationError",
    "SegmentStreamer",
    "TransferCost",
    "VERB_REPL_EPOCH",
    "VERB_REPL_PROMOTE",
    "VERB_REPL_SEGMENT",
    "VERB_REPL_STATUS",
    "VERB_REPL_SUBSCRIBE",
    "decode_chunk",
    "encode_chunk",
]
