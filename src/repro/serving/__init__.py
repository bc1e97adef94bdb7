"""The serving runtime: the Fig. 1 system as a real asyncio network service.

This package hosts a constructed :class:`~repro.core.postings.PostingsIndex`
behind real TCP sockets, booted from the one index file, a snapshot
(:mod:`repro.service` runs the same server, endpoints and client on a
virtual-clock loop for simulated-LAN latency):

* :class:`PPIServer` -- the untrusted locator server (``query`` /
  ``query-batch`` / ``stats``), owner-sharded via :class:`ShardSpec`;
* :class:`ProviderEndpoint` -- a provider's AuthSearch endpoint with the
  existing :class:`~repro.core.authsearch.AccessControl`;
* :class:`LocatorClient` -- the searcher: pooled connections, timeouts,
  capped-backoff retries, batching, LRU result cache;
* :func:`run_load` -- closed-loop load generation with percentile reports
  (:func:`run_load_multiprocess` fans it out over OS processes);
* :class:`FleetSupervisor` -- one server process per shard, health-checked
  and restarted with capped backoff, hot-swapped onto new index epochs by
  :meth:`~repro.serving.fleet.FleetSupervisor.rollout`
  (:mod:`repro.serving.fleet`);
* :func:`save_snapshot` / :func:`load_postings` -- the binary CSR index
  file ``eppi construct`` writes and workers boot from
  (:mod:`repro.serving.snapshot`);
* :mod:`repro.serving.protocol` -- the message schema both ends share
  (request / response dicts, verbs, error types);
* :mod:`repro.serving.protocol_v2` -- the wire format (fixed crc-checked
  binary frames, packed payloads, a JSON fallback).

``python -m repro serve / provider / loadgen / snapshot / supervisor``
(or the ``eppi`` console script) exposes the same pieces operationally.
"""

from repro.serving.client import (
    ConnectionPool,
    LocatorClient,
    LRUCache,
    RetryPolicy,
    TransportError,
)
from repro.serving.fleet import FleetSupervisor, WorkerSpec, sync_request
from repro.serving.loadgen import (
    LoadReport,
    run_load,
    run_load_multiprocess,
    run_load_sync,
)
from repro.serving.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    percentile,
)
from repro.serving.protocol import (
    MAX_FRAME_BYTES,
    ConnectionClosed,
    FrameTooLarge,
    ProtocolError,
    RemoteError,
)
from repro.serving.protocol_v2 import (
    PROTOCOL_V2,
    DecodeError,
    Frame,
    FrameDecoder,
    PreparedFrameV2,
)
from repro.serving.provider import ProviderEndpoint
from repro.serving.snapshot import (
    SNAPSHOT_FORMAT_V1,
    SNAPSHOT_FORMAT_V2,
    SNAPSHOT_FORMAT_VERSION,
    SnapshotError,
    inspect_snapshot,
    load_postings,
    load_serving_state,
    load_snapshot,
    save_snapshot,
    snapshot_epoch,
    snapshot_version,
)
from repro.serving.server import (
    IndexShardStore,
    PPIServer,
    ResponseSlab,
    ServingNode,
    ShardSpec,
    WrongShard,
    shard_of,
)

__all__ = [
    "MAX_FRAME_BYTES",
    "PROTOCOL_V2",
    "ConnectionClosed",
    "ConnectionPool",
    "Counter",
    "DecodeError",
    "FleetSupervisor",
    "Frame",
    "FrameDecoder",
    "FrameTooLarge",
    "Gauge",
    "Histogram",
    "IndexShardStore",
    "LRUCache",
    "LoadReport",
    "LocatorClient",
    "MetricsRegistry",
    "PPIServer",
    "PreparedFrameV2",
    "ProtocolError",
    "ProviderEndpoint",
    "RemoteError",
    "ResponseSlab",
    "RetryPolicy",
    "SNAPSHOT_FORMAT_V1",
    "SNAPSHOT_FORMAT_V2",
    "SNAPSHOT_FORMAT_VERSION",
    "ServingNode",
    "ShardSpec",
    "SnapshotError",
    "TransportError",
    "WorkerSpec",
    "WrongShard",
    "inspect_snapshot",
    "load_postings",
    "load_serving_state",
    "load_snapshot",
    "percentile",
    "run_load",
    "run_load_multiprocess",
    "run_load_sync",
    "save_snapshot",
    "shard_of",
    "snapshot_epoch",
    "snapshot_version",
    "sync_request",
]
