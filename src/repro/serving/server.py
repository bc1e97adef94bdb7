"""The PPI locator server: an asyncio TCP service hosting a published index.

This is the third-party *PPI server* of paper Fig. 1, lifted off the
discrete-event simulator and onto real sockets.  The server is untrusted by
design -- everything it stores (the published matrix ``M'``) is public -- so
the runtime concerns here are purely operational:

* **concurrency** -- one task per connection, requests multiplexed by id;
* **backpressure** -- a bounded in-flight semaphore: past ``max_inflight``
  concurrently processed requests, further frames queue in the kernel
  socket buffer instead of growing unbounded server state;
* **sharding** -- an owner-sharded :class:`IndexShardStore`, so a fleet of
  server processes can each host ``owners where owner_id % n_shards ==
  shard_id``; a query routed to the wrong shard gets a ``wrong-shard``
  error naming the right one, which lets clients self-correct;
* **graceful shutdown** -- stop accepting, drain in-flight requests for a
  bounded period, then cancel stragglers.

:class:`ServingNode` is the protocol/lifecycle base shared with
:class:`repro.serving.provider.ProviderEndpoint`.
"""

from __future__ import annotations

import asyncio
import contextlib
import time
from dataclasses import dataclass
from typing import Any, Optional, Union

import numpy as np

from repro.core.errors import ModelError
from repro.core.index import PPIIndex
from repro.core.postings import PostingsIndex
from repro.serving.metrics import MetricsRegistry
from repro.serving.protocol import (
    VERB_INFO,
    VERB_PING,
    VERB_QUERY,
    VERB_QUERY_BATCH,
    VERB_RELOAD,
    VERB_STATS,
    error_response,
    ok_response,
)
from repro.serving.protocol_v2 import (
    PROTOCOL_V2,
    FrameDecoder,
    RawReply,
    batch_response_parts,
    encode_reply_v2,
    pack_batch_segment,
    pack_batch_segments,
    prepared_response_v2,
    unpack_batch_segment,
)

__all__ = [
    "IndexShardStore",
    "PPIServer",
    "ResponseSlab",
    "ServingNode",
    "ShardSpec",
    "WrongShard",
    "shard_of",
]

_INT64_MIN, _INT64_MAX = -(2**63), 2**63 - 1

#: one socket read per scheduling step; large enough that a pipelined burst
#: of requests lands in one syscall and is answered with one writev.
_READ_CHUNK = 256 * 1024


def shard_of(owner_id: int, n_shards: int) -> int:
    """Owner-to-shard routing function shared by servers and clients."""
    if n_shards < 1:
        raise ValueError(f"need at least one shard, got {n_shards}")
    return owner_id % n_shards


@dataclass(frozen=True)
class ShardSpec:
    """Which slice of the owner space one server process hosts."""

    shard_id: int = 0
    n_shards: int = 1

    def __post_init__(self) -> None:
        if self.n_shards < 1 or not 0 <= self.shard_id < self.n_shards:
            raise ValueError(
                f"invalid shard spec {self.shard_id}/{self.n_shards}"
            )

    def owns(self, owner_id: int) -> bool:
        return shard_of(owner_id, self.n_shards) == self.shard_id


class WrongShard(Exception):
    """Query for an owner this shard does not host."""

    def __init__(self, owner_id: int, expected_shard: int, spec: ShardSpec):
        super().__init__(
            f"owner {owner_id} lives on shard {expected_shard}, "
            f"this is shard {spec.shard_id}/{spec.n_shards}"
        )
        self.owner_id = owner_id
        self.expected_shard = expected_shard


class IndexShardStore:
    """A published index restricted to one shard of the owner space.

    The full index is immutable, so a shard store simply *refuses* queries
    for owners outside its slice rather than slicing the matrix: the memory
    win of physical slicing belongs to a later PR, the routing contract is
    what matters here.  The index is the CSR :class:`PostingsIndex` (mmap'd
    from a v2+ snapshot on every fleet boot) or an ``OverlayIndex`` over
    one, so lookups are O(result-size) slices.
    """

    def __init__(self, index: PostingsIndex, spec: ShardSpec = ShardSpec()):
        self.index = index
        self.spec = spec

    def lookup(self, owner_id: int) -> list[int]:
        if not self.spec.owns(owner_id):
            raise WrongShard(owner_id, shard_of(owner_id, self.spec.n_shards), self.spec)
        return self.index.query(owner_id)

    def _owned(self, owner_ids: list[int]) -> np.ndarray:
        """``owner_ids`` as an id array, once every one is this shard's."""
        try:
            ids = np.asarray(owner_ids, dtype=np.int64)
        except OverflowError:
            # No owner id lives past int64: unknown, like any absent owner.
            oid = next(o for o in owner_ids if not _INT64_MIN <= o <= _INT64_MAX)
            raise ModelError(f"unknown owner id {oid}") from None
        wrong = np.nonzero(ids % self.spec.n_shards != self.spec.shard_id)[0]
        if wrong.size:
            oid = int(ids[wrong[0]])
            raise WrongShard(oid, shard_of(oid, self.spec.n_shards), self.spec)
        return ids

    def lookup_segments(self, owner_ids: list[int]) -> "tuple[bytes, list]":
        """The owners' batch segments, packed straight from the postings
        arrays (see :func:`~repro.serving.protocol_v2.pack_batch_segments`)."""
        ids = self._owned(owner_ids)
        return pack_batch_segments(ids, *self.index.query_many_arrays(ids))


class ServingNode:
    """Lifecycle + framing + base verbs (``ping``/``stats``/``info``) for
    every process in the serving runtime."""

    #: overridden by subclasses; shows up in ``info`` and error messages
    role = "node"

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        max_inflight: int = 64,
    ):
        if max_inflight < 1:
            raise ValueError("max_inflight must be >= 1")
        self.host = host
        self.port = port  # rewritten with the bound port after start()
        self.metrics = MetricsRegistry()
        self._max_inflight = max_inflight
        self._inflight = asyncio.Semaphore(max_inflight)
        self._server: Optional[asyncio.AbstractServer] = None
        self._conn_tasks: set[asyncio.Task] = set()
        self._started_at = 0.0

    # -- lifecycle -----------------------------------------------------------

    @property
    def address(self) -> tuple[str, int]:
        return (self.host, self.port)

    @property
    def running(self) -> bool:
        return self._server is not None

    async def start(self) -> "ServingNode":
        if self._server is not None:
            raise RuntimeError(f"{self.role} already started")
        self._server = await asyncio.start_server(
            self._on_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self._started_at = time.monotonic()
        return self

    async def stop(self, drain_timeout: float = 1.0) -> None:
        """Graceful shutdown: close the listener, give in-flight requests
        ``drain_timeout`` seconds to finish, then cancel what remains."""
        if self._server is None:
            return
        self._server.close()
        await self._server.wait_closed()
        self._server = None
        tasks = [t for t in self._conn_tasks if not t.done()]
        if tasks:
            done, pending = await asyncio.wait(tasks, timeout=drain_timeout)
            for task in pending:
                task.cancel()
            if pending:
                await asyncio.gather(*pending, return_exceptions=True)
        self._conn_tasks.clear()

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        assert self._server is not None
        await self._server.serve_forever()

    # -- connection handling -------------------------------------------------

    def _on_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.ensure_future(self._handle_connection(reader, writer))
        self._conn_tasks.add(task)
        task.add_done_callback(self._conn_tasks.discard)

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """Decode -> serve -> reply, batched per socket read.

        One ``read()`` may carry many pipelined frames; all their replies
        go out in a single ``writelines`` + ``drain`` -- one writev instead
        of a syscall per response.  The first malformed frame (bad magic
        included) gets a typed error frame, after which the connection
        closes: framing is byte-positional, so a corrupt frame makes every
        later stream offset untrustworthy.
        """
        self.metrics.counter("connections_total").inc()
        self.metrics.gauge("connections_open").inc()
        decoder = FrameDecoder()
        try:
            while True:
                data = await reader.read(_READ_CHUNK)
                if not data:
                    break
                out: list = []
                for frame in decoder.feed(data):
                    verb = frame.message.get("verb")
                    response = await self._serve_one(frame.message)
                    out.extend(self._encode_reply(verb, response))
                if decoder.error is not None:
                    # Unparseable bytes: answer once, typed, then drop the
                    # connection -- framing is lost.
                    self.metrics.counter("protocol_errors_total").inc()
                    error = decoder.error
                    out.extend(encode_reply_v2(None, error_response(0, error.code, str(error))))
                if out:
                    writer.writelines(out)
                    await writer.drain()
                if decoder.error is not None:
                    break
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            self.metrics.gauge("connections_open").dec()
            writer.close()
            with contextlib.suppress(Exception):
                await writer.wait_closed()

    def _encode_reply(self, verb: Any, response: Any) -> list:
        """Render one reply to wire parts."""
        if isinstance(response, RawReply):
            return response.parts
        return encode_reply_v2(verb if isinstance(verb, str) else None, response)

    async def _serve_one(self, message: dict[str, Any]) -> Any:
        request_id = message.get("id")
        verb = message.get("verb")
        self.metrics.counter("requests_total").inc()
        self.metrics.counter(f"requests_{verb}_total").inc()
        started = time.monotonic()
        async with self._inflight:
            self.metrics.gauge("inflight").inc()
            try:
                if not isinstance(verb, str):
                    return error_response(
                        request_id, "bad-request", "missing verb"
                    )
                if verb == VERB_PING:
                    return ok_response(request_id)
                if verb == VERB_STATS:
                    return ok_response(request_id, stats=self.metrics.snapshot())
                if verb == VERB_INFO:
                    return ok_response(request_id, **self.describe())
                return await self.handle(verb, message, request_id)
            except WrongShard as exc:
                self.metrics.counter("wrong_shard_total").inc()
                return error_response(
                    request_id, "wrong-shard", str(exc), shard=exc.expected_shard
                )
            except (ValueError, ModelError) as exc:
                # Caller's fault (unknown owner, malformed fields): answer
                # bad-request, keep the connection alive.
                self.metrics.counter("errors_total").inc()
                return error_response(request_id, "bad-request", str(exc))
            except Exception as exc:  # noqa: BLE001 -- fault barrier per request
                self.metrics.counter("errors_total").inc()
                return error_response(request_id, "internal", f"{type(exc).__name__}: {exc}")
            finally:
                self.metrics.gauge("inflight").dec()
                self.metrics.histogram("request_latency_s").observe(
                    time.monotonic() - started
                )

    # -- to override ---------------------------------------------------------

    async def handle(self, verb: str, message: dict[str, Any], request_id: Any) -> Any:
        return error_response(request_id, "unknown-verb", f"unknown verb {verb!r}")

    def describe(self) -> dict[str, Any]:
        return {
            "role": self.role,
            "uptime_s": time.monotonic() - self._started_at if self._started_at else 0.0,
            "max_inflight": self._max_inflight,
        }


class ResponseSlab:
    """One owner's ``query`` answer in an epoch, rendered per encoding on
    first use.

    Built from whatever the miss had in hand -- the provider list (a point
    miss) or the owner's packed batch segment (a batch miss, ``bytes``
    from :func:`~repro.serving.protocol_v2.pack_batch_segments`) -- and
    cached per (owner, epoch).  Each wire form is rendered the first time
    a reply needs it and kept: the ``query`` frame (payload + crc shared, a
    24-byte header packed per request) and the ``query-batch`` segment.  A
    batch miss therefore costs no encoding beyond the batch-wide kernel,
    and the provider list is only decoded from the segment if a ``query``
    for the owner ever arrives.
    """

    __slots__ = ("owner_id", "epoch", "_providers", "_v2_frame", "_v2_segment")

    def __init__(self, owner_id: int, providers: Union[list, bytes], epoch: int):
        self.owner_id = owner_id
        self.epoch = epoch
        self._v2_frame = None
        if isinstance(providers, bytes):
            self._providers, self._v2_segment = None, providers
        else:
            self._providers, self._v2_segment = providers, None

    @property
    def providers(self) -> list:
        if self._providers is None:
            _, self._providers = unpack_batch_segment(self._v2_segment)
        return self._providers

    @property
    def v2_frame(self):
        if self._v2_frame is None:
            self._v2_frame = prepared_response_v2(
                VERB_QUERY,
                {
                    "owner": self.owner_id,
                    "providers": self.providers,
                    "epoch": self.epoch,
                },
            )
        return self._v2_frame

    @property
    def v2_segment(self) -> bytes:
        if self._v2_segment is None:
            self._v2_segment = pack_batch_segment(self.owner_id, self.providers)
        return self._v2_segment


class PPIServer(ServingNode):
    """The locator service: ``query`` / ``query-batch`` over one index shard.

    The index is static *within a publication epoch* (paper Sec. III-C):
    the same owner always yields the identical provider list until a
    ``reload`` hot-swaps in a newer snapshot.  The server therefore keeps
    an LRU of *pre-encoded* response payload bytes per owner
    (``response_cache_size`` entries; 0 disables), so a hot owner's reply
    skips index lookup *and* encoding -- only the header carrying the
    request id is packed per frame.  Every cached payload embeds the epoch it was
    rendered under, and ``reload`` replaces the whole cache in the same
    event-loop step that swaps the index, so a post-swap request can never
    be answered with pre-swap bytes.  Cache effectiveness shows up in the
    ``response_cache_hits_total`` / ``response_cache_misses_total``
    counters of the ``stats`` verb; swaps in ``reloads_total`` and the
    ``epoch`` gauge.
    """

    role = "ppi-server"

    def __init__(
        self,
        index: Union[PostingsIndex, PPIIndex],
        shard: ShardSpec = ShardSpec(),
        host: str = "127.0.0.1",
        port: int = 0,
        max_inflight: int = 64,
        response_cache_size: int = 4096,
        snapshot_path: Optional[str] = None,
        epoch: int = 0,
    ):
        super().__init__(host=host, port=port, max_inflight=max_inflight)
        if isinstance(index, PPIIndex):  # one serving engine: CSR, built once
            index = PostingsIndex.from_index(index)
        self.store = IndexShardStore(index, shard)
        self.snapshot_path = snapshot_path
        self.epoch = epoch
        # Imported here to keep client (searcher) and server modules
        # dependency-light in both directions.
        from repro.serving.client import LRUCache

        self._response_cache = LRUCache(response_cache_size)
        self.metrics.gauge("epoch").set(epoch)

    @property
    def shard(self) -> ShardSpec:
        return self.store.spec

    def _slab_for(self, owner_id: int) -> ResponseSlab:
        """The cached renderings for one owner, rendering on miss.

        ``lookup`` raises (wrong shard / unknown owner) before anything is
        cached, so only valid replies are stored.
        """
        slab = self._response_cache.get(owner_id)
        if slab is None:
            providers = self.store.lookup(owner_id)
            slab = ResponseSlab(owner_id, providers, self.epoch)
            self._response_cache.put(owner_id, slab)
            self.metrics.counter("response_cache_misses_total").inc()
        else:
            self.metrics.counter("response_cache_hits_total").inc()
        return slab

    async def handle(
        self,
        verb: str,
        message: dict[str, Any],
        request_id: Any,
        protocol: int = PROTOCOL_V2,
    ) -> Any:
        # ``protocol`` is kept only for benchmarks/e2e/reads.py, which passes 2.
        if protocol != PROTOCOL_V2:
            raise ValueError(f"protocol must be {PROTOCOL_V2}, got {protocol!r}")
        if verb == VERB_QUERY:
            owner_id = _require_int(message, "owner")
            slab = self._slab_for(owner_id)
            self.metrics.counter("queries_served").inc()
            return RawReply(slab.v2_frame.encode(request_id))
        if verb == VERB_QUERY_BATCH:
            owners = message.get("owners")
            # type() not isinstance(): bool is an int, and True would be
            # answered as owner 1 (``query`` rejects it the same way).
            if not isinstance(owners, list) or not all(
                type(o) is int for o in owners
            ):
                raise ValueError("'owners' must be a list of integer owner ids")
            return self._handle_batch(owners, request_id)
        if verb == VERB_RELOAD:
            return await self._handle_reload(message, request_id)
        return await super().handle(verb, message, request_id)

    def _handle_batch(self, owners: list, request_id: Any) -> Any:
        """A binary ``query-batch`` reply assembled from packed segments.

        Owners the slab misses are packed by one kernel call straight from
        the postings arrays; a fully cold batch is answered with that one
        buffer (one crc, three write parts), a mixed one scatter-gathers
        cached and fresh per-owner segments.

        No awaits anywhere on this path: the cache reads, any fresh
        lookups, and the epoch all belong to one event-loop step, so the
        response is epoch-consistent by construction (the same argument
        ``_handle_reload`` makes for the swap).
        """
        unique = list(dict.fromkeys(owners))
        cache, epoch = self._response_cache, self.epoch
        segments: dict[int, bytes] = {}
        missing = []
        for oid in unique:
            slab = cache.get(oid)
            if slab is None:
                missing.append(oid)
            else:
                segments[oid] = slab.v2_segment
        if missing:
            # Validates every missing owner (wrong shard / unknown id raise
            # before anything is cached or counted), then packs them all.
            buffer, bounds = self.store.lookup_segments(missing)
            for k, oid in enumerate(missing):
                # A bytes slice owns its bytes: a cached segment must not
                # keep the whole batch buffer alive.
                segment = segments[oid] = buffer[bounds[k] : bounds[k + 1]]
                cache.put(oid, ResponseSlab(oid, segment, epoch))
            self.metrics.counter("response_cache_misses_total").inc(len(missing))
        if len(unique) > len(missing):
            self.metrics.counter("response_cache_hits_total").inc(
                len(unique) - len(missing)
            )
        self.metrics.counter("queries_served").inc(len(owners))
        if missing and len(missing) == len(unique):
            body = [buffer]  # fully cold: the kernel's buffer is the whole body
        else:
            body = [segments[oid] for oid in unique]
        return RawReply(batch_response_parts(request_id, epoch, body, len(unique)))

    async def _handle_reload(
        self, message: dict[str, Any], request_id: Any
    ) -> dict[str, Any]:
        """Hot-swap the served index from a snapshot, without pausing.

        The load runs on the default executor, so in-flight queries keep
        being answered from the old index while the new one maps in.  The
        swap itself -- index, epoch, response cache -- happens between two
        awaits of this coroutine, and query handling contains no await
        points at all, so from the event loop's perspective every request
        is served entirely before or entirely after the swap: a response
        can never mix epochs, and no post-swap request sees pre-swap bytes.
        """
        path = message.get("snapshot", self.snapshot_path)
        if not isinstance(path, str) or not path:
            raise ValueError("no snapshot path to reload from")
        from repro.serving.snapshot import load_serving_state

        loop = asyncio.get_running_loop()
        index, epoch = await loop.run_in_executor(None, load_serving_state, path)
        self.swap_index(index, epoch, snapshot_path=path)
        return ok_response(
            request_id,
            epoch=epoch,
            n_owners=index.n_owners,
            n_providers=index.n_providers,
            snapshot=path,
        )

    def swap_index(
        self,
        index: PostingsIndex,
        epoch: int,
        snapshot_path: Optional[str] = None,
    ) -> None:
        """Atomically swap the served index, epoch and response cache.

        This is the swap half of ``reload``, exposed so a replication
        applier can install an :class:`~repro.updates.segments.OverlayIndex`
        (same epoch, fresher overlays) or a locally-compacted snapshot
        without going over the wire.  Refuses to move the epoch backwards;
        equal epochs are fine (that is how overlay installs work).  No
        awaits: callers on the event loop get the same epoch-consistency
        argument as ``reload`` itself.
        """
        if epoch < self.epoch:
            if isinstance(index, PostingsIndex):
                index.release()
            raise ValueError(
                f"snapshot epoch {epoch} is older than serving epoch {self.epoch}"
            )
        old = self.store.index
        self.store.index = index
        self.epoch = epoch
        if snapshot_path is not None:
            self.snapshot_path = snapshot_path
        self._response_cache = type(self._response_cache)(
            self._response_cache.capacity
        )
        if isinstance(old, PostingsIndex) and old is not index:
            old.release()  # close the previous snapshot's mmap/fd now
        self.metrics.counter("reloads_total").inc()
        self.metrics.gauge("epoch").set(epoch)

    def describe(self) -> dict[str, Any]:
        base = super().describe()
        base.update(
            shard_id=self.shard.shard_id,
            n_shards=self.shard.n_shards,
            n_providers=self.store.index.n_providers,
            n_owners=self.store.index.n_owners,
            index_engine=type(self.store.index).__name__,
            response_cache_size=self._response_cache.capacity,
            epoch=self.epoch,
            snapshot_path=self.snapshot_path,
        )
        return base


def _require_int(message: dict[str, Any], key: str) -> int:
    value = message.get(key)
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"{key!r} must be an integer, got {value!r}")
    return value
