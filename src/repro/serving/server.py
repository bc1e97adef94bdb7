"""The PPI locator server: an asyncio TCP service hosting a published index.

This is the third-party *PPI server* of paper Fig. 1, on real sockets (or
the in-memory ones of :mod:`repro.net.virtual`).  The server is untrusted by
design -- everything it stores (the published matrix ``M'``) is public -- so
the runtime concerns here are purely operational:

* **concurrency** -- one :class:`asyncio.Protocol` per connection: the
  frames of each socket read are decoded and answered in the transport's
  ``data_received`` callback, and their replies leave in one ``writelines``.
  Only a request whose handler really suspends (``reload``, awaiting its
  load on the executor) gets a task; the connection's later frames queue
  behind it, so replies keep request order per connection, while every
  other connection is served meanwhile;
* **backpressure** -- a connection stops reading while such a task is
  pending or while its transport's write buffer is past the high-water
  mark (a peer that sends but does not read), and resumes once it clears:
  unread requests then wait in the kernel socket buffer instead of growing
  server state.  A bounded semaphore caps the requests in flight at
  ``max_inflight``, which only requests that suspend ever hold across an
  event-loop step;
* **sharding** -- an owner-sharded :class:`IndexShardStore`, so a fleet of
  server processes can each host ``owners where owner_id % n_shards ==
  shard_id``; a query routed to the wrong shard gets a ``wrong-shard``
  error naming the right one, which lets clients self-correct;
* **graceful shutdown** -- stop accepting, give pending requests a bounded
  period to finish, cancel stragglers, then close every connection.

:class:`ServingNode` is the protocol/lifecycle base shared with
:class:`repro.serving.provider.ProviderEndpoint` and
:class:`repro.replication.streamer.SegmentStreamer`.
"""

from __future__ import annotations

import asyncio
import collections
from dataclasses import dataclass
from typing import Any, Optional, Union

import numpy as np

from repro.core.errors import ModelError
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
    prepared_response_v2,
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

#: replies gathered for one ``writelines``: past this many bytes they go out
#: mid-read, so a peer that stops reading pauses its connection within about
#: one buffer's worth of replies (asyncio's default high-water mark).
_FLUSH_BYTES = 64 * 1024


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
    from a v2+ snapshot on every fleet boot), so lookups are O(result-size)
    slices.
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

    def lookup_columns(self, owner_ids: list[int]) -> tuple:
        """``(ids, counts, flat_providers)``: the owners as an id array and
        their postings in one CSR gather (``query_many_arrays``), the three
        columns of a binary ``query-batch`` reply (see
        :func:`~repro.serving.protocol_v2.batch_response_parts`)."""
        ids = self._owned(owner_ids)
        return (ids, *self.index.query_many_arrays(ids))


class _Suspended:
    """A coroutine whose first step already ran, in a protocol callback, and
    suspended on ``step``: awaiting this drives the rest of it exactly as
    if it had been awaited from the start (cancellation included)."""

    __slots__ = ("coro", "step")

    def __init__(self, coro, step):
        self.coro = coro
        self.step = step

    def __await__(self):
        coro, step = self.coro, self.step
        while True:
            try:
                sent = yield step
            except BaseException as exc:  # noqa: BLE001 -- thrown in by the task
                advance, arg = coro.throw, exc
            else:
                advance, arg = coro.send, sent
            try:
                step = advance(arg)
            except StopIteration as done:
                return done.value


class _Connection(asyncio.Protocol):
    """One accepted connection: decode -> serve -> reply in the callback.

    Frames wait in ``backlog`` only while the connection is blocked: behind
    the pending reply of a request that suspended (``task``), or while the
    transport's write buffer is past its high-water mark.  Reading is
    paused for as long as either holds.  The first malformed frame (bad
    magic included) gets a typed error frame after every earlier reply,
    then the connection closes: framing is byte-positional, so a corrupt
    frame makes every later stream offset untrustworthy.
    """

    def __init__(self, node: "ServingNode"):
        self.node = node
        self.transport: Optional[asyncio.Transport] = None
        self.decoder = FrameDecoder()
        self.backlog: collections.deque = collections.deque()
        self.task: Optional[asyncio.Task] = None
        self.write_paused = False
        self.eof = False

    def connection_made(self, transport) -> None:
        self.transport = transport
        self.node._connections.add(self)
        self.node.metrics.counter("connections_total").inc()
        self.node.metrics.gauge("connections_open").inc()

    def connection_lost(self, exc) -> None:
        self.node._connections.discard(self)
        self.node.metrics.gauge("connections_open").dec()
        self.backlog.clear()

    def data_received(self, data) -> None:
        self.backlog.extend(self.decoder.feed(data))
        self._pump()

    def eof_received(self) -> bool:
        # Half-closed by the peer: answer what it sent, then close.
        self.eof = True
        self._pump()
        return True

    def pause_writing(self) -> None:
        self.write_paused = True

    def resume_writing(self) -> None:
        self.write_paused = False
        self._pump()

    def _replied(self, task: asyncio.Task) -> None:
        self.task = None
        if not task.cancelled() and not self.transport.is_closing():
            self.transport.writelines(task.result())
            self._pump()

    def _pump(self) -> None:
        """Answer the backlog in order until it is empty or blocked."""
        node, backlog, transport = self.node, self.backlog, self.transport
        if transport.is_closing():
            return
        out: list = []
        size = 0
        while backlog and self.task is None and not self.write_paused:
            reply = node._reply(backlog.popleft().message)
            if isinstance(reply, asyncio.Task):
                self.task = reply
                reply.add_done_callback(self._replied)
                break
            out += reply
            size += sum(map(len, reply))
            if size >= _FLUSH_BYTES:
                transport.writelines(out)  # may pause writing, or fail
                out, size = [], 0
                if transport.is_closing():
                    return
        if out:
            transport.writelines(out)
        if self.task is not None or self.write_paused:
            transport.pause_reading()
        elif self.decoder.error is not None:
            # Unparseable bytes: answer once, typed, then drop the
            # connection -- framing is lost.
            node.metrics.counter("protocol_errors_total").inc()
            error = self.decoder.error
            transport.writelines(
                encode_reply_v2(None, error_response(0, error.code, str(error)))
            )
            transport.close()
        elif self.eof:
            transport.close()
        else:
            transport.resume_reading()


class ServingNode:
    """Lifecycle + framing + base verbs (``ping``/``stats``/``info``) for
    every process in the serving runtime."""

    #: overridden by subclasses; shows up in ``info`` and error messages
    role = "node"
    #: the verbs this node answers, each counted in ``requests_<verb>_total``;
    #: any other verb a peer names counts in ``requests_unknown_total``, so
    #: no peer can mint counters (every ``stats`` reply carries them all).
    verbs = frozenset({VERB_PING, VERB_STATS, VERB_INFO})

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
        self._connections: set[_Connection] = set()
        self._tasks: set[asyncio.Task] = set()  # replies of suspended requests
        self._loop: Optional[asyncio.AbstractEventLoop] = None
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
        self._loop = asyncio.get_running_loop()
        self._server = await self._loop.create_server(
            lambda: _Connection(self), self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self._started_at = self._loop.time()
        return self

    async def stop(self, drain_timeout: float = 1.0) -> None:
        """Graceful shutdown: close the listener, give pending requests
        ``drain_timeout`` seconds to finish, cancel what remains, then close
        every connection it accepted."""
        if self._server is None:
            return
        server, self._server = self._server, None
        server.close()
        if self._tasks:
            await asyncio.wait(set(self._tasks), timeout=drain_timeout)
        stragglers = list(self._tasks)
        for task in stragglers:
            task.cancel()
        if stragglers:
            await asyncio.gather(*stragglers, return_exceptions=True)
        for conn in list(self._connections):
            # Unsent replies past the drain period mean a peer that stopped
            # reading: abort, so it cannot hold the shutdown open.
            if conn.transport.get_write_buffer_size():
                conn.transport.abort()
            else:
                conn.transport.close()
        await server.wait_closed()

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        assert self._server is not None
        await self._server.serve_forever()

    # -- request handling ----------------------------------------------------

    def _reply(self, message: dict[str, Any]) -> Union[list, asyncio.Task]:
        """Serve one request now: its reply's wire parts, or -- when its
        handler suspends (``reload`` awaiting its load) -- the task that
        finishes it and returns them."""
        verb = message.get("verb")
        coro = self._serve_one(message)
        try:
            step = coro.send(None)
        except StopIteration as done:
            return self._encode_reply(verb, done.value)
        task = asyncio.ensure_future(self._finish(verb, coro, step))
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)
        return task

    async def _finish(self, verb: Any, coro, step) -> list:
        return self._encode_reply(verb, await _Suspended(coro, step))

    def _encode_reply(self, verb: Any, response: Any) -> list:
        """Render one reply to wire parts.

        A reply that cannot be rendered (over the frame cap, not JSON) is
        answered with a typed ``internal`` error instead: nothing has been
        written yet, so the connection's framing is intact and it stays up.
        """
        if isinstance(response, RawReply):
            return response.parts
        verb = verb if isinstance(verb, str) else None
        try:
            return encode_reply_v2(verb, response)
        except Exception as exc:  # noqa: BLE001 -- fault barrier per reply
            self.metrics.counter("errors_total").inc()
            error = error_response(
                response.get("id") if isinstance(response, dict) else None,
                "internal",
                f"reply not encodable: {type(exc).__name__}: {exc}",
            )
            return encode_reply_v2(verb, error)

    async def _serve_one(self, message: dict[str, Any]) -> Any:
        request_id = message.get("id")
        verb = message.get("verb")
        self.metrics.counter("requests_total").inc()
        served = isinstance(verb, str) and verb in self.verbs
        self.metrics.counter(f"requests_{verb}_total" if served else "requests_unknown_total").inc()
        clock = asyncio.get_running_loop().time
        started = clock()
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
                self.metrics.histogram("request_latency_s").observe(clock() - started)

    # -- to override ---------------------------------------------------------

    async def handle(self, verb: str, message: dict[str, Any], request_id: Any) -> Any:
        return error_response(request_id, "unknown-verb", f"unknown verb {verb!r}")

    def describe(self) -> dict[str, Any]:
        return {
            "role": self.role,
            "uptime_s": self._loop.time() - self._started_at if self._loop else 0.0,
            "max_inflight": self._max_inflight,
        }


class ResponseSlab:
    """One owner's ``query`` reply in an epoch: the v2 frame, payload and
    crc pre-rendered, so a hit packs only the 24-byte header carrying the
    request id.  Only point queries read or fill the slab; a
    ``query-batch`` is answered by the postings kernel alone.
    """

    __slots__ = ("owner_id", "epoch", "v2_frame")

    def __init__(self, owner_id: int, providers: list, epoch: int):
        self.owner_id = owner_id
        self.epoch = epoch
        self.v2_frame = prepared_response_v2(
            VERB_QUERY, {"owner": owner_id, "providers": providers, "epoch": epoch}
        )


class PPIServer(ServingNode):
    """The locator service: ``query`` / ``query-batch`` over one index shard.

    The index is static *within a publication epoch* (paper Sec. III-C):
    the same owner always yields the identical provider list until a
    ``reload`` hot-swaps in a newer snapshot.  The server therefore keeps
    an LRU of *pre-encoded* ``query`` frames per owner
    (``response_cache_size`` entries; 0 disables), so a hot owner's reply
    skips index lookup *and* encoding -- only the header carrying the
    request id is packed per frame.  A ``query-batch`` bypasses it: one
    kernel call gathers the whole reply.  Every cached payload embeds the
    epoch it was rendered under, and ``reload`` replaces the whole cache in
    the same event-loop step that swaps the index, so a post-swap request
    can never be answered with pre-swap bytes.  The
    ``response_cache_hits_total`` / ``response_cache_misses_total``
    counters of the ``stats`` verb count answered owners (every unique
    owner of a batch is a miss); swaps show in ``reloads_total`` and the
    ``epoch`` gauge.
    """

    role = "ppi-server"
    verbs = ServingNode.verbs | {VERB_QUERY, VERB_QUERY_BATCH, VERB_RELOAD}

    def __init__(
        self,
        index: PostingsIndex,
        shard: ShardSpec = ShardSpec(),
        host: str = "127.0.0.1",
        port: int = 0,
        max_inflight: int = 64,
        response_cache_size: int = 4096,
        snapshot_path: Optional[str] = None,
        epoch: int = 0,
    ):
        super().__init__(host=host, port=port, max_inflight=max_inflight)
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
            if not isinstance(owners, list) or not set(map(type, owners)) <= {int}:
                raise ValueError("'owners' must be a list of integer owner ids")
            return self._handle_batch(owners, request_id)
        if verb == VERB_RELOAD:
            return await self._handle_reload(message, request_id)
        return await super().handle(verb, message, request_id)

    def _handle_batch(self, owners: list, request_id: Any) -> Any:
        """A binary ``query-batch`` reply: the unique owners gathered by one
        kernel call, answered with the gather's three columns (one crc, five
        write parts).

        The slab is neither read nor filled: a batch hit costs what a miss
        does, and a cold batch lap must not evict the point-query hot set.
        Every unique owner counts as a slab miss.  ``lookup_columns``
        validates every owner (wrong shard / unknown id raise) before
        anything is counted.  No awaits on this path, so the lookup and the
        epoch belong to one event-loop step and the reply is
        epoch-consistent by construction (the same argument
        ``_handle_reload`` makes for the swap).
        """
        unique = list(dict.fromkeys(owners))
        columns = self.store.lookup_columns(unique)
        self.metrics.counter("response_cache_misses_total").inc(len(unique))
        self.metrics.counter("queries_served").inc(len(owners))
        return RawReply(batch_response_parts(request_id, self.epoch, *columns))

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
        applier can install its locally-folded snapshot without going over
        the wire.  Refuses to move the epoch backwards; an equal epoch
        re-installs the same snapshot.  No awaits: callers on the event
        loop get the same epoch-consistency argument as ``reload`` itself.
        """
        if epoch < self.epoch:
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
        if old is not index:
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
