"""The searcher's client library for the serving runtime.

Drives the paper's two-phase search over real TCP:

1. ``QueryPPI``: ask the (sharded) PPI server fleet for the obscured
   provider list of an owner;
2. ``AuthSearch``: fan out to every candidate provider concurrently,
   authenticate, collect records.

The same client runs over real sockets and, for the simulated
deployment of :mod:`repro.service`, on the virtual-clock loop of
:mod:`repro.net.virtual` (``latency_s`` reads the running loop's clock).
Its operational machinery:

* **connection pooling** -- per-address pools of open connections, so a
  closed-loop worker reuses one socket instead of paying connect() per
  request;
* **timeouts + retries** -- every request has a deadline; transport
  failures are retried with capped exponential backoff and full jitter
  (:class:`RetryPolicy`), safe because the service side is idempotent;
* **batching** -- ``query_batch`` groups owners by shard and resolves each
  shard's batch in one round trip;
* **result caching** -- a bounded LRU over ``QueryPPI`` results.  The
  published index is static within a publication epoch (paper Sec. III-C:
  repeated queries return the identical list), which is what makes this
  cache sound; every server response carries its serving ``epoch``, and
  the first response from a newer epoch invalidates every older cached
  entry at once (entries are epoch-tagged, ``fleet_epoch`` is the high
  -water mark), so a rolling fleet reload can never pin a stale result;
* **shard re-routing** -- a ``wrong-shard`` answer (servers list out of
  shard order, or a re-sharded fleet) triggers a routing-table refresh
  from the fleet's own ``info`` verbs plus a retry at the shard the error
  named, so a misrouted client self-corrects instead of failing.

A search returns the :class:`~repro.core.authsearch.SearchOutcome` every
searcher returns.  A provider that stays unreachable after retries is
*recorded* in its ``failed_providers`` rather than failing the search:
partial availability degrades coverage, not liveness.
"""

from __future__ import annotations

import asyncio
import contextvars
import itertools
import random
import zlib
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Optional

from repro.core.authsearch import SearchOutcome
from repro.serving.protocol import (
    VERB_INFO,
    VERB_PING,
    VERB_QUERY,
    VERB_QUERY_BATCH,
    VERB_SEARCH,
    VERB_STATS,
    ProtocolError,
    RemoteError,
    raise_for_response,
)
from repro.serving.protocol_v2 import DecodeError, encode_frame_v2, read_any_frame
from repro.serving.provider import record_from_wire
from repro.serving.server import shard_of

__all__ = [
    "Address",
    "ConnectionPool",
    "LocatorClient",
    "LRUCache",
    "RetryPolicy",
    "TransportError",
]

Address = tuple  # (host, port)

#: the retry tally (a one-element list) of the ``search`` running in this
#: task; the tasks a search fans out to copy the context and share it.
_search_retries: "contextvars.ContextVar[Optional[list]]" = contextvars.ContextVar(
    "search_retries", default=None
)


class TransportError(Exception):
    """Request failed at the transport layer after exhausting retries."""


class _AttemptDeadline:
    """Bound the ``with`` body to ``timeout_s`` inside the current task.

    ``asyncio.wait_for`` before Python 3.12 runs its awaitable in a new
    Task (a second wake-up per request); this arms one timer that cancels
    the caller's own task instead.  A ``CancelledError`` the timer caused
    leaves as ``asyncio.TimeoutError``; any other cancel propagates as is.
    Where ``Task.uncancel`` exists (3.11+) the timer's cancel request is
    withdrawn, so an enclosing ``asyncio.timeout`` or TaskGroup still sees
    the task's own cancel count.
    """

    __slots__ = ("_task", "_timer", "_cancelling", "_expired")

    def __init__(self, timeout_s: float):
        self._task = task = asyncio.current_task()
        self._cancelling = getattr(task, "cancelling", lambda: 0)()
        self._expired = False
        self._timer = task.get_loop().call_later(timeout_s, self._expire)

    def _expire(self) -> None:
        self._expired = True
        self._task.cancel()

    def __enter__(self) -> "_AttemptDeadline":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self._timer.cancel()
        if not self._expired:
            return
        uncancel = getattr(self._task, "uncancel", None)
        # A cancel requested by someone else too is theirs: let it through.
        others = uncancel() > self._cancelling if uncancel is not None else False
        if exc_type is asyncio.CancelledError and not others:
            raise asyncio.TimeoutError(
                "request attempt exceeded its deadline"
            ) from exc


@dataclass(frozen=True)
class RetryPolicy:
    """Capped exponential backoff with full jitter.

    Attempt ``k`` (0-based) sleeps ``uniform(0, min(max_delay, base_delay *
    2**k))`` before retrying -- the AWS "full jitter" scheme, which avoids
    synchronized retry storms across a worker fleet.
    """

    max_retries: int = 3
    timeout_s: float = 2.0
    base_delay_s: float = 0.02
    max_delay_s: float = 0.5

    def __post_init__(self) -> None:
        if self.max_retries < 0 or self.timeout_s <= 0:
            raise ValueError("max_retries must be >= 0 and timeout_s > 0")

    def backoff_s(self, attempt: int, rng: random.Random) -> float:
        cap = min(self.max_delay_s, self.base_delay_s * (2**attempt))
        return rng.uniform(0.0, cap)


class LRUCache:
    """Bounded least-recently-used map; ``capacity=0`` disables caching."""

    def __init__(self, capacity: int):
        if capacity < 0:
            raise ValueError("capacity must be >= 0")
        self.capacity = capacity
        self.hits = 0
        self.misses = 0
        self._data: "OrderedDict[Any, Any]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._data)

    def get(self, key: Any) -> Optional[Any]:
        if key in self._data:
            self._data.move_to_end(key)
            self.hits += 1
            return self._data[key]
        self.misses += 1
        return None

    def put(self, key: Any, value: Any) -> None:
        if self.capacity == 0:
            return
        self._data[key] = value
        self._data.move_to_end(key)
        while len(self._data) > self.capacity:
            self._data.popitem(last=False)


class ConnectionPool:
    """Per-address pools of open ``(reader, writer)`` stream pairs."""

    def __init__(self, max_idle_per_host: int = 8):
        self.max_idle_per_host = max_idle_per_host
        self._idle: dict[Address, list] = {}

    async def acquire(self, addr: Address):
        idle = self._idle.get(addr)
        while idle:
            reader, writer = idle.pop()
            if not writer.is_closing():
                return reader, writer
            writer.close()
        host, port = addr
        return await asyncio.open_connection(host, port)

    def release(self, addr: Address, conn) -> None:
        reader, writer = conn
        idle = self._idle.setdefault(addr, [])
        if writer.is_closing() or len(idle) >= self.max_idle_per_host:
            writer.close()
            return
        idle.append(conn)

    def discard(self, conn) -> None:
        _, writer = conn
        writer.close()

    async def close(self) -> None:
        for idle in self._idle.values():
            for _, writer in idle:
                writer.close()
        self._idle.clear()


class LocatorClient:
    """A searcher: pooled, retrying, caching client of the serving fleet.

    ``servers`` lists one entry per shard, *in shard order* (owner ``j``
    is served by shard ``j % len(servers)``).  An entry is either one
    address or a *replica set* -- a list of addresses all hosting that
    shard (a geo-replicated read tier).  Within a set the client routes by
    rendezvous (highest-random-weight) hashing on the owner id: stable
    per-owner affinity, and a failed replica redistributes only its own
    owners.  Read-your-epoch consistency across replicas rides a high-water
    mark per shard, ``shard_epochs``: a replica whose last-seen epoch lags
    its shard's mark is skipped, and a response carrying an older epoch is
    *rejected* and retried on the next replica -- a client that has seen
    epoch ``E`` from a shard never reads that shard's pre-``E`` state, even
    while followers are still catching up.  Per shard, because a rolling
    rollout moves shards one at a time; ``fleet_epoch`` only guards the
    cache.  ``providers`` maps provider id to that provider's endpoint
    address; it may cover only the providers this searcher can reach.
    """

    def __init__(
        self,
        servers: list[Address],
        providers: Optional[dict[int, Address]] = None,
        name: str = "searcher",
        retry: RetryPolicy = RetryPolicy(),
        cache_size: int = 1024,
        max_idle_per_host: int = 8,
        rng_seed: int = 0,
        protocol: str = "v2",
    ):
        if not servers:
            raise ValueError("need at least one server address")
        # ``protocol`` is kept only for benchmarks/e2e (reads.py, churn.py).
        if protocol != "v2":
            raise ValueError(f"protocol must be 'v2', got {protocol!r}")
        #: one replica set per shard; a bare address is a singleton set
        self.replica_sets = [self._as_replica_set(e) for e in servers]
        self.servers = [rs[0] for rs in self.replica_sets]
        self.providers = {int(k): tuple(v) for k, v in (providers or {}).items()}
        self.name = name
        self.retry = retry
        self.cache = LRUCache(cache_size)
        self.pool = ConnectionPool(max_idle_per_host=max_idle_per_host)
        self.retries_total = 0
        self.wrong_shard_reroutes = 0
        self.routing_refreshes = 0
        #: highest publication epoch seen in any server response; cache
        #: entries tagged with an older epoch are treated as misses.
        self.fleet_epoch = 0
        self.epoch_invalidations = 0
        #: highest epoch each shard (by index into ``replica_sets``) has
        #: answered with: the floor its replicas' answers are held to.
        self.shard_epochs: dict[int, int] = {}
        #: last epoch each address answered with (read-your-epoch routing)
        self.addr_epochs: dict[Address, int] = {}
        self.stale_replica_skips = 0
        self._rng = random.Random(rng_seed)
        self._request_ids = itertools.count(1)

    @staticmethod
    def _as_replica_set(entry) -> list[Address]:
        """Normalize one ``servers`` entry: address or list of addresses."""
        entry = list(entry)
        if not entry:
            raise ValueError("a replica set must hold at least one address")
        if isinstance(entry[0], (list, tuple)):
            return [tuple(a) for a in entry]
        return [tuple(entry)]

    # -- transport ------------------------------------------------------------

    async def _request_once(
        self, addr: Address, verb: str, request_id: int, fields: dict
    ) -> dict:
        frame = encode_frame_v2(verb, request_id, fields)
        conn = await self.pool.acquire(addr)
        reader, writer = conn
        try:
            writer.write(frame)
            if writer.transport.get_write_buffer_size():
                await writer.drain()  # backpressure only when the kernel pushed back
            response = await read_any_frame(reader)
        except BaseException:
            # Includes the CancelledError of an expired _AttemptDeadline or
            # of an outside cancel: the connection has an orphaned in-flight
            # request, never reuse it.
            self.pool.discard(conn)
            raise
        if response.get("ok") is False and response.get("id") == 0:
            # A decode-stage error frame (bad crc, bad magic, ...):
            # the server failed before it could parse a request id, so the
            # echo cannot match ours (ids start at 1).  Surface the typed
            # error instead of retrying an "id mismatch".  The server drops
            # the connection after such a frame; never pool it.
            self.pool.discard(conn)
            return response
        if response.get("id") != request_id:
            self.pool.discard(conn)
            raise ProtocolError(
                f"response id {response.get('id')!r} != request id {request_id}"
            )
        self.pool.release(addr, conn)
        return response

    async def call(self, addr: Address, verb: str, **fields: Any) -> dict:
        """One verb against one endpoint, with timeout + backoff retries.

        Each attempt (connect, write, read) has ``retry.timeout_s`` and runs
        in the caller's task: no task is spawned per request.  Transport
        failures (refused/reset connections, timeouts, garbled frames) are
        retried; application-level errors (:class:`RemoteError`) are not --
        the service answered.  Nor is a reply whose frame checked out but
        whose body the decoder refused (``bad-payload``): the peer sent it
        as meant and would send it again, so it fails at once as a
        :class:`TransportError`.  A cancel from outside propagates.
        """
        last_exc: Optional[Exception] = None
        for attempt in range(self.retry.max_retries + 1):
            if attempt:
                self.retries_total += 1
                tally = _search_retries.get()
                if tally is not None:
                    tally[0] += 1
                await asyncio.sleep(self.retry.backoff_s(attempt - 1, self._rng))
            try:
                with _AttemptDeadline(self.retry.timeout_s):
                    response = await self._request_once(
                        addr, verb, next(self._request_ids), fields
                    )
                result = raise_for_response(response)
                epoch = result.get("epoch")
                if isinstance(epoch, int) and not isinstance(epoch, bool):
                    # Latest observation wins: this is what read-your-epoch
                    # replica selection consults, not a high-water mark.
                    self.addr_epochs[addr] = epoch
                return result
            except (OSError, asyncio.TimeoutError, ProtocolError) as exc:
                if isinstance(exc, DecodeError) and exc.code == "bad-payload":
                    raise TransportError(
                        f"{verb} to {addr[0]}:{addr[1]} refused its reply: {exc}"
                    ) from exc
                last_exc = exc
        raise TransportError(
            f"{verb} to {addr[0]}:{addr[1]} failed after "
            f"{self.retry.max_retries + 1} attempts: {last_exc}"
        ) from last_exc

    # -- phase 1: QueryPPI ----------------------------------------------------

    def server_for(self, owner_id: int) -> Address:
        shard = shard_of(owner_id, len(self.replica_sets))
        order = self._replica_order(owner_id, self.replica_sets[shard])
        return next((a for a in order if self._caught_up(a, shard)), order[0])

    def _replica_order(self, owner_id: int, replicas: list[Address]) -> list[Address]:
        """Rendezvous order: every client ranks ``(replica, owner)`` pairs
        by the same keyless hash, so an owner maps to the same replica
        fleet-wide, and removing a replica moves only that replica's
        owners (the consistent-hashing property)."""
        return sorted(
            replicas,
            key=lambda a: zlib.crc32(f"{a[0]}:{a[1]}|{owner_id}".encode()),
            reverse=True,
        )

    def _caught_up(self, addr: Address, shard: int) -> bool:
        """Never seen, or last answered at/past its shard's high-water."""
        mark = self.shard_epochs.get(shard, 0)
        return self.addr_epochs.get(addr, mark) >= mark

    async def _call_shard(
        self, shard: int, owner_key: int, verb: str, **fields: Any
    ) -> tuple[int, dict]:
        """One query verb against a shard's replica set, read-your-epoch:
        ``(epoch, answer)``, the epoch noted by :meth:`_note_epoch`.

        Replicas are tried in rendezvous order, caught-up ones first.  A
        response carrying an epoch older than the shard's mark is rejected
        (the replica is still catching up -- serving it would time-travel a
        client that already saw newer state) and the next replica is tried;
        a replica that is down fails over the same way.  ``RemoteError``
        propagates: the service answered, and ``wrong-shard`` recovery
        belongs to the caller.
        """
        replicas = self.replica_sets[shard]
        if len(replicas) == 1:
            # Nothing to rank or fail over to, and no other replica can be
            # behind this one: answer directly.
            response = await self.call(replicas[0], verb, **fields)
            return self._note_epoch(response, shard), response
        order = self._replica_order(owner_key, replicas)
        candidates = [a for a in order if self._caught_up(a, shard)]
        candidates += [a for a in order if a not in candidates]
        last_exc: Optional[Exception] = None
        for addr in candidates:
            try:
                response = await self.call(addr, verb, **fields)
            except TransportError as exc:
                last_exc = exc
                continue
            epoch = response.get("epoch")
            if (
                isinstance(epoch, int)
                and not isinstance(epoch, bool)
                and epoch < self.shard_epochs.get(shard, 0)
            ):
                self.stale_replica_skips += 1
                continue
            return self._note_epoch(response, shard), response
        if last_exc is not None:
            raise last_exc
        raise TransportError(
            f"no replica of shard {shard} has caught up to epoch "
            f"{self.shard_epochs.get(shard, 0)}"
        )

    @staticmethod
    def _wrong_shard_target(exc: RemoteError, n_servers: int) -> Optional[int]:
        """The shard id named by a ``wrong-shard`` error, if usable."""
        if exc.code != "wrong-shard":
            return None
        shard = exc.detail.get("shard")
        if isinstance(shard, bool) or not isinstance(shard, int):
            return None
        return shard if 0 <= shard < n_servers else None

    async def refresh_routing(self) -> bool:
        """Rebuild the shard->address table from the servers' own ``info``.

        A ``wrong-shard`` answer means our ``servers`` list is not in shard
        order (misconfiguration, or a fleet that re-assigned shards).  Each
        server knows which shard it hosts, so asking every one of them and
        reordering is a full recovery -- provided the fleet is complete and
        consistent; otherwise the table is left untouched and the caller
        falls back to the shard named in the error.
        """
        # Snapshot the table: a concurrent refresh may replace the sets
        # between the gather and the zip, and pairing fresh infos with a
        # reordered list would corrupt the table back.
        known = list(dict.fromkeys(a for rs in self.replica_sets for a in rs))
        infos = await asyncio.gather(
            *(self.info(addr) for addr in known), return_exceptions=True
        )
        by_shard: dict[int, list[Address]] = {}
        n_shards: Optional[int] = None
        for addr, info in zip(known, infos):
            if isinstance(info, BaseException) or not isinstance(info, dict):
                continue  # down mid-refresh: its shard's survivors carry on
            shard_id, n = info.get("shard_id"), info.get("n_shards")
            if not isinstance(shard_id, int) or not isinstance(n, int):
                continue
            n_shards = n if n_shards is None else n_shards
            if n == n_shards and addr not in by_shard.get(shard_id, []):
                by_shard.setdefault(shard_id, []).append(addr)
        if n_shards is None or set(by_shard) != set(range(n_shards)):
            return False  # a shard has no live server: keep the old table
        self.replica_sets = [by_shard[i] for i in range(n_shards)]
        self.servers = [rs[0] for rs in self.replica_sets]
        self.routing_refreshes += 1
        return True

    async def _query_routed(
        self, verb: str, owner_key: int, **fields: Any
    ) -> tuple[int, dict]:
        """One query verb with ``wrong-shard`` recovery: ``(epoch, answer)``.

        On a ``wrong-shard`` answer, refresh the routing table from the
        fleet and retry once against the shard the error named -- after a
        successful refresh that shard's replica set *is* authoritative, and
        without one the named index into the existing table is still the
        server's best hint.
        """
        home = shard_of(owner_key, len(self.replica_sets))
        try:
            return await self._call_shard(home, owner_key, verb, **fields)
        except RemoteError as exc:
            shard = self._wrong_shard_target(exc, len(self.replica_sets))
            if shard is None:
                raise
            self.wrong_shard_reroutes += 1
            await self.refresh_routing()
            shard = min(shard, len(self.replica_sets) - 1)
            return await self._call_shard(shard, owner_key, verb, **fields)

    def _note_epoch(self, response: dict, shard: int) -> int:
        """Track the publication epoch ``shard`` answered with, and the
        fleet's: bumping the latter invalidates every cache entry tagged
        with an older epoch (lazily, on get)."""
        epoch = response.get("epoch", 0)
        if not isinstance(epoch, int) or isinstance(epoch, bool):
            epoch = 0
        if epoch > self.shard_epochs.get(shard, 0):
            self.shard_epochs[shard] = epoch
        if epoch > self.fleet_epoch:
            self.fleet_epoch = epoch
            self.epoch_invalidations += 1
        return epoch

    def _cache_get(self, owner_id: int) -> Optional[list]:
        """A hit must be at least as new as the newest epoch ever seen."""
        entry = self.cache.get(owner_id)
        if entry is None:
            return None
        epoch, providers = entry
        if epoch < self.fleet_epoch:
            return None  # pre-swap entry: refetch from the fleet
        return providers

    async def query(self, owner_id: int) -> list[int]:
        """``QueryPPI(t)``: the obscured provider list, through the cache."""
        cached = self._cache_get(owner_id)
        if cached is not None:
            return list(cached)
        epoch, response = await self._query_routed(VERB_QUERY, owner_id, owner=owner_id)
        # The decoder guarantees a fresh list of ints, whichever form arrived.
        providers = response["providers"]
        if self.cache.capacity:
            self.cache.put(owner_id, (epoch, list(providers)))
        return providers

    async def query_batch(self, owner_ids: list[int]) -> dict[int, list[int]]:
        """Many ``QueryPPI`` calls, one round trip per shard.

        The hot loop trusts the codec: the decoded reply already maps
        ``int`` owner ids to ``list[int]`` provider lists (binary form and
        JSON fallback alike), so on a single-shard fleet without a cache
        it is returned as-is -- at wire-saturating batch rates any
        per-owner pass here would dominate the client's CPU.
        """
        caching = self.cache.capacity > 0
        n_shards = len(self.replica_sets)
        if n_shards == 1 and not caching:
            # One chunk, nothing to merge: the decoded reply is the answer.
            return (await self._query_chunk(list(owner_ids)))[1] if owner_ids else {}
        results: dict[int, list[int]] = {}
        by_shard: dict[int, list[int]] = {}
        for oid in owner_ids:
            cached = self._cache_get(oid) if caching else None
            if cached is not None:
                results[oid] = list(cached)
            else:
                by_shard.setdefault(shard_of(oid, n_shards), []).append(oid)
        chunks = await asyncio.gather(
            *(self._query_chunk(owners) for owners in by_shard.values())
        )
        for epoch, chunk in chunks:
            if caching:
                for oid, providers in chunk.items():
                    # The cache owns its own copy; the caller gets the
                    # decoded list itself (the response dict is dropped).
                    self.cache.put(oid, (epoch, list(providers)))
            results.update(chunk)
        return results

    async def _query_chunk(self, owners: list[int]) -> tuple[int, dict]:
        """One shard's ``query-batch``: ``(epoch, results)``."""
        # Routing key: every owner in the chunk lives on the same shard.
        epoch, response = await self._query_routed(
            VERB_QUERY_BATCH, owners[0], owners=owners
        )
        return epoch, response["results"]

    # -- phase 2: AuthSearch --------------------------------------------------

    async def _auth_search_one(self, outcome: SearchOutcome, pid: int) -> None:
        """File provider ``pid``'s answer, or file it as failed: unreachable,
        an error reply, or records of an owner other than the one searched
        for (the decoder already refused any other malformed reply)."""
        addr = self.providers.get(pid)
        response = None
        if addr is not None:
            try:
                response = await self.call(
                    addr, VERB_SEARCH, searcher=self.name, owner=outcome.owner_id
                )
            except (TransportError, RemoteError):
                pass
        records = [] if response is None else [record_from_wire(r) for r in response["records"]]
        if response is None or any(r.owner_id != outcome.owner_id for r in records):
            outcome.failed_providers.append(pid)
        else:
            outcome.add(pid, response["status"], records)

    async def search(self, owner_id: int) -> SearchOutcome:
        """The full two-phase search: QueryPPI then parallel AuthSearch.

        ``retries`` counts this search's own retries, not those of other
        requests on the client meanwhile (``retries_total`` counts all).
        """
        clock = asyncio.get_running_loop()
        started = clock.time()
        outcome = SearchOutcome(owner_id=owner_id)
        tally = [0]
        token = _search_retries.set(tally)
        try:
            try:
                candidates = await self.query(owner_id)
            except (TransportError, RemoteError):
                candidates = []
            await asyncio.gather(
                *(self._auth_search_one(outcome, pid) for pid in candidates)
            )
        finally:
            _search_retries.reset(token)
        outcome.retries = tally[0]
        outcome.positive_providers.sort()
        outcome.noise_providers.sort()
        outcome.denied_providers.sort()
        outcome.failed_providers.sort()
        outcome.latency_s = clock.time() - started
        return outcome

    # -- operational verbs ----------------------------------------------------

    async def ping(self, addr: Address) -> bool:
        try:
            await self.call(addr, VERB_PING)
            return True
        except TransportError:
            return False

    async def stats(self, addr: Address) -> dict:
        return (await self.call(addr, VERB_STATS))["stats"]

    async def info(self, addr: Address) -> dict:
        response = await self.call(addr, VERB_INFO)
        return {k: v for k, v in response.items() if k not in ("id", "ok")}

    async def close(self) -> None:
        await self.pool.close()
