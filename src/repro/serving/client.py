"""The searcher's client library for the serving runtime.

Drives the paper's two-phase search over real TCP:

1. ``QueryPPI``: ask the (sharded) PPI server fleet for the obscured
   provider list of an owner;
2. ``AuthSearch``: fan out to every candidate provider concurrently,
   authenticate, collect records.

Operational machinery the simulator never needed:

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

A provider that stays unreachable after retries is *recorded* in
``SearchReport.failed_providers`` rather than failing the search: partial
availability degrades coverage, not liveness.
"""

from __future__ import annotations

import asyncio
import itertools
import random
import time
import zlib
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Optional

from repro.core.model import Record
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
    request,
)
from repro.serving.protocol_v2 import encode_request_v2, read_any_frame
from repro.serving.provider import record_from_wire
from repro.serving.server import shard_of

__all__ = [
    "Address",
    "ConnectionPool",
    "LocatorClient",
    "LRUCache",
    "RetryPolicy",
    "SearchReport",
    "TransportError",
]

Address = tuple  # (host, port)


class TransportError(Exception):
    """Request failed at the transport layer after exhausting retries."""


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


@dataclass
class SearchReport:
    """Outcome of one two-phase search over the real network.

    Mirrors :class:`repro.service.nodes.SearchOutcome` so simulator and
    serving results are comparable side by side.
    """

    owner_id: int
    records: list[Record] = field(default_factory=list)
    positive_providers: list[int] = field(default_factory=list)
    noise_providers: list[int] = field(default_factory=list)
    denied_providers: list[int] = field(default_factory=list)
    failed_providers: list[int] = field(default_factory=list)
    retries: int = 0
    latency_s: float = 0.0

    @property
    def contacted(self) -> int:
        return (
            len(self.positive_providers)
            + len(self.noise_providers)
            + len(self.denied_providers)
            + len(self.failed_providers)
        )

    @property
    def found(self) -> bool:
        return bool(self.records)


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

    async def _request_once(self, addr: Address, message: dict) -> dict:
        conn = await self.pool.acquire(addr)
        reader, writer = conn
        try:
            writer.write(encode_request_v2(message))
            await writer.drain()
            response = await read_any_frame(reader)
        except BaseException:
            # Includes CancelledError from wait_for timeout: the connection
            # has an orphaned in-flight request, never reuse it.
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
        if response.get("id") != message["id"]:
            self.pool.discard(conn)
            raise ProtocolError(
                f"response id {response.get('id')!r} != request id {message['id']}"
            )
        self.pool.release(addr, conn)
        return response

    async def call(self, addr: Address, verb: str, **fields: Any) -> dict:
        """One verb against one endpoint, with timeout + backoff retries.

        Transport-level failures (refused/reset connections, timeouts,
        garbled frames) are retried; application-level errors
        (:class:`RemoteError`) are not -- the service answered.
        """
        last_exc: Optional[Exception] = None
        for attempt in range(self.retry.max_retries + 1):
            if attempt:
                self.retries_total += 1
                await asyncio.sleep(self.retry.backoff_s(attempt - 1, self._rng))
            message = request(verb, next(self._request_ids), **fields)
            try:
                response = await asyncio.wait_for(
                    self._request_once(addr, message),
                    timeout=self.retry.timeout_s,
                )
                result = raise_for_response(response)
                epoch = result.get("epoch")
                if isinstance(epoch, int) and not isinstance(epoch, bool):
                    # Latest observation wins: this is what read-your-epoch
                    # replica selection consults, not a high-water mark.
                    self.addr_epochs[addr] = epoch
                return result
            except (OSError, asyncio.TimeoutError, ProtocolError) as exc:
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
        if len(replicas) == 1:
            return list(replicas)
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
        order = self._replica_order(owner_key, self.replica_sets[shard])
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
                len(order) > 1
                and isinstance(epoch, int)
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
        providers = [int(p) for p in response["providers"]]
        self.cache.put(owner_id, (epoch, providers))
        return list(providers)

    async def query_batch(self, owner_ids: list[int]) -> dict[int, list[int]]:
        """Many ``QueryPPI`` calls, one round trip per shard.

        The hot loop trusts the codec: the binary decoder and its JSON
        fallback both yield ``list[int]`` provider lists, so no per-element
        re-conversion happens here -- at wire-saturating batch rates that
        pass would dominate the client's CPU.  Only the owner keys are
        converted (the decoded message keys them as strings).
        """
        results: dict[int, list[int]] = {}
        by_shard: dict[int, list[int]] = {}
        caching = self.cache.capacity > 0
        n_shards = len(self.servers)
        if n_shards == 1:
            # Single-shard fleet: no routing to compute, one chunk.
            if caching:
                misses = []
                for oid in owner_ids:
                    cached = self._cache_get(oid)
                    if cached is not None:
                        results[oid] = list(cached)
                    else:
                        misses.append(oid)
            else:
                misses = list(owner_ids)
            if misses:
                by_shard[0] = misses
        else:
            for oid in owner_ids:
                cached = self._cache_get(oid) if caching else None
                if cached is not None:
                    results[oid] = list(cached)
                else:
                    by_shard.setdefault(shard_of(oid, n_shards), []).append(oid)

        async def _one(owners: list[int]) -> tuple[int, dict]:
            # Routing key: every owner in the chunk lives on the same shard.
            epoch, response = await self._query_routed(
                VERB_QUERY_BATCH, owners[0], owners=owners
            )
            return epoch, response["results"]

        shard_results = await asyncio.gather(
            *(_one(owners) for owners in by_shard.values())
        )
        for epoch, chunk in shard_results:
            for oid, providers in chunk.items():
                oid = int(oid)
                if caching:
                    # The cache owns its own copy; the caller gets the
                    # decoded list itself (the response dict is dropped).
                    self.cache.put(oid, (epoch, list(providers)))
                results[oid] = providers
        return results

    # -- phase 2: AuthSearch --------------------------------------------------

    async def _auth_search_one(
        self, report: SearchReport, pid: int
    ) -> None:
        addr = self.providers.get(pid)
        if addr is None:
            report.failed_providers.append(pid)
            return
        before = self.retries_total
        try:
            response = await self.call(
                addr, VERB_SEARCH, searcher=self.name, owner=report.owner_id
            )
        except (TransportError, RemoteError):
            report.retries += self.retries_total - before
            report.failed_providers.append(pid)
            return
        report.retries += self.retries_total - before
        if response["status"] == "denied":
            report.denied_providers.append(pid)
        elif response["records"]:
            report.positive_providers.append(pid)
            report.records.extend(record_from_wire(r) for r in response["records"])
        else:
            report.noise_providers.append(pid)

    async def search(self, owner_id: int) -> SearchReport:
        """The full two-phase search: QueryPPI then parallel AuthSearch."""
        started = time.monotonic()
        report = SearchReport(owner_id=owner_id)
        before = self.retries_total
        try:
            candidates = await self.query(owner_id)
        except (TransportError, RemoteError):
            report.retries = self.retries_total - before
            report.latency_s = time.monotonic() - started
            return report
        report.retries = self.retries_total - before
        await asyncio.gather(
            *(self._auth_search_one(report, pid) for pid in candidates)
        )
        report.positive_providers.sort()
        report.noise_providers.sort()
        report.denied_providers.sort()
        report.failed_providers.sort()
        report.latency_s = time.monotonic() - started
        return report

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
