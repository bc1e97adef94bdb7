"""One-call deployment of the locator service on a simulated LAN.

Runs the serving stack that ships -- one
:class:`~repro.serving.server.PPIServer`, a
:class:`~repro.serving.provider.ProviderEndpoint` per provider and a
:class:`~repro.serving.client.LocatorClient` per searcher (result cache off)
-- unmodified on a :class:`~repro.net.virtual.VirtualClockLoop`, and
returns per-query outcomes plus the aggregate network metrics.  Latencies
are virtual time: real frame bytes over the latency model, plus the
modelled per-message compute of :data:`COMPUTE_S`.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass

import numpy as np

from repro.core.authsearch import AccessControl, SearchOutcome
from repro.core.model import InformationNetwork, MembershipMatrix
from repro.core.postings import PostingsIndex
from repro.net.latency import EMULAB_LAN, LatencyModel
from repro.net.metrics import NetworkMetrics
from repro.net.virtual import VirtualClockLoop
from repro.serving.client import LocatorClient, RetryPolicy
from repro.serving.protocol_v2 import FLAG_RESPONSE, HEADER, VERB_NAMES
from repro.serving.provider import ProviderEndpoint
from repro.serving.server import PPIServer

__all__ = [
    "ConcurrentRun",
    "ServiceRun",
    "compute_recall",
    "run_concurrent_searchers",
    "run_locator_service",
]


def compute_recall(
    outcomes: list[SearchOutcome], matrix: MembershipMatrix
) -> float:
    """Fraction of searches that reached every reachable true provider.

    A search counts as recalled when its positive providers cover the
    owner's true provider set minus the providers the searcher was denied
    at or that failed outright (those are availability/authorization
    losses, not index losses).  Empty outcome lists score 1.0.
    """
    if not outcomes:
        return 1.0
    hits = [
        set(o.positive_providers) >= (
            matrix.providers_of(o.owner_id)
            - set(o.denied_providers)
            - set(o.failed_providers)
        )
        for o in outcomes
    ]
    return float(np.mean(hits))


@dataclass
class ServiceRun:
    """Everything produced by one simulated service session."""

    outcomes: list[SearchOutcome]
    metrics: NetworkMetrics
    queries_served: int
    recall: float  # fraction of queries that reached every true provider

    @property
    def mean_latency_s(self) -> float:
        if not self.outcomes:
            return 0.0
        return float(np.mean([o.latency_s for o in self.outcomes]))

    @property
    def mean_contacted(self) -> float:
        if not self.outcomes:
            return 0.0
        return float(np.mean([o.contacted for o in self.outcomes]))


#: Modelled CPU a host spends on one message it takes in, by kind: the
#: server's index lookup, a provider's authentication and ACL check, and the
#: searcher's handling of one AuthSearch reply (session setup, credential
#: presentation, response validation) -- what makes noise providers
#: expensive for the client even though the fan-out is parallel.
COMPUTE_S = {"query": 1e-5, "search": 5e-5, "search-reply": 2e-4}


def _classify(data: bytes) -> tuple[str, float]:
    """A frame's kind (its verb, ``-reply`` for a response) and compute."""
    _, _, verb_id, flags, *_ = HEADER.unpack_from(data)
    kind = VERB_NAMES.get(verb_id, "extended")
    if flags & FLAG_RESPONSE:
        kind += "-reply"
    return kind, COMPUTE_S.get(kind, 0.0)


def _deploy(
    loop: VirtualClockLoop,
    network: InformationNetwork,
    index: PostingsIndex,
    query_lists: list[list[int]],
    searcher_name: str = "searcher",
    acls: dict[int, AccessControl] | None = None,
    retry: RetryPolicy = RetryPolicy(max_retries=3, timeout_s=0.05),
) -> tuple[list[list[SearchOutcome]], int]:
    """Run one :class:`PPIServer`, an endpoint per provider and one
    :class:`LocatorClient` per query list on ``loop``: every list's
    outcomes, and the queries the server answered.  A provider missing from
    ``acls`` trusts ``searcher_name``."""

    async def searcher(i: int, queries: list[int], server, providers):
        loop.act_as(f"searcher-{i}")
        client = LocatorClient(
            [server], providers, name=searcher_name, retry=retry, cache_size=0
        )
        try:
            return [await client.search(owner_id) for owner_id in queries]
        finally:
            await client.close()

    async def main():
        server = await PPIServer(index).start()
        endpoints = [
            await ProviderEndpoint(
                provider, (acls or {}).get(pid, AccessControl(trusted={searcher_name}))
            ).start()
            for pid, provider in enumerate(network.providers)
        ]
        providers = {pid: ep.address for pid, ep in enumerate(endpoints)}
        try:
            outcomes = await asyncio.gather(*(
                searcher(i, queries, server.address, providers)
                for i, queries in enumerate(query_lists)
            ))
            loop.metrics.observe_time(loop.time())
        finally:
            for node in [server, *endpoints]:
                await node.stop()
        return outcomes, server.metrics.counter("queries_served").value

    try:
        return loop.run_until_complete(main())
    finally:
        loop.close()


def run_locator_service(
    network: InformationNetwork,
    index: PostingsIndex,
    queries: list[int],
    searcher_name: str = "searcher",
    acls: dict[int, AccessControl] | None = None,
    latency: LatencyModel = EMULAB_LAN,
    loss_probability: float = 0.0,
    loss_seed: int = 0,
    timeout_s: float = 0.05,
    max_retries: int = 3,
) -> ServiceRun:
    """Deploy and drive the two-phase search service for ``queries``.

    With ``acls=None`` the searcher is trusted everywhere (the paper's
    assumption that authorization has been set up out of band).
    ``loss_probability`` injects message loss; the searcher's timeout/retry
    machinery (``timeout_s``, ``max_retries``) must then recover.
    ``queries_served`` counts every query the server answered, retries
    included.
    """
    loop = VirtualClockLoop(latency, loss_probability, loss_seed, _classify)
    retry = RetryPolicy(max_retries=max_retries, timeout_s=timeout_s)
    [outcomes], served = _deploy(
        loop, network, index, [queries], searcher_name, acls, retry
    )
    return ServiceRun(
        outcomes=outcomes,
        metrics=loop.metrics,
        queries_served=served,
        recall=compute_recall(outcomes, network.membership_matrix()),
    )


@dataclass
class ConcurrentRun:
    """Aggregate of a multi-searcher session."""

    per_searcher: list[ServiceRun]
    metrics: NetworkMetrics

    @property
    def total_queries(self) -> int:
        return sum(len(r.outcomes) for r in self.per_searcher)

    @property
    def mean_latency_s(self) -> float:
        latencies = [
            o.latency_s for r in self.per_searcher for o in r.outcomes
        ]
        return float(np.mean(latencies)) if latencies else 0.0

    @property
    def throughput_qps(self) -> float:
        if self.metrics.finish_time_s <= 0:
            return 0.0
        return self.total_queries / self.metrics.finish_time_s


def run_concurrent_searchers(
    network: InformationNetwork,
    index: PostingsIndex,
    query_lists: list[list[int]],
    latency: LatencyModel = EMULAB_LAN,
) -> ConcurrentRun:
    """Drive several searchers against one PPI server simultaneously.

    Models service load: the single-threaded server (and each provider)
    serializes its request handling, so concurrent searchers contend for
    server compute -- the throughput/latency trade-off reported by
    ``benchmarks/bench_service_load.py``.
    """
    loop = VirtualClockLoop(latency, classify=_classify)
    outcome_lists, _ = _deploy(loop, network, index, query_lists)
    matrix = network.membership_matrix()
    runs = [
        ServiceRun(
            outcomes=outcomes,
            metrics=loop.metrics,
            queries_served=len(outcomes),
            recall=compute_recall(outcomes, matrix),
        )
        for outcomes in outcome_lists
    ]
    return ConcurrentRun(per_searcher=runs, metrics=loop.metrics)
