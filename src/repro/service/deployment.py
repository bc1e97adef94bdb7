"""One-call deployment of the locator service on the network simulator.

Wires a constructed index, the provider fleet and a searcher into a
:class:`~repro.net.simulator.Simulator` and runs a query workload, returning
per-query outcomes plus the aggregate network metrics.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.authsearch import AccessControl
from repro.core.model import InformationNetwork
from repro.core.postings import PostingsIndex
from repro.net.latency import EMULAB_LAN, LatencyModel
from repro.net.metrics import NetworkMetrics
from repro.net.simulator import Simulator
from repro.core.model import MembershipMatrix
from repro.service.nodes import (
    PPIServerNode,
    ProviderServiceNode,
    SearcherNode,
    SearchOutcome,
)

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
    """
    sim = Simulator(
        latency=latency, loss_probability=loss_probability, loss_seed=loss_seed
    )
    m = network.n_providers
    # Node-id layout: providers 0..m-1, server m, searcher m+1.
    provider_node_ids = {pid: pid for pid in range(m)}
    for pid in range(m):
        acl = (acls or {}).get(pid, AccessControl(trusted={searcher_name}))
        sim.add_node(ProviderServiceNode(pid, network.providers[pid], acl))
    server = sim.add_node(PPIServerNode(m, index))
    searcher = sim.add_node(
        SearcherNode(
            m + 1,
            searcher_name,
            server_id=m,
            provider_node_ids=provider_node_ids,
            queries=list(queries),
            timeout_s=timeout_s,
            max_retries=max_retries,
        )
    )
    metrics = sim.run()
    # Recall check against the true matrix: every query must have reached
    # every provider that truly holds the owner's records, except those the
    # searcher was denied at or that failed outright.
    return ServiceRun(
        outcomes=searcher.outcomes,
        metrics=metrics,
        queries_served=server.queries_served,
        recall=compute_recall(searcher.outcomes, network.membership_matrix()),
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
    sim = Simulator(latency=latency)
    m = network.n_providers
    provider_node_ids = {pid: pid for pid in range(m)}
    for pid in range(m):
        sim.add_node(
            ProviderServiceNode(
                pid, network.providers[pid], AccessControl(trusted={"searcher"})
            )
        )
    server = sim.add_node(PPIServerNode(m, index))
    searchers = []
    for i, queries in enumerate(query_lists):
        searchers.append(
            sim.add_node(
                SearcherNode(
                    m + 1 + i,
                    "searcher",
                    server_id=m,
                    provider_node_ids=provider_node_ids,
                    queries=list(queries),
                )
            )
        )
    metrics = sim.run()
    matrix = network.membership_matrix()
    runs = [
        ServiceRun(
            outcomes=s.outcomes,
            metrics=metrics,
            queries_served=len(s.outcomes),
            recall=compute_recall(s.outcomes, matrix),
        )
        for s in searchers
    ]
    return ConcurrentRun(per_searcher=runs, metrics=metrics)
