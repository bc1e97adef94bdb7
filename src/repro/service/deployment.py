"""One-call deployment of the locator service on the network simulator.

Wires a constructed index, the provider fleet and one or more searchers
into a :class:`~repro.net.simulator.Simulator` and runs a query workload,
returning per-query outcomes plus the aggregate network metrics.  Both
entry points share one wiring: providers are nodes ``0..m-1``, the PPI
server is node ``m`` and searchers are ``m+1`` and up.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.authsearch import AccessControl, SearchOutcome
from repro.core.model import InformationNetwork, MembershipMatrix
from repro.core.postings import PostingsIndex
from repro.net.latency import EMULAB_LAN, LatencyModel
from repro.net.metrics import NetworkMetrics
from repro.net.simulator import Simulator
from repro.service.nodes import PPIServerNode, ProviderServiceNode, SearcherNode

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


def _deploy(
    sim: Simulator,
    network: InformationNetwork,
    index: PostingsIndex,
    query_lists: list[list[int]],
    searcher_name: str = "searcher",
    acls: dict[int, AccessControl] | None = None,
    **searcher_options,
) -> tuple[list[SearcherNode], PPIServerNode]:
    """Wire one searcher per query list into ``sim`` and run it; a provider
    missing from ``acls`` trusts ``searcher_name``."""
    m = network.n_providers
    for pid in range(m):
        acl = (acls or {}).get(pid, AccessControl(trusted={searcher_name}))
        sim.add_node(ProviderServiceNode(pid, network.providers[pid], acl))
    server = sim.add_node(PPIServerNode(m, index))
    provider_node_ids = {pid: pid for pid in range(m)}
    searchers = [
        sim.add_node(
            SearcherNode(
                m + 1 + i, searcher_name, m, provider_node_ids, queries, **searcher_options
            )
        )
        for i, queries in enumerate(query_lists)
    ]
    sim.run()
    return searchers, server


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
    sim = Simulator(latency, loss_probability, loss_seed)
    (searcher,), server = _deploy(
        sim, network, index, [queries], searcher_name, acls,
        timeout_s=timeout_s, max_retries=max_retries,
    )
    return ServiceRun(
        outcomes=searcher.outcomes,
        metrics=sim.metrics,
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
    sim = Simulator(latency)
    searchers, _ = _deploy(sim, network, index, query_lists)
    matrix = network.membership_matrix()
    runs = [
        ServiceRun(
            outcomes=s.outcomes,
            metrics=sim.metrics,
            queries_served=len(s.outcomes),
            recall=compute_recall(s.outcomes, matrix),
        )
        for s in searchers
    ]
    return ConcurrentRun(per_searcher=runs, metrics=sim.metrics)
