"""Locator-service deployment: the Fig. 1 system as live simulator actors,
plus the searcher-anonymity mix layer (paper Sec. II-B, ref [20])."""

from repro.service.anonymity import (
    AnonymityAwarePPIServer,
    AnonymousQueryClient,
    RelayNode,
    predecessor_attack_probability,
)
from repro.service.deployment import (
    ConcurrentRun,
    ServiceRun,
    compute_recall,
    run_concurrent_searchers,
    run_locator_service,
)
from repro.service.nodes import PPIServerNode, ProviderServiceNode, SearcherNode

__all__ = [
    "AnonymityAwarePPIServer",
    "AnonymousQueryClient",
    "ConcurrentRun",
    "PPIServerNode",
    "ProviderServiceNode",
    "RelayNode",
    "SearcherNode",
    "ServiceRun",
    "compute_recall",
    "predecessor_attack_probability",
    "run_concurrent_searchers",
    "run_locator_service",
]
