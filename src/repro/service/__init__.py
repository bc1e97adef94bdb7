"""Locator-service deployment: the Fig. 1 system's serving stack on a
virtual-clock LAN, plus the searcher-anonymity mix layer (paper Sec. II-B,
ref [20])."""

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

__all__ = [
    "AnonymityAwarePPIServer",
    "AnonymousQueryClient",
    "ConcurrentRun",
    "RelayNode",
    "ServiceRun",
    "compute_recall",
    "predecessor_attack_probability",
    "run_concurrent_searchers",
    "run_locator_service",
]
