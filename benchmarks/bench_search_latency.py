"""End-to-end search latency of the deployed locator service.

Complements `bench_search_overhead.py` (list sizes) with the operational
metric: latency of the two-phase search -- the real server, provider
endpoints and client on the virtual-clock LAN -- for ǫ-PPI vs the grouping
baseline vs the no-privacy floor, under the same query workload.  The paper's qualitative claim: ǫ-PPI's personalized noise
costs moderate latency, while grouping effectively broadcasts.
"""

import numpy as np

from repro.analysis.reporting import format_table
from repro.baselines.grouping import GroupingPPI
from repro.baselines.no_privacy import PlainIndex
from repro.core.postings import PostingsIndex
from repro.core.model import InformationNetwork
from repro.core.policies import ChernoffPolicy
from repro.core.construction import construct_epsilon_ppi
from repro.datasets.workload import uniform_workload
from repro.service import run_locator_service

M = 120
N_IDS = 200
N_QUERIES = 40
N_GROUPS = 12


def build_network(seed: int) -> InformationNetwork:
    rng = np.random.default_rng(seed)
    net = InformationNetwork(M)
    for j in range(N_IDS):
        owner = net.register_owner(f"owner-{j}", float(rng.uniform(0.2, 0.8)))
        freq = int(rng.integers(1, 6))
        for pid in rng.choice(M, size=freq, replace=False):
            net.delegate(owner, int(pid))
    return net


def run_search_latency(seed: int = 0):
    net = build_network(seed)
    matrix = net.membership_matrix()
    rng = np.random.default_rng(seed + 1)
    queries = uniform_workload(N_IDS, N_QUERIES, rng).owner_ids.tolist()

    indexes = {}
    result = construct_epsilon_ppi(net, ChernoffPolicy(0.9), rng)
    indexes["e-ppi"] = result.index
    grouping = GroupingPPI(N_GROUPS).construct(matrix, rng)
    indexes["grouping"] = PostingsIndex.from_dense(grouping.published)
    indexes["no-privacy"] = PostingsIndex.from_dense(PlainIndex().construct(matrix))

    rows = {}
    for name, index in indexes.items():
        run = run_locator_service(net, index, queries=queries)
        rows[name] = {
            "mean_latency_ms": run.mean_latency_s * 1e3,
            "mean_contacted": run.mean_contacted,
            "recall": run.recall,
        }
    return rows


def test_search_latency(benchmark, report):
    rows = benchmark.pedantic(run_search_latency, rounds=1, iterations=1)
    report(
        f"Search latency: two-phase lookup on simulated LAN "
        f"(m={M}, {N_QUERIES} uniform queries)",
        format_table(
            ["system", "mean-latency-ms", "mean-contacted", "recall"],
            [
                [name, row["mean_latency_ms"], row["mean_contacted"], row["recall"]]
                for name, row in rows.items()
            ],
        ),
    )
    # Recall is perfect everywhere (truthful-publication rule).
    assert all(row["recall"] == 1.0 for row in rows.values())
    # Cost ordering: floor < e-PPI < grouping.
    assert (
        rows["no-privacy"]["mean_contacted"]
        < rows["e-ppi"]["mean_contacted"]
        < rows["grouping"]["mean_contacted"]
    )
    assert rows["e-ppi"]["mean_latency_ms"] < rows["grouping"]["mean_latency_ms"]
