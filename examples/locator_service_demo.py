"""Deployed locator service: the Fig. 1 system on a simulated LAN.

Builds a TREC-like information network, constructs the ǫ-PPI, runs the
real PPI server, provider endpoints and searcher client on a virtual-clock
event loop, drives a query workload and reports end-to-end latency and
cost -- then repeats with the grouping baseline for contrast.

Run:  python examples/locator_service_demo.py
"""

import numpy as np

from repro.baselines.grouping import GroupingPPI
from repro.core import ChernoffPolicy, construct_epsilon_ppi
from repro.core.postings import PostingsIndex
from repro.datasets import TrecLikeConfig, build_trec_like_network, uniform_workload
from repro.service import run_locator_service


def main() -> None:
    rng = np.random.default_rng(17)
    net = build_trec_like_network(
        TrecLikeConfig(n_providers=60, n_owners=150), seed=9
    )
    matrix = net.membership_matrix()
    queries = uniform_workload(net.n_owners, 30, rng).owner_ids.tolist()

    print("== constructing indexes ==")
    eppi = construct_epsilon_ppi(net, ChernoffPolicy(0.9), rng)
    grouping = PostingsIndex.from_dense(GroupingPPI(10).construct(matrix, rng).published)

    for name, index in (("e-PPI", eppi.index), ("grouping-10", grouping)):
        run = run_locator_service(net, index, queries=queries)
        print(f"\n== {name} ==")
        print(f"  queries served:        {run.queries_served}")
        print(f"  recall:                {run.recall:.3f}")
        print(f"  mean providers/query:  {run.mean_contacted:.1f}")
        print(f"  mean latency:          {run.mean_latency_s * 1e3:.2f} ms")
        print(f"  network traffic:       {run.metrics.bytes_sent / 1024:.1f} KiB")

    # Zoom into one search to show the phase structure.
    outcome = run_locator_service(net, eppi.index, queries=[queries[0]]).outcomes[0]
    print(f"\n== anatomy of one e-PPI search (owner {outcome.owner_id}) ==")
    print(f"  candidates contacted: {outcome.contacted}")
    print(f"  true positives:       {outcome.positive_providers}")
    print(f"  noise providers:      {len(outcome.noise_providers)}")
    print(f"  records retrieved:    {len(outcome.records)}")
    print(f"  latency:              {outcome.latency_s * 1e3:.2f} ms")


if __name__ == "__main__":
    main()
