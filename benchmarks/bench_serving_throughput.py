"""Serving throughput: the real asyncio runtime vs the simulator's prediction.

Hosts a constructed index behind actual TCP sockets (`repro.serving`) and
drives the paper's two-phase search with the closed-loop load generator,
then replays the *same* per-worker query lists on the discrete-event
simulator (`run_concurrent_searchers`).  The simulator charges modelled
LAN latency + CPU cost in virtual time; the serving runtime pays real
syscalls, real JSON, real scheduling -- the gap between the two columns is
the fidelity gap every scaling PR works against.

Also exercises the server's `stats` verb end to end: the benchmark asserts
the fleet's counters agree with the load generator's request tally.
"""

import asyncio
import json
import os
import pathlib
import threading

import numpy as np

from repro.analysis.reporting import format_series, format_table
from repro.core.authsearch import AccessControl
from repro.core.construction import construct_epsilon_ppi
from repro.core.model import InformationNetwork
from repro.core.policies import ChernoffPolicy
from repro.serving import (
    FleetSupervisor,
    LocatorClient,
    PPIServer,
    ProviderEndpoint,
    RetryPolicy,
    run_load_multiprocess,
    run_load_sync,
    save_snapshot,
    sync_request,
)
from repro.service import run_concurrent_searchers

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

M = 12
N_IDS = 60
QUERIES_PER_WORKER = 25
WORKER_COUNTS = [1, 4, 16]
FLEET_SIZES = [1, 2, 4]
FLEET_QUERIES_PER_WORKER = 150

# -- wire-protocol sweep knobs (v1 JSON vs v2 binary frames) ------------------
WIRE_QUICK = os.environ.get("WIRE_BENCH_QUICK") == "1"
WIRE_PROCS = 2  # generator processes
WIRE_WORKERS = 4  # closed-loop workers per generator
WIRE_BATCH_SIZE = 128
WIRE_REQUESTS = (
    {"query": 150, "batch": 40} if WIRE_QUICK else {"query": 600, "batch": 150}
)
#: v2 must beat v1 by this factor in batch mode at equal core count.  The
#: full run demands the ISSUE's 2x; quick mode (CI smoke, shared runners)
#: keeps a 1.5x floor so scheduler noise cannot flake the build.
WIRE_MIN_SPEEDUP = 1.5 if WIRE_QUICK else 2.0


def build():
    rng = np.random.default_rng(0)
    net = InformationNetwork(M)
    for j in range(N_IDS):
        owner = net.register_owner(f"o{j}", float(rng.uniform(0.2, 0.7)))
        for pid in rng.choice(M, size=int(rng.integers(1, 5)), replace=False):
            net.delegate(owner, int(pid), payload=f"r{j}@{pid}")
    index = construct_epsilon_ppi(net, ChernoffPolicy(0.9), rng).index
    return net, index


def worker_queries(k: int, rng) -> list[list[int]]:
    return [
        [int(q) for q in rng.integers(0, N_IDS, size=QUERIES_PER_WORKER)]
        for _ in range(k)
    ]


def run_serving_throughput(seed: int = 0):
    net, index = build()
    ready = threading.Event()
    done = threading.Event()
    state = {}

    def host():
        async def serve():
            server = await PPIServer(index).start()
            providers = {
                pid: await ProviderEndpoint(
                    net.providers[pid], AccessControl(trusted={"searcher"})
                ).start()
                for pid in range(M)
            }
            state["server"] = server.address
            state["providers"] = {p: ep.address for p, ep in providers.items()}
            ready.set()
            while not done.is_set():
                await asyncio.sleep(0.01)
            for node in [server, *providers.values()]:
                await node.stop()

        asyncio.run(serve())

    thread = threading.Thread(target=host, daemon=True)
    thread.start()
    assert ready.wait(timeout=30.0)

    series = {
        "real-qps": [],
        "real-p50-ms": [],
        "real-p99-ms": [],
        "sim-qps": [],
        "sim-mean-ms": [],
    }
    total_requests = 0
    try:
        rng = np.random.default_rng(seed)
        for k in WORKER_COUNTS:
            queries = worker_queries(k, rng)
            flat = [q for qs in queries for q in qs]

            report = run_load_sync(
                lambda: LocatorClient(
                    servers=[state["server"]],
                    providers=state["providers"],
                    retry=RetryPolicy(max_retries=1, timeout_s=2.0),
                    cache_size=0,  # keep server counters 1:1 with requests
                ),
                flat,
                n_workers=k,
                requests_per_worker=QUERIES_PER_WORKER,
                mode="search",
                report_stats_from=state["server"],
            )
            assert report.errors == 0, report.format()
            total_requests += report.total
            # `stats` verb consistency: the fleet counted what we sent.
            served = report.server_stats["counters"]["queries_served"]
            assert served == total_requests, (served, total_requests)

            pct = report.latency_percentiles_ms()
            series["real-qps"].append(report.qps)
            series["real-p50-ms"].append(pct["p50"])
            series["real-p99-ms"].append(pct["p99"])

            sim = run_concurrent_searchers(net, index, queries)
            series["sim-qps"].append(sim.throughput_qps)
            series["sim-mean-ms"].append(sim.mean_latency_s * 1e3)
    finally:
        done.set()
        thread.join(timeout=30.0)
    return series


def test_serving_throughput(benchmark, report):
    series = benchmark.pedantic(run_serving_throughput, rounds=1, iterations=1)
    report(
        f"Serving throughput: real sockets vs simulator "
        f"(m={M}, {QUERIES_PER_WORKER} queries/worker)",
        format_series("workers", WORKER_COUNTS, series),
    )
    # The load generator produced a live percentile report...
    assert all(q > 0 for q in series["real-qps"])
    assert all(
        p50 <= p99
        for p50, p99 in zip(series["real-p50-ms"], series["real-p99-ms"])
    )
    # ...and the simulator's prediction exists for every point.  The
    # simulator sees concurrency buy throughput (searchers overlap their
    # think time against modelled latency); the real runtime is a single
    # event loop hosting client, server and all providers, so one
    # closed-loop worker already saturates it -- added workers must queue
    # (visible as latency) without collapsing throughput.  That asymmetry
    # is exactly what this benchmark exists to expose.
    assert series["sim-qps"][-1] > series["sim-qps"][0]
    assert series["real-qps"][-1] > 0.25 * series["real-qps"][0]
    assert series["real-p50-ms"][-1] > series["real-p50-ms"][0]


# -- process-per-shard fleet scaling ------------------------------------------


def run_fleet_scaling(tmp_dir: str):
    """QPS as the fleet grows: n shard processes driven by n generator
    processes, so neither side of the socket is pinned to one core.

    The snapshot is written in format v2 (the default), so every shard
    process mmap-boots the CSR postings engine instead of unpacking the
    dense matrix -- the workload below therefore exercises the production
    read path end to end."""
    _, index = build()
    snapshot = os.path.join(tmp_dir, "bench_index.npz")
    save_snapshot(index, snapshot)

    series = {"fleet-qps": [], "fleet-p50-ms": [], "fleet-p99-ms": []}
    for n in FLEET_SIZES:
        with FleetSupervisor(snapshot, n_shards=n) as fleet:
            fleet.start(monitor=True)
            info = sync_request(fleet.addresses[0], "info")
            assert info["index_engine"] == "PostingsIndex", info
            report = run_load_multiprocess(
                servers=fleet.addresses,
                owner_ids=list(range(N_IDS)),
                n_procs=n,
                n_workers=4,
                requests_per_worker=FLEET_QUERIES_PER_WORKER,
                mode="query",
                retry=RetryPolicy(max_retries=2, timeout_s=2.0),
                cache_size=0,  # keep worker counters 1:1 with requests
            )
            assert report.errors == 0, report.format()
            assert report.total == n * 4 * FLEET_QUERIES_PER_WORKER
            stats = fleet.fleet_stats()
            # The fleet's merged counters agree with the generator's tally.
            served = stats["aggregate_counters"]["queries_served"]
            assert served == report.total, (served, report.total)
            assert stats["supervisor"]["counters"].get("restarts_total", 0) == 0
        pct = report.latency_percentiles_ms()
        series["fleet-qps"].append(report.qps)
        series["fleet-p50-ms"].append(pct["p50"])
        series["fleet-p99-ms"].append(pct["p99"])
    return series


def test_fleet_scaling(benchmark, report, tmp_path):
    series = benchmark.pedantic(
        run_fleet_scaling, args=(str(tmp_path),), rounds=1, iterations=1
    )
    usable_cores = len(os.sched_getaffinity(0))
    report(
        f"Fleet scaling: process-per-shard servers vs single process "
        f"(m={M}, {FLEET_QUERIES_PER_WORKER} queries/worker, "
        f"{usable_cores} usable cores)",
        format_series("shards", FLEET_SIZES, series),
    )
    assert all(q > 0 for q in series["fleet-qps"])
    # Shards are embarrassingly parallel, so 4 worker processes should at
    # least double single-process QPS -- but only where the hardware can
    # express it.  On a 1-2 core box every process multiplexes the same
    # CPU and the sweep degenerates to a context-switch tax measurement,
    # so the scaling assertion is gated on genuinely available cores.
    if usable_cores >= 4:
        assert series["fleet-qps"][-1] >= 2.0 * series["fleet-qps"][0], series


# -- wire protocol: v1 JSON vs v2 binary frames -------------------------------


def run_wire_sweep(tmp_dir: str) -> dict:
    """v1-vs-v2 socket QPS at equal core count, plus the interop matrix.

    One 1-shard server process (sniffing both protocols on one listener),
    ``WIRE_PROCS`` generator processes -- the only variable across legs is
    the client's wire protocol, so the QPS ratio isolates encoding cost.
    ``query`` mode is one owner per round trip (syscall-bound; v2 saves
    the JSON but keeps the RTT), ``batch`` mode is ``WIRE_BATCH_SIZE``
    owners per round trip (encoding-bound; v2's scatter-gathered slab
    segments replace per-request JSON rendering, which is where the 2x
    headline comes from).
    """
    _, index = build()
    snapshot = os.path.join(tmp_dir, "wire_index.npz")
    save_snapshot(index, snapshot)
    cores_used = 1 + WIRE_PROCS  # 1 shard process + the generators
    legs: dict = {}
    with FleetSupervisor(snapshot, n_shards=1) as fleet:
        fleet.start(monitor=True)
        # Interop: the same listener answers both framings correctly.
        for proto in ("v1", "v2"):
            response = sync_request(
                fleet.addresses[0], "query", protocol=proto, owner=1
            )
            assert response["providers"] == index.query(1), (proto, response)
        for mode in ("query", "batch"):
            per_round = WIRE_BATCH_SIZE if mode == "batch" else 1
            for proto in ("v1", "v2"):
                report = run_load_multiprocess(
                    servers=fleet.addresses,
                    owner_ids=list(range(N_IDS)),
                    n_procs=WIRE_PROCS,
                    n_workers=WIRE_WORKERS,
                    requests_per_worker=WIRE_REQUESTS[mode],
                    mode=mode,
                    batch_size=WIRE_BATCH_SIZE,
                    protocol=proto,
                    retry=RetryPolicy(max_retries=2, timeout_s=5.0),
                    cache_size=0,
                )
                assert report.errors == 0, report.format()
                expected = WIRE_PROCS * WIRE_WORKERS * WIRE_REQUESTS[mode] * per_round
                assert report.total == expected, (report.total, expected)
                pct = report.latency_percentiles_ms()
                legs[(mode, proto)] = {
                    "qps": report.qps,
                    "qps_per_core": report.qps / cores_used,
                    "p50_ms": pct["p50"],
                    "p99_ms": pct["p99"],
                    "total": report.total,
                    "errors": report.errors,
                }
        fleet_protocols = fleet.fleet_stats()["protocols"]
    return {
        "legs": legs,
        "cores_used": cores_used,
        "protocols": fleet_protocols,
    }


def test_wire_protocol_sweep(benchmark, report, tmp_path):
    results = benchmark.pedantic(
        run_wire_sweep, args=(str(tmp_path),), rounds=1, iterations=1
    )
    legs, cores_used = results["legs"], results["cores_used"]
    speedups = {
        mode: legs[(mode, "v2")]["qps"] / legs[(mode, "v1")]["qps"]
        for mode in ("query", "batch")
    }
    report(
        f"Wire protocol: v2 binary frames vs v1 JSON "
        f"(batch={WIRE_BATCH_SIZE}, {cores_used} cores"
        f"{', quick' if WIRE_QUICK else ''})",
        format_table(
            ["mode", "protocol", "qps", "qps/core", "p50-ms", "p99-ms"],
            [
                [
                    mode,
                    proto,
                    legs[(mode, proto)]["qps"],
                    legs[(mode, proto)]["qps_per_core"],
                    legs[(mode, proto)]["p50_ms"],
                    legs[(mode, proto)]["p99_ms"],
                ]
                for mode, proto in [
                    ("query", "v1"),
                    ("query", "v2"),
                    ("batch", "v1"),
                    ("batch", "v2"),
                ]
            ],
        )
        + f"\nspeedup: query {speedups['query']:.2f}x, "
        f"batch {speedups['batch']:.2f}x (floor {WIRE_MIN_SPEEDUP}x)",
    )

    RESULTS_DIR.mkdir(exist_ok=True)
    payload = {
        "benchmark": "wire_protocol",
        "quick_mode": WIRE_QUICK,
        "batch_size": WIRE_BATCH_SIZE,
        "n_procs": WIRE_PROCS,
        "n_workers": WIRE_WORKERS,
        "requests_per_worker": WIRE_REQUESTS,
        "cores_used": cores_used,
        "server_protocols": results["protocols"],
        "modes": {
            mode: {
                "v1": legs[(mode, "v1")],
                "v2": legs[(mode, "v2")],
                "speedup": speedups[mode],
            }
            for mode in ("query", "batch")
        },
        "min_speedup_required": WIRE_MIN_SPEEDUP,
        "headline_speedup": speedups["batch"],
    }
    (RESULTS_DIR / "BENCH_wire.json").write_text(
        json.dumps(payload, indent=2) + "\n"
    )

    # The dual-protocol listener advertised both framings...
    assert results["protocols"] == [1, 2]
    # ...every leg completed losslessly...
    for leg in legs.values():
        assert leg["errors"] == 0 and leg["qps"] > 0
    # ...and dropping JSON from the hot path pays where encoding dominates.
    assert speedups["batch"] >= WIRE_MIN_SPEEDUP, (
        f"v2 batch speedup {speedups['batch']:.2f}x "
        f"under the {WIRE_MIN_SPEEDUP}x floor"
    )
