"""Live-update churn: delta apply cost, reload pause, rolling-fleet p99.

The update path (delta log -> sealed segment -> compacted snapshot ->
fleet-wide hot swap) only earns its keep if churn is cheap *while
serving*.  Three claims are measured and asserted:

1. **Applying a delta is cheap**: appending one owner operation to the
   crc-framed log is a sub-millisecond affair (p50 asserted), and sealing
   + compacting a segment of ~1k deltas completes in seconds, not minutes.
2. **The reload pause is O(segment), not O(base)**: a hot swap loads the
   new snapshot on the executor and swaps a pointer in the event loop, so
   the worst query latency observed *during* a reload must not scale with
   the base index size.  Measured at two base sizes 10x apart; the pause
   ratio must stay far below the size ratio (with an absolute floor so a
   fast machine cannot fail on scheduler noise).
3. **A rolling 2-shard reload is invisible to clients**: query p99 during
   the rollout stays within 2x of steady state (again floor-guarded), no
   query is lost, and afterwards every shard serves the new epoch's rows
   exactly -- zero stale responses.

Emits ``benchmarks/results/BENCH_updates.json``.  Quick mode for the CI
smoke job: ``UPDATES_BENCH_QUICK=1`` shrinks the bases and the load, but
still applies 1000 deltas and rolls a live 2-shard fleet.
"""

import asyncio
import json
import os
import pathlib
import statistics
import threading
import time

import numpy as np

from repro.analysis.reporting import format_table
from repro.core.postings import PostingsIndex
from repro.serving.client import LocatorClient, RetryPolicy
from repro.serving.fleet import FleetSupervisor, sync_request
from repro.serving.loadgen import run_load_sync
from repro.serving.protocol import VERB_QUERY, VERB_RELOAD
from repro.serving.server import PPIServer
from repro.serving.snapshot import load_postings, save_snapshot
from repro.updates import Compactor, DeltaLog, compact_snapshot, seal_segment

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

QUICK = os.environ.get("UPDATES_BENCH_QUICK") == "1"
PROVIDERS = 128
DENSITY = 0.03
NOISE_KEY = b"\xbe" * 16

N_DELTAS = 1_000
MAX_APPLY_P50_US = 1_000.0  # one delta append must stay sub-millisecond

# Reload-pause sweep: two bases 10x apart.  The pause is the worst query
# latency observed while reloads fire; O(segment) behaviour means the big
# base pauses like the small one.
PAUSE_OWNERS = [2_000, 20_000] if QUICK else [10_000, 100_000]
PAUSE_RELOADS = 6
MAX_PAUSE_RATIO = 4.0  # vs. a 10x base-size ratio
PAUSE_FLOOR_MS = 25.0  # below this, scheduler noise dominates: auto-pass

# Rolling-reload churn: 2 shards under closed-loop load.
FLEET_OWNERS = 2_000 if QUICK else 10_000
LOAD_WORKERS = 4
LOAD_REQUESTS = 150 if QUICK else 400
MAX_ROLLING_P99_RATIO = 2.0
ROLLING_FLOOR_MS = 50.0


def _published(n_owners: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return (rng.random((PROVIDERS, n_owners)) < DENSITY).astype(np.uint8)


def _p50_p99_us(samples_s: list) -> tuple:
    ordered = sorted(s * 1e6 for s in samples_s)
    return (
        statistics.median(ordered),
        ordered[min(len(ordered) - 1, int(len(ordered) * 0.99))],
    )


# -- 1. delta apply + seal + compact ------------------------------------------


def run_delta_apply(workdir: pathlib.Path):
    base = PostingsIndex.from_dense(_published(FLEET_OWNERS, seed=11))
    base_path = workdir / "base.npz"
    save_snapshot(base, base_path, format_version=3, epoch=0)

    rng = np.random.default_rng(13)
    log_path = workdir / "churn.log"
    append_s = []
    with DeltaLog.create(
        str(log_path), PROVIDERS, noise_key=NOISE_KEY
    ) as log:
        for k in range(N_DELTAS):
            owner = int(rng.integers(0, FLEET_OWNERS))
            providers = sorted(
                int(p) for p in rng.choice(PROVIDERS, size=4, replace=False)
            )
            started = time.perf_counter()
            if k % 10 == 9:
                log.remove(owner)
            else:
                log.upsert(owner, providers, beta=0.25)
            append_s.append(time.perf_counter() - started)

        seg_path = workdir / "0001.seg.npz"
        started = time.perf_counter()
        seal_segment(log, str(seg_path), base_epoch=0)
        seal_s = time.perf_counter() - started

    compactor = Compactor(str(base_path), str(workdir), min_segments=1)
    started = time.perf_counter()
    result = compactor.run_once()
    compact_s = time.perf_counter() - started
    assert result is not None and result.epoch == 1

    p50_us, p99_us = _p50_p99_us(append_s)
    return {
        "n_deltas": N_DELTAS,
        "owners_touched": result.owners_touched,
        "apply_p50_us": p50_us,
        "apply_p99_us": p99_us,
        "seal_s": seal_s,
        "compact_s": compact_s,
        "base_path": str(base_path),
    }


# -- 2. reload pause vs base size ---------------------------------------------


def _measure_reload_pause(n_owners: int, workdir: pathlib.Path) -> dict:
    """Worst/p99 query latency while ``PAUSE_RELOADS`` hot swaps fire."""
    index = PostingsIndex.from_dense(_published(n_owners, seed=n_owners))
    path = workdir / f"pause_{n_owners}.npz"
    save_snapshot(index, path, format_version=3, epoch=0)

    async def body() -> dict:
        server = await PPIServer(index, snapshot_path=str(path)).start()
        client = LocatorClient(
            servers=[server.address],
            cache_size=0,
            retry=RetryPolicy(max_retries=2, timeout_s=5.0, base_delay_s=0.01),
        )
        latencies_s = []
        reload_s = []
        stop = asyncio.Event()

        async def hammer() -> None:
            owner = 0
            while not stop.is_set():
                started = time.perf_counter()
                await client.call(server.address, VERB_QUERY, owner=owner)
                latencies_s.append(time.perf_counter() - started)
                owner = (owner + 17) % n_owners

        try:
            task = asyncio.ensure_future(hammer())
            await asyncio.sleep(0.1)  # steady state first
            for _ in range(PAUSE_RELOADS):
                started = time.perf_counter()
                await client.call(server.address, VERB_RELOAD)
                reload_s.append(time.perf_counter() - started)
                await asyncio.sleep(0.05)
            stop.set()
            await task
        finally:
            await client.close()
            await server.stop()

        p50_us, p99_us = _p50_p99_us(latencies_s)
        return {
            "owners": n_owners,
            "snapshot_bytes": path.stat().st_size,
            "queries": len(latencies_s),
            "query_p50_us": p50_us,
            "query_p99_us": p99_us,
            "pause_ms": max(latencies_s) * 1e3,
            "reload_rtt_p50_ms": statistics.median(reload_s) * 1e3,
        }

    return asyncio.run(body())


def run_reload_pause(workdir: pathlib.Path):
    return [_measure_reload_pause(n, workdir) for n in PAUSE_OWNERS]


# -- 3. rolling 2-shard reload under load -------------------------------------


def run_rolling_reload(workdir: pathlib.Path):
    base = PostingsIndex.from_dense(_published(FLEET_OWNERS, seed=29))
    base_path = workdir / "fleet_base.npz"
    save_snapshot(base, base_path, format_version=3, epoch=0)

    # The epoch-1 snapshot: a sealed segment's worth of churn, compacted.
    log_path = workdir / "fleet.log"
    touched = {}
    rng = np.random.default_rng(31)
    with DeltaLog.create(str(log_path), PROVIDERS, noise_key=NOISE_KEY) as log:
        for _ in range(N_DELTAS):
            owner = int(rng.integers(0, FLEET_OWNERS))
            providers = sorted(
                int(p) for p in rng.choice(PROVIDERS, size=3, replace=False)
            )
            log.upsert(owner, providers, beta=0.0)  # beta 0: row == truth
            touched[owner] = providers
        seg_path = workdir / "0001.seg.npz"
        seal_segment(log, str(seg_path), base_epoch=0)
    epoch1_path = workdir / "epoch1.npz"
    summary = compact_snapshot(str(base_path), [str(seg_path)], str(epoch1_path))
    assert summary.epoch == 1

    owners = list(range(FLEET_OWNERS))

    def client_factory() -> LocatorClient:
        return LocatorClient(
            servers=fleet.addresses,
            cache_size=0,
            retry=RetryPolicy(max_retries=6, timeout_s=5.0, base_delay_s=0.02),
        )

    with FleetSupervisor(str(base_path), n_shards=2) as fleet:
        fleet.start(monitor=True)
        steady = run_load_sync(
            client_factory,
            owners,
            n_workers=LOAD_WORKERS,
            requests_per_worker=LOAD_REQUESTS,
        )

        events = []
        rollout = threading.Thread(
            target=lambda: events.extend(
                fleet.rollout(str(epoch1_path), settle_timeout_s=30.0)
            )
        )
        # Fire the rollout a beat into the load so the swap lands mid-run.
        timer = threading.Timer(0.05, rollout.start)
        timer.start()
        rolling = run_load_sync(
            client_factory,
            owners,
            n_workers=LOAD_WORKERS,
            requests_per_worker=LOAD_REQUESTS,
        )
        timer.join()
        rollout.join()
        assert events == [("rolled", 0), ("rolled", 1)], events

        # Zero stale responses: every shard now serves epoch-1 rows exactly.
        merged = load_postings(str(epoch1_path))
        stale = 0
        sample = list(touched)[:100]
        for owner in sample:
            address = fleet.addresses[owner % 2]
            response = sync_request(address, VERB_QUERY, owner=owner)
            if (
                response["epoch"] != 1
                or response["providers"] != merged.query(owner)
            ):
                stale += 1
        restarts = sum(
            s["restarts"] for s in fleet.worker_states().values()
        )

    return {
        "shards": 2,
        "owners": FLEET_OWNERS,
        "requests_per_phase": LOAD_WORKERS * LOAD_REQUESTS,
        "steady_p50_ms": steady.latency_percentiles_ms()["p50"],
        "steady_p99_ms": steady.latency_percentiles_ms()["p99"],
        "steady_qps": steady.qps,
        "rolling_p50_ms": rolling.latency_percentiles_ms()["p50"],
        "rolling_p99_ms": rolling.latency_percentiles_ms()["p99"],
        "rolling_qps": rolling.qps,
        "lost_queries": steady.errors + rolling.errors,
        "stale_responses": stale,
        "worker_restarts": restarts,
    }


# -- the test ------------------------------------------------------------------


def test_update_churn(benchmark, report, tmp_path):
    def run():
        return {
            "apply": run_delta_apply(tmp_path / "apply"),
            "pause": run_reload_pause(tmp_path / "pause"),
            "rolling": run_rolling_reload(tmp_path / "rolling"),
        }
    for sub in ("apply", "pause", "rolling"):
        (tmp_path / sub).mkdir()
    results = benchmark.pedantic(run, rounds=1, iterations=1)

    apply_row = results["apply"]
    pause_rows = results["pause"]
    rolling = results["rolling"]
    small, big = pause_rows[0], pause_rows[-1]
    base_ratio = big["owners"] / small["owners"]
    pause_ratio = big["pause_ms"] / small["pause_ms"]

    report(
        f"Live-update churn: {N_DELTAS} deltas, reload pause, rolling "
        f"2-shard swap{' (quick)' if QUICK else ''}",
        format_table(
            ["metric", "value"],
            [
                ["apply-p50-us", apply_row["apply_p50_us"]],
                ["apply-p99-us", apply_row["apply_p99_us"]],
                ["seal-s", apply_row["seal_s"]],
                ["compact-s", apply_row["compact_s"]],
                [f"pause-ms@{small['owners']}", small["pause_ms"]],
                [f"pause-ms@{big['owners']}", big["pause_ms"]],
                ["pause-ratio", pause_ratio],
                ["steady-p99-ms", rolling["steady_p99_ms"]],
                ["rolling-p99-ms", rolling["rolling_p99_ms"]],
                ["lost-queries", rolling["lost_queries"]],
                ["stale-responses", rolling["stale_responses"]],
            ],
        ),
    )

    RESULTS_DIR.mkdir(exist_ok=True)
    payload = {
        "benchmark": "live_update_churn",
        "quick_mode": QUICK,
        "providers": PROVIDERS,
        "max_apply_p50_us": MAX_APPLY_P50_US,
        "max_pause_ratio": MAX_PAUSE_RATIO,
        "pause_floor_ms": PAUSE_FLOOR_MS,
        "max_rolling_p99_ratio": MAX_ROLLING_P99_RATIO,
        "rolling_floor_ms": ROLLING_FLOOR_MS,
        "apply": apply_row,
        "reload_pause": pause_rows,
        "rolling": rolling,
    }
    del payload["apply"]["base_path"]
    (RESULTS_DIR / "BENCH_updates.json").write_text(
        json.dumps(payload, indent=2) + "\n"
    )

    # 1. Applying one delta is sub-millisecond at the median.
    assert apply_row["apply_p50_us"] <= MAX_APPLY_P50_US, (
        f"delta append p50 {apply_row['apply_p50_us']:.0f}us "
        f"(budget {MAX_APPLY_P50_US:.0f}us)"
    )

    # 2. The reload pause is O(segment), not O(base): a 10x bigger base
    #    must not pause 10x longer.  Floor-guarded: if even the big base's
    #    pause sits under PAUSE_FLOOR_MS, scheduler noise owns the ratio.
    assert (
        big["pause_ms"] <= PAUSE_FLOOR_MS or pause_ratio <= MAX_PAUSE_RATIO
    ), (
        f"reload pause scaled with the base: {small['pause_ms']:.1f}ms -> "
        f"{big['pause_ms']:.1f}ms ({pause_ratio:.1f}x for a "
        f"{base_ratio:.0f}x base)"
    )

    # 3. The rolling reload is invisible: nothing lost, nothing stale,
    #    p99 within budget of steady state (floor-guarded).
    assert rolling["lost_queries"] == 0
    assert rolling["stale_responses"] == 0
    assert (
        rolling["rolling_p99_ms"] <= ROLLING_FLOOR_MS
        or rolling["rolling_p99_ms"]
        <= MAX_ROLLING_P99_RATIO * rolling["steady_p99_ms"]
    ), (
        f"query p99 during the rolling reload: "
        f"{rolling['rolling_p99_ms']:.1f}ms vs steady "
        f"{rolling['steady_p99_ms']:.1f}ms "
        f"(budget {MAX_ROLLING_P99_RATIO}x)"
    )
