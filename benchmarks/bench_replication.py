"""Geo-replication: delta-streamed catch-up vs full snapshot shipping.

The replication plane's bargain: after a one-time base seed, a follower
refreshes at the cost of the *delta*, not the corpus.  Three claims are
measured and asserted:

1. **Bytes-on-wire track churn, not corpus size**: across a churn sweep
   (0.1%, 1%, 10% of owners touched per epoch) the follower's catch-up
   traffic is compared against shipping the leader's compacted snapshot
   whole.  The ratio is reported and must fall as churn rises; the hard
   bound is absolute -- at >= 1% churn (where the segment's fixed ~2 kB
   header is amortised) the delta costs <= 256 B per touched owner.  A
   ratio floor would move with the snapshot format, which is not what
   this bench measures.
2. **Catch-up converges byte-identically**: each sweep leg folds the
   streamed segments on the follower and requires the resulting snapshot
   to equal the leader's byte for byte -- the bench reasserts the
   property-test invariant on realistic sizes, and prices both strategies
   on the ``repro.net`` WAN profile.
3. **Zero stale reads across a leader rollout**: a replica-set client
   (leader + follower) keeps querying while the leader hot-swaps to a new
   epoch; once the client has seen the new epoch, every answer must carry
   the new rows -- the still-catching-up follower is skipped, never
   believed.

Emits ``benchmarks/results/BENCH_replication.json``.  Quick mode for the
CI smoke job: ``REPLICATION_BENCH_QUICK=1`` shrinks the corpus but still
sweeps all three churn levels and rolls a live replica set.
"""

import asyncio
import json
import math
import os
import pathlib
import shutil
import time

import numpy as np

from repro.analysis.reporting import format_table
from repro.core.postings import PostingsIndex
from repro.replication import ReplicaApplier, ReplicaServer, ReplicationCostModel, SegmentStreamer
from repro.serving.client import LocatorClient, RetryPolicy
from repro.serving.server import PPIServer, ShardSpec
from repro.serving.snapshot import load_postings, save_snapshot
from repro.updates import DeltaLog, compact_snapshot, seal_segment

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

QUICK = os.environ.get("REPLICATION_BENCH_QUICK") == "1"
PROVIDERS = 64
DENSITY = 0.05
NOISE_KEY = b"\xcd" * 16

OWNERS = 2_000 if QUICK else 20_000
CHURN_LEVELS = [0.001, 0.01, 0.10]
MAX_DELTA_BYTES_PER_OWNER = 256  # streamed segment bytes / touched owner, churn >= 1%

ROLLOUT_SAMPLE = 200  # owners queried per sweep in the rollout leg
RETRY = RetryPolicy(max_retries=2, timeout_s=5.0, base_delay_s=0.01)


def _published(seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return (rng.random((PROVIDERS, OWNERS)) < DENSITY).astype(np.uint8)


def _seal_churn(workdir: pathlib.Path, churn: float, seed: int) -> tuple:
    """One sealed segment touching ``churn * OWNERS`` owners."""
    rng = np.random.default_rng(seed)
    touched = max(1, int(round(churn * OWNERS)))
    owners = rng.choice(OWNERS, size=touched, replace=False)
    log_path = workdir / "churn.log"
    with DeltaLog.create(str(log_path), PROVIDERS, noise_key=NOISE_KEY) as log:
        for owner in owners:
            providers = sorted(
                int(p) for p in rng.choice(PROVIDERS, size=3, replace=False)
            )
            log.upsert(int(owner), providers, beta=0.25)
        seg_path = workdir / "000001.seg.npz"
        seal_segment(log, str(seg_path), base_epoch=0)
    os.unlink(log_path)
    return str(seg_path), touched


# -- 1 + 2. churn sweep: bytes on wire, catch-up, byte identity ---------------


def run_churn_leg(workdir: pathlib.Path, churn: float, seed: int) -> dict:
    workdir.mkdir()
    leader = str(workdir / "leader.npz")
    follower = str(workdir / "follower.npz")
    save_snapshot(
        PostingsIndex.from_dense(_published(seed)), leader,
        format_version=3, epoch=0,
    )
    shutil.copyfile(leader, follower)  # the one-time seed transfer
    seg_path, touched = _seal_churn(workdir, churn, seed + 1)

    async def body() -> dict:
        streamer = SegmentStreamer(leader, str(workdir))
        await streamer.start()
        streamer.refresh()  # archive before the leader's compactor runs
        compact_snapshot(leader, [seg_path])  # leader -> epoch 1
        os.unlink(seg_path)
        snapshot_bytes = os.path.getsize(leader)

        cost = ReplicationCostModel()  # WAN profile
        applier = ReplicaApplier(
            streamer.address, follower,
            segment_dir=str(workdir / "follower-segs"),
            retry=RETRY, cost_model=cost,
        )
        try:
            started = time.perf_counter()
            stats = await applier.sync_once()
            catch_up_s = time.perf_counter() - started
            assert stats["epochs_behind"] == 0
            assert applier.epoch == 1
            with open(leader, "rb") as f:
                leader_bytes = f.read()
            with open(follower, "rb") as f:
                follower_bytes = f.read()
            assert follower_bytes == leader_bytes, (
                f"follower snapshot diverged at churn {churn}"
            )
            delta_bytes = applier.bytes_fetched
            ship_chunks = max(1, math.ceil(snapshot_bytes / streamer.chunk_bytes))
            wan_snapshot_s = cost.transfer(
                snapshot_bytes, n_transfers=ship_chunks
            ).seconds
            return {
                "churn": churn,
                "touched": touched,
                "delta_bytes": delta_bytes,
                "delta_bytes_per_owner": delta_bytes / touched,
                "snapshot_bytes": snapshot_bytes,
                "bytes_ratio": snapshot_bytes / delta_bytes,
                "catch_up_s": catch_up_s,
                "wan_delta_s": applier.wan_seconds,
                "wan_snapshot_s": wan_snapshot_s,
                "wan_speedup": wan_snapshot_s / applier.wan_seconds,
            }
        finally:
            await applier.close()
            await streamer.stop()

    return asyncio.run(body())


# -- 3. zero stale reads across a leader rollout ------------------------------


def run_rollout_leg(workdir: pathlib.Path, seed: int = 97) -> dict:
    workdir.mkdir()
    leader_path = str(workdir / "leader.npz")
    follower_path = str(workdir / "follower.npz")
    save_snapshot(
        PostingsIndex.from_dense(_published(seed)), leader_path,
        format_version=3, epoch=0,
    )
    shutil.copyfile(leader_path, follower_path)
    sample = list(range(0, OWNERS, max(1, OWNERS // ROLLOUT_SAMPLE)))

    async def body() -> dict:
        leader = PPIServer(
            load_postings(leader_path, mmap=True), ShardSpec(),
            snapshot_path=leader_path, epoch=0,
        )
        await leader.start()
        streamer = SegmentStreamer(leader_path, str(workdir))
        await streamer.start()
        applier = ReplicaApplier(
            streamer.address, follower_path,
            segment_dir=str(workdir / "follower-segs"),
            retry=RETRY,
        )
        follower = ReplicaServer(applier, ShardSpec())
        await follower.start()
        client = LocatorClient(
            servers=[[leader.address, follower.address]],
            retry=RETRY, cache_size=0,
        )
        reads = stale = 0
        try:
            await applier.sync_once()  # follower serving at epoch 0
            base = {o: await client.query(o) for o in sample}
            reads += len(sample)

            # Leader rollout: seal a churn segment, compact, hot-swap.
            seg_path, _ = _seal_churn(workdir, 0.01, seed + 1)
            streamer.refresh()
            compact_snapshot(leader_path, [seg_path])
            os.unlink(seg_path)
            leader.swap_index(
                load_postings(leader_path, mmap=True), 1,
                snapshot_path=leader_path,
            )
            merged = load_postings(leader_path)
            fresh = {o: merged.query(o) for o in sample}
            assert fresh != base

            # Sweep while the follower still lags: once the client has
            # seen epoch 1, a pre-rollout answer is a stale read.
            for owner in sample:
                answer = await client.query(owner)
                reads += 1
                if client.fleet_epoch >= 1 and answer != fresh[owner]:
                    stale += 1
            assert client.fleet_epoch == 1

            # Follower catches up; the client readmits it and the whole
            # set answers the new epoch.
            catch_started = time.perf_counter()
            stats = await applier.sync_once()
            follower_lag_s = time.perf_counter() - catch_started
            assert stats["epoch"] == 1
            await client.refresh_routing()
            for owner in sample:
                answer = await client.query(owner)
                reads += 1
                if answer != fresh[owner]:
                    stale += 1
            return {
                "sampled_owners": len(sample),
                "reads": reads,
                "stale_reads": stale,
                "stale_replica_skips": client.stale_replica_skips,
                "follower_catch_up_s": follower_lag_s,
            }
        finally:
            await client.close()
            await follower.stop()
            await applier.close()
            await streamer.stop()
            await leader.stop()

    return asyncio.run(body())


# -- the test ------------------------------------------------------------------


def test_replication_catch_up(benchmark, report, tmp_path):
    def run():
        rows = [
            run_churn_leg(tmp_path / f"churn_{i}", churn, seed=41 + i)
            for i, churn in enumerate(CHURN_LEVELS)
        ]
        return {"rows": rows, "rollout": run_rollout_leg(tmp_path / "rollout")}

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    rows, rollout = results["rows"], results["rollout"]
    at_1pct = next(r for r in rows if r["churn"] == 0.01)

    report(
        f"Geo-replication: delta streaming vs snapshot shipping over "
        f"{OWNERS} owners{' (quick)' if QUICK else ''}",
        format_table(
            ["churn", "touched", "delta-bytes", "delta-B/owner", "snapshot-bytes",
             "bytes-ratio", "catch-up-s", "wan-speedup"],
            [
                [r["churn"], r["touched"], r["delta_bytes"],
                 round(r["delta_bytes_per_owner"], 1),
                 r["snapshot_bytes"], round(r["bytes_ratio"], 1),
                 round(r["catch_up_s"], 4), round(r["wan_speedup"], 1)]
                for r in rows
            ],
        )
        + "\n"
        + format_table(
            ["rollout-metric", "value"],
            [
                ["reads", rollout["reads"]],
                ["stale-reads", rollout["stale_reads"]],
                ["stale-replica-skips", rollout["stale_replica_skips"]],
                ["follower-catch-up-s",
                 round(rollout["follower_catch_up_s"], 4)],
            ],
        ),
    )

    RESULTS_DIR.mkdir(exist_ok=True)
    payload = {
        "benchmark": "replication_catch_up",
        "quick_mode": QUICK,
        "owners": OWNERS,
        "providers": PROVIDERS,
        "churn_levels": CHURN_LEVELS,
        "max_delta_bytes_per_owner": MAX_DELTA_BYTES_PER_OWNER,
        "bytes_ratio_at_1pct": at_1pct["bytes_ratio"],
        "rows": rows,
        "rollout": rollout,
    }
    (RESULTS_DIR / "BENCH_replication.json").write_text(
        json.dumps(payload, indent=2) + "\n"
    )

    # 1. Bytes on wire track churn: a bounded cost per touched owner once
    #    the segment header is amortised, and relatively cheaper than
    #    snapshot shipping the lower the churn.
    for row in rows:
        if row["churn"] >= 0.01:
            assert row["delta_bytes_per_owner"] <= MAX_DELTA_BYTES_PER_OWNER, (
                f"churn {row['churn']}: {row['delta_bytes_per_owner']:.1f} B "
                f"per touched owner (bound {MAX_DELTA_BYTES_PER_OWNER} B)"
            )
    assert rows[0]["bytes_ratio"] > rows[-1]["bytes_ratio"]

    # 2. The WAN model agrees: streaming wins wherever churn is small.
    assert at_1pct["wan_speedup"] > 1.0

    # 3. Zero stale reads across the rollout.
    assert rollout["stale_reads"] == 0, rollout
    assert rollout["reads"] >= 3 * rollout["sampled_owners"]
