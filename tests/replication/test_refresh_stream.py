"""A publish cycle with a β refresh replicates like any other.

``BetaRefresher.refresh_into`` appends the republished owners to the
cycle's own log, so every cycle -- refreshed or not -- seals one segment
under the writer's own name, the streamer archives it like any other, and
a follower tailing the stream folds it to a snapshot byte-identical to the
leader's: one segment and one epoch per cycle.
"""

import asyncio
import hashlib
import os
import random

from repro.core.policies import BasicPolicy
from repro.mpc.betacalc import secure_beta_calculation
from repro.replication import ReplicaApplier, SegmentStreamer
from repro.serving.client import RetryPolicy
from repro.serving.snapshot import snapshot_epoch
from repro.updates import BetaRefresher, DeltaLog, compact_snapshot, seal_segment

from tests.replication.conftest import KEY, N_OWNERS, N_PROVIDERS


def sha256(path: str) -> str:
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def held_refresher(world) -> BetaRefresher:
    bits = world["index"].to_dense().astype(int).tolist()
    eps = [(0.2, 0.4, 0.6)[j % 3] for j in range(N_OWNERS)]
    held = secure_beta_calculation(
        bits, eps, BasicPolicy(), 3, random.Random(5),
        keep_state=True,
    )
    return BetaRefresher(held.state, bits, drift_threshold=1e-9)


def publish_cycle(world, streamer, refresher, cycle: int, owner: int, providers):
    """log -> refresh_into -> seal once -> archive -> compact."""
    leader = world["leader_snapshot"]
    log_path = str(world["tmp"] / f"cycle-{cycle}.log")
    seg_path = os.path.join(world["segment_dir"], f"{cycle:06d}.seg.npz")
    with DeltaLog.create(log_path, N_PROVIDERS, noise_key=KEY) as log:
        log.upsert(owner, sorted(providers), beta=float(refresher.state.betas[owner]))
        outcome = refresher.refresh_into(log, random.Random(cycle))
        seal_segment(log, seg_path, base_epoch=snapshot_epoch(leader))
    os.unlink(log_path)
    streamer.refresh()
    compact_snapshot(leader, [seg_path])
    os.unlink(seg_path)
    return outcome


def test_follower_converges_one_epoch_per_cycle(world):
    leader, follower = world["leader_snapshot"], world["follower_snapshot"]
    os.makedirs(world["segment_dir"], exist_ok=True)
    refresher = held_refresher(world)
    # Cycle 1: a rare owner turns universal -> it becomes common, λ moves,
    # and the refresh republishes owners beyond the churned one.  Cycles 2
    # and 3 are ordinary churn.
    cycles = [(1, range(N_PROVIDERS)), (4, {0, 2}), (7, {1})]

    async def _main():
        streamer = SegmentStreamer(leader, world["segment_dir"])
        await streamer.start()
        applier = ReplicaApplier(
            streamer.address,
            follower,
            segment_dir=str(world["tmp"] / "follower-segs"),
            retry=RetryPolicy(max_retries=1, timeout_s=2.0),
        )
        try:
            for cycle, (owner, providers) in enumerate(cycles, start=1):
                outcome = publish_cycle(
                    world, streamer, refresher, cycle, owner, providers
                )
                if cycle == 1:
                    assert outcome.lambda_after != outcome.lambda_before
                    assert set(outcome.republished) - {owner}
                assert snapshot_epoch(leader) == cycle
                names = [entry["name"] for entry in streamer.manifest()]
                assert names == [f"{k:06d}.seg.npz" for k in range(1, cycle + 1)]
                assert not any("~" in name for name in names)
                assert os.listdir(world["segment_dir"]) == ["repl-archive"]

                for _ in range(4):
                    stats = await applier.sync_once(force_compact=True)
                    if applier.epoch == cycle:
                        break
                assert stats["epochs_behind"] == 0
                assert applier.epoch == cycle
                assert sha256(follower) == sha256(leader)
        finally:
            await applier.close()
            await streamer.stop()

    asyncio.run(_main())
