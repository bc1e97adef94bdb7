"""A β-refresh epoch replicates like any other.

``BetaRefresher.refresh_and_land`` seals, compacts and unlinks its segment
inside one call; handed the leader's ``SegmentStreamer`` it archives the
segment in between, so a follower tailing the stream folds the refresh
epoch -- and the ordinary epochs on either side of it -- to a snapshot
byte-identical to the leader's.
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
    bits = world["index"].matrix.astype(int).tolist()
    eps = [(0.2, 0.4, 0.6)[j % 3] for j in range(N_OWNERS)]
    held = secure_beta_calculation(
        bits, eps, BasicPolicy(), 3, random.Random(5), engine="batch",
        keep_state=True,
    )
    return BetaRefresher(held.state, bits, drift_threshold=1e-9)


def land_churn(world, streamer, refresher, name: str, owner: int, providers) -> None:
    """One ordinary publish cycle: log -> fold -> seal -> archive -> compact."""
    leader = world["leader_snapshot"]
    log_path = str(world["tmp"] / f"{name}.log")
    seg_path = os.path.join(world["segment_dir"], name)
    with DeltaLog.create(log_path, N_PROVIDERS, noise_key=KEY) as log:
        log.upsert(owner, sorted(providers), beta=float(refresher.state.betas[owner]))
        refresher.fold(log.state())
        seal_segment(log, seg_path, base_epoch=snapshot_epoch(leader))
    os.unlink(log_path)
    streamer.refresh()
    compact_snapshot(leader, [seg_path])
    os.unlink(seg_path)


def test_follower_converges_across_a_refresh_epoch(world):
    leader, follower = world["leader_snapshot"], world["follower_snapshot"]
    os.makedirs(world["segment_dir"], exist_ok=True)
    refresher = held_refresher(world)

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
            # Epoch 1: a rare owner turns universal -> it becomes common, λ
            # moves, and the refresh has β to republish.
            land_churn(
                world, streamer, refresher, "000001.seg.npz", 1, range(N_PROVIDERS)
            )
            outcome = refresher.refresh_and_land(
                leader, str(world["tmp"]), KEY, random.Random(9), streamer=streamer
            )
            assert outcome.republished
            assert outcome.epoch == snapshot_epoch(leader) == 2
            # The segment was archived for the stream, then cleaned up.
            assert len(streamer.manifest()) == 2
            assert os.listdir(world["segment_dir"]) == ["repl-archive"]
            # Epoch 3: ordinary churn again -- its counter-named segment must
            # still sort after the refresh segment for the follower's cursor.
            land_churn(world, streamer, refresher, "000002.seg.npz", 4, {0, 2})
            names = [entry["name"] for entry in streamer.manifest()]
            assert names == sorted(names) and names[-1] == "000002.seg.npz"

            for _ in range(4):
                stats = await applier.sync_once(force_compact=True)
            assert stats["epochs_behind"] == 0
            assert applier.epoch == snapshot_epoch(leader) == 3
            assert sha256(follower) == sha256(leader)
        finally:
            await applier.close()
            await streamer.stop()

    asyncio.run(_main())
