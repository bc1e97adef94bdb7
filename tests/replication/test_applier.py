"""Follower-side replication tests: tail, fold, swap.

Covers the acceptance-critical behaviors: byte-identical follower
compaction, answers labelled epoch E that are the leader's epoch-E rows,
zero stale reads across a leader rollout (read-your-epoch), and
crash-safe resume after a SIGKILL mid-catch-up.
"""

import asyncio
import multiprocessing
import os
import shutil
import signal

import pytest

from repro.replication import (
    ReplicaApplier,
    ReplicaServer,
    ReplicationCostModel,
    ReplicationError,
    SegmentStreamer,
    decode_chunk,
)
from repro.serving.client import LocatorClient, RetryPolicy
from repro.serving.protocol import VERB_QUERY_BATCH
from repro.serving.server import PPIServer, ShardSpec
from repro.serving.snapshot import load_postings, snapshot_epoch
from repro.updates import compact_snapshot
from repro.updates.segments import load_segment

from tests.replication.conftest import N_OWNERS, seal

NOWHERE = ("127.0.0.1", 1)  # a leader address never dialed


def truth(snapshot_path: str, owner_id: int) -> list:
    index = load_postings(snapshot_path)
    try:
        return index.query(owner_id)
    finally:
        if hasattr(index, "release"):
            index.release()


async def start_streamer(world, **kwargs) -> SegmentStreamer:
    os.makedirs(world["segment_dir"], exist_ok=True)
    streamer = SegmentStreamer(
        world["leader_snapshot"], world["segment_dir"], **kwargs
    )
    await streamer.start()
    return streamer


def follower_applier(world, leader, **kwargs) -> ReplicaApplier:
    return ReplicaApplier(
        leader,
        world["follower_snapshot"],
        segment_dir=str(world["tmp"] / "follower-segs"),
        retry=RetryPolicy(max_retries=1, timeout_s=2.0),
        **kwargs,
    )


def sealed_row(seg_path: str, owner_id: int) -> list:
    """The published (noise-obscured) row a sealed segment holds."""
    return load_segment(seg_path).postings(owner_id).tolist()


class TestTail:
    def test_sync_fetches_an_open_epoch_segment_without_serving_it(self, world):
        seg = seal(world["tmp"], "000001.seg.npz", 0, [("upsert", 5, {0, 3, 7}, 0.5)])
        expected = sealed_row(seg, 5)
        assert set(expected) >= {0, 3, 7}  # true providers + injected noise

        async def _main():
            streamer = await start_streamer(world)
            applier = follower_applier(world, streamer.address)
            try:
                stats = await applier.sync_once()
                assert stats["segments_fetched"] == 1
                assert stats["pending_segments"] == 1
                assert stats["epochs_behind"] == 0
                # Epoch 0 is still open on the leader: the follower keeps
                # the segment on disk and serves its epoch-0 base.
                local = os.path.join(applier.segment_dir, "000001.seg.npz")
                assert sealed_row(local, 5) == expected
                assert applier.serving_index().query(5) == truth(
                    world["leader_snapshot"], 5
                )
                # The cursor makes a second round a no-op.
                again = await applier.sync_once()
                assert again["segments_fetched"] == 0
                assert applier.bytes_fetched == stats["bytes_fetched"]
            finally:
                await applier.close()
                await streamer.stop()

        asyncio.run(_main())

    def test_fallen_behind_retention_window_raises(self, world):
        # Epoch-0 history is gone before the streamer ever archived it: the
        # follower (still at epoch 0) cannot reconstruct the boundary.
        seg1 = seal(world["tmp"], "000001.seg.npz", 0, [("upsert", 5, {1}, 0.5)])
        compact_snapshot(world["leader_snapshot"], [seg1])  # leader -> epoch 1
        os.unlink(seg1)
        seal(world["tmp"], "000002.seg.npz", 1, [("upsert", 6, {2}, 0.5)])
        compact_snapshot(
            world["leader_snapshot"],
            [str(world["tmp"] / "segments" / "000002.seg.npz")],
        )  # leader -> epoch 2; 000002 is now a completed epoch too

        async def _main():
            streamer = await start_streamer(world)
            applier = follower_applier(world, streamer.address)
            try:
                with pytest.raises(ReplicationError, match="retention"):
                    await applier.sync_once(force_compact=True)
            finally:
                await applier.close()
                await streamer.stop()

        asyncio.run(_main())

    def test_recover_drops_corrupt_and_already_compacted_segments(self, world):
        seg = seal(world["tmp"], "000001.seg.npz", 0, [("upsert", 5, {1}, 0.5)])
        segdir = str(world["tmp"] / "follower-segs")
        os.makedirs(segdir)
        # A stale copy: the follower's base already compacted past epoch 0.
        shutil.copyfile(seg, os.path.join(segdir, "000001.seg.npz"))
        compact_snapshot(world["follower_snapshot"], [seg])  # follower epoch 1
        with open(os.path.join(segdir, "000002.seg.npz"), "wb") as f:
            f.write(b"torn by a crash")
        with open(os.path.join(segdir, "000003.seg.npz.part"), "wb") as f:
            f.write(b"half a download")

        applier = follower_applier(world, NOWHERE)
        assert applier.pending_segments() == 0
        assert applier._cursor is None
        assert os.path.exists(os.path.join(segdir, "000003.seg.npz.part"))
        asyncio.run(applier.close())


class TestCompaction:
    def test_follower_snapshot_is_byte_identical_to_leaders(self, world):
        # Leader: two epoch boundaries, each folding its full segment set,
        # plus one still-pending segment on top.
        s1 = seal(world["tmp"], "000001.seg.npz", 0, [("upsert", 5, {1, 2}, 0.5)])
        s2 = seal(world["tmp"], "000002.seg.npz", 0, [("remove", 3)])
        s3 = seal(world["tmp"], "000003.seg.npz", 1, [("upsert", 7, {0, 4}, 0.25)])
        seal(world["tmp"], "000004.seg.npz", 2, [("upsert", 9, {6}, 0.5)])

        async def _main():
            streamer = await start_streamer(world)  # archives before compaction
            streamer.refresh()
            # The leader's own compactor folds and deletes its inputs.
            compact_snapshot(world["leader_snapshot"], [s1, s2])
            os.unlink(s1), os.unlink(s2)
            compact_snapshot(world["leader_snapshot"], [s3])
            os.unlink(s3)
            assert snapshot_epoch(world["leader_snapshot"]) == 2

            applier = follower_applier(
                world, streamer.address, compact_threshold=1
            )
            try:
                stats = await applier.sync_once()
                assert stats["segments_fetched"] == 4
                assert stats["epochs_compacted"] == 2
                assert applier.epoch == 2
                assert stats["pending_segments"] == 1  # the open epoch-2 seg
                with open(world["leader_snapshot"], "rb") as f:
                    leader_bytes = f.read()
                with open(world["follower_snapshot"], "rb") as f:
                    follower_bytes = f.read()
                assert follower_bytes == leader_bytes
            finally:
                await applier.close()
                await streamer.stop()

        asyncio.run(_main())

    def test_promote_folds_everything_and_detaches(self, world):
        seg = seal(world["tmp"], "000001.seg.npz", 0, [("upsert", 5, {1, 2}, 0.5)])
        segdir = str(world["tmp"] / "follower-segs")
        os.makedirs(segdir)
        shutil.copyfile(seg, os.path.join(segdir, "000001.seg.npz"))

        async def _main():
            applier = follower_applier(world, NOWHERE)
            try:
                status = await applier.promote()
                assert status["detached"] is True
                assert status["epoch"] == 1
                assert status["pending_segments"] == 0
                assert snapshot_epoch(world["follower_snapshot"]) == 1
                assert truth(world["follower_snapshot"], 5) == sealed_row(seg, 5)
                with pytest.raises(ReplicationError, match="detached"):
                    await applier.sync_once()
            finally:
                await applier.close()

        asyncio.run(_main())

    def test_each_fetched_segment_is_parsed_once(self, world, monkeypatch):
        """A pending segment, two epoch folds and a promotion all reuse the
        segment verified on fetch: one parse per segment file, end to end."""
        segdir = str(world["tmp"] / "follower-segs")
        parsed = []

        def counting_load(path):
            if path.startswith(segdir):
                parsed.append(os.path.basename(path))
            return load_segment(path)

        monkeypatch.setattr("repro.replication.applier.load_segment", counting_load)
        monkeypatch.setattr("repro.updates.compactor.load_segment", counting_load)
        leader = world["leader_snapshot"]

        async def _main():
            streamer = await start_streamer(world)
            applier = follower_applier(world, streamer.address, compact_threshold=1)
            try:
                s1 = seal(world["tmp"], "000001.seg.npz", 0, [("upsert", 5, {1, 2}, 0.5)])
                streamer.refresh()
                await applier.sync_once()  # fetch only: epoch 0 still open
                assert applier.pending_segments() == 1
                assert applier.serving_index().query(5) == truth(leader, 5)
                row5 = sealed_row(s1, 5)
                compact_snapshot(leader, [s1])
                os.unlink(s1)
                s2 = seal(world["tmp"], "000002.seg.npz", 1, [("remove", 3)])
                streamer.refresh()
                compact_snapshot(leader, [s2])
                os.unlink(s2)
                s3 = seal(world["tmp"], "000003.seg.npz", 2, [("upsert", 7, {4}, 0.25)])
                streamer.refresh()
                stats = await applier.sync_once(force_compact=True)
                assert (stats["epochs_compacted"], applier.epoch) == (2, 2)
                assert applier.serving_index().query(5) == row5
                assert applier.serving_index().query(3) == []
                assert applier.pending_segments() == 1  # s3: epoch 2 is open
                await applier.promote()
                compact_snapshot(leader, [s3])
                with open(leader, "rb") as f, open(world["follower_snapshot"], "rb") as g:
                    assert f.read() == g.read()
            finally:
                await applier.close()
                await streamer.stop()

        asyncio.run(_main())
        assert sorted(parsed) == [
            f"00000{k}.seg.npz.part" for k in (1, 2, 3)
        ]

    def test_cost_model_accumulates_wan_seconds(self, world):
        seal(world["tmp"], "000001.seg.npz", 0, [("upsert", 5, {1}, 0.5)])

        async def _main():
            streamer = await start_streamer(world)
            applier = follower_applier(
                world, streamer.address, cost_model=ReplicationCostModel()
            )
            try:
                await applier.sync_once()
                assert applier.wan_seconds > 0
                assert applier.status()["wan_seconds"] == applier.wan_seconds
            finally:
                await applier.close()
                await streamer.stop()

        asyncio.run(_main())


def keep_leader_epoch(world, snapshots: dict) -> None:
    """Copy the leader's current snapshot aside, keyed by its epoch."""
    epoch = snapshot_epoch(world["leader_snapshot"])
    snapshots[epoch] = str(world["tmp"] / f"leader-at-{epoch}.npz")
    shutil.copyfile(world["leader_snapshot"], snapshots[epoch])


async def assert_labels_are_the_leaders(client, follower, snapshots: dict) -> int:
    """Every answer the follower gives under label E is the row the
    leader's epoch-E snapshot holds; returns E."""
    reply = await client.call(
        follower.address, VERB_QUERY_BATCH, owners=list(range(N_OWNERS))
    )
    epoch = reply["epoch"]
    answers = {int(owner): row for owner, row in reply["results"].items()}
    assert answers == {o: truth(snapshots[epoch], o) for o in range(N_OWNERS)}, epoch
    return epoch


class TestLabelledEpoch:
    """One (owner, epoch) pair has one answer: the client's epoch-tagged
    cache and read-your-epoch routing rest on it."""

    async def _follower(self, world, streamer):
        applier = follower_applier(world, streamer.address)
        follower = await ReplicaServer(applier, ShardSpec()).start()
        client = LocatorClient(
            servers=[follower.address],
            retry=RetryPolicy(max_retries=1, timeout_s=2.0),
            cache_size=0,
        )
        return applier, follower, client

    def test_a_completed_epoch_is_answered_only_once_folded(self, world):
        snapshots = {}
        keep_leader_epoch(world, snapshots)
        seg = seal(world["tmp"], "000001.seg.npz", 0, [("upsert", 5, {0, 3, 7}, 0.0)])

        async def _main():
            streamer = await start_streamer(world)
            streamer.refresh()  # archive before the leader folds it
            compact_snapshot(world["leader_snapshot"], [seg])
            os.unlink(seg)
            keep_leader_epoch(world, snapshots)
            applier, follower, client = await self._follower(world, streamer)
            try:
                await applier.sync_once()
                assert await assert_labels_are_the_leaders(client, follower, snapshots) == 1
            finally:
                await client.close()
                await follower.stop()
                await applier.close()
                await streamer.stop()

        asyncio.run(_main())

    def test_an_open_epoch_segment_is_not_answered(self, world):
        snapshots = {}
        keep_leader_epoch(world, snapshots)

        async def _main():
            streamer = await start_streamer(world)
            applier, follower, client = await self._follower(world, streamer)
            try:
                s1 = seal(world["tmp"], "000001.seg.npz", 0, [("upsert", 5, {0, 3, 7}, 0.0)])
                await applier.sync_once()
                assert await assert_labels_are_the_leaders(client, follower, snapshots) == 0
                streamer.refresh()
                compact_snapshot(world["leader_snapshot"], [s1])
                os.unlink(s1)
                keep_leader_epoch(world, snapshots)
                seal(world["tmp"], "000002.seg.npz", 1, [("remove", 5)])
                await applier.sync_once()
                assert await assert_labels_are_the_leaders(client, follower, snapshots) == 1
                assert applier.pending_segments() == 1
            finally:
                await client.close()
                await follower.stop()
                await applier.close()
                await streamer.stop()

        asyncio.run(_main())

    def test_compat_points_accept_only_the_fold_every_epoch_rule(self, world):
        with pytest.raises(ValueError, match="compact_threshold"):
            follower_applier(world, NOWHERE, compact_threshold=4)
        applier = follower_applier(world, NOWHERE, compact_threshold=1)
        assert "compact_threshold" not in applier.status()
        asyncio.run(applier.close())


class TestZeroStaleReads:
    def test_reads_never_regress_across_leader_rollout(self, world):
        """A client that has seen epoch E never reads pre-E state, even
        while the follower is still catching up -- and converges back onto
        the follower once it has."""
        n_owners = 24

        async def _main():
            leader = PPIServer(
                load_postings(world["leader_snapshot"], mmap=True),
                ShardSpec(),
                snapshot_path=world["leader_snapshot"],
                epoch=0,
            )
            await leader.start()
            streamer = await start_streamer(world)
            applier = follower_applier(world, streamer.address)
            follower = ReplicaServer(applier, ShardSpec())
            await follower.start()
            client = LocatorClient(
                servers=[[leader.address, follower.address]],
                retry=RetryPolicy(max_retries=1, timeout_s=2.0),
                cache_size=0,
            )
            try:
                base = {o: await client.query(o) for o in range(n_owners)}
                assert client.fleet_epoch == 0

                # Leader rollout: seal, compact, hot-swap to epoch 1.
                seal(
                    world["tmp"], "000001.seg.npz", 0,
                    [("upsert", o, {(o * 5) % 8, (o * 5 + 1) % 8}, 0.5)
                     for o in range(0, n_owners, 2)],
                )
                streamer.refresh()  # archive before the compactor eats it
                compact_snapshot(
                    world["leader_snapshot"],
                    [str(world["tmp"] / "segments" / "000001.seg.npz")],
                )
                leader.swap_index(
                    load_postings(world["leader_snapshot"], mmap=True), 1,
                    snapshot_path=world["leader_snapshot"],
                )
                fresh = {
                    o: truth(world["leader_snapshot"], o)
                    for o in range(n_owners)
                }
                assert fresh != base

                # Sweep with the follower still at epoch 0.  The moment the
                # client sees epoch 1 its fleet_epoch pins: every later
                # answer must be epoch-1 truth, never the follower's old
                # rows.
                for owner in range(n_owners):
                    answer = await client.query(owner)
                    if client.fleet_epoch >= 1:
                        assert answer == fresh[owner], f"stale read for {owner}"
                assert client.fleet_epoch == 1
                # A client that learned epoch 1 but has never heard from
                # the follower still tries it -- and must *reject* its
                # epoch-0 answer, not serve it.
                client.addr_epochs.pop(follower.address, None)
                for owner in range(n_owners):
                    assert await client.query(owner) == fresh[owner]
                assert client.stale_replica_skips > 0

                # Follower catches up (compacting to the same epoch) and
                # rejoins the read set at epoch 1.
                stats = await applier.sync_once(force_compact=True)
                assert stats["epoch"] == 1
                # A routing refresh is how the client learns a skipped
                # replica has caught up and readmits it.
                assert await client.refresh_routing() is True
                for owner in range(n_owners):
                    assert await client.query(owner) == fresh[owner]
                assert client.addr_epochs.get(follower.address) == 1
            finally:
                await client.close()
                await follower.stop()
                await applier.close()
                await streamer.stop()
                await leader.stop()

        asyncio.run(_main())


def _crash_mid_fetch(leader, segment_dir):
    """Child process: download exactly one chunk, then die by SIGKILL."""

    async def _main():
        client = LocatorClient(
            servers=[tuple(leader)],
            retry=RetryPolicy(max_retries=1, timeout_s=5.0),
            cache_size=0,
        )
        sub = await client.call(tuple(leader), "repl-subscribe", after=None)
        entry = sub["segments"][0]
        chunk = await client.call(
            tuple(leader), "repl-segment", name=entry["name"], offset=0
        )
        assert chunk["eof"] is False, "segment must outsize one chunk"
        part = os.path.join(segment_dir, entry["name"] + ".part")
        with open(part, "wb") as f:
            f.write(decode_chunk(chunk["data"]))
            f.flush()
            os.fsync(f.fileno())
        os.kill(os.getpid(), signal.SIGKILL)

    asyncio.run(_main())


class TestCrashRecovery:
    def test_sigkill_mid_catch_up_resumes_from_the_part_file(self, world):
        seg = seal(
            world["tmp"], "000001.seg.npz", 0,
            [("upsert", o, {o % 8, (o + 3) % 8}, 0.5) for o in range(20)],
        )
        size = os.path.getsize(seg)
        segdir = str(world["tmp"] / "follower-segs")
        os.makedirs(segdir)

        async def _main():
            streamer = await start_streamer(world, chunk_bytes=256)
            assert size > 2 * streamer.chunk_bytes
            proc = multiprocessing.get_context("spawn").Process(
                target=_crash_mid_fetch, args=(streamer.address, segdir)
            )
            proc.start()
            await asyncio.get_running_loop().run_in_executor(None, proc.join)
            assert proc.exitcode == -signal.SIGKILL

            part = os.path.join(segdir, "000001.seg.npz.part")
            assert os.path.exists(part)
            part_size = os.path.getsize(part)
            assert 0 < part_size < size

            # A fresh applier (the restarted follower) resumes the torn
            # download instead of starting over, verifies the crc, and
            # keeps the segment until the leader's epoch moves.
            applier = follower_applier(world, streamer.address)
            try:
                stats = await applier.sync_once()
                assert stats["segments_fetched"] == 1
                assert applier.bytes_fetched == size - part_size
                assert not os.path.exists(part)
                local = os.path.join(segdir, "000001.seg.npz")
                assert sealed_row(local, 5) == sealed_row(seg, 5)
                assert applier.pending_segments() == 1
            finally:
                await applier.close()
                await streamer.stop()

        asyncio.run(_main())
