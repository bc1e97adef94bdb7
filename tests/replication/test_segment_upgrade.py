"""Upgrading the segment format under a live chain.

Segments sealed before an upgrade stay in format v1 -- in a leader's
stream archive and in a follower's local directory -- while new ones are
sealed as v2.  A chain that mixes both must serve, compact and replicate
exactly as the chain sealed all in v2.  The v1 segment is the committed
golden file; its v2 twin was sealed from the same delta log.
"""

import asyncio
import hashlib
import os
import shutil

import numpy as np
import pytest

from repro.replication import ReplicaApplier, SegmentStreamer
from repro.serving.client import RetryPolicy
from repro.serving.snapshot import load_postings, save_snapshot
from repro.updates import OverlayIndex, compact_snapshot, load_segment

from tests.replication.conftest import base_index, seal

DATA_DIR = os.path.join(os.path.dirname(__file__), "..", "updates", "data")
GOLDEN_V1 = os.path.join(DATA_DIR, "golden_segment_v1.seg.npz")
GOLDEN_V2 = os.path.join(DATA_DIR, "golden_segment_v2.seg.npz")
EPOCH = 5  # the goldens' base epoch


def sha256(path: str) -> str:
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


@pytest.fixture
def chains(tmp_path):
    """An epoch-5 base and two chains over it: ``mixed`` starts with the
    v1 golden, ``all_v2`` with its v2 twin; both go on with the same two
    v2 segments (which re-touch golden owners 3 and 12)."""
    base = str(tmp_path / "base.npz")
    save_snapshot(base_index(), base, epoch=EPOCH)
    later = [
        seal(tmp_path, "000002.seg.npz", EPOCH, [("upsert", 3, {0, 5}, 0.3), ("remove", 20)]),
        seal(
            tmp_path,
            "000003.seg.npz",
            EPOCH,
            [("upsert", 12, {2}, 0.6), ("upsert", 30, {7}, 0.2)],
        ),
    ]
    return {
        "tmp": tmp_path,
        "base": base,
        "mixed": [GOLDEN_V1] + later,
        "all_v2": [GOLDEN_V2] + later,
    }


def test_overlay_answers_equal_the_all_v2_chain(chains):
    base = load_postings(chains["base"], mmap=False)
    mixed, all_v2 = (
        OverlayIndex(base, [load_segment(p) for p in chains[k]])
        for k in ("mixed", "all_v2")
    )
    ids = np.arange(all_v2.n_owners)
    assert mixed.n_owners == all_v2.n_owners == 31
    assert mixed.overlay_owners == all_v2.overlay_owners == [3, 9, 12, 20, 30]
    assert mixed.query_many(ids) == all_v2.query_many(ids)
    for got, want in zip(mixed.query_many_arrays(ids), all_v2.query_many_arrays(ids)):
        assert got.tolist() == want.tolist()
    assert mixed.owner_names == all_v2.owner_names
    assert mixed.query_by_name("alice") == all_v2.query_by_name("alice")
    assert mixed.stats() == all_v2.stats()


def test_compaction_is_byte_identical_to_the_all_v2_chain(chains):
    outputs = {}
    for key in ("mixed", "all_v2"):
        out = str(chains["tmp"] / f"{key}.npz")
        summary = compact_snapshot(chains["base"], chains[key], out_path=out)
        assert summary.epoch == EPOCH + 1
        outputs[key] = sha256(out)
    assert outputs["mixed"] == outputs["all_v2"]


def test_follower_holding_v1_converges_on_the_leader(chains):
    """The follower fetched segment 1 before the upgrade and keeps it as
    v1; it fetches the two v2 segments and folds all three."""
    tmp = chains["tmp"]
    follower = str(tmp / "follower.npz")
    shutil.copyfile(chains["base"], follower)
    follower_segs = str(tmp / "follower-segs")
    os.makedirs(follower_segs)
    shutil.copyfile(GOLDEN_V1, os.path.join(follower_segs, "000001.seg.npz"))
    leader_segs = str(tmp / "segments")
    shutil.copyfile(GOLDEN_V2, os.path.join(leader_segs, "000001.seg.npz"))
    leader_chain = sorted(os.path.join(leader_segs, n) for n in os.listdir(leader_segs))
    all_v2 = str(tmp / "all_v2.npz")
    compact_snapshot(chains["base"], chains["all_v2"], out_path=all_v2)

    async def _main():
        streamer = SegmentStreamer(chains["base"], leader_segs)
        await streamer.start()
        streamer.refresh()  # archive every segment before the leader folds
        compact_snapshot(chains["base"], leader_chain)
        applier = ReplicaApplier(
            streamer.address,
            follower,
            segment_dir=follower_segs,
            compact_threshold=1,
            retry=RetryPolicy(max_retries=1, timeout_s=2.0),
        )
        try:
            stats = await applier.sync_once()
            assert stats["segments_fetched"] == 2
            assert stats["epochs_compacted"] == 1
            assert applier.epoch == EPOCH + 1
        finally:
            await applier.close()
            await streamer.stop()

    asyncio.run(_main())
    assert sha256(follower) == sha256(chains["base"]) == sha256(all_v2)
