"""Upgrading the segment format under a live chain.

Segments sealed before an upgrade stay in format v1 or v2 -- in a
leader's stream archive and in a follower's local directory -- while new
ones are sealed as v3.  A chain that starts with an old segment must
merge, compact and replicate exactly as the chain sealed all in v3.  The
old segments are the committed golden files; their v3 twin was sealed
from the same delta log.
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
from repro.updates import compact_snapshot, load_segment, merge_segments

from tests.replication.conftest import base_index, seal

DATA_DIR = os.path.join(os.path.dirname(__file__), "..", "updates", "data")
GOLDEN_V1 = os.path.join(DATA_DIR, "golden_segment_v1.seg.npz")
GOLDEN_V2 = os.path.join(DATA_DIR, "golden_segment_v2.seg.npz")
GOLDEN_V3 = os.path.join(DATA_DIR, "golden_segment_v3.seg.npz")
EPOCH = 5  # the goldens' base epoch


def sha256(path: str) -> str:
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


@pytest.fixture
def chains(tmp_path):
    """An epoch-5 base and three chains over it, starting with the v1, v2
    and v3 golden; each goes on with the same two v3 segments (which
    re-touch golden owners 3 and 12)."""
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
        "v1": [GOLDEN_V1] + later,
        "v2": [GOLDEN_V2] + later,
        "v3": [GOLDEN_V3] + later,
    }


def test_merges_equal_the_all_v3_chain(chains):
    base = load_postings(chains["base"], mmap=False)
    v1, v2, v3 = (
        merge_segments(base, [load_segment(p) for p in chains[k]])
        for k in ("v1", "v2", "v3")
    )
    assert v1.n_owners == v2.n_owners == v3.n_owners == 31
    for old in (v1, v2):
        assert np.array_equal(old.indptr, v3.indptr)
        assert np.array_equal(old.indices, v3.indices)
        assert old.indices.dtype == v3.indices.dtype
        assert old.owner_names == v3.owner_names
    assert v3.query_by_name("alice") == v1.query_by_name("alice")


def test_compaction_is_byte_identical_to_the_all_v3_chain(chains):
    outputs = {}
    for key in ("v1", "v2", "v3"):
        out = str(chains["tmp"] / f"{key}.npz")
        summary = compact_snapshot(chains["base"], chains[key], out_path=out)
        assert summary.epoch == EPOCH + 1
        outputs[key] = sha256(out)
    assert outputs["v1"] == outputs["v2"] == outputs["v3"]


def test_follower_holding_v1_converges_on_the_leader(chains):
    """The follower fetched segment 1 before the upgrade and keeps it as
    v1; the leader's archive holds it as v2.  The follower fetches the two
    v3 segments and folds all three."""
    tmp = chains["tmp"]
    follower = str(tmp / "follower.npz")
    shutil.copyfile(chains["base"], follower)
    follower_segs = str(tmp / "follower-segs")
    os.makedirs(follower_segs)
    shutil.copyfile(GOLDEN_V1, os.path.join(follower_segs, "000001.seg.npz"))
    leader_segs = str(tmp / "segments")
    shutil.copyfile(GOLDEN_V2, os.path.join(leader_segs, "000001.seg.npz"))
    leader_chain = sorted(os.path.join(leader_segs, n) for n in os.listdir(leader_segs))
    all_v3 = str(tmp / "all_v3.npz")
    compact_snapshot(chains["base"], chains["v3"], out_path=all_v3)

    async def _main():
        streamer = SegmentStreamer(chains["base"], leader_segs)
        await streamer.start()
        streamer.refresh()  # archive every segment before the leader folds
        compact_snapshot(chains["base"], leader_chain)
        applier = ReplicaApplier(
            streamer.address,
            follower,
            segment_dir=follower_segs,
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
    assert sha256(follower) == sha256(chains["base"]) == sha256(all_v3)
