"""Property: a streamed-and-compacted follower is byte-identical, and
answers only what the leader published under the same epoch.

The replication plane's central claim: a follower that downloads the
leader's sealed segments and folds each completed epoch's segment set with
the same ``compact_snapshot`` merge produces, at every epoch boundary, a
snapshot whose *bytes* equal the leader's -- not merely an equivalent
index.  And at every sync point, whether the leader's epoch is open (its
segments fetched but not yet folded) or just closed, every answer the
follower serves under label E is the leader's epoch-E row.  Hypothesis
drives arbitrary multi-epoch histories (upserts, removes, multiple
segments per epoch) through both sides.
"""

import asyncio
import os
import shutil
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.postings import PostingsIndex
from repro.replication import ReplicaApplier, ReplicaServer, SegmentStreamer
from repro.serving.client import LocatorClient, RetryPolicy
from repro.serving.protocol import VERB_QUERY_BATCH
from repro.serving.snapshot import load_postings, save_snapshot, snapshot_epoch
from repro.updates import DeltaLog, compact_snapshot, seal_segment

KEY = b"\x2a" * 16
N_PROVIDERS = 6
N_OWNERS = 16
RETRY = RetryPolicy(max_retries=1, timeout_s=2.0)


@st.composite
def histories(draw):
    """A multi-epoch update history: ``history[e]`` is epoch ``e``'s list
    of segments, each a list of ops."""
    n_epochs = draw(st.integers(min_value=1, max_value=3))
    owners = st.integers(min_value=0, max_value=N_OWNERS - 1)
    providers = st.sets(
        st.integers(min_value=0, max_value=N_PROVIDERS - 1),
        min_size=1, max_size=4,
    )
    upsert = st.tuples(
        st.just("upsert"), owners, providers,
        st.sampled_from([0.25, 0.5, 0.75]),
    )
    remove = st.tuples(st.just("remove"), owners)
    segment = st.lists(st.one_of(upsert, remove), min_size=1, max_size=3)
    return [
        draw(st.lists(segment, min_size=1, max_size=2))
        for _ in range(n_epochs)
    ]


def base_index() -> PostingsIndex:
    i, j = np.meshgrid(np.arange(N_PROVIDERS), np.arange(N_OWNERS), indexing="ij")
    return PostingsIndex.from_dense(((i * 2 + j) % 5 == 0).astype(np.uint8))


def seal_into(seg_dir: str, name: str, base_epoch: int, ops) -> str:
    log_path = os.path.join(seg_dir, f"{name}.log")
    seg_path = os.path.join(seg_dir, name)
    with DeltaLog.create(log_path, N_PROVIDERS, noise_key=KEY) as log:
        for op in ops:
            if op[0] == "upsert":
                log.upsert(op[1], sorted(op[2]), beta=op[3])
            else:
                log.remove(op[1])
        seal_segment(log, seg_path, base_epoch=base_epoch)
    os.unlink(log_path)
    return seg_path


def read_bytes(path: str) -> bytes:
    with open(path, "rb") as f:
        return f.read()


async def labelled_rows(client, address) -> tuple:
    """The follower's epoch label and every owner's answer under it."""
    reply = await client.call(address, VERB_QUERY_BATCH, owners=list(range(N_OWNERS)))
    return reply["epoch"], {int(o): row for o, row in reply["results"].items()}


def published_rows(snapshot_path: str) -> dict:
    index = load_postings(snapshot_path, mmap=False)
    return {o: index.query(o) for o in range(N_OWNERS)}


@settings(max_examples=25, deadline=None)
@given(histories())
def test_streamed_follower_compaction_is_byte_identical(history):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        leader = str(tmp / "leader.npz")
        follower = str(tmp / "follower.npz")
        leader_segs = str(tmp / "leader-segs")
        os.makedirs(leader_segs)
        save_snapshot(base_index(), leader, format_version=3, epoch=0)
        shutil.copyfile(leader, follower)  # the one-time seed transfer
        published = {0: published_rows(leader)}

        async def _main():
            streamer = await SegmentStreamer(leader, leader_segs).start()
            applier = ReplicaApplier(
                streamer.address, follower,
                segment_dir=str(tmp / "follower-segs"), retry=RETRY,
            )
            server = await ReplicaServer(applier).start()
            client = LocatorClient(servers=[server.address], retry=RETRY, cache_size=0)
            try:
                counter = 0
                for epoch, segments in enumerate(history):
                    paths = []
                    for ops in segments:
                        counter += 1
                        paths.append(
                            seal_into(leader_segs, f"{counter:06d}.seg.npz", epoch, ops)
                        )
                    # Epoch open: the follower holds the segments, unserved.
                    await applier.sync_once()
                    assert await labelled_rows(client, server.address) == (
                        epoch, published[epoch]
                    )
                    assert applier.pending_segments() == len(paths)
                    # The leader folds this epoch's full segment set.
                    streamer.refresh()
                    compact_snapshot(leader, paths)
                    for path in paths:
                        os.unlink(path)
                    published[epoch + 1] = published_rows(leader)
                    await applier.sync_once()
                    assert applier.epoch == snapshot_epoch(leader) == epoch + 1
                    assert applier.pending_segments() == 0
                    assert read_bytes(follower) == read_bytes(leader)
                    assert await labelled_rows(client, server.address) == (
                        epoch + 1, published[epoch + 1]
                    )
            finally:
                await client.close()
                await server.stop()
                await applier.close()
                await streamer.stop()

        asyncio.run(_main())
