"""Property suite: a v4 compaction writes exactly what it merged.

Over bases and segment histories at every provider-id width boundary
(1, 2, 255, 256, 257, 65 536 and 65 537 providers), the snapshot
``compact_snapshot`` writes must be

* byte-identical to ``save_snapshot`` of the in-memory merge
  ``merge_segments(base, segments)`` at ``epoch + 1``;
* row-identical to a from-scratch rebuild (newest delta wins, sticky
  streams fixed);
* structurally valid -- its arrays pass ``PostingsIndex(..., validate=True)``
  although the merge itself skips that check -- with its ids stored at
  the width ``provider_id_dtype`` derives from the provider count.

The base is written as v3 or v4: the first compaction of a v3 fleet is
the v3 -> v4 step every leader and follower takes once.
"""

import os
import tempfile

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.postings import PostingsIndex, provider_id_dtype
from repro.serving.snapshot import load_postings, save_snapshot, snapshot_version
from repro.updates import (
    DeltaLog,
    StickyOwnerStream,
    compact_snapshot,
    load_segment,
    merge_segments,
    seal_segment,
)

KEY = b"\x0b" * 16
WIDTHS = [1, 2, 255, 256, 257, 65_536, 65_537]


@st.composite
def histories(draw):
    m = draw(st.sampled_from(WIDTHS))
    # Bias towards the ids at the edges of the width: 0 and m - 1.
    provider = st.one_of(st.sampled_from([0, m - 1]), st.integers(0, m - 1))
    n = draw(st.integers(min_value=0, max_value=8))
    rows = draw(st.lists(st.sets(provider, max_size=4), min_size=n, max_size=n))
    owner = st.integers(min_value=0, max_value=n + 2)
    beta = st.sampled_from([0.0, 0.01, 0.5])
    ops = st.one_of(
        st.tuples(st.just("upsert"), owner, st.sets(provider, max_size=4), beta),
        st.tuples(st.just("remove"), owner),
    )
    segments = draw(
        st.lists(st.lists(ops, min_size=1, max_size=5), min_size=1, max_size=3)
    )
    base_version = draw(st.sampled_from([3, 4]))
    epoch = draw(st.sampled_from([0, 6]))
    return m, rows, segments, base_version, epoch


def _base_index(m: int, rows) -> PostingsIndex:
    indptr = np.cumsum([0] + [len(r) for r in rows])
    ids = [p for r in rows for p in sorted(r)]
    return PostingsIndex(indptr, np.array(ids, dtype=np.int64), m)


def _file_bytes(path: str) -> bytes:
    with open(path, "rb") as f:
        return f.read()


@given(data=histories())
@settings(max_examples=40, deadline=None)
def test_compaction_is_the_saved_merge_and_a_rebuild(data):
    m, rows, per_segment_ops, base_version, epoch = data
    base = _base_index(m, rows)
    with tempfile.TemporaryDirectory() as tmp:
        base_path = os.path.join(tmp, "base.npz")
        save_snapshot(base, base_path, format_version=base_version, epoch=epoch)
        final, segment_paths = {}, []
        for k, ops in enumerate(per_segment_ops):
            with DeltaLog.create(os.path.join(tmp, f"{k}.log"), m, noise_key=KEY) as log:
                for op in ops:
                    if op[0] == "upsert":
                        log.upsert(op[1], sorted(op[2]), beta=op[3])
                    else:
                        log.remove(op[1])
                final.update(log.state())
                segment_paths.append(os.path.join(tmp, f"{k:04d}.seg.npz"))
                seal_segment(log, segment_paths[-1], base_epoch=epoch)

        # 1. Byte-identical to saving the in-memory merge.
        segments = [load_segment(p) for p in segment_paths]
        merged = merge_segments(load_postings(base_path, mmap=False), segments)
        reference = save_snapshot(merged, os.path.join(tmp, "ref.npz"), epoch=epoch + 1)
        out_path = os.path.join(tmp, "out.npz")
        summary = compact_snapshot(base_path, segment_paths, out_path)
        assert _file_bytes(out_path) == _file_bytes(os.path.join(tmp, "ref.npz"))
        assert summary.snapshot == reference
        assert snapshot_version(out_path) == 4 and summary.epoch == epoch + 1

        # 2. Narrow, mapped, and structurally valid under full validation.
        compacted = load_postings(out_path, mmap=True)
        assert compacted.indices.dtype == provider_id_dtype(m)
        PostingsIndex(
            np.array(compacted.indptr), np.array(compacted.indices), m, validate=True
        )

        # 3. Row-identical to a from-scratch republication.
        stream = StickyOwnerStream(KEY)
        n_owners = max([len(rows)] + [owner + 1 for owner in final])
        assert compacted.n_owners == n_owners
        for owner in range(n_owners):
            delta = final.get(owner)
            if delta is None:
                expected = sorted(rows[owner]) if owner < len(rows) else []
            elif delta.removed:
                expected = []
            else:
                expected = stream.publish_row(
                    owner, sorted(delta.providers), delta.beta, m
                ).tolist()
            assert compacted.query(owner) == expected
        compacted.release()
