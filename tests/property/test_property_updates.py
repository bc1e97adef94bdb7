"""Property suite: the live-update pipeline equals a from-scratch rebuild.

The contract that makes segments + compaction safe to serve is exact
equivalence: for any base index and any sequence of delta operations,
``merge_segments(base, segments)`` must answer every owner exactly as a
from-scratch republication with the same sticky streams would -- and so
must the compacted snapshot written from it.

The sticky-noise properties (prefix-stable coins, β-monotone rows, and
republication intersections that reveal only true-bit changes) are what
the paper's multi-version intersection analysis needs from the update
path; they are asserted directly here.
"""

import os
import tempfile

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.postings import PostingsIndex
from repro.serving.snapshot import load_postings, save_snapshot, snapshot_epoch
from repro.updates import (
    DeltaLog,
    StickyOwnerStream,
    compact_snapshot,
    load_segment,
    merge_segments,
    seal_segment,
)

KEY = b"\x07" * 16


@st.composite
def update_scenarios(draw):
    """A published base matrix plus 1-3 segments' worth of delta ops."""
    m = draw(st.integers(min_value=2, max_value=8))
    n = draw(st.integers(min_value=1, max_value=12))
    bits = draw(
        st.lists(
            st.lists(st.integers(min_value=0, max_value=1), min_size=n, max_size=n),
            min_size=m,
            max_size=m,
        )
    )
    matrix = np.array(bits, dtype=np.uint8).reshape(m, n)
    max_owner = n + draw(st.integers(min_value=0, max_value=3))

    owner_ids = st.integers(min_value=0, max_value=max_owner - 1)
    provider_sets = st.sets(
        st.integers(min_value=0, max_value=m - 1), max_size=m
    )
    betas = st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0])
    ops = st.one_of(
        st.tuples(st.just("upsert"), owner_ids, provider_sets, betas),
        st.tuples(st.just("remove"), owner_ids),
        st.tuples(st.just("flip"), owner_ids, provider_sets, provider_sets, betas),
    )
    segments = draw(
        st.lists(
            st.lists(ops, min_size=1, max_size=6), min_size=1, max_size=3
        )
    )
    return matrix, segments


def _apply_ops(log: DeltaLog, ops) -> None:
    for op in ops:
        if op[0] == "upsert":
            log.upsert(op[1], sorted(op[2]), beta=op[3])
        elif op[0] == "remove":
            log.remove(op[1])
        else:
            log.flip(op[1], sorted(op[2]), sorted(op[3]), beta=op[4])


def _expected_rows(base: PostingsIndex, states, n_owners: int) -> dict:
    """From-scratch republication: newest delta wins, sticky streams fixed."""
    final = {}
    for state in states:  # oldest -> newest
        final.update(state)
    stream = StickyOwnerStream(KEY)
    expected = {}
    for owner in range(n_owners):
        if owner in final:
            delta = final[owner]
            expected[owner] = (
                []
                if delta.removed
                else stream.publish_row(
                    owner, sorted(delta.providers), delta.beta, base.n_providers
                ).tolist()
            )
        elif owner < base.n_owners:
            expected[owner] = base.query(owner)
        else:
            expected[owner] = []  # id gap: enrolled after this owner
    return expected


@given(data=update_scenarios())
@settings(max_examples=60, deadline=None)
def test_merge_and_compaction_equal_a_from_scratch_rebuild(data):
    matrix, per_segment_ops = data
    base = PostingsIndex.from_dense(matrix)
    with tempfile.TemporaryDirectory() as tmp:
        base_path = os.path.join(tmp, "base.npz")
        save_snapshot(base, base_path, format_version=3, epoch=0)

        states, segment_paths = [], []
        for k, ops in enumerate(per_segment_ops):
            log_path = os.path.join(tmp, f"{k}.log")
            with DeltaLog.create(
                log_path, base.n_providers, noise_key=KEY
            ) as log:
                _apply_ops(log, ops)
                states.append(log.state())
                seg_path = os.path.join(tmp, f"{k:04d}.seg.npz")
                seal_segment(log, seg_path, base_epoch=0)
                segment_paths.append(seg_path)

        merged = merge_segments(base, [load_segment(p) for p in segment_paths])
        expected = _expected_rows(base, states, merged.n_owners)

        # 1. The merge answers every owner exactly as the rebuild would.
        for owner in range(merged.n_owners):
            assert merged.query(owner) == expected[owner]
            assert merged.result_size(owner) == len(expected[owner])

        # 2. Recall is 100%: every surviving true bit is published.
        final = {}
        for state in states:
            final.update(state)
        for owner, delta in final.items():
            if not delta.removed:
                assert delta.providers <= set(merged.query(owner))

        # 3. Its batch gather is row-identical to the rebuild.
        counts, flat = merged.query_many_arrays(np.arange(merged.n_owners))
        assert counts.tolist() == [len(expected[o]) for o in range(merged.n_owners)]
        assert flat.tolist() == [p for o in range(merged.n_owners) for p in expected[o]]

        # 4. So is the compacted snapshot, at the bumped epoch.
        out_path = os.path.join(tmp, "compacted.npz")
        compact_snapshot(base_path, segment_paths, out_path)
        assert snapshot_epoch(out_path) == 1
        compacted = load_postings(out_path)
        assert compacted.n_owners == merged.n_owners
        for owner in range(merged.n_owners):
            assert compacted.query(owner) == expected[owner]


@given(
    owner=st.integers(min_value=0, max_value=2**32),
    n=st.integers(min_value=0, max_value=64),
    k=st.integers(min_value=0, max_value=64),
)
@settings(max_examples=100, deadline=None)
def test_coins_are_prefix_stable(owner, n, k):
    """Growing the provider universe never redraws earlier coins."""
    stream = StickyOwnerStream(KEY)
    lo, hi = sorted((n, k))
    assert np.array_equal(stream.coins(owner, hi)[:lo], stream.coins(owner, lo))


@st.composite
def republications(draw):
    m = draw(st.integers(min_value=1, max_value=16))
    truths = draw(
        st.lists(
            st.sets(st.integers(min_value=0, max_value=m - 1), max_size=m),
            min_size=2,
            max_size=4,
        )
    )
    beta = draw(st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
    owner = draw(st.integers(min_value=0, max_value=1000))
    return m, truths, beta, owner


@given(data=republications())
@settings(max_examples=100, deadline=None)
def test_republication_intersection_reveals_only_true_bits(data):
    """The paper's multi-version attack surface, on the update path: the
    false-positive set is a deterministic function of (key, owner, β), so
    intersecting any republications of the same owner yields exactly the
    publication of the intersected truths -- noise never erodes."""
    m, truths, beta, owner = data
    stream = StickyOwnerStream(KEY)
    published = [
        set(stream.publish_row(owner, sorted(t), beta, m).tolist())
        for t in truths
    ]
    intersected_truth = set.intersection(*map(set, truths))
    expected = set(
        stream.publish_row(owner, sorted(intersected_truth), beta, m).tolist()
    )
    assert set.intersection(*published) == expected
    # And each publication individually achieves 100% recall.
    for truth, pub in zip(truths, published):
        assert truth <= pub


@given(
    beta_lo=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    beta_hi=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    owner=st.integers(min_value=0, max_value=1000),
    m=st.integers(min_value=1, max_value=32),
)
@settings(max_examples=100, deadline=None)
def test_rows_are_monotone_in_beta(beta_lo, beta_hi, owner, m):
    """Coins are compared, never redrawn: raising β only adds positives."""
    if beta_lo > beta_hi:
        beta_lo, beta_hi = beta_hi, beta_lo
    stream = StickyOwnerStream(KEY)
    lo = set(stream.publish_row(owner, [], beta_lo, m).tolist())
    hi = set(stream.publish_row(owner, [], beta_hi, m).tolist())
    assert lo <= hi
