"""Property suite: the batched sticky-coin kernel is the reference stream.

``StickyOwnerStream.publish_rows`` seals every changed owner in one call;
``coins()`` / ``publish_row`` build numpy's ``default_rng`` one owner at a
time and are the oracle.  Any key, any owner id a segment can store, any
provider universe, any β and any truth must give the same rows, bit for
bit -- a row that moved would hand the intersection attacker a fresh draw.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.updates import StickyOwnerStream

from tests.updates.test_noise import split_rows


@st.composite
def batches(draw):
    key = draw(st.binary(min_size=1, max_size=32))
    n = draw(st.integers(min_value=0, max_value=300))
    k = draw(st.integers(min_value=0, max_value=12))
    owners = draw(
        st.lists(st.integers(min_value=0, max_value=2**63 - 1), min_size=k, max_size=k)
    )
    betas = draw(
        st.lists(
            st.one_of(
                st.sampled_from([0.0, 1.0]),
                st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
            ),
            min_size=k,
            max_size=k,
        )
    )
    ids = st.integers(min_value=0, max_value=n - 1) if n else st.nothing()
    trues = draw(
        st.lists(st.lists(ids, max_size=min(n, 8)), min_size=k, max_size=k)
    )
    return key, n, owners, trues, betas


@given(batch=batches())
@settings(max_examples=120, deadline=None)
def test_kernel_rows_equal_the_per_owner_oracle(batch):
    key, n, owners, trues, betas = batch
    stream = StickyOwnerStream(key)
    counts, indices = stream.publish_rows(owners, trues, betas, n)
    assert counts.shape == (len(owners),) and int(counts.sum()) == indices.size
    rows = split_rows(counts, indices)
    for owner, true, beta, row in zip(owners, trues, betas, rows):
        assert row.dtype == np.int32
        assert row.tolist() == stream.publish_row(owner, true, beta, n).tolist()
        coins = stream.coins(owner, n)
        expected = (coins < beta) | np.isin(np.arange(n), true)
        assert row.tolist() == np.flatnonzero(expected).tolist()


@given(batch=batches(), cut=st.integers(min_value=0, max_value=300))
@settings(max_examples=60, deadline=None)
def test_kernel_rows_are_prefix_stable(batch, cut):
    """Shrinking the provider universe keeps every row's lower part."""
    key, n, owners, trues, betas = batch
    lo = min(cut, n)
    stream = StickyOwnerStream(key)
    wide = split_rows(*stream.publish_rows(owners, trues, betas, n))
    kept = [[p for p in true if p < lo] for true in trues]
    narrow = split_rows(*stream.publish_rows(owners, kept, betas, lo))
    for big, small in zip(wide, narrow):
        assert big[big < lo].tolist() == small.tolist()
