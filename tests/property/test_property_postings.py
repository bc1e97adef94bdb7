"""Property suite: the CSR postings engine is observationally identical to
the dense index on every query surface.

:class:`~repro.core.postings.PostingsIndex` replaces
:class:`~repro.core.index.PPIIndex` on the serving read path, so the two
must agree byte-for-byte on ``query`` / ``query_many`` / ``result_size`` /
``published_frequency`` / ``stats`` / error behavior, over arbitrary
published matrices -- including all-zero owners (empty result lists),
broadcast owners (every provider), and unnamed indexes.  The snapshot
round trip (save v2 -> mmap load) must preserve the same equivalence.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import ModelError
from repro.core.index import PPIIndex
from repro.core.postings import PostingsIndex
from repro.serving.snapshot import load_postings, save_snapshot


@st.composite
def published_matrices(draw):
    """Random M' with deliberately adversarial columns mixed in."""
    m = draw(st.integers(min_value=1, max_value=12))
    n = draw(st.integers(min_value=0, max_value=20))
    bits = draw(
        st.lists(
            st.lists(st.integers(min_value=0, max_value=1), min_size=n, max_size=n),
            min_size=m,
            max_size=m,
        )
    )
    matrix = np.array(bits, dtype=np.uint8).reshape(m, n)
    if n:
        # Force the edge columns the serving path actually hits.
        empty = draw(st.integers(min_value=0, max_value=n - 1))
        matrix[:, empty] = 0
        broadcast = draw(st.integers(min_value=0, max_value=n - 1))
        matrix[:, broadcast] = 1
    named = draw(st.booleans())
    names = [f"owner-{j}" for j in range(n)] if named else None
    return matrix, names


@given(data=published_matrices())
@settings(max_examples=200, deadline=None)
def test_postings_equivalent_to_dense_index(data):
    matrix, names = data
    dense = PPIIndex(matrix, owner_names=names)
    csr = PostingsIndex.from_dense(matrix, owner_names=names)

    assert csr.n_providers == dense.n_providers
    assert csr.n_owners == dense.n_owners
    assert csr.owner_names == dense.owner_names
    assert csr.stats() == dense.stats()
    for j in range(dense.n_owners):
        assert csr.query(j) == dense.query(j)
        assert csr.result_size(j) == dense.result_size(j)
        assert csr.published_frequency(j) == dense.published_frequency(j)
    if names:
        for name in names:
            assert csr.query_by_name(name) == dense.query_by_name(name)


@given(data=published_matrices(), seed=st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=200, deadline=None)
def test_query_many_equivalent_including_duplicates(data, seed):
    matrix, names = data
    if matrix.shape[1] == 0:
        return
    dense = PPIIndex(matrix, owner_names=names)
    csr = PostingsIndex.from_dense(matrix, owner_names=names)
    rng = np.random.default_rng(seed)
    ids = rng.integers(0, matrix.shape[1], size=int(rng.integers(1, 40)))
    assert csr.query_many(ids) == dense.query_many(ids)
    assert csr.query_many([]) == dense.query_many([]) == []
    counts, flat = csr.query_many_arrays(ids)
    nested = dense.query_many(ids)
    assert counts.tolist() == [len(ps) for ps in nested]
    assert flat.tolist() == [p for ps in nested for p in ps]


@given(data=published_matrices())
@settings(max_examples=100, deadline=None)
def test_errors_match_dense_index(data):
    matrix, names = data
    dense = PPIIndex(matrix, owner_names=names)
    csr = PostingsIndex.from_dense(matrix, owner_names=names)
    n = matrix.shape[1]
    for bad in (-1, n, n + 7):
        with pytest.raises(ModelError):
            dense.query(bad)
        with pytest.raises(ModelError):
            csr.query(bad)
        with pytest.raises(ModelError):
            csr.query_many([0, bad] if n else [bad])
    with pytest.raises(ModelError):
        csr.query_by_name("no-such-owner")


@given(data=published_matrices())
@settings(max_examples=100, deadline=None)
def test_round_trips_preserve_equivalence(data):
    matrix, names = data
    dense = PPIIndex(matrix, owner_names=names)
    csr = PostingsIndex.from_dense(matrix, owner_names=names)
    assert np.array_equal(csr.to_dense(), matrix)
    back = csr.to_index()
    assert np.array_equal(back.matrix, matrix)
    assert back.owner_names == dense.owner_names
    again = PostingsIndex.from_index(back)
    assert again.stats() == csr.stats()
    rows = PostingsIndex.from_provider_rows(
        list(matrix), matrix.shape[1], owner_names=names
    )
    assert np.array_equal(rows.to_dense(), matrix)
    assert rows.stats() == csr.stats()


@given(data=published_matrices(), mmap=st.booleans())
@settings(max_examples=60, deadline=None)
def test_snapshot_v2_round_trip_equivalence(data, mmap, tmp_path_factory):
    matrix, names = data
    path = str(tmp_path_factory.mktemp("snap") / "index.npz")
    save_snapshot(PPIIndex(matrix, owner_names=names), path)
    loaded = load_postings(path, mmap=mmap)
    dense = PPIIndex(matrix, owner_names=names)
    assert loaded.stats() == dense.stats()
    assert loaded.owner_names == dense.owner_names
    for j in range(dense.n_owners):
        assert loaded.query(j) == dense.query(j)


class TestStructuralValidation:
    """Malformed CSR inputs are rejected up front (validate=True path)."""

    def test_bad_indptr_bounds(self):
        with pytest.raises(ModelError, match="indptr"):
            PostingsIndex(np.array([1, 2]), np.array([0, 1]), 4)

    def test_non_monotone_indptr(self):
        with pytest.raises(ModelError, match="monotonically"):
            PostingsIndex(np.array([0, 2, 1, 3]), np.array([0, 1, 2]), 4)

    def test_out_of_range_provider(self):
        with pytest.raises(ModelError, match="out of range"):
            PostingsIndex(np.array([0, 2]), np.array([0, 9]), 4)

    def test_unsorted_postings_rejected(self):
        with pytest.raises(ModelError, match="sorted"):
            PostingsIndex(np.array([0, 2]), np.array([3, 1]), 4)

    def test_duplicate_postings_rejected(self):
        with pytest.raises(ModelError, match="sorted"):
            PostingsIndex(np.array([0, 2]), np.array([1, 1]), 4)

    @pytest.mark.parametrize("dtype", [np.uint8, np.uint16, np.uint32])
    def test_unsorted_narrow_ids_rejected(self, dtype):
        # An unsigned step down wraps around in np.diff: the check must
        # compare neighbours, not their difference.
        with pytest.raises(ModelError, match="sorted"):
            PostingsIndex(np.array([0, 2]), np.array([3, 1], dtype=dtype), 4)

    def test_boundary_resets_are_legal(self):
        # [0..3] then [0..1]: the drop at the slice boundary must pass.
        idx = PostingsIndex(np.array([0, 2, 4]), np.array([2, 3, 0, 1]), 4)
        assert idx.query(0) == [2, 3] and idx.query(1) == [0, 1]

    def test_name_count_mismatch(self):
        with pytest.raises(ModelError, match="names"):
            PostingsIndex(np.array([0, 1]), np.array([0]), 2, owner_names=["a", "b"])

    def test_validate_false_skips_checks(self):
        # Trusted-source path: structurally wrong arrays are accepted.
        idx = PostingsIndex(
            np.array([0, 2]), np.array([9, 1]), 4, validate=False
        )
        assert idx.query(0) == [9, 1]
