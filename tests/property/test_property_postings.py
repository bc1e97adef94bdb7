"""Property suite: the CSR postings index answers exactly what the dense
published matrix answers, on every query surface.

:class:`~repro.core.postings.PostingsIndex` is the only representation of
``M'``, so its oracle is the matrix itself: ``QueryPPI(t_j)`` is the column
read ``np.flatnonzero(M'[:, j])`` of paper Sec. II-A.  ``query`` /
``query_many`` / ``result_size`` / ``published_frequency`` / ``stats``
must agree with that read over arbitrary published matrices -- including
all-zero owners (empty result lists), broadcast owners (every provider),
and unnamed indexes -- and the snapshot round trip (save -> mmap load)
must preserve the same answers.  Ids that are not owners (out of range,
float, bool) are refused, never truncated onto some other owner's row.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import ModelError
from repro.core.postings import IndexStats, PostingsIndex
from repro.serving.snapshot import load_postings, save_snapshot


def column(matrix: np.ndarray, j: int) -> list:
    """The oracle: ``QueryPPI(t_j)`` as a column read of the dense ``M'``."""
    return np.flatnonzero(matrix[:, j]).tolist()


def dense_stats(matrix: np.ndarray) -> IndexStats:
    per_owner = matrix.sum(axis=0)
    return IndexStats(
        n_providers=matrix.shape[0],
        n_owners=matrix.shape[1],
        published_positives=int(per_owner.sum()),
        avg_result_size=float(per_owner.mean()) if matrix.shape[1] else 0.0,
        broadcast_owners=int(np.sum(per_owner == matrix.shape[0])),
    )


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
    csr = PostingsIndex.from_dense(matrix, owner_names=names)

    assert csr.n_providers == matrix.shape[0]
    assert csr.n_owners == matrix.shape[1]
    assert csr.owner_names == names
    assert csr.stats() == dense_stats(matrix)
    for j in range(matrix.shape[1]):
        assert csr.query(j) == column(matrix, j)
        assert csr.result_size(j) == int(matrix[:, j].sum())
        assert csr.published_frequency(j) == float(matrix[:, j].mean())
    if names:
        for j, name in enumerate(names):
            assert csr.query_by_name(name) == column(matrix, j)


@given(data=published_matrices(), seed=st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=200, deadline=None)
def test_query_many_equivalent_including_duplicates(data, seed):
    matrix, names = data
    if matrix.shape[1] == 0:
        return
    csr = PostingsIndex.from_dense(matrix, owner_names=names)
    rng = np.random.default_rng(seed)
    ids = rng.integers(0, matrix.shape[1], size=int(rng.integers(1, 40)))
    nested = [column(matrix, j) for j in ids]
    assert csr.query_many(ids) == nested
    assert csr.query_many([]) == []
    counts, flat = csr.query_many_arrays(ids)
    assert counts.tolist() == [len(ps) for ps in nested]
    assert flat.tolist() == [p for ps in nested for p in ps]


@given(data=published_matrices())
@settings(max_examples=100, deadline=None)
def test_unknown_owner_ids_rejected(data):
    matrix, names = data
    csr = PostingsIndex.from_dense(matrix, owner_names=names)
    n = matrix.shape[1]
    for bad in (-1, n, n + 7):
        with pytest.raises(ModelError):
            csr.result_size(bad)
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
    csr = PostingsIndex.from_dense(matrix, owner_names=names)
    assert np.array_equal(csr.to_dense(), matrix)
    assert csr.owner_names == names
    again = PostingsIndex.from_dense(csr.to_dense(), owner_names=csr.owner_names)
    assert again.stats() == csr.stats()
    assert again.owner_names == names
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
    save_snapshot(PostingsIndex.from_dense(matrix, owner_names=names), path)
    loaded = load_postings(path, mmap=mmap)
    assert loaded.stats() == dense_stats(matrix)
    assert loaded.owner_names == names
    for j in range(matrix.shape[1]):
        assert loaded.query(j) == column(matrix, j)


class TestNonIntegerOwnerIds:
    """A float or bool is not an owner id: casting it would answer another
    owner's row (1.7 -> 1, True -> 1), so every surface refuses it."""

    @pytest.fixture
    def csr(self):
        return PostingsIndex.from_dense(np.eye(4, dtype=np.uint8))

    @pytest.mark.parametrize(
        "ids", [[1.7], [0, 2.0], [True, False], np.array([2.9]), np.array([True])]
    )
    def test_batch_of_non_integers_rejected(self, csr, ids):
        with pytest.raises(ModelError, match="integers"):
            csr.query_many(ids)
        with pytest.raises(ModelError, match="integers"):
            csr.query_many_arrays(ids)

    @pytest.mark.parametrize("owner", [2.0, 1.5, True, False, np.bool_(True), "1"])
    def test_scalar_non_integer_rejected(self, csr, owner):
        for surface in (csr.query, csr.result_size, csr.published_frequency):
            with pytest.raises(ModelError, match="integer"):
                surface(owner)

    def test_integer_ids_of_any_width_accepted(self, csr):
        assert csr.query(np.uint8(2)) == [2]
        assert csr.query_many(np.array([3, 0], dtype=np.uint16)) == [[3], [0]]

    @pytest.mark.parametrize("empty", [[], (), np.asarray([])])
    def test_empty_batch_stays_valid(self, csr, empty):
        # np.asarray([]) is float64: an empty batch has no ids to refuse.
        assert csr.query_many(empty) == []
        counts, flat = csr.query_many_arrays(empty)
        assert counts.size == 0 and flat.size == 0


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
