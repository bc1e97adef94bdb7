"""Tests for the published PPI index and QueryPPI."""

import numpy as np
import pytest

from repro.core.errors import ModelError
from repro.core.postings import PostingsIndex
from repro.serving.snapshot import load_snapshot, save_snapshot


@pytest.fixture
def index():
    published = np.array(
        [
            [1, 0, 1],
            [1, 1, 0],
            [0, 0, 0],
            [1, 0, 1],
        ],
        dtype=np.uint8,
    )
    return PostingsIndex.from_dense(published, owner_names=["alice", "bob", "carol"])


class TestQuery:
    def test_query_returns_positive_providers(self, index):
        assert index.query(0) == [0, 1, 3]
        assert index.query(1) == [1]
        assert index.query(2) == [0, 3]

    def test_query_by_name(self, index):
        assert index.query_by_name("bob") == [1]

    def test_unknown_name_rejected(self, index):
        with pytest.raises(ModelError):
            index.query_by_name("dave")

    def test_unknown_owner_rejected(self, index):
        with pytest.raises(ModelError):
            index.query(5)

    def test_result_size(self, index):
        assert index.result_size(0) == 3
        assert index.result_size(1) == 1

    def test_repeated_queries_identical(self, index):
        """The index is static: repeated attacks/queries see the same list
        (Sec. III-C repeated-attack resistance)."""
        assert index.query(0) == index.query(0)


class TestPublicViews:
    def test_matrix_readonly(self, index):
        with pytest.raises(ValueError):
            index.indices[0] = 2
        with pytest.raises(ValueError):
            index.indptr[1] = 0

    def test_published_frequency(self, index):
        assert index.published_frequency(0) == pytest.approx(3 / 4)

    def test_stats(self, index):
        stats = index.stats()
        assert stats.n_providers == 4
        assert stats.n_owners == 3
        assert stats.published_positives == 6
        assert stats.avg_result_size == pytest.approx(2.0)
        assert stats.broadcast_owners == 0

    def test_broadcast_owner_counted(self):
        published = np.ones((3, 1), dtype=np.uint8)
        assert PostingsIndex.from_dense(published).stats().broadcast_owners == 1


class TestConstruction:
    def test_requires_2d(self):
        with pytest.raises(ModelError):
            PostingsIndex.from_dense(np.zeros(3, dtype=np.uint8))

    def test_requires_boolean(self):
        with pytest.raises(ModelError):
            PostingsIndex.from_dense(np.full((2, 2), 2, dtype=np.uint8))

    def test_owner_names_length_checked(self):
        with pytest.raises(ModelError):
            PostingsIndex.from_dense(np.zeros((2, 2), dtype=np.uint8), owner_names=["a"])


class TestSerialization:
    """A snapshot is the index's one file form (format details are pinned in
    ``tests/serving/test_snapshot.py``)."""

    def test_snapshot_roundtrip(self, index, tmp_path):
        save_snapshot(index, str(tmp_path / "idx.npz"))
        loaded = load_snapshot(str(tmp_path / "idx.npz"))
        assert np.array_equal(loaded.to_dense(), index.to_dense())
        assert loaded.query_by_name("alice") == index.query_by_name("alice")

    def test_snapshot_without_names(self, tmp_path):
        idx = PostingsIndex.from_dense(np.eye(3, dtype=np.uint8))
        save_snapshot(idx, str(tmp_path / "idx.npz"))
        loaded = load_snapshot(str(tmp_path / "idx.npz"))
        assert np.array_equal(loaded.to_dense(), idx.to_dense())
