"""Snapshot format tests, pinned by golden files.

``tests/serving/data/golden_index_v1.npz`` / ``golden_index_v2.npz`` /
``golden_index_v3.npz`` (epoch 7) and the companion JSON were written
once from the deterministic matrix built by :func:`golden_matrix` below.  They are committed so that any
byte-layout drift in the snapshot writer or either reader shows up as a
failure against bits produced by an *older* build -- a same-process round
trip alone cannot catch that.
"""

import os
import zlib

import numpy as np
import pytest

from repro.core.index import PPIIndex
from repro.core.postings import PostingsIndex
from repro.serving.snapshot import (
    SNAPSHOT_FORMAT_V1,
    SNAPSHOT_FORMAT_VERSION,
    SnapshotError,
    inspect_snapshot,
    load_postings,
    load_serving_state,
    load_snapshot,
    save_snapshot,
    snapshot_epoch,
    snapshot_version,
)

DATA_DIR = os.path.join(os.path.dirname(__file__), "data")
GOLDEN_NPZ = os.path.join(DATA_DIR, "golden_index_v1.npz")
GOLDEN_NPZ_V2 = os.path.join(DATA_DIR, "golden_index_v2.npz")
GOLDEN_NPZ_V3 = os.path.join(DATA_DIR, "golden_index_v3.npz")
GOLDEN_JSON = os.path.join(DATA_DIR, "golden_index_v1.json")


def golden_matrix() -> np.ndarray:
    """The exact matrix the committed golden files were generated from."""
    i, j = np.meshgrid(np.arange(11), np.arange(23), indexing="ij")
    return ((i * 7 + j * 3) % 5 == 0).astype(np.uint8)


def golden_names() -> list:
    return [f"owner-{n:03d}" for n in range(23)]


@pytest.fixture
def index():
    rng = np.random.default_rng(7)
    matrix = (rng.random((9, 31)) < 0.3).astype(np.uint8)
    return PPIIndex(matrix, owner_names=[f"o{j}" for j in range(31)])


def _mutate(path, **replacements):
    """Rewrite an npz with some members replaced (corruption harness)."""
    with np.load(path) as archive:
        arrays = dict(archive)
    arrays.update(replacements)
    np.savez(path, **arrays)


class TestRoundTrip:
    @pytest.mark.parametrize("version", [1, 2, 3])
    def test_matrix_and_names_survive(self, index, tmp_path, version):
        path = str(tmp_path / "snap.npz")
        save_snapshot(index, path, format_version=version)
        assert snapshot_version(path) == version
        loaded = load_snapshot(path)
        assert np.array_equal(loaded.matrix, index.matrix)
        assert loaded.owner_names == index.owner_names

    @pytest.mark.parametrize("mmap", [True, False])
    def test_v2_loads_as_postings(self, index, tmp_path, mmap):
        path = str(tmp_path / "snap.npz")
        save_snapshot(index, path)
        postings = load_postings(path, mmap=mmap)
        assert isinstance(postings, PostingsIndex)
        assert np.array_equal(postings.to_dense(), index.matrix)
        assert postings.owner_names == index.owner_names
        for j in range(index.n_owners):
            assert postings.query(j) == index.query(j)

    def test_v2_mmap_load_really_maps(self, index, tmp_path):
        path = str(tmp_path / "snap.npz")
        save_snapshot(index, path)
        postings = load_postings(path, mmap=True)
        assert isinstance(postings.indices, np.memmap)
        assert isinstance(postings.indptr, np.memmap)

    def test_v1_snapshot_still_yields_postings_via_fallback(self, index, tmp_path):
        path = str(tmp_path / "snap.npz")
        save_snapshot(index, path, format_version=1)
        postings = load_postings(path)
        assert np.array_equal(postings.to_dense(), index.matrix)

    @pytest.mark.parametrize("epoch", [0, 1, 41])
    def test_v3_epoch_round_trips(self, index, tmp_path, epoch):
        path = str(tmp_path / "snap.npz")
        info = save_snapshot(index, path, format_version=3, epoch=epoch)
        assert info["epoch"] == epoch
        assert snapshot_epoch(path) == epoch
        assert inspect_snapshot(path)["epoch"] == epoch

    @pytest.mark.parametrize("version", [1, 2])
    def test_pre_epoch_formats_read_back_as_epoch_zero(
        self, index, tmp_path, version
    ):
        path = str(tmp_path / "snap.npz")
        save_snapshot(index, path, format_version=version)
        assert snapshot_epoch(path) == 0
        assert inspect_snapshot(path)["epoch"] == 0

    @pytest.mark.parametrize("version", [1, 2])
    def test_nonzero_epoch_on_pre_epoch_format_rejected(
        self, index, tmp_path, version
    ):
        # Silently dropping the epoch would defeat staleness detection.
        with pytest.raises(SnapshotError, match="cannot carry epoch"):
            save_snapshot(
                index, str(tmp_path / "snap.npz"), format_version=version, epoch=3
            )

    def test_negative_epoch_rejected(self, index, tmp_path):
        with pytest.raises(SnapshotError, match="epoch"):
            save_snapshot(index, str(tmp_path / "snap.npz"), epoch=-1)

    def test_load_serving_state_pairs_index_with_epoch(self, index, tmp_path):
        path = str(tmp_path / "snap.npz")
        save_snapshot(index, path, epoch=5)
        loaded, epoch = load_serving_state(path)
        assert epoch == 5
        assert isinstance(loaded, PostingsIndex)
        assert np.array_equal(loaded.to_dense(), index.matrix)
        loaded.release()

    def test_load_serving_state_on_v1_snapshot(self, index, tmp_path):
        path = str(tmp_path / "snap.npz")
        save_snapshot(index, path, format_version=1)
        loaded, epoch = load_serving_state(path)
        assert epoch == 0
        assert isinstance(loaded, PostingsIndex)
        assert np.array_equal(loaded.to_dense(), index.matrix)

    def test_save_from_postings_index(self, index, tmp_path):
        path = str(tmp_path / "snap.npz")
        save_snapshot(PostingsIndex.from_index(index), path)
        assert np.array_equal(load_snapshot(path).matrix, index.matrix)

    def test_unnamed_index_round_trips_without_names(self, tmp_path):
        index = PPIIndex(np.eye(5, dtype=np.uint8))
        path = str(tmp_path / "snap.npz")
        info = save_snapshot(index, path)
        assert info["has_owner_names"] is False
        assert load_snapshot(path).owner_names is None
        assert load_postings(path).owner_names is None

    def test_non_multiple_of_eight_cells(self, tmp_path):
        # 3 x 5 = 15 cells: packbits pads the final byte; the reader must
        # trim via count= rather than trusting the packed length.
        matrix = np.ones((3, 5), dtype=np.uint8)
        path = str(tmp_path / "snap.npz")
        save_snapshot(PPIIndex(matrix), path)
        assert np.array_equal(load_snapshot(path).matrix, matrix)

    @pytest.mark.parametrize("version", [1, 2, 3])
    def test_empty_index(self, tmp_path, version):
        matrix = np.zeros((4, 0), dtype=np.uint8)
        path = str(tmp_path / "snap.npz")
        save_snapshot(PPIIndex(matrix), path, format_version=version)
        loaded = load_snapshot(path)
        assert loaded.n_providers == 4 and loaded.n_owners == 0
        if version == 2:
            postings = load_postings(path)
            assert postings.n_providers == 4 and postings.n_owners == 0

    def test_save_reports_inspect_summary(self, index, tmp_path):
        path = str(tmp_path / "snap.npz")
        info = save_snapshot(index, path)
        assert info == inspect_snapshot(path)
        assert info["checksum_ok"] is True
        assert info["format_version"] == SNAPSHOT_FORMAT_VERSION
        assert info["published_positives"] == int(index.matrix.sum())

    def test_unknown_write_version_rejected(self, index, tmp_path):
        with pytest.raises(SnapshotError, match="cannot write"):
            save_snapshot(index, str(tmp_path / "snap.npz"), format_version=9)


class TestGoldenFile:
    """The committed v1 bits must keep loading, byte for byte."""

    def test_golden_loads_to_the_generating_matrix(self):
        loaded = load_snapshot(GOLDEN_NPZ)
        assert np.array_equal(loaded.matrix, golden_matrix())
        assert loaded.owner_names == golden_names()

    def test_golden_matches_the_json_representation(self):
        # The snapshot and JSON codecs are independent; both committed
        # artifacts must decode to the same index.
        with open(GOLDEN_JSON) as f:
            from_json = PPIIndex.from_json(f.read())
        from_snapshot = load_snapshot(GOLDEN_NPZ)
        assert np.array_equal(from_snapshot.matrix, from_json.matrix)
        assert from_snapshot.owner_names == from_json.owner_names

    def test_golden_inspect_summary(self):
        info = inspect_snapshot(GOLDEN_NPZ)
        assert info["format_version"] == 1
        assert info["n_providers"] == 11
        assert info["n_owners"] == 23
        assert info["published_positives"] == 51
        assert info["has_owner_names"] is True
        assert info["checksum_ok"] is True

    def test_rewriting_the_golden_index_is_byte_identical_logically(self, tmp_path):
        # Not byte-identical on disk (npz timestamps), but the re-written
        # v1 archive must carry the identical packed payload and checksum.
        path = str(tmp_path / "rewrite.npz")
        save_snapshot(
            load_snapshot(GOLDEN_NPZ), path, format_version=SNAPSHOT_FORMAT_V1
        )
        with np.load(GOLDEN_NPZ) as old, np.load(path) as new:
            assert np.array_equal(old["packed"], new["packed"])
            assert np.array_equal(old["meta"], new["meta"])


class TestGoldenFileV2:
    """The committed v2 bits (packed + CSR postings) must keep loading."""

    def test_golden_v2_loads_densely_and_as_postings(self):
        assert np.array_equal(load_snapshot(GOLDEN_NPZ_V2).matrix, golden_matrix())
        postings = load_postings(GOLDEN_NPZ_V2)
        assert np.array_equal(postings.to_dense(), golden_matrix())
        assert postings.owner_names == golden_names()

    def test_golden_v2_agrees_with_golden_v1(self):
        v1, v2 = load_snapshot(GOLDEN_NPZ), load_snapshot(GOLDEN_NPZ_V2)
        assert np.array_equal(v1.matrix, v2.matrix)
        assert v1.owner_names == v2.owner_names

    def test_golden_v2_inspect_summary(self):
        info = inspect_snapshot(GOLDEN_NPZ_V2)
        assert info["format_version"] == 2
        assert info["published_positives"] == 51
        assert info["checksum_ok"] is True

    def test_rewriting_the_golden_v2_is_byte_identical_logically(self, tmp_path):
        path = str(tmp_path / "rewrite.npz")
        save_snapshot(load_snapshot(GOLDEN_NPZ_V2), path, format_version=2)
        with np.load(GOLDEN_NPZ_V2) as old, np.load(path) as new:
            for key in ("meta", "packed", "indptr", "indices"):
                assert np.array_equal(old[key], new[key]), key


class TestGoldenFileV3:
    """The committed v3 bits (v2 + trailing epoch) must keep loading."""

    def test_golden_v3_loads_and_carries_its_epoch(self):
        assert np.array_equal(load_snapshot(GOLDEN_NPZ_V3).matrix, golden_matrix())
        assert snapshot_epoch(GOLDEN_NPZ_V3) == 7
        postings, epoch = load_serving_state(GOLDEN_NPZ_V3)
        assert epoch == 7
        assert np.array_equal(postings.to_dense(), golden_matrix())
        assert postings.owner_names == golden_names()
        postings.release()

    def test_golden_v3_agrees_with_golden_v2(self):
        v2, v3 = load_snapshot(GOLDEN_NPZ_V2), load_snapshot(GOLDEN_NPZ_V3)
        assert np.array_equal(v2.matrix, v3.matrix)
        assert v2.owner_names == v3.owner_names

    def test_golden_v3_inspect_summary(self):
        info = inspect_snapshot(GOLDEN_NPZ_V3)
        assert info["format_version"] == 3
        assert info["epoch"] == 7
        assert info["published_positives"] == 51
        assert info["checksum_ok"] is True

    def test_rewriting_the_golden_v3_is_byte_identical_logically(self, tmp_path):
        path = str(tmp_path / "rewrite.npz")
        save_snapshot(load_snapshot(GOLDEN_NPZ_V3), path, format_version=3, epoch=7)
        with np.load(GOLDEN_NPZ_V3) as old, np.load(path) as new:
            for key in ("meta", "packed", "indptr", "indices"):
                assert np.array_equal(old[key], new[key]), key


class TestRejection:
    def test_missing_file(self, tmp_path):
        with pytest.raises(SnapshotError, match="cannot read"):
            load_snapshot(str(tmp_path / "nope.npz"))

    def test_not_an_npz(self, tmp_path):
        path = tmp_path / "junk.npz"
        path.write_bytes(b"definitely not a zip archive")
        with pytest.raises(SnapshotError):
            load_snapshot(str(path))

    def test_npz_missing_keys(self, tmp_path):
        path = str(tmp_path / "empty.npz")
        np.savez(path, unrelated=np.arange(3))
        with pytest.raises(SnapshotError, match="missing keys"):
            load_snapshot(path)

    def test_unsupported_version(self, index, tmp_path):
        path = str(tmp_path / "snap.npz")
        save_snapshot(index, path)
        with np.load(path) as archive:
            arrays = dict(archive)
        arrays["meta"] = arrays["meta"].copy()
        arrays["meta"][0] = SNAPSHOT_FORMAT_VERSION + 1
        np.savez(path, **arrays)
        with pytest.raises(SnapshotError, match="version 4 unsupported"):
            load_snapshot(path)
        with pytest.raises(SnapshotError, match="version 4 unsupported"):
            load_postings(path)

    @pytest.mark.parametrize("version", [1, 2])
    def test_corrupted_payload_fails_checksum(self, index, tmp_path, version):
        path = str(tmp_path / "snap.npz")
        save_snapshot(index, path, format_version=version)
        with np.load(path) as archive:
            packed = archive["packed"].copy()
        packed[0] ^= 0xFF
        _mutate(path, packed=packed)
        with pytest.raises(SnapshotError, match="checksum"):
            load_snapshot(path)
        assert inspect_snapshot(path)["checksum_ok"] is False

    def test_truncated_payload_rejected(self, index, tmp_path):
        path = str(tmp_path / "snap.npz")
        save_snapshot(index, path, format_version=1)
        with np.load(path) as archive:
            arrays = dict(archive)
        short = arrays["packed"][:-2].copy()
        meta = arrays["meta"].copy()
        meta[3] = zlib.crc32(short.tobytes())  # keep checksum valid
        _mutate(path, packed=short, meta=meta)
        with pytest.raises(SnapshotError, match="truncated"):
            load_snapshot(path)

    @pytest.mark.parametrize("mmap", [True, False])
    def test_corrupted_postings_fail_their_checksum(self, index, tmp_path, mmap):
        path = str(tmp_path / "snap.npz")
        save_snapshot(index, path)
        with np.load(path) as archive:
            indices = archive["indices"].copy()
        indices[0] += 1
        _mutate(path, indices=indices)
        with pytest.raises(SnapshotError, match="postings checksum"):
            load_postings(path, mmap=mmap)
        assert inspect_snapshot(path)["checksum_ok"] is False
        # The dense payload is intact, so the dense reader still works.
        assert np.array_equal(load_snapshot(path).matrix, index.matrix)

    def test_truncated_postings_rejected(self, index, tmp_path):
        path = str(tmp_path / "snap.npz")
        save_snapshot(index, path)
        with np.load(path) as archive:
            indices = archive["indices"].copy()
        _mutate(path, indices=indices[:-3])
        with pytest.raises(SnapshotError, match="malformed postings"):
            load_postings(path)

    def test_v2_missing_postings_arrays_rejected(self, index, tmp_path):
        path = str(tmp_path / "snap.npz")
        save_snapshot(index, path)
        with np.load(path) as archive:
            arrays = dict(archive)
        del arrays["indices"]
        np.savez(path, **arrays)
        with pytest.raises(SnapshotError, match="postings arrays"):
            load_postings(path)

    def test_failed_write_leaves_no_temp_file(self, tmp_path, monkeypatch):
        index = PPIIndex(np.eye(3, dtype=np.uint8))
        path = str(tmp_path / "snap.npz")

        def boom(*args, **kwargs):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", boom)
        with pytest.raises(OSError):
            save_snapshot(index, path)
        assert os.listdir(tmp_path) == []


class TestMmapFallback:
    def test_compressed_members_fall_back_to_copying_load(self, index, tmp_path):
        # A hand-rolled deflated archive (savez_compressed) is still a
        # valid snapshot -- just not mmap-able; the loader must cope.
        path = str(tmp_path / "snap.npz")
        save_snapshot(index, path)
        with np.load(path) as archive:
            arrays = dict(archive)
        np.savez_compressed(path, **arrays)
        postings = load_postings(path, mmap=True)
        assert not isinstance(postings.indices, np.memmap)
        assert np.array_equal(postings.to_dense(), index.matrix)
