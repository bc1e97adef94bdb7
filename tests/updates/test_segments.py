"""Segment sealing/loading and the segment merge.

The invariants under test: a sealed segment stores *published* rows (true
bits plus the log's sticky false positives, never the raw truth, never
β), sealing is atomic and re-sealing is bit-reproducible, and
:func:`merge_segments` gives every owner the row a from-scratch merge
would.
"""

import os

import numpy as np
import pytest

from repro.attacks.intersection import intersection_attack
from repro.core.errors import ModelError
from repro.core.model import MembershipMatrix
from repro.core.policies import chernoff_beta
from repro.core.postings import PostingsIndex, provider_id_dtype
from repro.updates import (
    SEGMENT_FORMAT_VERSION,
    DeltaLog,
    SegmentError,
    StickyOwnerStream,
    load_segment,
    merge_segments,
    seal_segment,
)

N_PROVIDERS = 8
N_OWNERS = 12
KEY = b"\x01" * 16

DATA_DIR = os.path.join(os.path.dirname(__file__), "data")
GOLDEN_LOG = os.path.join(DATA_DIR, "golden_deltalog_v1.log")
GOLDEN_SEGMENT_V1 = os.path.join(DATA_DIR, "golden_segment_v1.seg.npz")
GOLDEN_SEGMENT_V2 = os.path.join(DATA_DIR, "golden_segment_v2.seg.npz")
GOLDEN_SEGMENT_V3 = os.path.join(DATA_DIR, "golden_segment_v3.seg.npz")
GOLDEN_KEY = bytes(range(16))
GOLDEN_BASE_EPOCH = 5
# The published rows the golden log seals to: owner 3's truth {1, 2, 7}
# plus its sticky noise, owner 9 tombstoned, owner 12's truth {4, 6}.
GOLDEN_ROWS = {3: [0, 1, 2, 4, 5, 7], 9: [], 12: [1, 4, 6, 7]}


def base_index() -> PostingsIndex:
    i, j = np.meshgrid(np.arange(N_PROVIDERS), np.arange(N_OWNERS), indexing="ij")
    matrix = ((2 * i + j) % 4 == 0).astype(np.uint8)
    return PostingsIndex.from_dense(matrix, owner_names=[f"owner-{n}" for n in range(N_OWNERS)])


@pytest.fixture
def log(tmp_path):
    with DeltaLog.create(
        str(tmp_path / "d.log"), N_PROVIDERS, noise_key=KEY
    ) as log:
        log.upsert(3, [1, 6], beta=0.5, name="moved-3")
        log.remove(7)
        log.upsert(N_OWNERS + 2, [0, 4], beta=0.25, name="newcomer")
        yield log


@pytest.fixture
def segment(log, tmp_path):
    path = str(tmp_path / "0001.seg.npz")
    seal_segment(log, path, base_epoch=0)
    return load_segment(path)


class TestSealLoad:
    def test_summary_and_round_trip(self, log, tmp_path):
        path = str(tmp_path / "s.seg.npz")
        summary = seal_segment(log, path, base_epoch=4)
        assert summary["n_entries"] == 3
        assert summary["tombstones"] == 1
        assert summary["base_epoch"] == 4
        segment = load_segment(path)
        assert segment.base_epoch == 4
        assert len(segment) == 3
        assert segment.owners.tolist() == [3, 7, N_OWNERS + 2]
        assert segment.name_of(3) == "moved-3"
        assert segment.name_of(7) is None  # remove keeps no name here
        assert 3 in segment and 4 not in segment

    def test_rows_are_published_not_raw_truth(self, segment):
        # True bits present, and exactly the sticky coins' false positives.
        stream = StickyOwnerStream(KEY)
        expected = stream.publish_row(3, [1, 6], 0.5, N_PROVIDERS)
        assert segment.postings(3).tolist() == expected.tolist()
        assert {1, 6} <= set(segment.postings(3).tolist())

    def test_tombstone_rows_are_empty(self, segment):
        assert segment.postings(7).size == 0
        assert segment.tombstones[segment.owners.tolist().index(7)] == 1

    def test_untouched_owner_yields_none(self, segment):
        assert segment.postings(0) is None

    def test_resealing_is_bit_identical(self, log, tmp_path):
        a, b = str(tmp_path / "a.seg.npz"), str(tmp_path / "b.seg.npz")
        seal_segment(log, a, base_epoch=0)
        seal_segment(log, b, base_epoch=0)
        sa, sb = load_segment(a), load_segment(b)
        assert np.array_equal(sa.indices, sb.indices)
        assert np.array_equal(sa.indptr, sb.indptr)

    def test_seal_equals_a_per_row_oracle_seal(self, tmp_path):
        """The batched seal writes the arrays one ``publish_row`` per owner
        would: same rows, same dtypes, names and tombstones."""
        rng = np.random.default_rng(5)
        m = 64
        with DeltaLog.create(str(tmp_path / "big.log"), m, noise_key=KEY) as big:
            for owner in rng.choice(5000, size=300, replace=False).tolist():
                providers = rng.choice(m, size=int(rng.integers(0, 6)), replace=False)
                big.upsert(owner, providers.tolist(), float(rng.uniform()), name=(
                    f"o{owner}" if owner % 3 == 0 else None
                ))
            for owner in rng.choice(5000, size=40, replace=False).tolist():
                big.remove(owner)
            big.upsert(2**63 - 1, [0, 63], 0.5)
            path = str(tmp_path / "big.seg.npz")
            seal_segment(big, path, base_epoch=2)
            state = big.state()
        segment = load_segment(path)
        stream = StickyOwnerStream(KEY)
        owners = sorted(state)
        rows = [
            np.zeros(0, dtype=np.int32)
            if state[j].removed
            else stream.publish_row(j, sorted(state[j].providers), state[j].beta, m)
            for j in owners
        ]
        assert segment.owners.dtype == np.int64
        assert segment.owners.tolist() == owners
        assert segment.indptr.tolist() == np.cumsum([0] + [r.size for r in rows]).tolist()
        assert segment.indices.dtype == provider_id_dtype(m)
        assert np.array_equal(segment.indices, np.concatenate(rows))
        assert segment.tombstones.tolist() == [int(state[j].removed) for j in owners]
        assert segment.owner_names == [state[j].name or "" for j in owners]

    def test_seal_rejects_negative_epoch(self, log, tmp_path):
        with pytest.raises(SegmentError, match="base epoch"):
            seal_segment(log, str(tmp_path / "s.seg.npz"), base_epoch=-1)

    def test_failed_seal_leaves_no_temp_file(self, log, tmp_path, monkeypatch):
        def boom(*args, **kwargs):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", boom)
        with pytest.raises(OSError):
            seal_segment(log, str(tmp_path / "s.seg.npz"), base_epoch=0)
        assert [p for p in os.listdir(tmp_path) if "seg" in p] == []


class TestLoadRejection:
    def _arrays(self, segment_path):
        with np.load(segment_path) as archive:
            return dict(archive)

    def _rewrite(self, path, arrays):
        np.savez(path, **arrays)

    @pytest.fixture
    def segment_path(self, log, tmp_path):
        path = str(tmp_path / "s.seg.npz")
        seal_segment(log, path, base_epoch=0)
        return path

    def test_missing_file_and_non_npz(self, tmp_path):
        with pytest.raises(SegmentError, match="cannot read"):
            load_segment(str(tmp_path / "nope.seg.npz"))
        junk = tmp_path / "junk.seg.npz"
        junk.write_bytes(b"not a zip")
        with pytest.raises(SegmentError):
            load_segment(str(junk))

    @pytest.mark.parametrize("keep", [0.5, 0.9])
    def test_truncated_file_raises_a_segment_error(self, segment_path, keep):
        # A torn download or copy: the zip directory (at the end) is gone.
        with open(segment_path, "rb") as f:
            blob = f.read()
        with open(segment_path, "wb") as f:
            f.write(blob[: int(len(blob) * keep)])
        with pytest.raises(SegmentError, match="cannot read"):
            load_segment(segment_path)

    def test_missing_keys(self, segment_path):
        arrays = self._arrays(segment_path)
        del arrays["indices"]
        self._rewrite(segment_path, arrays)
        with pytest.raises(SegmentError, match="missing keys"):
            load_segment(segment_path)

    def test_unsupported_version(self, segment_path):
        arrays = self._arrays(segment_path)
        arrays["meta"] = arrays["meta"].copy()
        arrays["meta"][0] = SEGMENT_FORMAT_VERSION + 1
        self._rewrite(segment_path, arrays)
        with pytest.raises(SegmentError, match="unsupported"):
            load_segment(segment_path)

    def test_corrupted_payload_fails_checksum(self, segment_path):
        arrays = self._arrays(segment_path)
        arrays["indices"] = arrays["indices"].copy()
        arrays["indices"][0] += 1
        self._rewrite(segment_path, arrays)
        with pytest.raises(SegmentError, match="checksum"):
            load_segment(segment_path)

    @pytest.mark.parametrize(
        "slot, value", [(3, 7), (4, 999), (1, 16)], ids=["base_epoch", "n_ops", "n_providers"]
    )
    def test_corrupted_meta_fails_checksum(self, log, tmp_path, slot, value):
        # base_epoch steers the compactor's epoch check and n_ops its drift
        # count: a changed field must fail the crc, not load as the truth.
        path = str(tmp_path / "s.seg.npz")
        seal_segment(log, path, base_epoch=3)
        arrays = self._arrays(path)
        arrays["meta"] = arrays["meta"].copy()
        arrays["meta"][slot] = value
        self._rewrite(path, arrays)
        with pytest.raises(SegmentError, match="checksum"):
            load_segment(path)

    def _rewrite_with_honest_crc(self, path, arrays):
        import zlib

        arrays["meta"] = arrays["meta"].copy()
        crc = zlib.crc32(arrays["meta"][:-1].tobytes())
        for key in ("indptr", "indices", "owner_names", "owners", "tombstones"):
            crc = zlib.crc32(np.ascontiguousarray(arrays[key]).tobytes(), crc)
        arrays["meta"][-1] = crc
        self._rewrite(path, arrays)

    def test_unsorted_owners_rejected(self, segment_path):
        arrays = self._arrays(segment_path)
        arrays["owners"] = arrays["owners"][::-1].copy()
        self._rewrite_with_honest_crc(segment_path, arrays)
        with pytest.raises(SegmentError, match="malformed arrays"):
            load_segment(segment_path)

    def test_unsorted_postings_rejected(self, segment_path):
        # A compaction copies segment rows unchecked, so a row that is not
        # strictly increasing must be stopped here, checksum or not.
        arrays = self._arrays(segment_path)
        arrays["indices"] = arrays["indices"][::-1].copy()
        self._rewrite_with_honest_crc(segment_path, arrays)
        with pytest.raises(SegmentError, match="sorted and duplicate-free"):
            load_segment(segment_path)


class TestGoldenBytes:
    """Segment files already on disk (leaders' stream archives, followers'
    local directories) must keep loading, and the writer must keep
    producing v3: every golden file was sealed from
    ``data/golden_deltalog_v1.log`` at base epoch 5."""

    def test_golden_v1_layout_is_pinned(self):
        with np.load(GOLDEN_SEGMENT_V1) as archive:
            assert archive.files == [
                "meta", "owners", "indptr", "indices", "tombstones", "betas",
                "owner_names", "n_ops",
            ]
            assert archive["meta"].dtype == np.uint64
            assert archive["meta"].tolist() == [1, 8, 3, 5, 3466405592]
            assert archive["indices"].dtype == np.int32
            assert archive["n_ops"].tolist() == [5]

    def test_golden_v2_layout_is_pinned(self):
        with np.load(GOLDEN_SEGMENT_V2) as archive:
            assert archive.files == [
                "meta", "indptr", "indices", "owner_names", "owners",
                "tombstones", "betas",
            ]
            assert archive["meta"].dtype == np.uint64
            assert archive["meta"].tolist() == [2, 8, 3, 5, 5, 431602357]
            assert archive["indptr"].dtype == np.int64
            assert archive["indices"].dtype == np.uint8
            assert archive["owner_names"].dtype == np.dtype("<U5")

    def test_golden_v3_layout_is_pinned(self):
        with np.load(GOLDEN_SEGMENT_V3) as archive:
            assert archive.files == [
                "meta", "indptr", "indices", "owner_names", "owners", "tombstones",
            ]
            assert archive["meta"].dtype == np.uint64
            assert archive["meta"].tolist() == [3, 8, 3, 5, 5, 4073394658]
            assert archive["indptr"].dtype == np.int64
            assert archive["indices"].dtype == np.uint8
            assert archive["owner_names"].dtype == np.dtype("<U5")

    @pytest.mark.parametrize(
        "path, id_dtype",
        [
            (GOLDEN_SEGMENT_V1, np.int32),
            (GOLDEN_SEGMENT_V2, np.uint8),
            (GOLDEN_SEGMENT_V3, np.uint8),
        ],
        ids=["v1", "v2", "v3"],
    )
    def test_golden_loads_to_the_sealed_state(self, path, id_dtype):
        segment = load_segment(path)
        assert (segment.n_providers, segment.base_epoch, segment.n_ops) == (
            N_PROVIDERS, GOLDEN_BASE_EPOCH, 5
        )
        assert segment.owners.dtype == np.int64
        assert segment.owners.tolist() == sorted(GOLDEN_ROWS)
        assert segment.indices.dtype == id_dtype
        assert {j: segment.postings(j).tolist() for j in GOLDEN_ROWS} == GOLDEN_ROWS
        assert segment.tombstones.tolist() == [0, 1, 0]
        assert not hasattr(segment, "betas")  # v1 and v2 hold β; it is dropped
        assert segment.owner_names == ["alice", "", ""]

    def test_golden_rows_are_the_logs_published_rows(self):
        stream = StickyOwnerStream(GOLDEN_KEY)
        assert stream.publish_row(3, [1, 2, 7], 0.4, N_PROVIDERS).tolist() == (
            GOLDEN_ROWS[3]
        )
        assert stream.publish_row(12, [4, 6], 0.25, N_PROVIDERS).tolist() == (
            GOLDEN_ROWS[12]
        )

    def test_golden_v1_v2_and_v3_hold_the_same_rows(self):
        v3 = load_segment(GOLDEN_SEGMENT_V3)
        for old in (load_segment(GOLDEN_SEGMENT_V1), load_segment(GOLDEN_SEGMENT_V2)):
            for key in ("owners", "indptr", "indices", "tombstones"):
                assert getattr(old, key).tolist() == getattr(v3, key).tolist(), key
            assert old.owner_names == v3.owner_names
            assert (old.n_providers, old.base_epoch, old.n_ops) == (
                v3.n_providers, v3.base_epoch, v3.n_ops
            )

    def test_resealing_the_golden_log_reproduces_v3(self, tmp_path):
        log_path, path = str(tmp_path / "golden.log"), str(tmp_path / "s.seg.npz")
        with open(GOLDEN_LOG, "rb") as src, open(log_path, "wb") as dst:
            dst.write(src.read())
        with DeltaLog.open(log_path) as log:
            seal_segment(log, path, base_epoch=GOLDEN_BASE_EPOCH)
        with np.load(GOLDEN_SEGMENT_V3) as old, np.load(path) as new:
            assert old.files == new.files
            for key in old.files:
                assert old[key].dtype == new[key].dtype, key
                assert np.array_equal(old[key], new[key]), key


class TestMergeSegments:
    def test_newest_segment_wins(self, tmp_path):
        base = base_index()
        paths = []
        for k, providers in enumerate(([1], [2, 5])):
            with DeltaLog.create(
                str(tmp_path / f"{k}.log"), N_PROVIDERS, noise_key=KEY
            ) as log:
                log.upsert(0, providers, beta=0.0)
            paths.append(str(tmp_path / f"{k}.seg.npz"))
            seal_segment(log, paths[-1], base_epoch=0)
        merged = merge_segments(base, [load_segment(p) for p in paths])
        assert merged.query(0) == [2, 5]  # the later segment's row
        assert merged.n_owners == N_OWNERS
        assert [merged.query(j) for j in range(1, N_OWNERS)] == [
            base.query(j) for j in range(1, N_OWNERS)
        ]

    def test_newest_entry_and_newest_name_win_across_three_segments(self, tmp_path):
        upserts = [  # (owner, providers, name) per segment, oldest first
            [(2, [1], "two"), (5, [0], None)],
            [(2, [3], None), (14, [7], None)],
            [(5, [4, 6], "five"), (0, [], None)],
        ]
        segments = []
        for k, ops in enumerate(upserts):
            with DeltaLog.create(
                str(tmp_path / f"{k}.log"), N_PROVIDERS, noise_key=KEY
            ) as log:
                for owner, providers, name in ops:
                    log.upsert(owner, providers, 0.0, name=name)
                if k == 1:
                    log.remove(5)
            seal_segment(log, str(tmp_path / f"{k}.seg.npz"), base_epoch=0)
            segments.append(load_segment(str(tmp_path / f"{k}.seg.npz")))
        base = base_index()
        merged = merge_segments(base, segments)
        assert [merged.query(j) for j in (0, 2, 5, 14)] == [[], [3], [4, 6], [7]]
        names = merged.owner_names
        assert (names[2], names[5], names[14]) == ("two", "five", "")
        assert merged.query_by_name("five") == [4, 6]
        for owner in range(merged.n_owners):
            if owner not in (0, 2, 5, 14):
                expected = base.query(owner) if owner < N_OWNERS else []
                assert merged.query(owner) == expected

    def test_merge_matches_base_for_untouched_owners(self, segment):
        base = base_index()
        merged = merge_segments(base, [segment])
        for owner in range(N_OWNERS):
            if owner in (3, 7):
                continue
            assert merged.query(owner) == base.query(owner)

    def test_tombstone_and_gap_owners_answer_empty(self, segment):
        merged = merge_segments(base_index(), [segment])
        assert merged.n_owners == N_OWNERS + 3
        assert merged.query(7) == []  # tombstoned
        assert merged.query(N_OWNERS) == []  # id gap below the newcomer
        assert merged.query(N_OWNERS + 1) == []
        assert merged.query(N_OWNERS + 2) != []  # the newcomer itself

    def test_out_of_range_owner_raises(self, segment):
        merged = merge_segments(base_index(), [segment])
        with pytest.raises(ModelError, match="unknown owner"):
            merged.query(merged.n_owners)
        with pytest.raises(ModelError, match="unknown owner"):
            merged.query_many([0, merged.n_owners])

    def test_query_by_name_sees_segment_names(self, segment):
        merged = merge_segments(base_index(), [segment])
        assert merged.query_by_name("newcomer") == merged.query(N_OWNERS + 2)
        assert merged.query_by_name("moved-3") == merged.query(3)
        assert merged.query_by_name("owner-1") == merged.query(1)
        with pytest.raises(ModelError, match="unknown owner name"):
            merged.query_by_name("stranger")

    def test_merged_rows_pass_full_validation(self, segment):
        # The merge skips validation; a validating rebuild of its arrays
        # must accept them, at the narrow provider-id width.
        merged = merge_segments(base_index(), [segment])
        assert merged.indices.dtype == provider_id_dtype(N_PROVIDERS)
        rebuilt = PostingsIndex(
            merged.indptr, merged.indices, N_PROVIDERS, owner_names=merged.owner_names
        )
        assert rebuilt.query_many(range(rebuilt.n_owners)) == merged.query_many(
            range(merged.n_owners)
        )

    def test_sizes_and_stats_reflect_the_merge(self, segment):
        merged = merge_segments(base_index(), [segment])
        sizes = merged.result_sizes()
        for owner in range(merged.n_owners):
            assert sizes[owner] == len(merged.query(owner))
            assert merged.published_frequency(owner) == pytest.approx(
                sizes[owner] / N_PROVIDERS
            )
        stats = merged.stats()
        assert stats.n_owners == merged.n_owners
        assert stats.published_positives == merged.nnz == int(sizes.sum())

    def test_provider_universe_mismatch_rejected(self, tmp_path):
        with DeltaLog.create(str(tmp_path / "d.log"), 4, noise_key=KEY) as log:
            log.upsert(0, [1], beta=0.0)
        path = str(tmp_path / "s.seg.npz")
        seal_segment(log, path, base_epoch=0)
        with pytest.raises(ModelError, match="providers"):
            merge_segments(base_index(), [load_segment(path)])

    def test_merge_equals_per_owner_oracle(self, segment):
        base = base_index()
        merged = merge_segments(base, [segment])
        names = base.owner_names + [""] * 3
        for owner in range(merged.n_owners):
            row = segment.postings(owner)
            if row is not None:
                expected = row.tolist()
                names[owner] = segment.name_of(owner) or names[owner]
            else:
                expected = base.query(owner) if owner < N_OWNERS else []
            assert merged.query(owner) == expected
        assert merged.owner_names == names

    def test_no_segments_merges_to_the_base(self):
        base = base_index()
        merged = merge_segments(base)
        assert np.array_equal(merged.to_dense(), base.to_dense())


class TestBetaLeak:
    """A sealed segment is streamed to every follower, so it must be as
    public as a snapshot.  Below saturation β is strictly increasing in
    σ_j (Eq. 5): a per-owner β in the file would hand anyone who knows
    the owner's ǫ its exact true provider count, so no β is written."""

    M, EPSILON, GAMMA = 64, 0.5, 0.9

    def test_sealed_segment_and_the_true_provider_count(self, tmp_path):
        rng = np.random.default_rng(11)
        path = str(tmp_path / "s.seg.npz")
        with DeltaLog.create(str(tmp_path / "d.log"), self.M, noise_key=KEY) as log:
            for owner in range(40):
                k = int(rng.integers(1, 40))
                providers = rng.choice(self.M, size=k, replace=False)
                beta = chernoff_beta(k / self.M, self.EPSILON, self.GAMMA, self.M)
                log.upsert(owner, sorted(providers.tolist()), beta)
            seal_segment(log, path, base_epoch=0)
            # β would leak σ: distinct per count below saturation.
            betas = {delta.beta for delta in log.state().values()}
            assert len(betas - {1.0}) >= 10
        with np.load(path) as archive:
            assert archive.files == [
                "meta", "indptr", "indices", "owner_names", "owners", "tombstones",
            ]
            assert all(archive[k].dtype != np.float64 for k in archive.files)
        assert not hasattr(load_segment(path), "betas")


class TestRepublicationStream:
    """One log and one sealed segment per epoch, each folded into the
    published index: the sticky guarantees hold across every version an
    observer collects."""

    M = 40
    OWNERS = 6

    def land(self, tmp_path, segments, write, key=KEY):
        """Write one epoch's log, seal it, and fold every segment so far."""
        k = len(segments)
        path = str(tmp_path / f"{k:04d}-{key.hex()[:4]}.seg.npz")
        with DeltaLog.create(
            str(tmp_path / f"{k:04d}-{key.hex()[:4]}.log"), self.M, noise_key=key
        ) as log:
            write(log)
            seal_segment(log, path, base_epoch=0)
        segments.append(load_segment(path))
        base = PostingsIndex.from_dense(np.zeros((self.M, self.OWNERS), dtype=np.uint8))
        return merge_segments(base, segments)

    def test_recall_holds_over_an_update_stream(self, tmp_path):
        rng = np.random.default_rng(9)
        truth = {j: set() for j in range(self.OWNERS)}
        segments = []
        for _ in range(20):
            j = int(rng.integers(self.OWNERS))
            truth[j].add(int(rng.integers(self.M)))
            members, beta = sorted(truth[j]), float(rng.uniform(0.1, 0.6))
            index = self.land(
                tmp_path, segments, lambda log: log.upsert(j, members, beta)
            )
            assert all(
                truth[o] <= set(index.query(o)) for o in range(self.OWNERS)
            )

    def test_untouched_owner_row_is_stable(self, tmp_path):
        segments = []
        index = self.land(tmp_path, segments, lambda log: log.upsert(1, [3], 0.5))
        before = index.query(1)
        index = self.land(tmp_path, segments, lambda log: log.upsert(0, [10], 0.5))
        assert index.query(1) == before

    def test_rows_only_grow_as_truth_and_beta_rise(self, tmp_path):
        segments, members, rows = [], [], []
        for pid, beta in ((0, 0.3), (5, 0.4), (9, 0.5), (14, 0.6)):
            members.append(pid)
            index = self.land(
                tmp_path,
                segments,
                lambda log: log.upsert(0, list(members), beta),
            )
            rows.append(set(index.query(0)))
        assert all(before <= after for before, after in zip(rows, rows[1:]))

    def test_intersection_of_versions_equals_the_first(self, tmp_path):
        """Truth only grows at a fixed β, so every later version is a
        superset: intersecting them all strips no noise bit."""
        rng = np.random.default_rng(3)
        truth = MembershipMatrix(self.M, self.OWNERS)
        segments, snapshots = [], []
        for step in range(12):
            j = step % self.OWNERS
            truth.set(int(rng.integers(self.M)), j)
            members = sorted(truth.providers_of(j))
            index = self.land(
                tmp_path, segments, lambda log: log.upsert(j, members, 0.6)
            )
            snapshots.append(index.to_dense())
        result = intersection_attack(truth, snapshots)
        assert np.array_equal(result.intersection, snapshots[0])

    def test_dropped_delegation_stays_only_as_sticky_noise(self, tmp_path):
        segments = []
        self.land(tmp_path, segments, lambda log: log.upsert(0, [3, 9], 0.4))
        index = self.land(tmp_path, segments, lambda log: log.upsert(0, [3], 0.4))
        coins = StickyOwnerStream(KEY).coins(0, self.M)
        row = index.query(0)
        assert row == StickyOwnerStream(KEY).publish_row(0, [3], 0.4, self.M).tolist()
        assert (9 in row) == bool(coins[9] < 0.4)

    def test_reenrolled_owner_keeps_its_coins(self, tmp_path):
        """Removed, the owner answers the empty list; enrolled again, it
        publishes on the same coin function as before."""
        stream = StickyOwnerStream(KEY)
        segments = []
        first = self.land(tmp_path, segments, lambda log: log.upsert(2, [1, 4], 0.5))
        noise = set(first.query(2)) - {1, 4}
        removed = self.land(tmp_path, segments, lambda log: log.remove(2))
        assert removed.query(2) == []
        again = self.land(tmp_path, segments, lambda log: log.upsert(2, [6], 0.5))
        assert again.query(2) == stream.publish_row(2, [6], 0.5, self.M).tolist()
        assert set(again.query(2)) - {1, 4, 6} == noise - {6}

    def test_a_new_noise_key_redraws_the_noise_but_keeps_the_truth(self, tmp_path):
        old = self.land(tmp_path, [], lambda log: log.upsert(0, [5], 0.7))
        new = self.land(
            tmp_path, [], lambda log: log.upsert(0, [5], 0.7), key=b"\x02" * 16
        )
        assert old.query(0) != new.query(0)
        assert 5 in old.query(0) and 5 in new.query(0)

    def test_versions_under_two_keys_intersect_like_fresh_noise(self, tmp_path):
        """The price of changing the key mid-life: the noise of two versions
        under different keys intersects away like fresh coins."""
        truth = MembershipMatrix(self.M, self.OWNERS)
        truth.set(5, 0)
        snapshots = [
            self.land(
                tmp_path, [], lambda log: log.upsert(0, [5], 0.8), key=key
            ).to_dense()
            for key in (KEY, b"\x02" * 16)
        ]
        one = intersection_attack(truth, snapshots[:1])
        both = intersection_attack(truth, snapshots)
        assert both.intersection.sum() < snapshots[0].sum()
        assert both.mean_confidence >= one.mean_confidence
