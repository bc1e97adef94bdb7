"""Tests for randomized publication (Eq. 2) and its Binomial fast path."""

import numpy as np
import pytest

from repro.core.errors import ConstructionError
from repro.core.model import MembershipMatrix
from repro.core.publication import (
    false_positive_rates,
    publish_matrix,
    publish_provider_row,
    sample_false_positive_counts,
)


class TestProviderRow:
    def test_truthful_rule_ones_survive(self, np_rng):
        row = np.array([1, 1, 1, 1], dtype=np.uint8)
        out = publish_provider_row(row, [0.0, 0.5, 1.0, 0.3], np_rng)
        assert out.tolist() == [1, 1, 1, 1]

    def test_beta_zero_publishes_nothing_false(self, np_rng):
        row = np.zeros(100, dtype=np.uint8)
        out = publish_provider_row(row, np.zeros(100), np_rng)
        assert out.sum() == 0

    def test_beta_one_flips_everything(self, np_rng):
        row = np.zeros(100, dtype=np.uint8)
        out = publish_provider_row(row, np.ones(100), np_rng)
        assert out.sum() == 100

    def test_flip_rate_close_to_beta(self, np_rng):
        row = np.zeros(20000, dtype=np.uint8)
        out = publish_provider_row(row, np.full(20000, 0.3), np_rng)
        assert 0.27 < out.mean() < 0.33

    def test_shape_mismatch_rejected(self, np_rng):
        with pytest.raises(ConstructionError):
            publish_provider_row(np.zeros(3), [0.5, 0.5], np_rng)

    def test_beta_out_of_range_rejected(self, np_rng):
        with pytest.raises(ConstructionError):
            publish_provider_row(np.zeros(2), [0.5, 1.5], np_rng)


class TestPublishMatrix:
    def test_recall_invariant(self, small_matrix, np_rng):
        """Every true positive must survive (the 1 -> 1 rule)."""
        published = publish_matrix(small_matrix, [0.5, 0.5, 0.5], np_rng)
        dense = small_matrix.to_dense()
        assert np.all(published[dense == 1] == 1)

    def test_beta_per_owner_applied(self, small_matrix, np_rng):
        published = publish_matrix(small_matrix, [1.0, 0.0, 0.0], np_rng)
        # Owner 0 has beta 1: all providers publish it.
        assert published[:, 0].sum() == 3
        # Owner 1 beta 0: only true positives (p0, p1).
        assert published[:, 1].tolist() == [1, 1, 0]

    def test_wrong_beta_count_rejected(self, small_matrix, np_rng):
        with pytest.raises(ConstructionError):
            publish_matrix(small_matrix, [0.5, 0.5], np_rng)

    def test_output_dtype_and_shape(self, small_matrix, np_rng):
        published = publish_matrix(small_matrix, [0.2, 0.2, 0.2], np_rng)
        assert published.shape == (3, 3)
        assert set(np.unique(published)) <= {0, 1}

    def test_stream_identical_to_per_row_loop(self):
        """The whole-matrix draw must be bit-for-bit what the per-provider
        loop produces from the same seed: the generator fills ``(m, n)`` in
        C order, i.e. row by row, exactly as ``publish_provider_row`` would
        consume it.  This pins the vectorization as a pure refactor -- any
        seeded experiment reproduces unchanged."""
        m, n = 17, 29
        rng = np.random.default_rng(7)
        matrix = MembershipMatrix(m, n)
        for _ in range(80):
            matrix.set(int(rng.integers(m)), int(rng.integers(n)))
        betas = rng.random(n)
        dense = matrix.to_dense()
        whole = publish_matrix(matrix, betas, np.random.default_rng(1234))
        loop_rng = np.random.default_rng(1234)
        per_row = np.stack(
            [publish_provider_row(dense[i], betas, loop_rng) for i in range(m)]
        )
        assert np.array_equal(whole, per_row)

    @pytest.mark.parametrize("block_cells", [1, 29, 29 * 5, 29 * 17, 29 * 17 + 1])
    def test_blocked_draw_is_the_one_shot_draw(self, monkeypatch, block_cells):
        """Whatever the block size -- one row at a time, a ragged last block
        (17 rows in fives), exactly one block, or more than the matrix --
        the output is the single ``rng.random((m, n))`` field and the
        per-provider loop, and the generator ends in the same state."""
        import repro.core.publication as publication

        m, n = 17, 29
        rng = np.random.default_rng(7)
        dense = (rng.random((m, n)) < 0.15).astype(np.uint8)
        matrix = MembershipMatrix.from_dense(dense)
        betas = rng.random(n)
        monkeypatch.setattr(publication, "PUBLISH_BLOCK_CELLS", block_cells)
        blocked_rng = np.random.default_rng(1234)
        blocked = publish_matrix(matrix, betas, blocked_rng)

        one_shot_rng = np.random.default_rng(1234)
        flips = one_shot_rng.random((m, n)) < betas
        assert np.array_equal(blocked, np.where(dense == 1, 1, flips))
        loop_rng = np.random.default_rng(1234)
        per_row = np.stack(
            [publish_provider_row(dense[i], betas, loop_rng) for i in range(m)]
        )
        assert np.array_equal(blocked, per_row)
        assert blocked.dtype == np.uint8
        assert blocked_rng.random() == one_shot_rng.random() == loop_rng.random()

    def test_false_positive_marginals_are_binomial(self):
        """Per-owner false-positive counts from the vectorized draw must
        match the exact ``Binomial(m - f_j, beta_j)`` law in mean and
        spread (this is the distribution Eq. 2 specifies)."""
        m, f, beta, runs = 120, 30, 0.25, 400
        matrix = MembershipMatrix(m, 1)
        for i in range(f):
            matrix.set(i, 0)
        rng = np.random.default_rng(99)
        counts = np.array(
            [publish_matrix(matrix, [beta], rng)[:, 0].sum() - f
             for _ in range(runs)]
        )
        expected_mean = (m - f) * beta
        expected_std = np.sqrt((m - f) * beta * (1 - beta))
        assert abs(counts.mean() - expected_mean) < 4 * expected_std / np.sqrt(runs)
        assert abs(counts.std() - expected_std) < 1.0


class TestBinomialFastPath:
    def test_distribution_matches_exact_publication(self):
        """The Binomial shortcut must match per-cell flipping statistically:
        compare mean/std of false-positive counts over many runs."""
        m, f, beta = 200, 20, 0.3
        matrix = MembershipMatrix(m, 1)
        for i in range(f):
            matrix.set(i, 0)

        exact_counts = []
        rng = np.random.default_rng(42)
        for _ in range(300):
            published = publish_matrix(matrix, [beta], rng)
            exact_counts.append(published[:, 0].sum() - f)
        fast_counts = sample_false_positive_counts(
            np.full(300, f), np.full(300, beta), m, np.random.default_rng(43)
        )
        assert abs(np.mean(exact_counts) - np.mean(fast_counts)) < 3.0
        assert abs(np.std(exact_counts) - np.std(fast_counts)) < 2.0

    def test_expected_count(self, np_rng):
        counts = sample_false_positive_counts(
            np.full(5000, 10), np.full(5000, 0.5), 100, np_rng
        )
        assert abs(counts.mean() - 45.0) < 1.0  # (100-10) * 0.5

    def test_frequency_bounds_checked(self, np_rng):
        with pytest.raises(ConstructionError):
            sample_false_positive_counts(np.array([101]), np.array([0.5]), 100, np_rng)

    def test_shape_mismatch_rejected(self, np_rng):
        with pytest.raises(ConstructionError):
            sample_false_positive_counts(np.array([1, 2]), np.array([0.5]), 100, np_rng)


class TestFalsePositiveRates:
    def test_formula(self):
        fp = false_positive_rates(np.array([10.0]), np.array([30.0]))
        assert fp[0] == pytest.approx(0.75)

    def test_no_false_positives(self):
        fp = false_positive_rates(np.array([10.0]), np.array([0.0]))
        assert fp[0] == 0.0

    def test_empty_list_means_full_privacy(self):
        fp = false_positive_rates(np.array([0.0]), np.array([0.0]))
        assert fp[0] == 1.0

    def test_vectorized(self):
        fp = false_positive_rates(
            np.array([10.0, 0.0, 5.0]), np.array([10.0, 0.0, 0.0])
        )
        assert fp.tolist() == [0.5, 1.0, 0.0]
