"""Tests for the multi-version intersection attack and sticky noise."""

import numpy as np
import pytest

from repro.attacks.intersection import intersection_attack
from repro.core.model import MembershipMatrix
from repro.core.publication import publish_matrix
from repro.updates import StickyOwnerStream


@pytest.fixture
def matrix():
    m = MembershipMatrix(60, 5)
    rng = np.random.default_rng(1)
    for j in range(5):
        for pid in rng.choice(60, size=4, replace=False):
            m.set(int(pid), j)
    return m


BETAS = np.full(5, 0.5)


def sticky_publish(matrix, betas, key: bytes) -> np.ndarray:
    """Every owner's row through its sticky stream, as a providers x owners
    matrix."""
    stream = StickyOwnerStream(key)
    published = np.zeros((matrix.n_providers, matrix.n_owners), dtype=np.uint8)
    for j in range(matrix.n_owners):
        row = stream.publish_row(
            j, sorted(matrix.providers_of(j)), float(betas[j]), matrix.n_providers
        )
        published[row, j] = 1
    return published


class TestIntersectionAttack:
    def test_single_version_equals_published(self, matrix, np_rng):
        published = publish_matrix(matrix, BETAS, np_rng)
        result = intersection_attack(matrix, [published])
        assert np.array_equal(result.intersection, published)

    def test_fresh_noise_erodes_under_intersection(self, matrix):
        """Independent republication: noise survives k versions with
        probability beta^k, so attacker confidence climbs toward 1."""
        rng = np.random.default_rng(3)
        versions = [publish_matrix(matrix, BETAS, rng) for _ in range(10)]
        one = intersection_attack(matrix, versions[:1])
        many = intersection_attack(matrix, versions)
        assert many.mean_confidence > one.mean_confidence
        assert many.mean_confidence > 0.9

    def test_true_positives_always_survive(self, matrix):
        rng = np.random.default_rng(4)
        versions = [publish_matrix(matrix, BETAS, rng) for _ in range(5)]
        result = intersection_attack(matrix, versions)
        dense = matrix.to_dense()
        assert np.all(result.intersection[dense == 1] == 1)

    def test_sticky_noise_defeats_intersection(self, matrix):
        """Sticky republication: every version is identical, so the
        intersection is exactly one version and confidence stays put."""
        versions = [sticky_publish(matrix, BETAS, b"key") for _ in range(6)]
        one = intersection_attack(matrix, versions[:1])
        many = intersection_attack(matrix, versions)
        assert np.array_equal(many.intersection, versions[0])
        assert many.mean_confidence == pytest.approx(one.mean_confidence)

    def test_shape_mismatch_rejected(self, matrix):
        with pytest.raises(ValueError):
            intersection_attack(matrix, [np.zeros((2, 2), dtype=np.uint8)])

    def test_empty_versions_rejected(self, matrix):
        with pytest.raises(ValueError):
            intersection_attack(matrix, [])
