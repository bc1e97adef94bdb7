"""Static attacks through the sealed-segment merge.

The attacks in :mod:`repro.attacks` grade a dense published matrix.  The
serving stack, however, answers from a base snapshot with sealed delta
segments folded in.  These tests rebuild the adversary's view *through*
that fold -- :func:`merge_segments`, then ``query`` per owner -- and
assert every attack scores identically to the direct dense path, so
nothing about the merge (per-owner overrides, newest-segment-wins, id
gaps) changes what an adversary can learn.
"""

import numpy as np
import pytest

from repro.attacks.adversary import AdversaryKnowledge
from repro.attacks.common_identity import common_identity_attack
from repro.attacks.intersection import intersection_attack
from repro.attacks.primary import primary_attack_confidences
from repro.core.model import MembershipMatrix
from repro.core.postings import PostingsIndex
from repro.updates import DeltaLog, load_segment, merge_segments, seal_segment

NOISE_KEY = b"\x11" * 16


@pytest.fixture
def matrix():
    m = MembershipMatrix(10, 6)
    for pid in (0, 1):
        m.set(pid, 0)  # frequency 2
    for pid in range(10):
        m.set(pid, 1)  # common identity
    m.set(5, 2)  # rare
    m.set(2, 3)
    m.set(3, 3)
    m.set(7, 4)
    m.set(8, 5)
    m.set(9, 5)
    return m


def published_with_noise(matrix):
    published = matrix.to_dense().copy()
    published[2, 0] = 1  # false positives for owner 0
    published[3, 0] = 1
    published[6, 2] = 1  # and one for owner 2
    return published


def overlay_view(published, overlay_owners, tmp_path, tag="seg"):
    """Fold a sealed segment holding ``overlay_owners``' rows into a base
    snapshot holding the rest of ``published``, then rebuild the dense
    matrix owner by owner through the merged index's query surface."""
    base_dense = published.copy()
    base_dense[:, list(overlay_owners)] = 0  # those rows live in the segment
    base = PostingsIndex.from_dense(base_dense)

    log_path = tmp_path / f"{tag}.log"
    with DeltaLog.create(
        str(log_path), published.shape[0], noise_key=NOISE_KEY
    ) as log:
        for owner in overlay_owners:
            row = np.nonzero(published[:, owner])[0].tolist()
            # beta 0: the segment stores exactly the published row, so the
            # merge -- not fresh noise -- is what's under test
            log.upsert(owner, row, beta=0.0)
        seg_path = tmp_path / f"{tag}.seg.npz"
        seal_segment(log, str(seg_path), base_epoch=0)

    merged = merge_segments(base, [load_segment(str(seg_path))])
    rebuilt = np.zeros_like(published)
    for owner in range(published.shape[1]):
        rebuilt[np.asarray(merged.query(owner), dtype=int), owner] = 1
    return rebuilt


class TestOverlayViewIsExact:
    def test_rebuilt_matrix_matches_published(self, matrix, tmp_path):
        published = published_with_noise(matrix)
        rebuilt = overlay_view(published, {1, 3, 5}, tmp_path)
        assert np.array_equal(rebuilt, published)


class TestAttacksThroughOverlay:
    def test_primary_attack_identical(self, matrix, tmp_path):
        published = published_with_noise(matrix)
        rebuilt = overlay_view(published, {0, 2, 4}, tmp_path)
        direct = primary_attack_confidences(
            matrix, AdversaryKnowledge(published=published)
        )
        via_overlay = primary_attack_confidences(
            matrix, AdversaryKnowledge(published=rebuilt)
        )
        assert via_overlay.tolist() == direct.tolist()

    def test_common_identity_attack_identical(self, matrix, tmp_path):
        published = published_with_noise(matrix)
        rebuilt = overlay_view(published, {1, 2}, tmp_path)
        direct = common_identity_attack(
            matrix,
            AdversaryKnowledge(published=published),
            np.random.default_rng(0),
        )
        via_overlay = common_identity_attack(
            matrix,
            AdversaryKnowledge(published=rebuilt),
            np.random.default_rng(0),
        )
        assert (
            via_overlay.claimed_common.tolist()
            == direct.claimed_common.tolist()
        )
        assert (
            via_overlay.identification_confidence
            == direct.identification_confidence
        )
        assert (
            via_overlay.membership_confidence == direct.membership_confidence
        )

    def test_intersection_attack_identical(self, matrix, tmp_path):
        v1 = published_with_noise(matrix)
        v2 = matrix.to_dense().copy()
        v2[4, 0] = 1  # a different noise draw for the second version
        v2[6, 2] = 1
        direct = intersection_attack(matrix, [v1, v2])
        via_overlay = intersection_attack(
            matrix,
            [
                overlay_view(v1, {0, 3}, tmp_path, tag="v1"),
                overlay_view(v2, {1, 5}, tmp_path, tag="v2"),
            ],
        )
        assert np.array_equal(via_overlay.intersection, direct.intersection)
        assert via_overlay.confidences.tolist() == direct.confidences.tolist()
        assert (
            via_overlay.survivors_per_owner.tolist()
            == direct.survivors_per_owner.tolist()
        )
