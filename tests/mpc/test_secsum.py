"""Tests for the SecSumShare protocol (paper Sec. IV-B-1, Fig. 3)."""

import json
import os
import random

import numpy as np
import pytest

from repro.mpc.field import Zq
from repro.mpc.secsum import SecSumShare


def run_secsum(inputs, c=3, q=None, seed=1):
    m = len(inputs)
    ring = Zq(q if q is not None else 1 << (m.bit_length() + 1))
    protocol = SecSumShare(m=m, c=c, ring=ring, rng=random.Random(seed))
    return protocol.run(inputs), ring


class TestCorrectness:
    def test_paper_figure3_example(self):
        """The worked example of Fig. 3: 5 providers, q=5, c=3, t0 held by
        p1 and p2 -- reconstruction must give frequency 2."""
        inputs = [[0], [1], [1], [0], [0]]
        result, ring = run_secsum(inputs, c=3, q=5)
        assert result.reconstruct(ring, 0) == 2

    @pytest.mark.parametrize("m,c", [(3, 2), (5, 3), (8, 3), (10, 5), (6, 6)])
    def test_single_identity_sums(self, m, c):
        rng = random.Random(m * 31 + c)
        inputs = [[rng.randint(0, 1)] for _ in range(m)]
        result, ring = run_secsum(inputs, c=c, seed=m + c)
        assert result.reconstruct(ring, 0) == sum(row[0] for row in inputs)

    def test_multiple_identities_parallel(self):
        rng = random.Random(7)
        m, n = 9, 12
        inputs = [[rng.randint(0, 1) for _ in range(n)] for _ in range(m)]
        result, ring = run_secsum(inputs, c=3)
        for j in range(n):
            assert result.reconstruct(ring, j) == sum(row[j] for row in inputs)

    def test_general_ring_values_not_just_bits(self):
        """The protocol sums arbitrary ring elements, not only Booleans."""
        inputs = [[5], [11], [2], [7]]
        result, ring = run_secsum(inputs, c=3, q=64)
        assert result.reconstruct(ring, 0) == 25

    def test_sum_wraps_modulo_q(self):
        inputs = [[3], [3], [3]]
        result, ring = run_secsum(inputs, c=2, q=4)
        assert result.reconstruct(ring, 0) == 9 % 4

    def test_zero_identities(self):
        result, ring = run_secsum([[], [], []], c=3)
        assert np.shape(result.coordinator_shares) == (3, 0)


class TestShareDistribution:
    def test_coordinator_count(self):
        result, _ = run_secsum([[1]] * 7, c=4)
        assert len(result.coordinator_shares) == 4

    def test_every_provider_has_view(self):
        result, _ = run_secsum([[1]] * 7, c=3)
        assert len(result.provider_views) == 7

    def test_each_provider_receives_c_minus_1_shares(self):
        """Ring distribution: every provider gets exactly c-1 foreign shares
        per identity."""
        n_ids = 4
        inputs = [[1] * n_ids for _ in range(6)]
        result, _ = run_secsum(inputs, c=3)
        for view in result.provider_views:
            assert len(view.received_shares) == (3 - 1) * n_ids

    def test_coordinator_group_sizes(self):
        """Provider i reports to coordinator i mod c."""
        m, c = 10, 3
        result, _ = run_secsum([[1]] * m, c=c)
        expected = [len(range(k, m, c)) for k in range(c)]
        got = [len(recv) for recv in result.coordinator_received]
        assert got == expected


class TestSecrecy:
    def test_partial_coordinator_shares_uniform(self):
        """c-secrecy of the output (Thm. 4.1): any c-1 coordinator shares
        must be (close to) uniform whatever the true sum is."""
        q = 8
        distributions = {}
        for secret_config in ([[1], [1], [1], [1], [0]], [[0], [0], [0], [0], [0]]):
            counts = [0] * q
            for seed in range(600):
                ring = Zq(q)
                protocol = SecSumShare(m=5, c=3, ring=ring, rng=random.Random(seed))
                result = protocol.run(secret_config)
                counts[result.coordinator_shares[0][0]] += 1
            distributions[str(secret_config)] = counts
        for counts in distributions.values():
            for count in counts:
                # Uniform would be 75 per bucket; allow generous slack.
                assert 30 <= count <= 130

    def test_no_single_view_reveals_input(self):
        """A provider's received shares are uniform: run the protocol with
        two different input matrices under the same randomness and check the
        non-final shares agree (inputs only perturb the last share, which
        stays with the owner or is masked by others' randomness)."""
        ring = Zq(16)
        a = SecSumShare(m=5, c=3, ring=ring, rng=random.Random(3)).run(
            [[1], [1], [1], [1], [1]]
        )
        b = SecSumShare(m=5, c=3, ring=ring, rng=random.Random(3)).run(
            [[0], [0], [0], [0], [0]]
        )
        # Super-shares differ (they absorb the input difference) but the
        # received random shares from predecessors are drawn from the same
        # RNG stream; here we check the randomized view shape is
        # input-independent (full indistinguishability is the Thm. 4.1
        # argument, covered distributionally above).
        for va, vb in zip(a.provider_views, b.provider_views):
            assert len(va.received_shares) == len(vb.received_shares)


class TestValidation:
    def test_c_minimum(self):
        with pytest.raises(ValueError):
            SecSumShare(m=5, c=1, ring=Zq(8), rng=random.Random(1))

    def test_m_at_least_c(self):
        with pytest.raises(ValueError):
            SecSumShare(m=2, c=3, ring=Zq(8), rng=random.Random(1))

    def test_wrong_provider_count_rejected(self):
        protocol = SecSumShare(m=3, c=2, ring=Zq(8), rng=random.Random(1))
        with pytest.raises(ValueError):
            protocol.run([[1], [0]])

    def test_ragged_inputs_rejected(self):
        protocol = SecSumShare(m=3, c=2, ring=Zq(8), rng=random.Random(1))
        with pytest.raises(ValueError):
            protocol.run([[1, 0], [0], [1, 1]])


class TestRecordedTranscripts:
    """Element-for-element parity with ``data/secsum_transcript.json``, the
    per-party transcripts the per-element ``extend`` implementation produced
    for one pinned seed (recorded before the array rewrite)."""

    @pytest.fixture(scope="class")
    def recorded(self):
        path = os.path.join(os.path.dirname(__file__), "data", "secsum_transcript.json")
        with open(path) as fh:
            return json.load(fh)

    @staticmethod
    def transcripts(result):
        return {
            "coordinator_shares": [list(map(int, s)) for s in result.coordinator_shares],
            "coordinator_received": [list(s) for s in result.coordinator_received],
            "received_shares": [list(v.received_shares) for v in result.provider_views],
            "super_share": [v.super_share for v in result.provider_views],
        }

    def protocol(self, recorded):
        return SecSumShare(
            m=recorded["m"], c=recorded["c"], ring=Zq(recorded["q"]),
            rng=random.Random(recorded["seed"]),
        )

    def test_run_transcripts_equal_recorded(self, recorded):
        result = self.protocol(recorded).run(recorded["inputs"])
        assert self.transcripts(result) == recorded["run"]
        # Transcripts stay plain Python ints whatever the internals use.
        assert all(type(v) is int for v in result.provider_views[0].received_shares)
        assert all(type(v) is int for v in result.coordinator_received[0])

    def test_array_inputs_give_the_same_run(self, recorded):
        result = self.protocol(recorded).run(np.array(recorded["inputs"]))
        assert self.transcripts(result) == recorded["run"]

    def test_apply_delta_equal_recorded_and_clean_columns_untouched(self, recorded):
        protocol = self.protocol(recorded)
        held = protocol.run(recorded["inputs"])
        before = np.array(held.coordinator_shares)
        delta = protocol.apply_delta(held, recorded["delta_inputs"], recorded["dirty"])
        assert self.transcripts(delta) == recorded["apply_delta"]
        after = np.asarray(delta.coordinator_shares)
        clean = [j for j in range(recorded["n"]) if j not in recorded["dirty"]]
        assert np.array_equal(after[:, clean], before[:, clean])
        # The held result is not written through.
        assert np.array_equal(np.asarray(held.coordinator_shares), before)
        ring = Zq(recorded["q"])
        for j in range(recorded["n"]):
            truth = sum(row[j] for row in recorded["delta_inputs"]) % ring.q
            assert delta.reconstruct(ring, j) == truth

    def test_scalar_reference_splices_the_same_way(self):
        """The big-modulus reference path goes through the same apply_delta."""
        ring = Zq(1 << 40)
        protocol = SecSumShare(m=4, c=3, ring=ring, rng=random.Random(2))
        inputs = [[1, 0, 1], [0, 0, 1], [1, 1, 1], [0, 0, 0]]
        held = protocol.run(inputs)
        inputs[3][1] = 1
        delta = protocol.apply_delta(held, inputs, [1])
        assert [delta.reconstruct(ring, j) for j in range(3)] == [2, 2, 3]
        assert list(delta.reconstruct_many(ring, [0, 2])) == [2, 3]
