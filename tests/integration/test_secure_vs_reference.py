"""The secure distributed pipeline must compute the same function as the
trusted centralized reference (DESIGN.md invariant set)."""

import random

import pytest

from repro.core.model import MembershipMatrix
from repro.core.policies import (
    BasicPolicy,
    ChernoffPolicy,
    frequency_threshold,
)
from repro.mpc.betacalc import secure_beta_calculation


def bits_and_matrix(frequencies, m, seed):
    rng = random.Random(seed)
    matrix = MembershipMatrix(m, len(frequencies))
    bits = [[0] * len(frequencies) for _ in range(m)]
    for j, f in enumerate(frequencies):
        for i in rng.sample(range(m), f):
            bits[i][j] = 1
            matrix.set(i, j)
    return bits, matrix


class TestSecureMatchesReference:
    @pytest.mark.parametrize("policy", [BasicPolicy(), ChernoffPolicy(0.9)])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_common_classification_identical(self, policy, seed):
        m = 16
        freqs = [1, 4, 8, 16, 15, 2]
        eps = [0.3, 0.5, 0.7, 0.9, 0.8, 0.2]
        bits, matrix = bits_and_matrix(freqs, m, seed)
        res = secure_beta_calculation(bits, eps, policy, c=3, rng=random.Random(seed))
        for j, f in enumerate(freqs):
            t = frequency_threshold(policy, eps[j], m)
            is_common = f >= t
            if is_common:
                assert res.publish_as_one[j] == 1, (j, f, t)

    def test_non_common_non_decoy_betas_equal_reference(self):
        m = 16
        freqs = [1, 4, 8, 2, 3]
        eps = [0.3, 0.5, 0.4, 0.9, 0.2]
        policy = ChernoffPolicy(0.9)
        bits, matrix = bits_and_matrix(freqs, m, 7)
        res = secure_beta_calculation(bits, eps, policy, c=3, rng=random.Random(7))
        for j in range(len(freqs)):
            if not res.publish_as_one[j]:
                ref = policy.beta(matrix.sigma(j), eps[j], m)
                assert res.betas[j] == pytest.approx(ref)

    def test_lambda_close_to_reference(self):
        """With many identities, the secure λ (from quantized ξ) must be
        within quantization error of the plaintext λ."""
        from repro.core.mixing import compute_lambda

        m = 12
        n = 40
        rng = random.Random(13)
        freqs = [12 if j < 3 else rng.randint(1, 3) for j in range(n)]
        eps = [round(rng.uniform(0.2, 0.9), 3) for _ in range(n)]
        policy = BasicPolicy()
        bits, _ = bits_and_matrix(freqs, m, 13)
        res = secure_beta_calculation(bits, eps, policy, c=3, rng=random.Random(14))
        import math

        high = math.ceil(0.5 * m)
        broadcast = [
            j for j in range(n)
            if freqs[j] >= frequency_threshold(policy, eps[j], m)
        ]
        commons = [j for j in broadcast if freqs[j] >= high]
        naturals = [j for j in broadcast if freqs[j] < high]
        xi_ref = max(eps[j] for j in commons)
        lam_ref = compute_lambda(
            len(commons), n, xi_ref, n_natural_decoys=len(naturals)
        )
        assert res.n_common == len(commons)
        assert res.n_natural_decoys == len(naturals)
        assert res.lambda_ == pytest.approx(lam_ref, abs=0.02)

    @pytest.mark.parametrize("c", [2, 3, 5])
    def test_collusion_parameter_does_not_change_result(self, c):
        """The output function is independent of c (c only affects cost and
        collusion tolerance)."""
        m = 10
        freqs = [1, 5, 10]
        eps = [0.4, 0.6, 0.8]
        bits, _ = bits_and_matrix(freqs, m, 21)
        res = secure_beta_calculation(
            bits, eps, BasicPolicy(), c=c, rng=random.Random(22)
        )
        expected_common = sum(
            1
            for j, f in enumerate(freqs)
            if f >= frequency_threshold(BasicPolicy(), eps[j], m)
        )
        assert res.n_common == expected_common
        assert res.publish_as_one[2] == 1  # the frequency-10 identity
        # identity 0 and 1, if not decoys, get the reference beta.
        for j in (0, 1):
            if not res.publish_as_one[j]:
                assert res.betas[j] == pytest.approx(
                    BasicPolicy().beta(freqs[j] / m, eps[j], m)
                )


class TestSecurePipelinePrivacy:
    def test_only_unselected_frequencies_opened(self):
        m = 12
        freqs = [12, 1, 2, 3, 1]
        eps = [0.8, 0.3, 0.4, 0.5, 0.6]
        bits, _ = bits_and_matrix(freqs, m, 31)
        res = secure_beta_calculation(
            bits, eps, BasicPolicy(), c=3, rng=random.Random(32)
        )
        opened = set(res.opened_frequencies)
        selected = {j for j, b in enumerate(res.publish_as_one) if b}
        assert opened.isdisjoint(selected)
        assert opened | selected == set(range(len(freqs)))

    def test_count_stats_bounded_by_circuit(self):
        m = 8
        bits, _ = bits_and_matrix([2, 4], m, 41)
        res = secure_beta_calculation(
            bits, [0.5, 0.5], BasicPolicy(), c=3, rng=random.Random(42)
        )
        # One instance of each per-identity circuit per identity; the
        # count stage adds its reduction trees on top.
        count, selection = res.count_result, res.selection_result
        assert (
            count.stats_per_identity.and_gates
            == count.circuit.stats().multiplicative_size
        )
        assert count.stats.and_gates > 2 * count.stats_per_identity.and_gates
        assert (
            selection.stats.and_gates
            == 2 * selection.circuit.stats().multiplicative_size
        )
