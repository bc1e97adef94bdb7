"""Tests for the full secure β pipeline (paper Alg. 1) vs the reference."""

import random

import numpy as np
import pytest

from repro.core.policies import (
    BasicPolicy,
    ChernoffPolicy,
    IncrementedExpectationPolicy,
    frequency_threshold,
)
from repro.mpc.betacalc import secure_beta_calculation


def provider_bits_for(frequencies, m, rng):
    """Random placement matrix with exact per-identity frequencies."""
    bits = [[0] * len(frequencies) for _ in range(m)]
    for j, f in enumerate(frequencies):
        for i in rng.sample(range(m), f):
            bits[i][j] = 1
    return bits


class TestAgainstReference:
    @pytest.mark.parametrize(
        "policy", [BasicPolicy(), IncrementedExpectationPolicy(0.02), ChernoffPolicy(0.9)]
    )
    def test_non_selected_betas_match_policy_exactly(self, policy):
        rng = random.Random(21)
        m = 12
        freqs = [1, 3, 6, 12, 0]
        eps = [0.3, 0.5, 0.2, 0.8, 0.6]
        bits = provider_bits_for(freqs, m, rng)
        res = secure_beta_calculation(bits, eps, policy, c=3, rng=rng)
        for j, f in enumerate(freqs):
            if res.publish_as_one[j]:
                assert res.betas[j] == 1.0
            else:
                expected = policy.beta(f / m, eps[j], m)
                assert res.betas[j] == pytest.approx(expected)

    def test_opened_frequencies_are_exact(self):
        rng = random.Random(3)
        m = 10
        freqs = [2, 5, 0, 9]
        bits = provider_bits_for(freqs, m, rng)
        res = secure_beta_calculation(
            bits, [0.1, 0.2, 0.3, 0.1], BasicPolicy(), c=3, rng=rng
        )
        for j, f in res.opened_frequencies.items():
            assert f == freqs[j]

    def test_common_identity_always_beta_one(self):
        rng = random.Random(4)
        m = 10
        # identity 0 everywhere: common for any epsilon > 0.
        bits = provider_bits_for([10, 2], m, rng)
        res = secure_beta_calculation(bits, [0.5, 0.5], BasicPolicy(), c=3, rng=rng)
        assert res.publish_as_one[0] == 1
        assert res.betas[0] == 1.0

    def test_common_count_matches_thresholds(self):
        rng = random.Random(5)
        m = 10
        freqs = [10, 9, 2, 1]
        eps = [0.5, 0.5, 0.5, 0.5]
        policy = BasicPolicy()
        bits = provider_bits_for(freqs, m, rng)
        res = secure_beta_calculation(bits, eps, policy, c=3, rng=rng)
        t = frequency_threshold(policy, 0.5, m)
        expected = sum(1 for f in freqs if f >= t)
        assert res.n_common == expected

    def test_absent_identity_gets_zero_beta(self):
        rng = random.Random(6)
        m = 8
        bits = provider_bits_for([0, 3], m, rng)
        res = secure_beta_calculation(bits, [0.9, 0.5], BasicPolicy(), c=3, rng=rng)
        if not res.publish_as_one[0]:
            assert res.betas[0] == 0.0


class TestMixing:
    def test_lambda_zero_without_commons(self):
        rng = random.Random(7)
        m = 16
        bits = provider_bits_for([1, 2, 1], m, rng)
        res = secure_beta_calculation(
            bits, [0.2, 0.3, 0.1], BasicPolicy(), c=3, rng=rng
        )
        assert res.n_common == 0
        assert res.lambda_ == 0.0
        assert res.publish_as_one == [0, 0, 0]

    def test_decoys_appear_with_commons(self):
        """With commons present and many non-commons, some decoys should be
        mixed in (statistically over identities)."""
        rng = random.Random(8)
        m = 10
        freqs = [10] + [1] * 60
        eps = [0.9] + [0.3] * 60
        bits = provider_bits_for(freqs, m, rng)
        res = secure_beta_calculation(bits, eps, BasicPolicy(), c=3, rng=rng)
        assert res.lambda_ > 0.0
        decoys = sum(res.publish_as_one[1:])
        assert decoys > 0

    def test_betas_of_selected_never_opened(self):
        """Selected identities must not appear among the opened frequencies:
        opening a decoy's frequency would defeat the mixing."""
        rng = random.Random(9)
        m = 10
        freqs = [10] + [1] * 30
        bits = provider_bits_for(freqs, m, rng)
        res = secure_beta_calculation(
            bits, [0.9] + [0.3] * 30, BasicPolicy(), c=3, rng=rng
        )
        for j, bit in enumerate(res.publish_as_one):
            if bit:
                assert j not in res.opened_frequencies


class TestAccounting:
    def test_circuit_size_independent_of_m(self):
        """The MPC-minimization claim: generic-MPC circuit size depends on c
        and n, not on the provider count m."""
        sizes = {}
        for m in (6, 24):
            rng = random.Random(10)
            bits = provider_bits_for([2, 3], m, rng)
            res = secure_beta_calculation(bits, [0.4, 0.6], BasicPolicy(), c=3, rng=rng)
            # Width of the ring grows logarithmically with m; compare at
            # equal width by checking sizes stay within 2x while m grew 4x.
            sizes[m] = res.total_circuit_size
        assert sizes[24] < sizes[6] * 2

    def test_validation_errors(self):
        with pytest.raises(ValueError):
            secure_beta_calculation([], [0.5], BasicPolicy(), c=3, rng=random.Random(1))
        with pytest.raises(ValueError):
            secure_beta_calculation(
                [[1], [0], [1]], [0.5, 0.6], BasicPolicy(), c=2, rng=random.Random(1)
            )
        with pytest.raises(ValueError):
            secure_beta_calculation(
                [[2], [0], [1]], [0.5], BasicPolicy(), c=2, rng=random.Random(1)
            )


class TestTripleSources:
    """Factory-fed runs must be indistinguishable from dealer-fed runs."""

    def _inputs(self, seed=17, m=10, n=12):
        rng = random.Random(seed)
        freqs = [rng.randint(0, m) for _ in range(n)]
        eps = [rng.random() for _ in range(n)]
        return provider_bits_for(freqs, m, rng), eps

    @pytest.mark.parametrize("engine", ["mono", "scalar", "batch"])
    def test_factory_fed_matches_dealer_fed(self, engine):
        bits, eps = self._inputs()
        dealer = secure_beta_calculation(
            bits, eps, BasicPolicy(), c=3, rng=random.Random(2), engine=engine
        )
        fed = secure_beta_calculation(
            bits,
            eps,
            BasicPolicy(),
            c=3,
            rng=random.Random(2),
            engine=engine,
            triple_source="factory",
            offline_producers=2,
        )
        assert np.array_equal(dealer.betas, fed.betas)
        assert dealer.publish_as_one == fed.publish_as_one
        assert dealer.opened_frequencies == fed.opened_frequencies
        assert dealer.lambda_ == fed.lambda_
        assert dealer.count_result.stats == fed.count_result.stats
        assert dealer.selection_result.stats == fed.selection_result.stats
        assert dealer.incremental is None and fed.incremental is None

    def test_phase_report_populated(self):
        bits, eps = self._inputs()
        res = secure_beta_calculation(
            bits,
            eps,
            BasicPolicy(),
            c=3,
            rng=random.Random(2),
            engine="batch",
            triple_source="factory",
        )
        p = res.phases
        assert p is not None
        assert p.setup.bits_sent > 0 and p.setup.rounds >= 2
        assert p.offline.bits_sent > 0
        assert p.online.bits_sent > 0
        assert p.online.rounds > 0
        assert p.triple_words_produced >= p.triple_words_consumed > 0
        assert p.stall_time_s >= 0.0
        assert 0.0 <= p.utilization <= 1.0
        assert p.critical_path_s > 0.0

    def test_dealer_fed_has_no_phase_report(self):
        bits, eps = self._inputs()
        res = secure_beta_calculation(
            bits, eps, BasicPolicy(), c=3, rng=random.Random(2), engine="batch"
        )
        assert res.phases is None

    def test_external_prefilled_factory(self):
        from repro.mpc.offline.factory import TripleFactory

        bits, eps = self._inputs()
        factory = TripleFactory(
            parties=3,
            seed=7,
            target_words=6000,
            producers=2,
            capacity_words=6000,
            link_bandwidth_bps=None,
        ).start()
        try:
            factory.join_producers(timeout=120)
            fed = secure_beta_calculation(
                bits,
                eps,
                BasicPolicy(),
                c=3,
                rng=random.Random(2),
                engine="batch",
                triple_source="factory",
                factory=factory,
            )
        finally:
            factory.close()
        dealer = secure_beta_calculation(
            bits, eps, BasicPolicy(), c=3, rng=random.Random(2), engine="batch"
        )
        assert np.array_equal(dealer.betas, fed.betas)
        assert fed.phases is not None

    def test_validation(self):
        bits, eps = self._inputs()
        with pytest.raises(ValueError, match="triple_source"):
            secure_beta_calculation(
                bits, eps, BasicPolicy(), c=3, rng=random.Random(1),
                triple_source="oracle",
            )
        with pytest.raises(ValueError, match="requires triple_source"):
            from repro.mpc.offline.factory import TripleFactory

            f = TripleFactory(parties=3, seed=1, target_words=8)
            secure_beta_calculation(
                bits, eps, BasicPolicy(), c=3, rng=random.Random(1), factory=f
            )
