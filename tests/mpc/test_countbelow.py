"""Tests for CountBelow and the secure β-selection circuits (paper Alg. 2)."""

import random

import pytest

from repro.core.mixing import compute_lambda
from repro.mpc.circuits import compile_circuit
from repro.mpc.countbelow import (
    COIN_BITS,
    EPSILON_SCALE_BITS,
    CountBelowState,
    build_count_circuit,
    build_selection_circuit,
    draw_decoy_coins,
    run_beta_selection_subset,
    run_count_below,
    scale_epsilon,
    update_count_below,
)
from repro.mpc.field import Zq, default_modulus_for_sum
from repro.mpc.secsum import SecSumShare


def coordinator_shares_for(frequencies, m, c=3, seed=1):
    """Produce genuine SecSumShare outputs for identities with the given
    frequencies (identity j held by the first frequencies[j] providers)."""
    inputs = [
        [1 if i < f else 0 for f in frequencies] for i in range(m)
    ]
    ring = Zq(default_modulus_for_sum(m))
    result = SecSumShare(m=m, c=c, ring=ring, rng=random.Random(seed)).run(inputs)
    return result.coordinator_shares, ring


def run_selection(shares, thresholds, lambda_, ring, rng):
    """β-selection of every identity on the state-fed path: CountBelow fills
    the leaves over a blank state, selection reads their broadcast shares
    with freshly drawn coins."""
    n = len(thresholds)
    state = CountBelowState.blank(len(shares), [0.5] * n, (ring.q - 1).bit_length(), 0)
    update_count_below(state, shares, range(n), thresholds, ring, rng)
    coins = draw_decoy_coins(rng, n, len(shares))
    return run_beta_selection_subset(state, lambda_, rng, range(n), coins)


class TestCountBelow:
    def test_counts_common_identities(self):
        # frequencies [2, 7, 8, 3] with thresholds [5, 5, 5, 5]:
        # identities 1 and 2 are >= 5 -> 2 commons.
        shares, ring = coordinator_shares_for([2, 7, 8, 3], m=8)
        res = run_count_below(
            shares, [5, 5, 5, 5], [0.5, 0.6, 0.7, 0.8], ring, random.Random(2)
        )
        assert res.n_common == 2

    def test_xi_is_max_epsilon_of_commons(self):
        shares, ring = coordinator_shares_for([2, 7, 8, 3], m=8)
        res = run_count_below(
            shares, [5, 5, 5, 5], [0.9, 0.6, 0.7, 0.8], ring, random.Random(2)
        )
        # Commons are identities 1 (eps 0.6) and 2 (eps 0.7) -> xi ~ 0.7.
        assert abs(res.xi - 0.7) < 2 / (1 << EPSILON_SCALE_BITS)

    def test_no_commons(self):
        shares, ring = coordinator_shares_for([1, 2, 3], m=8)
        res = run_count_below(shares, [7, 7, 7], [0.5] * 3, ring, random.Random(2))
        assert res.n_common == 0
        assert res.xi == 0.0

    def test_all_common(self):
        shares, ring = coordinator_shares_for([8, 8], m=8)
        res = run_count_below(shares, [1, 1], [0.4, 0.2], ring, random.Random(2))
        assert res.n_common == 2
        assert abs(res.xi - 0.4) < 2 / (1 << EPSILON_SCALE_BITS)

    def test_unreachable_threshold_means_never_common(self):
        shares, ring = coordinator_shares_for([8], m=8)
        # threshold above the ring capacity: identity can never be common.
        res = run_count_below(shares, [ring.q + 5], [0.5], ring, random.Random(2))
        assert res.n_common == 0

    def test_per_identity_thresholds(self):
        shares, ring = coordinator_shares_for([4, 4], m=8)
        res = run_count_below(shares, [4, 5], [0.5, 0.5], ring, random.Random(2))
        assert res.n_common == 1  # only identity 0 (threshold 4 <= 4)

    def test_requires_power_of_two_modulus(self):
        shares, _ = coordinator_shares_for([1], m=8)
        with pytest.raises(ValueError):
            run_count_below(shares, [2], [0.5], Zq(10), random.Random(2))

    def test_stats_accounted(self):
        shares, ring = coordinator_shares_for([2, 7], m=8)
        res = run_count_below(shares, [5, 5], [0.5, 0.5], ring, random.Random(2))
        assert res.stats.and_gates > 0
        assert res.stats.parties == 3
        # Two per-identity circuit instances, then the reduction tree.  Only
        # secret x secret ANDs draw triples: the ANDs with the public
        # threshold, reach and ǫ bits are local.
        per_identity = compile_circuit(res.circuit).and_gates
        assert per_identity < res.circuit.stats().multiplicative_size
        assert res.stats_per_identity.and_gates == per_identity
        assert res.stats.and_gates > 2 * per_identity


class TestSelection:
    def test_commons_always_selected(self):
        shares, ring = coordinator_shares_for([8, 1], m=8)
        res = run_selection(shares, [5, 5], 0.0, ring, random.Random(3))
        assert res.publish_as_one[0] == 1  # common: must be published as 1
        assert res.publish_as_one[1] == 0  # lambda=0: no decoys

    def test_lambda_one_selects_everything(self):
        shares, ring = coordinator_shares_for([1, 2, 3], m=8)
        res = run_selection(shares, [7, 7, 7], 1.0, ring, random.Random(3))
        assert res.publish_as_one == [1, 1, 1]

    def test_decoy_rate_close_to_lambda(self):
        n = 120
        shares, ring = coordinator_shares_for([1] * n, m=8, seed=5)
        res = run_selection(shares, [7] * n, 0.5, ring, random.Random(9))
        rate = sum(res.publish_as_one) / n
        assert 0.3 < rate < 0.7

    def test_invalid_lambda_rejected(self):
        shares, ring = coordinator_shares_for([1], m=8)
        with pytest.raises(ValueError):
            run_selection(shares, [7], 1.5, ring, random.Random(3))


class TestCircuitBuilders:
    def test_count_circuit_input_layout(self):
        circuit = build_count_circuit(
            c=3, thresholds=[4, 4], epsilons_scaled=[10, 20], width=4,
            high_threshold=4,
        )
        assert circuit.n_inputs == 3 * 2 * 4

    def test_count_circuit_output_width(self):
        circuit = build_count_circuit(
            c=2, thresholds=[4] * 5, epsilons_scaled=[0] * 5, width=4,
            high_threshold=4,
        )
        # two popcounts over 5 bits (4 bits each) plus xi bits.
        assert len(circuit.outputs) == 2 * 4 + EPSILON_SCALE_BITS

    def test_selection_circuit_input_layout(self):
        circuit = build_selection_circuit(c=2, thresholds=[4, 4], lambda_scaled=100, width=4)
        assert circuit.n_inputs == 2 * 2 * (4 + COIN_BITS)

    def test_mismatched_thresholds_rejected(self):
        with pytest.raises(ValueError):
            build_count_circuit(
                c=2, thresholds=[1, 2], epsilons_scaled=[1], width=4,
                high_threshold=1,
            )

    def test_lambda_scaled_range_checked(self):
        with pytest.raises(ValueError):
            build_selection_circuit(
                c=2, thresholds=[1], lambda_scaled=(1 << COIN_BITS) + 1, width=4
            )


class TestScaleEpsilon:
    def test_bounds(self):
        assert scale_epsilon(0.0) == 0
        assert scale_epsilon(1.0) == (1 << EPSILON_SCALE_BITS) - 1

    def test_monotone(self):
        values = [scale_epsilon(e / 10) for e in range(11)]
        assert values == sorted(values)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            scale_epsilon(1.5)


class TestEndToEndConsistency:
    def test_lambda_pipeline_matches_reference(self):
        """CountBelow's public outputs drive the same lambda as computed
        directly from the plaintext frequencies."""
        freqs = [2, 7, 8, 3, 1]
        eps = [0.5, 0.6, 0.7, 0.8, 0.2]
        thresholds = [5] * 5
        shares, ring = coordinator_shares_for(freqs, m=8)
        res = run_count_below(shares, thresholds, eps, ring, random.Random(4))
        lam_secure = compute_lambda(res.n_common, 5, res.xi)
        true_commons = [j for j, f in enumerate(freqs) if f >= 5]
        xi_ref = max(eps[j] for j in true_commons)
        lam_ref = compute_lambda(len(true_commons), 5, xi_ref)
        assert res.n_common == len(true_commons)
        assert abs(lam_secure - lam_ref) < 0.01
