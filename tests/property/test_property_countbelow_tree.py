"""Property suite: CountBelow's ǫ-ordered reduction tree.

The tree's leaves sit in ascending order of the public scaled ǫ, and its
ξ half carries ``(any, v)`` -- whether a subtree holds a truly common
identity, and the ǫ of its rightmost one -- instead of a comparator-based
max.  Three contracts:

* the pair circuit, reduced in the clear over ǫ-sorted leaves with the
  tree's own schedule (pairs, then an odd node carried up), yields both
  counts and the max of the gated ǫ -- ties, all-equal ǫ, and every small
  ``n`` (1, 2, 3 and odd) included;
* patching a held tree along random dirty sets equals building it from
  scratch over the final shares, node for node;
* the three opened roots equal the monolithic Fig. 6b circuit
  (``build_count_circuit``) evaluated in the clear.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mpc.circuits.evaluator import bits_to_int, evaluate, int_to_bits
from repro.mpc.countbelow import (
    EPSILON_SCALE_BITS,
    CountBelowState,
    build_count_circuit,
    count_pair_circuit,
    run_count_below,
    scale_epsilons,
    update_count_below,
)
from repro.mpc.field import Zq, default_modulus_for_sum
from repro.mpc.gmw import expected_stats

C = 3
# Few distinct ǫ, so most draws hold ties.
EPS_TIERS = [0.0, 0.15, 0.3, 0.6, 1.0]


def clear_leaf(truly: int, natural: int, eps_scaled: int) -> list:
    """A leaf node's plaintext bits: ``[truly | natural | any | v]``."""
    return [truly, natural, truly] + int_to_bits(
        eps_scaled if truly else 0, EPSILON_SCALE_BITS
    )


def clear_reduce(nodes: list) -> tuple[int, int, int, int]:
    """Reduce leaf nodes with :func:`count_pair_circuit` in the clear, on
    the tree's schedule; the root as ``(truly, natural, any, v)``."""
    sum_width = 1
    while len(nodes) > 1:
        nxt = [
            evaluate(count_pair_circuit(sum_width), nodes[i] + nodes[i + 1])
            for i in range(0, len(nodes) - 1, 2)
        ]
        if len(nodes) % 2:
            last = nodes[-1]
            nxt.append(
                last[:sum_width] + [0]
                + last[sum_width : 2 * sum_width] + [0]
                + last[2 * sum_width :]
            )
        nodes = nxt
        sum_width += 1
    root = nodes[0]
    return (
        bits_to_int(root[:sum_width]),
        bits_to_int(root[sum_width : 2 * sum_width]),
        root[2 * sum_width],
        bits_to_int(root[2 * sum_width + 1 :]),
    )


def check_clear_tree(truly, natural, eps):
    eps_scaled = scale_epsilons(eps)
    order = np.argsort(eps_scaled, kind="stable")
    leaves = [
        clear_leaf(truly[j], natural[j], int(eps_scaled[j])) for j in order.tolist()
    ]
    gated = [int(e) if t else 0 for t, e in zip(truly, eps_scaled.tolist())]
    assert clear_reduce(leaves) == (sum(truly), sum(natural), int(any(truly)), max(gated))


@st.composite
def leaf_sets(draw):
    n = draw(st.integers(min_value=1, max_value=33))
    eps = draw(st.lists(st.sampled_from(EPS_TIERS), min_size=n, max_size=n))
    truly = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    # natural = broadcast ∧ ¬high: never set together with truly.
    natural = [0 if t else draw(st.integers(0, 1)) for t in truly]
    return truly, natural, eps


@given(leaf_sets())
@settings(max_examples=150, deadline=None)
def test_clear_pair_tree_is_count_and_max_of_gated_eps(data):
    check_clear_tree(*data)


@pytest.mark.parametrize(
    "truly,eps",
    [
        ([1], [0.3]),
        ([0], [0.3]),
        ([1, 1], [0.6, 0.6]),  # tie
        ([1, 0], [0.6, 0.3]),  # the larger ǫ first in identity order
        ([0, 1, 1], [0.3, 0.3, 0.15]),
        ([1, 1, 1, 1, 1], [0.3] * 5),  # all equal, odd
        ([0, 0, 0, 0, 0, 0, 0], [0.15, 1.0, 0.3, 0.0, 0.6, 0.6, 0.3]),
        ([1, 0, 1, 0, 1, 0, 1], [0.0, 1.0, 0.15, 1.0, 0.6, 0.6, 0.0]),
    ],
)
def test_clear_pair_tree_edge_cases(truly, eps):
    check_clear_tree(truly, [0] * len(truly), eps)


def test_pair_circuit_xi_half_is_one_layer_of_eleven_ands():
    for sum_width in (1, 4, 15):
        stats = expected_stats(count_pair_circuit(sum_width), C, open_outputs=False)
        # Two sum_width-bit ripple adders plus (any, v): 1 OR + 10 muxes.
        assert stats.and_gates == 2 * sum_width + 11
        assert stats.rounds == sum_width


def random_shares(freqs, ring, rng):
    """``C`` additive share vectors of ``freqs`` over ``ring``."""
    shares = [[rng.randrange(ring.q) for _ in freqs] for _ in range(C - 1)]
    last = [(f - sum(col)) % ring.q for f, col in zip(freqs, zip(*shares))]
    return shares + [last]


def opened_tree(state) -> list:
    """Every level's nodes, XOR-opened (test-only view of held shares)."""
    return [np.bitwise_xor.reduce(level, axis=0) for level in state.levels]


@st.composite
def dirty_sequences(draw):
    m = draw(st.integers(min_value=2, max_value=9))
    n = draw(st.integers(min_value=1, max_value=40))
    eps = draw(st.lists(st.sampled_from(EPS_TIERS), min_size=n, max_size=n))
    thresholds = draw(st.lists(st.integers(0, m + 1), min_size=n, max_size=n))
    freqs = draw(st.lists(st.integers(0, m), min_size=n, max_size=n))
    rounds = draw(
        st.lists(
            st.dictionaries(
                st.integers(0, n - 1), st.integers(0, m), min_size=1, max_size=n
            ),
            min_size=1,
            max_size=4,
        )
    )
    high = draw(st.integers(0, m))
    return m, eps, thresholds, freqs, rounds, high


@given(dirty_sequences(), st.integers(0, 2**32))
@settings(max_examples=40, deadline=None)
def test_incremental_tree_equals_scratch(data, seed):
    m, eps, thresholds, freqs, rounds, high = data
    ring = Zq(default_modulus_for_sum(m))
    width = (ring.q - 1).bit_length()
    rng = random.Random(seed)
    n = len(eps)
    shares = random_shares(freqs, ring, rng)
    held = CountBelowState.blank(C, eps, width, high)
    update_count_below(held, shares, range(n), thresholds, ring, rng)
    for changes in rounds:
        for j, f in changes.items():
            freqs[j] = f
        fresh = random_shares(freqs, ring, rng)
        for k in range(C):
            for j in changes:
                shares[k][j] = fresh[k][j]
        update_count_below(held, shares, sorted(changes), thresholds, ring, rng)
        scratch = CountBelowState.blank(C, eps, width, high)
        update_count_below(scratch, shares, range(n), thresholds, ring, rng)
        for got, want in zip(opened_tree(held), opened_tree(scratch)):
            assert np.array_equal(got, want)
        assert (held.n_common, held.n_natural_decoys, held.xi_scaled) == (
            scratch.n_common,
            scratch.n_natural_decoys,
            scratch.xi_scaled,
        )


@given(dirty_sequences(), st.integers(0, 2**32))
@settings(max_examples=40, deadline=None)
def test_opened_roots_equal_monolithic_circuit_in_the_clear(data, seed):
    m, eps, thresholds, freqs, _, high = data
    ring = Zq(default_modulus_for_sum(m))
    width = (ring.q - 1).bit_length()
    rng = random.Random(seed)
    shares = random_shares(freqs, ring, rng)
    result = run_count_below(shares, thresholds, eps, ring, rng, high_threshold=high)

    circuit = build_count_circuit(
        C, thresholds, scale_epsilons(eps).tolist(), width, high
    )
    inputs = [bit for row in shares for value in row for bit in int_to_bits(value, width)]
    out = evaluate(circuit, inputs)
    count_bits = (len(out) - EPSILON_SCALE_BITS) // 2
    assert (result.n_common, result.n_natural_decoys, result.xi_scaled) == (
        bits_to_int(out[:count_bits]),
        bits_to_int(out[count_bits : 2 * count_bits]),
        bits_to_int(out[2 * count_bits :]),
    )
