"""Property tests for the dealerless offline subsystem.

Three contracts, over randomized shapes:

* every lane of every produced word reconstructs to ``c == a & b``, for
  the runtime kernel, its hashed oracle and any party count / lane mask;
* share marginals are unbiased -- no party's share column leaks the
  reconstructed secret statistically;
* triple provenance never shows in results: a factory-fed secure β
  calculation is byte-identical to the dealer-fed run over the same
  inputs and seeds.
"""

import random

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.policies import BasicPolicy
from repro.mpc.betacalc import secure_beta_calculation
from repro.mpc.offline.generator import DealerlessTripleGenerator


class HashedOracle(DealerlessTripleGenerator):
    """The full IKNP transcript emulation in place of the runtime kernel."""

    _cross_terms = DealerlessTripleGenerator._cross_terms_hashed


def _reconstruct(block):
    a = np.bitwise_xor.reduce(block.a, axis=1)
    b = np.bitwise_xor.reduce(block.b, axis=1)
    c = np.bitwise_xor.reduce(block.c, axis=1)
    return a, b, c


@given(
    parties=st.integers(min_value=2, max_value=6),
    words=st.integers(min_value=1, max_value=48),
    lanes=st.integers(min_value=1, max_value=64),
    seed=st.integers(min_value=0, max_value=2**32),
    generator=st.sampled_from([DealerlessTripleGenerator, HashedOracle]),
)
@settings(max_examples=60, deadline=None)
def test_every_lane_is_a_beaver_triple(parties, words, lanes, seed, generator):
    """c == a & b holds on every live lane; dead lanes are all-zero."""
    gen = generator(parties, seed=seed)
    block = gen.generate(words, lanes=lanes)
    a, b, c = _reconstruct(block)
    live = np.uint64(((1 << lanes) - 1) & 0xFFFFFFFFFFFFFFFF)
    assert np.array_equal(c, a & b)
    for arr in (block.a, block.b, block.c):
        assert not np.any(arr & ~live)
    assert block.triples == words * lanes


@given(
    parties=st.integers(min_value=2, max_value=4),
    seed=st.integers(min_value=0, max_value=2**32),
)
@settings(max_examples=15, deadline=None)
def test_share_marginals_are_unbiased(parties, seed):
    """Each party's share column is ~uniform: bit density in [0.45, 0.55].

    512 words = 32768 bits per column, so a fair coin lands inside the
    band with overwhelming margin (the bound sits ~18 sigma out).
    """
    gen = DealerlessTripleGenerator(parties, seed=seed)
    block = gen.generate(512)
    n_bits = 512 * 64
    for arr in (block.a, block.b, block.c):
        for p in range(parties):
            col = np.ascontiguousarray(arr[:, p])
            ones = int(np.unpackbits(col.view(np.uint8)).sum())
            assert 0.45 < ones / n_bits < 0.55
    # The reconstructed AND output is biased toward 0 (~25% ones) -- that
    # bias must live only in the *joint* distribution, never per share.
    _, _, c = _reconstruct(block)
    c_ones = int(np.unpackbits(c.view(np.uint8)).sum())
    assert 0.20 < c_ones / n_bits < 0.30


@given(
    m=st.integers(min_value=3, max_value=10),
    n_ids=st.integers(min_value=4, max_value=20),
    seed=st.integers(min_value=0, max_value=10**6),
)
@settings(max_examples=10, deadline=None)
def test_factory_fed_equals_dealer_fed(m, n_ids, seed):
    """Triple provenance is invisible: identical β, bits, and rounds."""
    rng = random.Random(seed)
    bits = [[rng.randint(0, 1) for _ in range(n_ids)] for _ in range(m)]
    epsilons = [rng.random() for _ in range(n_ids)]

    def run(**kwargs):
        return secure_beta_calculation(
            bits,
            epsilons,
            BasicPolicy(),
            c=3,
            rng=random.Random(seed + 1),
            **kwargs,
        )

    dealer = run()
    factory = run(triple_source="factory", offline_producers=1)
    assert np.array_equal(dealer.betas, factory.betas)
    assert dealer.publish_as_one == factory.publish_as_one
    assert dealer.lambda_ == factory.lambda_
    assert dealer.count_result.stats == factory.count_result.stats
    assert dealer.selection_result.stats == factory.selection_result.stats
    assert dealer.phases is None and factory.phases is not None
    assert factory.phases.triple_words_consumed > 0
