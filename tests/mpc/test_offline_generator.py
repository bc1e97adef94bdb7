"""Tests for the dealerless OT-extension triple generator."""

import threading
import time

import numpy as np
import pytest

from repro.mpc.offline.generator import (
    BASE_OT_BITS_PER_OT,
    DealerlessTripleGenerator,
    splitmix64,
)
from repro.net.transport import HEADER_BITS


class HashedOracle(DealerlessTripleGenerator):
    """The full IKNP transcript emulation in place of the runtime kernel."""

    _cross_terms = DealerlessTripleGenerator._cross_terms_hashed


GENERATORS = [DealerlessTripleGenerator, HashedOracle]


def _reconstruct(block):
    a = np.bitwise_xor.reduce(block.a, axis=1)
    b = np.bitwise_xor.reduce(block.b, axis=1)
    c = np.bitwise_xor.reduce(block.c, axis=1)
    return a, b, c


class TestTripleAlgebra:
    @pytest.mark.parametrize("generator", GENERATORS)
    @pytest.mark.parametrize("parties", [2, 3, 5])
    def test_shares_reconstruct_to_and(self, parties, generator):
        gen = generator(parties, seed=11)
        block = gen.generate(32)
        a, b, c = _reconstruct(block)
        assert np.array_equal(c, a & b)

    @pytest.mark.parametrize("generator", GENERATORS)
    def test_no_party_holds_the_secret(self, generator):
        """Single-party share columns must not equal the reconstruction."""
        gen = generator(3, seed=5)
        block = gen.generate(64)
        a, _, _ = _reconstruct(block)
        for p in range(3):
            assert not np.array_equal(block.a[:, p], a)

    def test_deterministic_in_seed(self):
        b1 = DealerlessTripleGenerator(3, seed=7).generate(16)
        b2 = DealerlessTripleGenerator(3, seed=7).generate(16)
        assert np.array_equal(b1.a, b2.a)
        assert np.array_equal(b1.b, b2.b)
        assert np.array_equal(b1.c, b2.c)

    def test_distinct_seeds_distinct_blocks(self):
        b1 = DealerlessTripleGenerator(3, seed=7).generate(16)
        b2 = DealerlessTripleGenerator(3, seed=8).generate(16)
        assert not np.array_equal(b1.a, b2.a)

    def test_sequential_blocks_differ(self):
        gen = DealerlessTripleGenerator(2, seed=3)
        b1, b2 = gen.generate(8), gen.generate(8)
        assert not np.array_equal(b1.a, b2.a)
        assert gen.words_produced == 16


class TestDeadLanes:
    @pytest.mark.parametrize("lanes", [1, 7, 63])
    def test_dead_lanes_masked(self, lanes):
        gen = DealerlessTripleGenerator(3, seed=9)
        block = gen.generate(8, lanes=lanes)
        dead = np.uint64(~((1 << lanes) - 1) & 0xFFFFFFFFFFFFFFFF)
        for arr in (block.a, block.b, block.c):
            assert not np.any(arr & dead)
        assert block.triples == 8 * lanes

    def test_live_lanes_still_valid(self):
        gen = DealerlessTripleGenerator(3, seed=9)
        block = gen.generate(8, lanes=5)
        a, b, c = _reconstruct(block)
        assert np.array_equal(c, a & b)


class TestAccounting:
    def test_setup_wire_cost(self):
        gen = DealerlessTripleGenerator(3, seed=1)
        stats = gen.setup()
        pairs = 3 * 2
        expected = pairs * (gen.kappa * BASE_OT_BITS_PER_OT + 2 * HEADER_BITS)
        assert stats.bits_sent == expected
        assert stats.messages == pairs * 2
        assert stats.rounds == 2

    def test_setup_idempotent(self):
        gen = DealerlessTripleGenerator(3, seed=1)
        gen.setup()
        again = gen.setup()
        assert again.bits_sent == 0
        assert again.rounds == 0

    @pytest.mark.parametrize("generator", GENERATORS)
    def test_batch_wire_cost_matches_formula(self, generator):
        words = 4
        gen = generator(3, seed=1)
        block = gen.generate(words)
        pairs = 3 * 2
        n_bits = words * 64
        expected = pairs * (
            (n_bits * gen.kappa + HEADER_BITS) + (n_bits + HEADER_BITS)
        )
        assert block.stats.bits_sent == expected
        assert block.stats.messages == pairs * 2
        assert block.stats.rounds == 2

    def test_kernel_and_oracle_have_identical_accounting(self):
        fast = DealerlessTripleGenerator(3, seed=2).generate(8)
        hashed = HashedOracle(3, seed=2).generate(8)
        assert fast.stats.bits_sent == hashed.stats.bits_sent
        assert fast.stats.messages == hashed.stats.messages
        assert fast.stats.per_party_bits == hashed.stats.per_party_bits

    def test_zero_words(self):
        gen = DealerlessTripleGenerator(2, seed=1)
        block = gen.generate(0)
        assert block.words == 0
        assert block.stats.bits_sent == 0
        assert block.stats.rounds == 0


class TestWireModel:
    def test_disabled_by_default(self):
        gen = DealerlessTripleGenerator(3, seed=1)
        start = time.perf_counter()
        gen.generate(16)
        assert time.perf_counter() - start < 0.5  # compute-only, no sleeps

    def test_bandwidth_waits_out_the_wire(self):
        # 16 words * (64*128 + 64) bits + headers over 100 Mbit/s ~ 1.3 ms,
        # plus 2 rounds of 5 ms latency: the batch must take >= 10 ms.
        gen = DealerlessTripleGenerator(
            3, seed=1, link_bandwidth_bps=100e6, link_latency_s=0.005
        )
        gen.setup()
        start = time.perf_counter()
        gen.generate(16)
        assert time.perf_counter() - start >= 0.010

    def test_interrupt_aborts_the_wait(self):
        stop = threading.Event()
        stop.set()
        gen = DealerlessTripleGenerator(
            3, seed=1, link_bandwidth_bps=1.0, link_latency_s=10.0, interrupt=stop
        )
        start = time.perf_counter()
        gen.setup()
        gen.generate(1)
        assert time.perf_counter() - start < 1.0

    def test_invalid_bandwidth_rejected(self):
        with pytest.raises(ValueError):
            DealerlessTripleGenerator(3, seed=1, link_bandwidth_bps=0)


class TestValidation:
    def test_needs_two_parties(self):
        with pytest.raises(ValueError):
            DealerlessTripleGenerator(1, seed=1)

    def test_kappa_must_be_word_multiple(self):
        with pytest.raises(ValueError):
            DealerlessTripleGenerator(2, seed=1, kappa=100)

    def test_kernel_is_not_an_option(self):
        with pytest.raises(TypeError):
            DealerlessTripleGenerator(2, seed=1, kernel="hashed")

    def test_negative_words_rejected(self):
        gen = DealerlessTripleGenerator(2, seed=1)
        with pytest.raises(ValueError):
            gen.generate(-1)

    def test_bad_lanes_rejected(self):
        gen = DealerlessTripleGenerator(2, seed=1)
        with pytest.raises(ValueError):
            gen.generate(1, lanes=65)


class TestSplitmix:
    def test_known_vector(self):
        # splitmix64(0) from the reference implementation.
        out = splitmix64(np.array([0], dtype=np.uint64))
        assert out[0] == np.uint64(0xE220A8397B1DCDAF)

    def test_vectorized_matches_scalar(self):
        xs = np.arange(16, dtype=np.uint64)
        vec = splitmix64(xs)
        for i, x in enumerate(xs):
            assert vec[i] == splitmix64(np.array([x], dtype=np.uint64))[0]
