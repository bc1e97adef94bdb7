"""Tests for Beaver-triple dealing."""

import math
import random

import numpy as np
import pytest

from repro.mpc.triples import BitTriple, TripleDealer, mask_dead_lanes


class TestBitTriple:
    def test_valid_triples(self):
        for a in (0, 1):
            for b in (0, 1):
                BitTriple(a=a, b=b, c=a & b)

    def test_invalid_product_rejected(self):
        with pytest.raises(ValueError):
            BitTriple(a=1, b=1, c=0)

    def test_non_bit_rejected(self):
        with pytest.raises(ValueError):
            BitTriple(a=2, b=0, c=0)


class TestTripleDealer:
    def test_shares_reconstruct_valid_triple(self):
        dealer = TripleDealer(parties=3, rng=random.Random(1))
        for _ in range(200):
            shares = dealer.deal()
            a = b = c = 0
            for s in shares:
                a ^= s.a
                b ^= s.b
                c ^= s.c
            assert c == (a & b)

    def test_one_share_set_per_party(self):
        dealer = TripleDealer(parties=4, rng=random.Random(1))
        assert len(dealer.deal()) == 4

    def test_issued_counter(self):
        dealer = TripleDealer(parties=2, rng=random.Random(1))
        dealer.deal_batch(1, lanes=7)
        dealer.deal()
        assert dealer.issued == 8

    def test_two_parties_minimum(self):
        with pytest.raises(ValueError):
            TripleDealer(parties=1, rng=random.Random(1))

    def test_triple_values_look_uniform(self):
        """The underlying (a, b) pairs must cover all four combinations."""
        dealer = TripleDealer(parties=2, rng=random.Random(5))
        seen = set()
        for _ in range(200):
            shares = dealer.deal()
            a = shares[0].a ^ shares[1].a
            b = shares[0].b ^ shares[1].b
            seen.add((a, b))
        assert seen == {(0, 0), (0, 1), (1, 0), (1, 1)}

    def test_single_party_shares_are_bits(self):
        dealer = TripleDealer(parties=3, rng=random.Random(2))
        for s in dealer.deal():
            assert s.a in (0, 1) and s.b in (0, 1) and s.c in (0, 1)


class TestDealBatch:
    def test_batch_shares_reconstruct_per_lane(self):
        dealer = TripleDealer(parties=3, rng=random.Random(5))
        a, b, c = dealer.deal_batch(16)
        ra = np.bitwise_xor.reduce(a, axis=1)
        rb = np.bitwise_xor.reduce(b, axis=1)
        rc = np.bitwise_xor.reduce(c, axis=1)
        assert np.array_equal(rc, ra & rb)
        assert dealer.issued == 16 * 64

    @pytest.mark.parametrize("lanes", [1, 5, 33, 63])
    def test_dead_lanes_masked(self, lanes):
        """Regression: lanes < 64 must leave no random material in dead
        bit positions of any share word."""
        dealer = TripleDealer(parties=3, rng=random.Random(5))
        a, b, c = dealer.deal_batch(8, lanes=lanes)
        dead = np.uint64(~((1 << lanes) - 1) & 0xFFFFFFFFFFFFFFFF)
        for arr in (a, b, c):
            assert not np.any(arr & dead)
        assert dealer.issued == 8 * lanes
        # Live lanes still reconstruct.
        rc = np.bitwise_xor.reduce(c, axis=1)
        ra = np.bitwise_xor.reduce(a, axis=1)
        rb = np.bitwise_xor.reduce(b, axis=1)
        assert np.array_equal(rc, ra & rb)

    @pytest.mark.parametrize("count", [0, 1, 63, 64, 65, 130])
    def test_fleet_of_count_instances(self, count):
        """A fleet of ``count`` instances draws its full words plus one
        partial tail word, and every live lane reconstructs a triple."""
        dealer = TripleDealer(parties=3, rng=random.Random(77))
        words, rem = divmod(count, 64)
        chunks = [dealer.deal_batch(words)]
        if rem:
            chunks.append(dealer.deal_batch(1, lanes=rem))
        assert dealer.issued == count
        assert sum(a.shape[0] for a, _, _ in chunks) == math.ceil(count / 64)
        for a, b, c in chunks:
            assert a.dtype == np.uint64 and a.shape[1:] == (3,)
            ra = np.bitwise_xor.reduce(a, axis=1)
            rb = np.bitwise_xor.reduce(b, axis=1)
            rc = np.bitwise_xor.reduce(c, axis=1)
            assert np.array_equal(rc, ra & rb)

    def test_numpy_stream_seeded_once_from_the_dealer_rng(self):
        rng = random.Random(8)
        reference = random.Random(8)
        dealer = TripleDealer(parties=3, rng=rng)
        dealer.deal_batch(2)
        reference.getrandbits(64)
        assert rng.getstate() == reference.getstate()
        dealer.deal_batch(5, lanes=9)
        assert rng.getstate() == reference.getstate()

    def test_same_seed_same_words(self):
        first = TripleDealer(parties=3, rng=random.Random(4)).deal_batch(6, lanes=40)
        second = TripleDealer(parties=3, rng=random.Random(4)).deal_batch(6, lanes=40)
        for x, y in zip(first, second):
            assert np.array_equal(x, y)

    def test_validation(self):
        dealer = TripleDealer(parties=2, rng=random.Random(1))
        with pytest.raises(ValueError):
            dealer.deal_batch(-1)
        with pytest.raises(ValueError):
            dealer.deal_batch(1, lanes=0)
        with pytest.raises(ValueError):
            dealer.deal_batch(1, lanes=65)


class TestMaskDeadLanes:
    def test_full_width_is_untouched(self):
        arrays = TripleDealer(parties=2, rng=random.Random(3)).deal_batch(4)
        assert mask_dead_lanes(arrays, 64) is arrays

    def test_keeps_exactly_the_low_lanes(self):
        full = np.full((2, 3), 0xFFFFFFFFFFFFFFFF, dtype=np.uint64)
        for arr in mask_dead_lanes((full, full, full), 5):
            assert np.all(arr == np.uint64(0b11111))
        assert np.all(full == np.uint64(0xFFFFFFFFFFFFFFFF))

    def test_validation(self):
        arrays = TripleDealer(parties=2, rng=random.Random(3)).deal_batch(1)
        with pytest.raises(ValueError):
            mask_dead_lanes(arrays, 0)
        with pytest.raises(ValueError):
            mask_dead_lanes(arrays, 65)
