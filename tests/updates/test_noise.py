"""StickyOwnerStream: the keyed per-owner coins every republication uses."""

import json
import os

import numpy as np
import pytest

from repro.core.errors import ConstructionError
from repro.updates import StickyOwnerStream

KEY = b"\x03" * 16

GOLDEN_COINS = os.path.join(
    os.path.dirname(__file__), "data", "golden_sticky_coins_v1.json"
)


def golden_coins():
    """``(stream, owner, n, expected coins)`` per recorded case."""
    with open(GOLDEN_COINS) as f:
        doc = json.load(f)
    stream = StickyOwnerStream(bytes.fromhex(doc["key"]))
    for entry in doc["owners"]:
        bits = np.array([int(h, 16) for h in entry["coins"]], dtype=np.uint64)
        for n in doc["n_providers"]:
            yield stream, entry["owner"], n, bits[:n].view(np.float64)


class TestGoldenCoins:
    """Stickiness must survive upgrades: a changed stream hands the
    intersection attacker one fresh draw per owner.  numpy keeps bit
    generator streams stable, but not ``Generator.random``, so the coins
    themselves are pinned here, bit for bit."""

    def test_coins_reproduce_the_recorded_vectors(self):
        cases = list(golden_coins())
        assert len(cases) == 20
        for stream, owner, n, expected in cases:
            got = stream.coins(owner, n)
            assert got.dtype == np.float64
            assert np.array_equal(got.view(np.uint64), expected.view(np.uint64)), (
                owner, n,
            )

    def test_the_batched_kernel_reproduces_the_recorded_vectors(self):
        """Coin ``k`` read back through ``publish_rows``: row ``k`` at
        β = c_k leaves provider ``k`` out, and at the next double above c_k
        takes it in, so the kernel's coin ``k`` is exactly c_k."""
        for stream, owner, n, expected in golden_coins():
            for betas, member in (
                (expected, False),
                (np.nextafter(expected, 1.0), True),
            ):
                counts, indices = stream.publish_rows([owner] * n, [[]] * n, betas, n)
                rows = split_rows(counts, indices)
                assert [k in row for k, row in enumerate(rows)] == [member] * n, (
                    owner, n,
                )


def split_rows(counts, indices) -> list:
    return np.split(indices, np.cumsum(counts)[:-1]) if counts.size else []


def per_row(stream, owners, trues, betas, n):
    return [stream.publish_row(o, t, b, n) for o, t, b in zip(owners, trues, betas)]


class TestPublishRows:
    """The batched kernel is ``publish_row`` per owner, bit for bit."""

    def test_rows_equal_publish_row(self):
        stream = StickyOwnerStream(KEY)
        owners = [0, 1, 7, 2**31, 2**63 - 1, 2**64 - 1, 19_999]
        trues = [[], [0], [3, 9], [63], [1, 2, 3], [], [5, 60]]
        betas = [0.0, 1.0, 0.3, 0.5, 0.05, 0.99, 0.5]
        counts, indices = stream.publish_rows(owners, trues, betas, 64)
        assert counts.dtype == np.int64 and indices.dtype == np.int32
        rows = split_rows(counts, indices)
        for got, want in zip(rows, per_row(stream, owners, trues, betas, 64)):
            assert got.tolist() == want.tolist()

    def test_blocks_split_anywhere_give_the_same_rows(self, monkeypatch):
        stream = StickyOwnerStream(KEY)
        owners = list(range(40))
        trues = [[j % 9, (j * 7) % 9] for j in owners]
        betas = np.linspace(0.0, 1.0, len(owners))
        whole = stream.publish_rows(owners, trues, betas, 9)
        monkeypatch.setattr("repro.updates.noise._BLOCK_COINS", 20)  # 2 owners
        blocked = stream.publish_rows(owners, trues, betas, 9)
        assert all(np.array_equal(a, b) for a, b in zip(whole, blocked))
        rows = split_rows(*blocked)
        for got, want in zip(rows, per_row(stream, owners, trues, betas, 9)):
            assert got.tolist() == want.tolist()

    def test_empty_batch_and_empty_universe(self):
        stream = StickyOwnerStream(KEY)
        counts, indices = stream.publish_rows([], [], [], 16)
        assert counts.size == 0 and indices.size == 0
        counts, indices = stream.publish_rows([3, 4], [[], []], [0.5, 1.0], 0)
        assert counts.tolist() == [0, 0] and indices.size == 0

    def test_short_entropy_owner_takes_the_reference_path(self):
        """A digest whose top 32-bit word is zero gives SeedSequence fewer
        than eight entropy words; such an owner's row must still be the one
        ``default_rng(int(digest))`` draws."""
        stream = StickyOwnerStream(KEY)
        real = stream._digest
        short = bytes(4) + bytes(range(1, 29))

        def digest(owner):
            return short if owner == 5 else real(owner)

        stream._digest = digest
        coins = np.random.default_rng(int.from_bytes(short, "big")).random(64)
        owners, trues, betas = [4, 5, 6], [[1], [2], [3]], [0.5, 0.5, 0.5]
        rows = split_rows(*stream.publish_rows(owners, trues, betas, 64))
        expected = np.flatnonzero((coins < 0.5) | (np.arange(64) == 2))
        assert rows[1].tolist() == expected.tolist()
        for got, want in zip(rows, per_row(stream, owners, trues, betas, 64)):
            assert got.tolist() == want.tolist()

    def test_numpy_owner_ids_are_accepted(self):
        stream = StickyOwnerStream(KEY)
        ids = [np.int64(5), np.uint64(2**64 - 1), np.int32(7)]
        rows = split_rows(*stream.publish_rows(ids, [[1]] * 3, [0.4] * 3, 32))
        for owner, row in zip(ids, rows):
            assert row.tolist() == stream.publish_row(int(owner), [1], 0.4, 32).tolist()

    @pytest.mark.parametrize("owner", [-1, 2**64, 1.0, "3"])
    def test_invalid_owner_ids_rejected(self, owner):
        with pytest.raises(ConstructionError, match="owner id"):
            StickyOwnerStream(KEY).publish_rows([owner], [[]], [0.5], 8)

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ConstructionError, match="one entry per owner"):
            StickyOwnerStream(KEY).publish_rows([1, 2], [[]], [0.5, 0.5], 8)
        with pytest.raises(ConstructionError, match="one entry per owner"):
            StickyOwnerStream(KEY).publish_rows([1, 2], [[], []], [0.5], 8)

    @pytest.mark.parametrize("beta", [-0.1, 1.5, float("nan")])
    def test_beta_outside_the_unit_interval_rejected(self, beta):
        with pytest.raises(ConstructionError, match="beta"):
            StickyOwnerStream(KEY).publish_rows([0, 1], [[], []], [0.5, beta], 8)

    def test_nested_and_out_of_range_true_providers_rejected(self):
        stream = StickyOwnerStream(KEY)
        with pytest.raises(ConstructionError, match="flat"):
            stream.publish_rows([0], [[[1, 2]]], [0.5], 8)
        for true in ([8], [-1]):
            with pytest.raises(ConstructionError, match="out of range"):
                stream.publish_rows([0, 1], [[1], true], [0.5, 0.5], 8)

    def test_negative_provider_count_rejected(self):
        with pytest.raises(ConstructionError, match="provider count"):
            StickyOwnerStream(KEY).publish_rows([0], [[]], [0.5], -1)


class TestStickyOwnerStream:
    def test_empty_key_rejected(self):
        with pytest.raises(ConstructionError, match="non-empty"):
            StickyOwnerStream(b"")

    def test_coins_deterministic_and_in_the_unit_interval(self):
        coins = StickyOwnerStream(KEY).coins(7, 500)
        assert np.array_equal(coins, StickyOwnerStream(KEY).coins(7, 500))
        assert coins.min() >= 0.0 and coins.max() < 1.0

    def test_key_is_kept_as_bytes(self):
        stream = StickyOwnerStream(bytearray(KEY))
        assert stream.key == KEY and type(stream.key) is bytes

    def test_coins_uniformish_across_owners(self):
        stream = StickyOwnerStream(KEY)
        first = [float(stream.coins(j, 1)[0]) for j in range(2000)]
        assert 0.45 < float(np.mean(first)) < 0.55

    def test_coins_differ_across_providers(self):
        coins = StickyOwnerStream(KEY).coins(5, 50)
        assert len(set(coins.tolist())) == 50

    def test_flip_rate_close_to_beta(self):
        row = StickyOwnerStream(KEY).publish_row(2, [], 0.3, 5000)
        assert 0.27 < row.size / 5000 < 0.33

    def test_streams_distinct_across_owners_and_keys(self):
        stream = StickyOwnerStream(KEY)
        per_owner = {tuple(stream.coins(j, 8)) for j in range(50)}
        assert len(per_owner) == 50
        other = StickyOwnerStream(b"\x04" * 16)
        assert not np.array_equal(stream.coins(0, 8), other.coins(0, 8))

    def test_recall_preserved_at_beta_zero(self):
        row = StickyOwnerStream(KEY).publish_row(1, [0, 4, 19], 0.0, 20)
        assert row.tolist() == [0, 4, 19]
        assert row.dtype == np.int32

    def test_beta_one_publishes_every_provider(self):
        row = StickyOwnerStream(KEY).publish_row(1, [3], 1.0, 20)
        assert row.tolist() == list(range(20))

    def test_monotone_in_beta(self):
        """Raising β only ever adds published providers, never removes."""
        stream = StickyOwnerStream(KEY)
        low = set(stream.publish_row(1, [7], 0.3, 200).tolist())
        high = set(stream.publish_row(1, [7], 0.7, 200).tolist())
        assert low <= high and len(high) > len(low)

    def test_same_beta_republishes_the_same_row(self):
        stream = StickyOwnerStream(KEY)
        first = stream.publish_row(9, [2, 5], 0.4, 100)
        again = StickyOwnerStream(KEY).publish_row(9, [2, 5], 0.4, 100)
        assert np.array_equal(first, again)

    def test_rows_survive_provider_universe_growth(self):
        stream = StickyOwnerStream(KEY)
        small = stream.publish_row(4, [1], 0.5, 30)
        grown = stream.publish_row(4, [1], 0.5, 60)
        assert grown[grown < 30].tolist() == small.tolist()

    def test_negative_owner_id_rejected(self):
        with pytest.raises(ConstructionError, match="owner id"):
            StickyOwnerStream(KEY).coins(-1, 8)

    def test_numpy_integer_owner_ids_match_python_ints(self):
        stream = StickyOwnerStream(KEY)
        for owner in (np.int64(5), np.uint64(5), np.int16(5)):
            assert np.array_equal(stream.coins(owner, 16), stream.coins(5, 16))
            assert stream.publish_row(owner, [2], 0.5, 16).tolist() == (
                stream.publish_row(5, [2], 0.5, 16).tolist()
            )

    def test_largest_owner_id_is_accepted(self):
        assert StickyOwnerStream(KEY).coins(2**64 - 1, 4).shape == (4,)

    @pytest.mark.parametrize("owner", [2**64, 1.0, "3"])
    def test_owner_ids_outside_the_stream_rejected(self, owner):
        with pytest.raises(ConstructionError, match="owner id"):
            StickyOwnerStream(KEY).coins(owner, 8)
        with pytest.raises(ConstructionError, match="owner id"):
            StickyOwnerStream(KEY).publish_row(owner, [1], 0.5, 8)

    def test_negative_provider_count_rejected(self):
        with pytest.raises(ConstructionError, match="provider count"):
            StickyOwnerStream(KEY).coins(0, -1)

    def test_nested_true_providers_rejected(self):
        with pytest.raises(ConstructionError, match="flat"):
            StickyOwnerStream(KEY).publish_row(0, [[1, 2]], 0.5, 8)

    @pytest.mark.parametrize("beta", [-0.1, 1.5])
    def test_beta_outside_the_unit_interval_rejected(self, beta):
        with pytest.raises(ConstructionError, match="beta"):
            StickyOwnerStream(KEY).publish_row(0, [1], beta, 8)

    @pytest.mark.parametrize("true", [[8], [-1]])
    def test_true_provider_out_of_range_rejected(self, true):
        with pytest.raises(ConstructionError, match="out of range"):
            StickyOwnerStream(KEY).publish_row(0, true, 0.5, 8)
