"""StickyOwnerStream: the keyed per-owner coins every republication uses."""

import numpy as np
import pytest

from repro.core.errors import ConstructionError
from repro.updates import StickyOwnerStream

KEY = b"\x03" * 16


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
