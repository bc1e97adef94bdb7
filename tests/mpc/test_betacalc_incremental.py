"""Incremental secure β maintenance: held state, delta folds, closure.

The contract under test: after any churn folded in with
``secure_beta_update``, the held state's public outputs (β, selection
bits, opened frequencies) are *identical* to a from-scratch
``secure_beta_calculation`` over the mutated inputs with the persisted
decoy coins replayed -- the incremental pass is exact, never approximate.
The λ-drift closure (``selection_closure``) is the argument that makes
restricting the selection stage sound; its three monotonicity cases are
pinned directly.
"""

import random

import numpy as np
import pytest

from repro.core.policies import BasicPolicy
from repro.mpc.betacalc import (
    secure_beta_calculation,
    secure_beta_update,
    selection_closure,
)
from repro.mpc.countbelow import COIN_BITS

M = 6
N = 24
C = 3


def make_bits(rng: random.Random, m: int = M, n: int = N) -> list:
    return [[rng.randint(0, 1) for _ in range(n)] for _ in range(m)]


def make_eps(rng: random.Random, n: int = N) -> list:
    return [rng.choice([0.15, 0.3, 0.6]) for _ in range(n)]


def held_run(bits, eps, seed=1):
    return secure_beta_calculation(
        bits,
        eps,
        BasicPolicy(),
        C,
        random.Random(seed),
        keep_state=True,
    )


def scratch_with_coins(bits, eps, coins, seed=77):
    """From-scratch run over the same inputs, persisted coins replayed."""
    return secure_beta_calculation(
        bits,
        eps,
        BasicPolicy(),
        C,
        random.Random(seed),
        coins=coins,
    )


def assert_state_matches_scratch(state, bits, eps):
    scratch = scratch_with_coins(bits, eps, state.coins)
    assert np.array_equal(state.betas, scratch.betas)
    assert state.publish_as_one == scratch.publish_as_one
    assert state.opened_frequencies == scratch.opened_frequencies
    assert state.lambda_ == scratch.lambda_


class TestHeldState:
    def test_state_captures_the_full_run(self):
        rng = random.Random(1)
        bits, eps = make_bits(rng), make_eps(rng)
        result = held_run(bits, eps)
        state = result.state
        assert state is not None
        assert state.n_identities == N
        assert np.array_equal(state.betas, result.betas)
        assert state.publish_as_one == result.publish_as_one
        assert state.lambda_ == result.lambda_
        assert state.coins.shape[0] == N

    def test_plain_run_holds_no_state(self):
        rng = random.Random(2)
        bits, eps = make_bits(rng), make_eps(rng)
        result = secure_beta_calculation(
            bits, eps, BasicPolicy(), C, rng
        )
        assert result.state is None
        assert result.incremental is None


class TestUpdateExactness:
    def test_single_update_equals_coin_replayed_scratch(self):
        rng = random.Random(3)
        bits, eps = make_bits(rng), make_eps(rng)
        state = held_run(bits, eps).state
        dirty = [2, 9, 17]
        for j in dirty:
            bits[rng.randrange(M)][j] ^= 1
        result = secure_beta_update(state, bits, dirty, random.Random(4))
        assert result.state is state
        assert np.array_equal(result.betas, state.betas)
        assert_state_matches_scratch(state, bits, eps)

    # Identity counts: the default, a single leaf, an odd carry at the first
    # tree level, and the 64-lane boundary.
    @pytest.mark.parametrize("n", [N, 1, 2, 3, 5, 64, 65])
    def test_chained_updates_stay_exact(self, n):
        rng = random.Random(5)
        bits, eps = make_bits(rng, n=n), make_eps(rng, n)
        state = held_run(bits, eps).state
        assert_state_matches_scratch(state, bits, eps)
        for round_no in range(3):
            k = rng.randint(1, n)
            dirty = sorted(rng.sample(range(n), k))
            for j in dirty:
                bits[rng.randrange(M)][j] ^= 1
            result = secure_beta_update(
                state, bits, dirty, random.Random(round_no)
            )
            assert result.incremental.dirty == dirty
            assert_state_matches_scratch(state, bits, eps)

    def test_empty_dirty_set_is_the_identity(self):
        rng = random.Random(6)
        bits, eps = make_bits(rng), make_eps(rng)
        state = held_run(bits, eps).state
        before = state.betas.copy()
        publish_before = list(state.publish_as_one)
        result = secure_beta_update(state, bits, [], random.Random(7))
        assert np.array_equal(result.betas, before)
        assert result.publish_as_one == publish_before
        assert result.incremental.closure == []

    def test_closure_invariants_on_a_real_pass(self):
        rng = random.Random(8)
        bits, eps = make_bits(rng), make_eps(rng)
        state = held_run(bits, eps).state
        publish_before = list(state.publish_as_one)
        dirty = [0, 5, 11, 23]
        for j in dirty:
            bits[rng.randrange(M)][j] ^= 1
        result = secure_beta_update(state, bits, dirty, random.Random(9))
        info = result.incremental
        closure = set(info.closure)
        assert set(info.dirty) <= closure
        scale = 1 << COIN_BITS
        if round(info.lambda_before * scale) == round(info.lambda_after * scale):
            assert closure == set(info.dirty)
        # Everything outside the closure kept its previous public bit.
        for j in range(N):
            if j not in closure:
                assert result.publish_as_one[j] == publish_before[j]


class TestUpdateValidation:
    @pytest.fixture
    def held(self):
        rng = random.Random(10)
        bits, eps = make_bits(rng), make_eps(rng)
        return bits, held_run(bits, eps).state

    def test_wrong_provider_count(self, held):
        bits, state = held
        with pytest.raises(ValueError, match="providers"):
            secure_beta_update(state, bits[:-1], [0], random.Random(0))

    def test_wrong_row_length(self, held):
        bits, state = held
        short = [row[:-1] for row in bits]
        with pytest.raises(ValueError, match="bits"):
            secure_beta_update(state, short, [0], random.Random(0))

    def test_dirty_out_of_range(self, held):
        bits, state = held
        with pytest.raises(ValueError, match="out of range"):
            secure_beta_update(state, bits, [N], random.Random(0))

    def test_non_bit_dirty_value(self, held):
        bits, state = held
        bits[0][3] = 2
        with pytest.raises(ValueError, match="non-bit"):
            secure_beta_update(state, bits, [3], random.Random(0))

    def test_unknown_triple_source(self, held):
        bits, state = held
        with pytest.raises(ValueError, match="triple_source"):
            secure_beta_update(
                state, bits, [0], random.Random(0), triple_source="oracle"
            )

    def test_factory_requires_factory_source(self, held):
        bits, state = held
        with pytest.raises(ValueError, match="factory"):
            secure_beta_update(
                state, bits, [0], random.Random(0), factory=object()
            )


class TestFactoryFedUpdate:
    def test_factory_matches_dealer_byte_for_byte(self):
        rng = random.Random(11)
        bits, eps = make_bits(rng), make_eps(rng)
        mutated = [list(row) for row in bits]
        dirty = [1, 8, 14, 22]
        for j in dirty:
            mutated[j % M][j] ^= 1

        state_a = held_run(bits, eps).state
        state_b = held_run(bits, eps).state
        dealer = secure_beta_update(
            state_a, [list(r) for r in mutated], dirty, random.Random(12)
        )
        factory = secure_beta_update(
            state_b,
            [list(r) for r in mutated],
            dirty,
            random.Random(12),
            triple_source="factory",
            offline_producers=2,
        )
        assert np.array_equal(dealer.betas, factory.betas)
        assert dealer.publish_as_one == factory.publish_as_one
        assert factory.phases is not None
        assert factory.phases.triple_words_consumed > 0
        assert factory.incremental.triple_words_provisioned > 0
        assert (
            factory.phases.triple_words_produced
            >= factory.phases.triple_words_consumed
        )


class TestSelectionClosure:
    PUBLISH = [1, 0, 1, 0, 1, 0]

    def test_lambda_unchanged_closure_is_the_dirty_set(self):
        assert selection_closure([3, 1], self.PUBLISH, 500, 500) == [1, 3]

    def test_lambda_increase_adds_clean_zeros(self):
        # Clean 1s can only stay 1 under a λ raise; clean 0s may cross.
        assert selection_closure([0, 1], self.PUBLISH, 500, 600) == [0, 1, 3, 5]

    def test_lambda_decrease_adds_clean_ones(self):
        # Clean 0s can only stay 0 under a λ drop; clean 1s may lose the coin.
        assert selection_closure([0, 1], self.PUBLISH, 500, 400) == [0, 1, 2, 4]

    def test_empty_dirty_set_with_drift(self):
        assert selection_closure([], self.PUBLISH, 10, 20) == [1, 3, 5]
        assert selection_closure([], self.PUBLISH, 20, 10) == [0, 2, 4]
        assert selection_closure([], self.PUBLISH, 10, 10) == []
