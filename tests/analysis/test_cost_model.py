"""Tests for the closed-form per-phase construction cost model.

The model's claims are checked against *measured* subsystem output: the
offline estimates against a real factory's metered stats, the online
estimates against the batch engine's accounting, and the triple-word
demand against what a factory-fed construction actually consumed.
"""

import math
import random

import pytest

from repro.analysis.cost_model import ConstructionCostModel
from repro.core.policies import BasicPolicy
from repro.mpc.betacalc import secure_beta_calculation, secure_beta_update
from repro.mpc.countbelow import COIN_BITS
from repro.mpc.offline.factory import TripleFactory

M = 16
N_IDS = 48
C = 3


# Identity counts the full run is priced and metered at: the default, a single
# leaf, an odd carry at the first level, and the 64-lane boundary.
@pytest.fixture(scope="module", params=[N_IDS, 1, 2, 3, 5, 64, 65])
def factory_run(request):
    """One factory-fed construction, returning (result, model, lambda)."""
    n_ids = request.param
    rng = random.Random(99)
    bits = [[rng.randint(0, 1) for _ in range(n_ids)] for _ in range(M)]
    eps = [rng.random() for _ in range(n_ids)]
    result = secure_beta_calculation(
        bits,
        eps,
        BasicPolicy(),
        c=C,
        rng=random.Random(0),
        triple_source="factory",
        offline_producers=2,
    )
    model = ConstructionCostModel(M, n_ids, C, producers=2)
    lam = round(result.lambda_ * (1 << COIN_BITS))
    return result, model, lam


class TestWordDemand:
    def test_total_words_matches_consumption(self, factory_run):
        result, model, lam = factory_run
        assert result.phases.triple_words_consumed == model.total_words(lam)

    def test_count_plus_selection_is_total(self, factory_run):
        _, model, lam = factory_run
        assert model.total_words(lam) == (
            model.count_phase_words() + model.selection_phase_words(lam)
        )

    def test_full_run_is_the_all_dirty_pass(self, factory_run):
        _, model, lam = factory_run
        n = model.n_identities
        assert model.online_count_stats() == model.incremental_count_stats(range(n))
        assert model.online_selection_stats(lam) == (
            model.incremental_selection_stats(n, lam)
        )
        assert model.count_phase_words() == model.incremental_count_words(range(n))
        assert model.selection_phase_words(lam) == (
            model.incremental_selection_words(n, lam)
        )

    def test_words_lie_between_dense_packing_and_one_per_and(self, factory_run):
        result, model, lam = factory_run
        # Every AND of every instance rides in some word's lane, so 64 ANDs
        # per word is the floor; a fleet pads its tail word, never more.
        ands = (
            result.count_result.stats.and_gates
            + result.selection_result.stats.and_gates
        )
        assert math.ceil(ands / 64) <= model.total_words(lam) <= ands


class TestOfflineEstimates:
    def test_setup_matches_factory_metering(self, factory_run):
        result, model, _ = factory_run
        est = model.setup(producers=2)
        assert result.phases.setup.bits_sent == est.bits_sent
        assert result.phases.setup.messages == est.messages

    def test_offline_bits_and_messages_exact(self, factory_run):
        result, model, _ = factory_run
        produced = result.phases.triple_words_produced
        est = model.offline(produced)
        assert result.phases.offline.bits_sent == est.bits_sent
        assert result.phases.offline.messages == est.messages

    def test_offline_rounds_are_balanced_pool_lower_bound(self, factory_run):
        result, model, _ = factory_run
        produced = result.phases.triple_words_produced
        est = model.offline(produced)
        # The model assumes a perfectly balanced pool; work-queue skew can
        # only make the slowest producer run *more* sequential blocks.
        assert result.phases.offline.rounds >= est.rounds

    def test_offline_matches_prefilled_factory(self):
        words = 300
        model = ConstructionCostModel(M, N_IDS, C, producers=2)
        factory = TripleFactory(
            parties=C,
            seed=5,
            target_words=words,
            producers=2,
            capacity_words=words,
            link_bandwidth_bps=None,
        ).start()
        try:
            factory.join_producers(timeout=60)
            est = model.offline(words)
            assert factory.offline_stats.bits_sent == est.bits_sent
            assert factory.offline_stats.messages == est.messages
            assert factory.offline_stats.rounds >= est.rounds
            setup_est = model.setup(producers=2)
            assert factory.setup_stats.bits_sent == setup_est.bits_sent
        finally:
            factory.close()


class TestOnlineEstimates:
    def test_online_matches_measured_engine_stats(self, factory_run):
        result, model, lam = factory_run
        count = model.online_count_stats()
        sel = model.online_selection_stats(lam)
        assert result.count_result.stats.bits_sent == count.bits_sent
        assert result.count_result.stats.rounds == count.rounds
        assert result.count_result.stats.and_gates == count.and_gates
        assert result.selection_result.stats.bits_sent == sel.bits_sent
        assert result.selection_result.stats.rounds == sel.rounds

    def test_online_stats_equal_measured_field_for_field(self, factory_run):
        result, model, lam = factory_run
        assert model.online_count_stats() == result.count_result.stats
        assert model.online_selection_stats(lam) == result.selection_result.stats

    def test_online_estimate_aggregates_stages(self, factory_run):
        result, model, lam = factory_run
        est = model.online(lam)
        measured = (
            result.count_result.stats.bits_sent
            + result.selection_result.stats.bits_sent
        )
        assert est.bits_sent == measured
        assert result.phases.online.bits_sent == measured


class TestIncrementalEstimates:
    """The closed form prices a real ``secure_beta_update`` pass exactly."""

    @pytest.fixture(scope="class")
    def update_run(self):
        rng = random.Random(5)
        bits = [[rng.randint(0, 1) for _ in range(N_IDS)] for _ in range(M)]
        eps = [rng.random() for _ in range(N_IDS)]
        held = secure_beta_calculation(
            bits,
            eps,
            BasicPolicy(),
            c=C,
            rng=random.Random(1),
            keep_state=True,
        )
        dirty = [3, 7, 20, 41]
        for j in dirty:
            bits[0][j] ^= 1
        result = secure_beta_update(
            held.state,
            bits,
            dirty,
            random.Random(2),
            triple_source="factory",
            offline_producers=2,
        )
        model = ConstructionCostModel(M, N_IDS, C, producers=2)
        lam = round(result.lambda_ * (1 << COIN_BITS))
        return result, model, lam

    def test_count_stats_exact(self, update_run):
        result, model, _ = update_run
        predicted = model.incremental_count_stats(result.incremental.dirty)
        measured = result.count_result.stats
        for field in ("and_gates", "bits_sent", "messages", "rounds"):
            assert getattr(predicted, field) == getattr(measured, field), field

    def test_selection_stats_exact(self, update_run):
        result, model, lam = update_run
        predicted = model.incremental_selection_stats(
            len(result.incremental.closure), lam
        )
        measured = result.selection_result.stats
        for field in ("and_gates", "bits_sent", "rounds"):
            assert getattr(predicted, field) == getattr(measured, field), field

    def test_incremental_online_aggregates(self, update_run):
        result, model, lam = update_run
        est = model.incremental_online(
            result.incremental.dirty, len(result.incremental.closure), lam
        )
        assert est.bits_sent == (
            result.count_result.stats.bits_sent
            + result.selection_result.stats.bits_sent
        )
        assert "closure" in est.formula

    def test_words_match_factory_consumption(self, update_run):
        result, model, lam = update_run
        words = model.incremental_total_words(
            result.incremental.dirty,
            len(result.incremental.closure),
            lam,
        )
        assert result.phases.triple_words_consumed == words
        assert result.incremental.triple_words_provisioned >= 1

    def test_incremental_never_exceeds_the_full_run(self, update_run):
        result, model, lam = update_run
        inc = model.incremental_online(
            result.incremental.dirty, len(result.incremental.closure), lam
        )
        full = model.online(lam)
        assert inc.bits_sent < full.bits_sent

    def test_empty_dirty_set_prices_to_zero(self):
        model = ConstructionCostModel(M, N_IDS, C)
        assert model.incremental_count_stats([]).and_gates == 0
        assert model.incremental_count_words([]) == 0
        assert model.incremental_selection_words(0, 100) == 0


class TestModelSurface:
    def test_formulas_are_human_readable(self):
        model = ConstructionCostModel(M, N_IDS, C)
        assert "kappa" in model.setup().formula
        assert "words" in model.offline(100).formula
        assert "AND layers" in model.online(1).formula

    def test_describe_smoke(self):
        text = ConstructionCostModel(M, N_IDS, C).describe(lambda_scaled=7)
        assert "triple demand" in text
        assert "offline" in text
        assert str(N_IDS) in text

    def test_bytes_property(self):
        est = ConstructionCostModel(M, N_IDS, C).setup()
        assert est.bytes_sent == est.bits_sent / 8

    def test_validation(self):
        with pytest.raises(ValueError):
            ConstructionCostModel(0, 10, 3)
        with pytest.raises(ValueError):
            ConstructionCostModel(4, 10, 1)
