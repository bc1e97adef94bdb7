"""BetaRefresher: drift intake, incremental refresh, epoch+1 landing.

The maintenance loop under test: serving-side churn (delta log +
compaction drift stats) accumulates a dirty set; once the drift threshold
trips, one ``secure_beta_update`` pass folds it into the held construction
and the changed β land as an ordinary epoch+1 snapshot whose republished
rows reuse the owners' sticky coins.
"""

import os
import random

import numpy as np
import pytest

from repro.core.errors import ModelError
from repro.core.index import PPIIndex
from repro.core.policies import BasicPolicy
from repro.mpc.betacalc import secure_beta_calculation
from repro.serving.snapshot import load_postings, save_snapshot, snapshot_epoch
from repro.updates import (
    BetaRefresher,
    CompactionStats,
    Compactor,
    DeltaLog,
    StickyOwnerStream,
    seal_segment,
)
from repro.updates.deltalog import OwnerDelta

M = 4
N = 12
C = 3
KEY = b"\x09" * 16


def fresh_construction(seed: int = 7):
    """(provider_bits, epsilons, held state) for one small universe."""
    rng = random.Random(seed)
    bits = [[rng.randint(0, 1) for _ in range(N)] for _ in range(M)]
    eps = [rng.choice([0.2, 0.4, 0.6]) for _ in range(N)]
    held = secure_beta_calculation(
        bits,
        eps,
        BasicPolicy(),
        C,
        random.Random(seed + 1),
        engine="batch",
        keep_state=True,
    )
    return bits, eps, held.state


def drift_stats(dirty_owners, epoch: int = 1) -> CompactionStats:
    return CompactionStats(
        epoch=epoch,
        base_epoch=epoch - 1,
        n_segments=1,
        ops_applied=len(dirty_owners),
        owners_touched=len(dirty_owners),
        identities_dirtied=len(dirty_owners),
        dirty_owners=sorted(dirty_owners),
        tombstones=0,
        consumed_segments=[],
    )


class TestValidation:
    def test_drift_threshold_bounds(self):
        bits, eps, state = fresh_construction()
        for bad in (0.0, -0.1, 1.5):
            with pytest.raises(ModelError, match="threshold"):
                BetaRefresher(state, bits, drift_threshold=bad)

    def test_provider_count_checked(self):
        bits, eps, state = fresh_construction()
        with pytest.raises(ModelError, match="providers"):
            BetaRefresher(state, bits[:-1])

    def test_row_length_checked(self):
        bits, eps, state = fresh_construction()
        with pytest.raises(ModelError, match="identities"):
            BetaRefresher(state, [row[:-1] for row in bits])


class TestDriftIntake:
    def test_fold_updates_columns_and_marks_dirty(self):
        bits, eps, state = fresh_construction()
        refresher = BetaRefresher(state, bits)
        folded = refresher.fold(
            {
                2: OwnerDelta(2, providers={0, 3}, beta=0.0),
                5: OwnerDelta(5, removed=True),
            }
        )
        assert folded == [2, 5]
        assert refresher.pending == {2, 5}
        assert [bits[i][2] for i in range(M)] == [1, 0, 0, 1]
        assert [bits[i][5] for i in range(M)] == [0, 0, 0, 0]

    def test_fold_collects_out_of_universe_owners(self):
        bits, eps, state = fresh_construction()
        refresher = BetaRefresher(state, bits)
        folded = refresher.fold({N + 3: OwnerDelta(N + 3, providers={1})})
        assert folded == []
        assert refresher.out_of_universe == {N + 3}
        assert refresher.needs_full_rebuild
        assert not refresher.pending

    def test_fold_routes_grown_provider_universe_to_full_rebuild(self):
        """A provider id past the held ``m`` has no row to land in: folding
        the rest of the set would undercount σ, so the owner is not folded."""
        bits, eps, state = fresh_construction()
        refresher = BetaRefresher(state, bits)
        before = [bits[i][2] for i in range(M)]
        folded = refresher.fold(
            {2: OwnerDelta(2, providers={0, M}), 5: OwnerDelta(5, providers={1})}
        )
        assert folded == [5]
        assert refresher.out_of_universe == {2}
        assert refresher.needs_full_rebuild
        assert refresher.pending == {5}
        assert [bits[i][2] for i in range(M)] == before
        # A removal names no provider, so it always folds.
        assert refresher.fold({2: OwnerDelta(2, providers={M}, removed=True)}) == [2]

    def test_observe_trips_the_threshold(self):
        bits, eps, state = fresh_construction()
        refresher = BetaRefresher(state, bits, drift_threshold=2 / N)
        assert refresher.observe(drift_stats([4])) is False
        assert refresher.drift_fraction == pytest.approx(1 / N)
        assert refresher.observe(drift_stats([4, 9])) is True
        assert refresher.should_refresh

    def test_observe_routes_unknown_owners_to_full_rebuild(self):
        bits, eps, state = fresh_construction()
        refresher = BetaRefresher(state, bits, drift_threshold=0.5)
        refresher.observe(drift_stats([1, N + 1]))
        assert refresher.pending == {1}
        assert refresher.out_of_universe == {N + 1}
        assert refresher.needs_full_rebuild

    def test_compactor_hook_feeds_the_refresher(self, tmp_path):
        bits, eps, state = fresh_construction()
        refresher = BetaRefresher(state, bits, drift_threshold=1 / N)
        base_path = str(tmp_path / "base.npz")
        matrix = np.array(bits, dtype=np.uint8)
        save_snapshot(PPIIndex(matrix), base_path, format_version=3, epoch=0)
        with DeltaLog.create(
            str(tmp_path / "u.log"), M, noise_key=KEY
        ) as log:
            log.upsert(3, [0, 2], beta=0.5)
            log.remove(8)
            seal_segment(log, str(tmp_path / "0001.seg.npz"), base_epoch=0)
        compactor = Compactor(
            base_path,
            str(tmp_path),
            min_segments=1,
            on_compaction=refresher.observe,
        )
        stats = compactor.run_once()
        assert stats is not None
        assert refresher.pending == {3, 8}
        assert refresher.should_refresh


class TestRefresh:
    def test_refresh_equals_coin_replayed_scratch(self):
        bits, eps, state = fresh_construction()
        refresher = BetaRefresher(state, bits)
        before = state.betas.copy()
        refresher.fold(
            {
                1: OwnerDelta(1, providers={0, 1, 2, 3}),
                6: OwnerDelta(6, removed=True),
            }
        )
        outcome = refresher.refresh(random.Random(0))
        assert outcome.dirty == [1, 6]
        assert set(outcome.dirty) <= set(outcome.closure)
        assert not refresher.pending
        assert refresher.refreshes == 1
        # The republished set is exactly the owners whose β moved.
        changed = np.flatnonzero(state.betas != before)
        assert outcome.republished == [int(j) for j in changed]
        scratch = secure_beta_calculation(
            bits,
            eps,
            BasicPolicy(),
            C,
            random.Random(99),
            engine="batch",
            coins=state.coins,
        )
        assert np.array_equal(state.betas, scratch.betas)
        assert state.publish_as_one == scratch.publish_as_one

    def test_refresh_with_nothing_pending_is_cheap_and_exact(self):
        bits, eps, state = fresh_construction()
        refresher = BetaRefresher(state, bits)
        before = state.betas.copy()
        outcome = refresher.refresh(random.Random(0))
        assert outcome.dirty == [] and outcome.republished == []
        assert np.array_equal(state.betas, before)

    def test_refresh_keeps_folding_into_the_callers_matrix(self):
        """Callers (the e2e harness) read the truth back out of the very
        list-of-lists they handed in: the secure pass may work on arrays,
        but it never swaps the matrix, or its rows, for converted copies."""
        bits, eps, state = fresh_construction()
        rows = list(bits)
        refresher = BetaRefresher(state, bits)
        refresher.fold({1: OwnerDelta(1, providers={0, 1, 2, 3})})
        refresher.refresh(random.Random(0))
        assert refresher.provider_bits is bits
        assert all(kept is row and type(row) is list for kept, row in zip(rows, bits))
        refresher.fold({1: OwnerDelta(1, providers={2})})
        assert [bits[i][1] for i in range(M)] == [0, 0, 1, 0]
        outcome = refresher.refresh(random.Random(1))
        assert outcome.dirty == [1]
        assert all(type(j) is int for j in outcome.republished)


class FakeSupervisor:
    def __init__(self):
        self.rolled = None

    def rollout(self, path):
        self.rolled = path
        return [("rolled", 0)]


class TestRefreshAndLand:
    def landed_scenario(self, tmp_path, drift_threshold=1e-9):
        """Base snapshot of published rows + churn on a β<1 owner."""
        bits, eps, state = fresh_construction()
        stream = StickyOwnerStream(KEY)
        published = np.zeros((M, N), dtype=np.uint8)
        for j in range(N):
            row = stream.publish_row(
                j,
                [i for i in range(M) if bits[i][j]],
                float(state.betas[j]),
                M,
            )
            published[row, j] = 1
        base_path = str(tmp_path / "base.npz")
        save_snapshot(
            PPIIndex(published), base_path, format_version=3, epoch=0
        )
        refresher = BetaRefresher(state, bits, drift_threshold=drift_threshold)
        betas_before = state.betas.copy()
        truth_before = [list(row) for row in bits]
        return bits, state, refresher, base_path, stream, betas_before, truth_before

    def test_landing_bumps_the_epoch_with_sticky_rows(self, tmp_path):
        (
            bits,
            state,
            refresher,
            base_path,
            stream,
            betas_before,
            truth_before,
        ) = self.landed_scenario(tmp_path)
        # Churn every unselected owner onto a new frequency so at least
        # one β must move (selected owners may ride out λ drift at β=1).
        deltas = {}
        for j in range(N):
            if not state.publish_as_one[j]:
                freq = sum(bits[i][j] for i in range(M))
                members = set(range(M)) if freq < M else {0}
                deltas[j] = OwnerDelta(j, providers=members)
        refresher.fold(deltas)
        before_rows = {
            j: load_postings(base_path).query(j) for j in range(N)
        }
        supervisor = FakeSupervisor()
        outcome = refresher.refresh_and_land(
            base_path,
            str(tmp_path),
            KEY,
            rng=random.Random(1),
            supervisor=supervisor,
        )
        assert outcome.republished, "scenario must move at least one β"
        assert outcome.epoch == 1
        assert snapshot_epoch(base_path) == 1
        assert supervisor.rolled == base_path
        assert outcome.rollout_events == [("rolled", 0)]
        postings = load_postings(base_path)
        republished = set(outcome.republished)
        for j in range(N):
            truth = [i for i in range(M) if bits[i][j]]
            expected = stream.publish_row(
                j, truth, float(state.betas[j]), M
            ).tolist()
            if j in republished:
                # Fresh row under the new β, same persisted coins.
                assert postings.query(j) == expected
                # Intersection closure: the false-positive part of the
                # old∩new rows is exactly the sticky noise set at
                # min(β_old, β_new) -- coins are never redrawn, so
                # intersecting versions reveals no standing noise bit.
                old, new = set(before_rows[j]), set(postings.query(j))
                truth_union = set(truth) | {
                    i for i in range(M) if truth_before[i][j]
                }
                coins = stream.coins(j, M)
                beta_min = min(float(betas_before[j]), float(state.betas[j]))
                noise_floor = {
                    p for p in range(M) if coins[p] < beta_min
                }
                assert (old & new) - truth_union == noise_floor - truth_union
            else:
                # Untouched owners' rows survive the compaction unchanged.
                assert postings.query(j) == before_rows[j]
        # The scratch pieces were cleaned out of the workdir.
        leftovers = [
            p
            for p in os.listdir(tmp_path)
            if p.startswith("beta-refresh-")
        ]
        assert leftovers == []

    def test_no_beta_change_lands_nothing(self, tmp_path):
        bits, state, refresher, base_path = self.landed_scenario(tmp_path)[:4]
        outcome = refresher.refresh_and_land(
            base_path, str(tmp_path), KEY, rng=random.Random(2)
        )
        assert outcome.republished == []
        assert outcome.epoch == 0
        assert snapshot_epoch(base_path) == 0
        assert outcome.snapshot == {}
