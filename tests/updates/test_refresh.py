"""BetaRefresher: drift intake, incremental refresh, one-epoch publication.

The maintenance loop under test: serving-side churn (delta log +
compaction drift stats) accumulates a dirty set; once the drift threshold
trips, one ``secure_beta_update`` pass folds it into the held construction
and the changed β are appended to the cycle's own log, so the cycle lands
one epoch whose republished rows reuse the owners' sticky coins.
"""

import random

import numpy as np
import pytest

from repro.core.errors import ModelError
from repro.core.index import PPIIndex
from repro.core.policies import BasicPolicy, ChernoffPolicy
from repro.mpc.betacalc import secure_beta_calculation
from repro.serving.snapshot import load_postings, save_snapshot, snapshot_epoch
from repro.updates import (
    BetaRefresher,
    CompactionStats,
    Compactor,
    DeltaLog,
    OutOfUniverseError,
    StickyOwnerStream,
    compact_snapshot,
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
        assert refresher.tombstoned == {5}
        assert [bits[i][2] for i in range(M)] == [1, 0, 0, 1]
        assert [bits[i][5] for i in range(M)] == [0, 0, 0, 0]
        # A later upsert (or flip) brings the removed owner back.
        refresher.fold({5: OwnerDelta(5, providers={1})})
        assert refresher.tombstoned == set()

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


def published_base(tmp_path, bits, state, stream) -> str:
    """An epoch-0 snapshot of every owner's sticky row at the held β."""
    m, n = len(bits), len(bits[0])
    published = np.zeros((m, n), dtype=np.uint8)
    for j in range(n):
        row = stream.publish_row(
            j, [i for i in range(m) if bits[i][j]], float(state.betas[j]), m
        )
        published[row, j] = 1
    base_path = str(tmp_path / "base.npz")
    save_snapshot(PPIIndex(published), base_path, format_version=3, epoch=0)
    return base_path


def publish_cycle(refresher, tmp_path, base_path, write, rng):
    """One publish cycle: write -> refresh_into -> seal once -> compact."""
    epoch = snapshot_epoch(base_path)
    seg_path = str(tmp_path / f"{epoch + 1:06d}.seg.npz")
    with DeltaLog.create(
        str(tmp_path / f"cycle-{epoch}.log"), refresher.state.m, noise_key=KEY
    ) as log:
        write(log)
        written = len(log)
        outcome = refresher.refresh_into(log, rng)
        assert len(log) == written + (len(outcome.republished) if outcome else 0)
        seal_segment(log, seg_path, base_epoch=epoch)
    compact_snapshot(base_path, [seg_path])
    return outcome


class TestRefreshInto:
    def scenario(self, tmp_path, drift_threshold=1e-9):
        bits, eps, state = fresh_construction()
        stream = StickyOwnerStream(KEY)
        base_path = published_base(tmp_path, bits, state, stream)
        refresher = BetaRefresher(state, bits, drift_threshold=drift_threshold)
        return bits, state, refresher, base_path, stream

    def test_one_segment_lands_sticky_rows_at_the_refreshed_beta(self, tmp_path):
        bits, state, refresher, base_path, stream = self.scenario(tmp_path)
        betas_before = state.betas.copy()
        truth_before = [list(row) for row in bits]
        before_rows = {j: load_postings(base_path).query(j) for j in range(N)}
        # Churn every unselected owner onto a new frequency so at least
        # one β must move (selected owners may ride out λ drift at β=1);
        # each enrolment names the owner.
        churned = {}
        for j in range(N):
            if not state.publish_as_one[j]:
                freq = sum(bits[i][j] for i in range(M))
                churned[j] = set(range(M)) if freq < M else {0}

        def write(log):
            for j, members in churned.items():
                log.upsert(j, members, float(betas_before[j]), name=f"o{j}")

        outcome = publish_cycle(
            refresher, tmp_path, base_path, write, random.Random(1)
        )
        assert set(outcome.republished) & set(churned), (
            "scenario must move the β of at least one churned owner"
        )
        assert snapshot_epoch(base_path) == 1
        postings = load_postings(base_path)
        republished = set(outcome.republished)
        for j in range(N):
            truth = [i for i in range(M) if bits[i][j]]
            if j in republished or j in churned:
                # Every row of the cycle is at the refreshed β, on the
                # owner's persisted coins.
                assert postings.query(j) == stream.publish_row(
                    j, truth, float(state.betas[j]), M
                ).tolist()
            else:
                assert postings.query(j) == before_rows[j]
            if j in republished:
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
                noise_floor = {p for p in range(M) if coins[p] < beta_min}
                assert (old & new) - truth_union == noise_floor - truth_union
        # The republication kept the names the enrolments logged.
        names = postings.owner_names
        assert all(names[j] == f"o{j}" for j in churned)

    def test_no_beta_change_appends_nothing(self, tmp_path):
        bits, state, refresher, base_path, _ = self.scenario(tmp_path)
        before_rows = {j: load_postings(base_path).query(j) for j in range(N)}
        betas = state.betas.copy()

        def write(log):  # the same truth again: nothing can move
            log.upsert(3, [i for i in range(M) if bits[i][3]], float(betas[3]))

        outcome = publish_cycle(
            refresher, tmp_path, base_path, write, random.Random(2)
        )
        assert outcome is not None and outcome.dirty == [3]
        assert outcome.republished == []
        assert np.array_equal(state.betas, betas)
        postings = load_postings(base_path)
        assert all(postings.query(j) == before_rows[j] for j in range(N))

    def test_below_the_threshold_publishes_at_the_held_beta(self, tmp_path):
        bits, state, refresher, base_path, _ = self.scenario(
            tmp_path, drift_threshold=0.5
        )
        betas = state.betas.copy()

        def write(log):
            log.upsert(2, range(M), float(betas[2]))

        outcome = publish_cycle(
            refresher, tmp_path, base_path, write, random.Random(3)
        )
        assert outcome is None
        assert refresher.refreshes == 0 and refresher.pending == {2}
        assert np.array_equal(state.betas, betas)
        assert snapshot_epoch(base_path) == 1

    def test_tombstoned_owners_are_never_republished(self, tmp_path):
        """Removing every rare owner empties the natural-decoy pool, so λ
        rises and the selection may pick a removed owner's zero column as
        a decoy at β = 1: a tombstone must still answer the empty list."""
        m, n = 8, 400
        bits = [
            [1 if j < 40 or i == j % m else 0 for j in range(n)] for i in range(m)
        ]
        eps = [0.6 if j < 40 else (0.9 if j % 2 else 0.1) for j in range(n)]
        held = secure_beta_calculation(
            bits, eps, ChernoffPolicy(0.9), C, random.Random(1),
            keep_state=True,
        )
        state = held.state
        base_path = published_base(tmp_path, bits, state, StickyOwnerStream(KEY))
        betas_before = state.betas.copy()
        refresher = BetaRefresher(state, bits, drift_threshold=1e-9)

        def write(log):
            for j in range(40, n):
                log.remove(j)

        outcome = publish_cycle(
            refresher, tmp_path, base_path, write, random.Random(2)
        )
        assert outcome.lambda_before == 0.0 < outcome.lambda_after
        picked = [
            j for j in range(40, n) if state.betas[j] == 1.0 > betas_before[j]
        ]
        assert picked, "scenario must pick a removed owner as a decoy"
        assert refresher.tombstoned == set(range(40, n))
        assert not set(outcome.republished) & refresher.tombstoned
        postings = load_postings(base_path)
        assert all(postings.query(j) == [] for j in range(40, n))

    def test_out_of_universe_cycle_is_refused_untouched(self, tmp_path):
        bits, state, refresher, _, _ = self.scenario(tmp_path)
        truth = [list(row) for row in bits]
        with DeltaLog.create(
            str(tmp_path / "grown.log"), M + 1, noise_key=KEY
        ) as log:
            log.upsert(1, [0], 0.5)
            log.upsert(2, [0, M], 0.5)
            log.upsert(N + 3, [1], 0.5)
            with pytest.raises(OutOfUniverseError, match=str(N + 3)) as err:
                refresher.refresh_into(log, random.Random(0))
            assert len(log) == 3
        assert isinstance(err.value, ModelError)
        assert err.value.owners == [2, N + 3]
        assert bits == truth
        assert refresher.pending == set()
        assert refresher.out_of_universe == set()
        assert refresher.refreshes == 0
