"""Property suite: a publish cycle lands one epoch, equal to the two-epoch path.

``BetaRefresher.refresh_into`` folds a cycle's log, refreshes β and appends
the owners whose β moved to that same log, so the cycle seals and compacts
one segment.  The reference below is the order it replaced, spelled out:
seal the churn at the old β, compact, ``refresh``, then land the
republished owners -- tombstoned owners excepted -- as a second segment.
Sticky coins make the two snapshots equal in everything but the epoch, for
any history of upserts (named or not), flips and removes, λ moves
included; both keep 100 % recall of the folded truth, and every tombstoned
owner answers the empty list.
"""

import copy
import os
import random
import tempfile

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.index import PPIIndex
from repro.core.policies import ChernoffPolicy
from repro.mpc.betacalc import secure_beta_calculation
from repro.serving.snapshot import load_postings, save_snapshot, snapshot_epoch
from repro.updates import (
    BetaRefresher,
    DeltaLog,
    StickyOwnerStream,
    compact_snapshot,
    seal_segment,
)

KEY = b"\x0d" * 16
C = 3


@st.composite
def churn_histories(draw):
    """A small held universe plus 1-3 publish cycles of delta ops."""
    m = draw(st.integers(min_value=C, max_value=5))  # SecSumShare needs m >= c
    n = draw(st.integers(min_value=6, max_value=12))
    bits = draw(
        st.lists(
            st.lists(st.integers(0, 1), min_size=n, max_size=n),
            min_size=m,
            max_size=m,
        )
    )
    eps = draw(
        st.lists(st.sampled_from([0.1, 0.3, 0.6, 0.9]), min_size=n, max_size=n)
    )
    owners = st.integers(min_value=0, max_value=n - 1)
    # Universal owners turn common and empty ones drop out of the natural
    # decoys: both move λ.
    providers = st.one_of(
        st.just(frozenset(range(m))),
        st.frozensets(st.integers(min_value=0, max_value=m - 1), max_size=m),
    )
    ops = st.one_of(
        st.tuples(st.just("upsert"), owners, providers, st.booleans()),
        st.tuples(st.just("flip"), owners, providers, providers),
        st.tuples(st.just("remove"), owners),
    )
    cycles = draw(st.lists(st.lists(ops, min_size=1, max_size=5), min_size=1, max_size=3))
    return m, n, bits, eps, cycles


def write_cycle(log: DeltaLog, ops, betas) -> None:
    """The writer logs each owner at its held β, as a publish cycle does."""
    for op in ops:
        beta = float(betas[op[1]])
        if op[0] == "upsert":
            log.upsert(op[1], op[2], beta, name=f"owner-{op[1]}" if op[3] else None)
        elif op[0] == "flip":
            log.flip(op[1], op[2], op[3], beta=beta)
        else:
            log.remove(op[1])


def seal_and_compact(log: DeltaLog, base_path: str, seg_path: str) -> None:
    seal_segment(log, seg_path, base_epoch=snapshot_epoch(base_path))
    compact_snapshot(base_path, [seg_path])


# Two owners turn universal in the cycle that removes a third: λ rises and
# the selection picks the removed owner's zero column as a decoy.
TOMBSTONE_PICKED = (
    3,
    8,
    [[0] * 8 for _ in range(3)],
    [0.1] * 7 + [0.6],
    [[("upsert", 1, frozenset({0, 1, 2}), False), ("remove", 0),
      ("upsert", 7, frozenset({0, 1, 2}), False)]],
)


@given(data=churn_histories())
@example(data=TOMBSTONE_PICKED)
@settings(max_examples=30, deadline=None)
def test_single_epoch_cycle_equals_the_two_epoch_path(data):
    m, n, bits, eps, cycles = data
    held = secure_beta_calculation(
        bits, eps, ChernoffPolicy(0.9), C, random.Random(0),
        keep_state=True,
    )
    stream = StickyOwnerStream(KEY)
    published = np.zeros((m, n), dtype=np.uint8)
    for j in range(n):
        truth = [i for i in range(m) if bits[i][j]]
        published[stream.publish_row(j, truth, float(held.state.betas[j]), m), j] = 1
    single = BetaRefresher(
        copy.deepcopy(held.state), copy.deepcopy(bits), drift_threshold=1e-9
    )
    reference = BetaRefresher(held.state, bits, drift_threshold=1e-9)
    tombstoned: set[int] = set()

    with tempfile.TemporaryDirectory() as tmp:
        single_base = os.path.join(tmp, "single.npz")
        reference_base = os.path.join(tmp, "reference.npz")
        save_snapshot(PPIIndex(published), single_base, epoch=0)
        save_snapshot(PPIIndex(published), reference_base, epoch=0)

        for cycle, ops in enumerate(cycles):
            betas = single.state.betas.copy()
            path = os.path.join(tmp, f"{cycle}")

            # One epoch: fold, refresh, republish into the log, seal once.
            with DeltaLog.create(f"{path}-single.log", m, noise_key=KEY) as log:
                write_cycle(log, ops, betas)
                single.refresh_into(log, random.Random(cycle))
                seal_and_compact(log, single_base, f"{path}-single.seg.npz")

            # Reference: seal at the old β, refresh, land a second epoch.
            with DeltaLog.create(f"{path}-churn.log", m, noise_key=KEY) as log:
                write_cycle(log, ops, betas)
                deltas = log.state()
                reference.fold(deltas)
                seal_and_compact(log, reference_base, f"{path}-churn.seg.npz")
            for owner, delta in deltas.items():
                if delta.removed:
                    tombstoned.add(owner)
                else:
                    tombstoned.discard(owner)
            outcome = reference.refresh(random.Random(cycle))
            landed = [j for j in outcome.republished if j not in tombstoned]
            if landed:
                with DeltaLog.create(f"{path}-beta.log", m, noise_key=KEY) as log:
                    for j in landed:
                        truth = [i for i in range(m) if reference.provider_bits[i][j]]
                        log.upsert(j, truth, float(reference.state.betas[j]))
                    seal_and_compact(log, reference_base, f"{path}-beta.seg.npz")

            assert np.array_equal(single.state.betas, reference.state.betas)
            assert single.tombstoned == tombstoned
            with np.load(single_base) as one, np.load(reference_base) as two:
                for key in ("indptr", "indices"):
                    assert one[key].dtype == two[key].dtype
                    assert np.array_equal(one[key], two[key])
                assert ("owner_names" in one) == ("owner_names" in two)
                if "owner_names" in one:
                    assert np.array_equal(one["owner_names"], two["owner_names"])
                assert np.array_equal(one["meta"][:-1], two["meta"][:-1])
            assert snapshot_epoch(single_base) == cycle + 1

            postings = load_postings(single_base)
            for j in range(n):
                truth = {i for i in range(m) if single.provider_bits[i][j]}
                assert truth <= set(postings.query(j))
                if j in tombstoned:
                    assert postings.query(j) == []
