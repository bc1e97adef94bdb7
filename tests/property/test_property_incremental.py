"""Property suite: incremental secure maintenance equals a from-scratch run.

Two contracts carry PR 8's tentpole:

* **exactness** -- for any initial universe and any sequence of dirty-set
  updates, chaining ``secure_beta_update`` over a held state produces a β
  vector, selection bits, and opened frequencies *byte-identical* to one
  from-scratch ``secure_beta_calculation`` over the final inputs with the
  held state's persisted decoy coins replayed;
* **intersection closure of republication** -- when a drift-triggered
  refresh lands changed β through the sticky republication path, the
  false-positive part of old∩new rows is exactly the keyed noise set at
  ``min(β_old, β_new)``: intersecting index versions never strips a
  standing noise bit.

The λ-drift closure spec (``selection_closure``) is pinned against an
independent re-derivation of its three monotonicity cases.
"""

import random

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.policies import BasicPolicy
from repro.mpc.betacalc import (
    secure_beta_calculation,
    secure_beta_update,
    selection_closure,
)
from repro.updates import BetaRefresher, StickyOwnerStream
from repro.updates.deltalog import OwnerDelta

KEY = b"\x0b" * 16
C = 3


@st.composite
def churn_scenarios(draw):
    """An initial bit universe plus 1-3 rounds of dirty-column rewrites."""
    m = draw(st.integers(min_value=C, max_value=6))  # SecSumShare needs m >= c
    n = draw(st.integers(min_value=4, max_value=14))
    bits = draw(
        st.lists(
            st.lists(st.integers(0, 1), min_size=n, max_size=n),
            min_size=m,
            max_size=m,
        )
    )
    eps = draw(
        st.lists(
            st.sampled_from([0.15, 0.3, 0.6]), min_size=n, max_size=n
        )
    )
    rounds = draw(
        st.lists(
            st.dictionaries(
                st.integers(min_value=0, max_value=n - 1),
                st.sets(st.integers(min_value=0, max_value=m - 1), max_size=m),
                min_size=1,
                max_size=n,
            ),
            min_size=1,
            max_size=3,
        )
    )
    return m, n, bits, eps, rounds


@given(data=churn_scenarios())
@settings(max_examples=25, deadline=None)
def test_incremental_chain_equals_coin_replayed_scratch(data):
    m, n, bits, eps, rounds = data
    policy = BasicPolicy()
    held = secure_beta_calculation(
        bits, eps, policy, C, random.Random(0), keep_state=True
    )
    state = held.state
    for round_no, new_columns in enumerate(rounds):
        dirty = sorted(new_columns)
        for j, members in new_columns.items():
            for i in range(m):
                bits[i][j] = 1 if i in members else 0
        result = secure_beta_update(
            state, bits, dirty, random.Random(round_no + 1)
        )
        # The pass's bookkeeping is sound: closure covers the dirty set,
        # and everything else is within the universe.
        assert set(result.incremental.dirty) <= set(result.incremental.closure)
        assert all(0 <= j < n for j in result.incremental.closure)

    scratch = secure_beta_calculation(
        bits,
        eps,
        policy,
        C,
        random.Random(999),
        coins=state.coins,
    )
    assert np.array_equal(state.betas, scratch.betas)
    assert state.publish_as_one == scratch.publish_as_one
    assert state.opened_frequencies == scratch.opened_frequencies
    assert state.lambda_ == scratch.lambda_
    # Group assignment (selected decoys vs opened-frequency identities) is
    # identical: every unselected identity opened the same frequency.
    for j in range(n):
        if not state.publish_as_one[j]:
            true_freq = sum(bits[i][j] for i in range(m))
            assert state.opened_frequencies[j] == true_freq


@given(data=churn_scenarios())
@settings(max_examples=15, deadline=None)
def test_refresh_republication_stays_intersection_closed(data):
    """Republication after an incremental refresh reuses each owner's
    sticky coins, so intersecting pre/post rows reveals only the keyed
    noise floor at the weaker β -- never which standing bits are noise."""
    m, n, bits, eps, rounds = data
    policy = BasicPolicy()
    held = secure_beta_calculation(
        bits, eps, policy, C, random.Random(0), keep_state=True
    )
    state = held.state
    stream = StickyOwnerStream(KEY)
    betas_before = state.betas.copy()
    truth_before = {
        j: {i for i in range(m) if bits[i][j]} for j in range(n)
    }
    rows_before = {
        j: set(
            stream.publish_row(
                j, sorted(truth_before[j]), float(betas_before[j]), m
            ).tolist()
        )
        for j in range(n)
    }

    refresher = BetaRefresher(state, bits, drift_threshold=1e-9)
    for new_columns in rounds:
        refresher.fold(
            {
                j: OwnerDelta(j, providers=set(members))
                for j, members in new_columns.items()
            }
        )
    outcome = refresher.refresh(random.Random(1))

    for j in outcome.republished:
        truth_now = {i for i in range(m) if bits[i][j]}
        row_now = set(
            stream.publish_row(
                j, sorted(truth_now), float(state.betas[j]), m
            ).tolist()
        )
        # Recall: every true bit is published.
        assert truth_now <= row_now
        # β-monotonicity on unchanged truth: coins compared, never redrawn.
        if truth_now == truth_before[j]:
            if state.betas[j] >= betas_before[j]:
                assert rows_before[j] <= row_now
            else:
                assert row_now <= rows_before[j]
        # Intersection closure: the non-true part of old∩new is exactly
        # the deterministic noise set at min(β_old, β_new).
        coins = stream.coins(j, m)
        beta_min = min(float(betas_before[j]), float(state.betas[j]))
        noise_floor = {p for p in range(m) if coins[p] < beta_min}
        truth_union = truth_before[j] | truth_now
        assert (rows_before[j] & row_now) - truth_union == (
            noise_floor - truth_union
        )
    # Owners outside the closure were not republished at all.
    assert set(outcome.republished) <= set(outcome.closure)


@given(
    publish=st.lists(st.integers(0, 1), min_size=1, max_size=40),
    dirty_mask=st.lists(st.booleans(), min_size=1, max_size=40),
    lam_before=st.integers(min_value=0, max_value=1 << 16),
    lam_after=st.integers(min_value=0, max_value=1 << 16),
)
@settings(max_examples=150, deadline=None)
def test_selection_closure_matches_its_spec(
    publish, dirty_mask, lam_before, lam_after
):
    n = len(publish)
    dirty = [j for j in range(n) if j < len(dirty_mask) and dirty_mask[j]]
    closure = selection_closure(dirty, publish, lam_before, lam_after)
    # Sorted, unique, in range, and a superset of the dirty set.
    assert closure == sorted(set(closure))
    assert set(dirty) <= set(closure)
    assert all(0 <= j < n for j in closure)
    # Independent re-derivation of the λ-monotonicity cases.
    expected = set(dirty)
    if lam_after > lam_before:
        expected |= {j for j in range(n) if not publish[j]}
    elif lam_after < lam_before:
        expected |= {j for j in range(n) if publish[j]}
    assert set(closure) == expected
    # λ unchanged: nothing clean can move.
    if lam_before == lam_after:
        assert closure == sorted(set(dirty))
