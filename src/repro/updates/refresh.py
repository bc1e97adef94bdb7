"""Drift-triggered incremental β refresh: closing the maintenance loop.

The paper computes β first (phase 1) and publishes with it second (phase 2,
Eq. 2).  A publish cycle on the live index keeps that order:

* the cycle's writes land in one :class:`~repro.updates.deltalog.DeltaLog`;
* :meth:`BetaRefresher.refresh_into` folds the log's net truth into the
  held secure construction and, once a configurable *drift threshold*
  (dirtied fraction of the identity universe) trips, runs
  :func:`~repro.mpc.betacalc.secure_beta_update` -- ``O(k)`` secure work in
  the dirty count, never a full rerun;
* every owner whose β moved is *republished* as an ordinary ``upsert`` into
  that same log, so the caller seals, compacts, streams and rolls out one
  segment -- one epoch per cycle, every row at its refreshed β -- and the
  republication stays intersection-closed, because
  :class:`~repro.updates.noise.StickyOwnerStream` coins are keyed by the
  log's ``noise_key``, persisted, and never redrawn.

The refresher deliberately does *not* read truth out of segments: segments
hold published rows (truth + sticky noise), and deriving membership from
them would launder noise into the β computation.  Truth arrives through
:meth:`BetaRefresher.fold` from the same :class:`DeltaLog` state the
segments are sealed from.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.core.errors import ModelError
from repro.mpc.betacalc import (
    IncrementalBetaState,
    SecureBetaResult,
    secure_beta_update,
)
from repro.updates.compactor import CompactionStats
from repro.updates.deltalog import DeltaLog, OwnerDelta

__all__ = ["BetaRefresher", "OutOfUniverseError", "RefreshOutcome"]


class OutOfUniverseError(ModelError):
    """A publish cycle names owners the held secure state cannot cover."""

    def __init__(self, owners: list[int], n_identities: int, m: int):
        self.owners = owners
        super().__init__(
            f"owners {owners} lie past the held universe ({n_identities} "
            f"identities, {m} providers): run a full keep_state=True "
            f"construction before publishing them"
        )


@dataclass
class RefreshOutcome:
    """What one incremental refresh did."""

    dirty: list[int]  # identities securely re-evaluated
    closure: list[int]  # identities whose selection bit could move
    republished: list[int]  # owners upserted with a changed β
    lambda_before: float
    lambda_after: float
    result: SecureBetaResult


class BetaRefresher:
    """Maintain a held secure construction against serving-side churn.

    ``state`` is a :class:`IncrementalBetaState` captured by
    ``secure_beta_calculation(..., keep_state=True)``; ``provider_bits`` is
    the matching ``m x n`` truth matrix (mutated in place as churn folds
    in).  ``drift_threshold`` is the dirtied fraction of the identity
    universe at which :attr:`should_refresh` trips.  A publish cycle calls
    :meth:`refresh_into` on its log before sealing it; that call is
    :meth:`fold` then :meth:`refresh`, and :meth:`observe` is the compactor
    hook for callers that run the pieces by hand.

    Owners enrolled past the held universe cannot be folded in (the share
    vectors have no column for them), and neither can an owner whose
    providers include one past the held ``m`` (the bit matrix has no row
    for it, and dropping it would undercount σ); :meth:`fold` collects them
    in :attr:`out_of_universe` and :attr:`needs_full_rebuild` turns True --
    the caller's cue to run a fresh ``keep_state=True`` full construction --
    while :meth:`refresh_into` refuses the cycle outright.
    """

    def __init__(
        self,
        state: IncrementalBetaState,
        provider_bits: list[list[int]],
        drift_threshold: float = 0.01,
    ):
        if not 0.0 < drift_threshold <= 1.0:
            raise ModelError(
                f"drift threshold must lie in (0, 1], got {drift_threshold}"
            )
        if len(provider_bits) != state.m:
            raise ModelError(
                f"state covers {state.m} providers, bits cover {len(provider_bits)}"
            )
        for i, row in enumerate(provider_bits):
            if len(row) != state.n_identities:
                raise ModelError(
                    f"provider {i} row has {len(row)} bits, "
                    f"state covers {state.n_identities} identities"
                )
        self.state = state
        self.provider_bits = provider_bits
        self.drift_threshold = drift_threshold
        self.pending: set[int] = set()
        self.out_of_universe: set[int] = set()
        # Owners whose latest folded op is a remove: their rows must stay
        # empty, whatever β a refresh assigns their zero column.
        self.tombstoned: set[int] = set()
        self.refreshes = 0

    # -- drift intake ---------------------------------------------------------

    @property
    def n_identities(self) -> int:
        return self.state.n_identities

    @property
    def drift_fraction(self) -> float:
        return len(self.pending) / max(1, self.n_identities)

    @property
    def should_refresh(self) -> bool:
        return self.drift_fraction >= self.drift_threshold

    @property
    def needs_full_rebuild(self) -> bool:
        """True when churn grew the owner or provider universe past the
        held state."""
        return bool(self.out_of_universe)

    def _outside(self, owner: int, delta: OwnerDelta) -> bool:
        return owner >= self.n_identities or (
            not delta.removed and any(i >= self.state.m for i in delta.providers)
        )

    def fold(self, deltas: dict[int, OwnerDelta]) -> list[int]:
        """Fold a delta log's net per-owner truth into the bit matrix.

        Call with ``log.state()`` *before* the log is sealed away.  Updates
        ``provider_bits`` columns and marks the owners dirty; returns the
        in-universe owners folded this call.  A removed owner's column
        zeroes out (frequency 0 -- the identity drops out of every count)
        and the owner is :attr:`tombstoned` until a later upsert or flip.
        """
        folded = []
        for owner, delta in deltas.items():
            if self._outside(owner, delta):
                self.out_of_universe.add(owner)
                continue
            members = set() if delta.removed else delta.providers
            for i in range(self.state.m):
                self.provider_bits[i][owner] = 1 if i in members else 0
            if delta.removed:
                self.tombstoned.add(owner)
            else:
                self.tombstoned.discard(owner)
            self.pending.add(owner)
            folded.append(owner)
        return sorted(folded)

    def observe(self, stats: CompactionStats) -> bool:
        """Compactor hook: absorb one round's drift; True when the
        threshold trips.  Marking an owner dirty whose truth was already
        folded (or never changed) is sound -- incremental re-evaluation of
        an unchanged identity reproduces its bits exactly -- so the hook
        can run even when ``fold`` and compaction interleave arbitrarily.
        """
        for owner in stats.dirty_owners:
            if owner >= self.n_identities:
                self.out_of_universe.add(owner)
            else:
                self.pending.add(owner)
        return self.should_refresh

    # -- the refresh ----------------------------------------------------------

    def refresh(self, rng: Optional[random.Random] = None) -> RefreshOutcome:
        """One incremental secure pass over the accumulated dirty set.

        Runs :func:`secure_beta_update` (which mutates and re-attaches
        ``self.state``), diffs β before/after, and clears the dirty set.
        Safe to call with an empty dirty set (zero secure work).
        """
        rng = rng if rng is not None else random.Random()
        dirty = sorted(self.pending)
        before = self.state.betas.copy()
        result = secure_beta_update(self.state, self.provider_bits, dirty, rng)
        changed = np.flatnonzero(result.betas != before)
        self.pending.clear()
        self.refreshes += 1
        return RefreshOutcome(
            dirty=dirty,
            closure=list(result.incremental.closure),
            republished=changed.tolist(),
            lambda_before=result.incremental.lambda_before,
            lambda_after=result.incremental.lambda_after,
            result=result,
        )

    def refresh_into(
        self, log: DeltaLog, rng: Optional[random.Random] = None
    ) -> Optional[RefreshOutcome]:
        """Fold a publish cycle's log, refresh β, republish into the log.

        Folds ``log.state()``; if the drift threshold then trips, runs
        :meth:`refresh` and appends one ``upsert`` (the owner's folded
        truth at its new β, under the name the log already holds for it)
        for every owner whose β moved -- except tombstoned owners, whose
        rows stay empty.  The caller then seals the log once and compacts,
        streams and rolls out the segment like any other: every row in it
        is at the refreshed β, and sticky coins make it equal to sealing
        the churn at the old β and landing the republication as a second
        epoch.  Returns the outcome (``republished`` lists what was
        appended), or ``None`` when the threshold did not trip -- the
        cycle then publishes at the held β.

        ``fold`` is this call's drift intake: do not also wire
        :meth:`observe` as the compactor hook, or the cycle's owners are
        marked pending again after compaction.

        Raises :class:`OutOfUniverseError`, touching neither the refresher
        nor the log, when the log names an owner or provider past the held
        universe.
        """
        deltas = log.state()
        outside = sorted(o for o, d in deltas.items() if self._outside(o, d))
        if outside:
            raise OutOfUniverseError(outside, self.n_identities, self.state.m)
        self.fold(deltas)
        if not self.should_refresh:
            return None
        outcome = self.refresh(rng)
        outcome.republished = [
            j for j in outcome.republished if j not in self.tombstoned
        ]
        for j in outcome.republished:
            providers = [i for i in range(self.state.m) if self.provider_bits[i][j]]
            delta = deltas.get(j)
            log.upsert(
                j,
                providers,
                float(self.state.betas[j]),
                name=delta.name if delta is not None else None,
            )
        return outcome
