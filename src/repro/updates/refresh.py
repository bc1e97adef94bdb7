"""Drift-triggered incremental β refresh: closing the maintenance loop.

PR 5 made the *index* live (delta log -> segments -> compaction -> rolling
reload) but left β maintenance batch: any churn that moved an owner's
frequency still demanded a full secure construction.  This module is the
bridge between the two systems:

* the serving-side churn pipeline reports drift
  (:class:`~repro.updates.compactor.CompactionStats` out of every
  ``Compactor.run_once``);
* :class:`BetaRefresher` accumulates the dirty owners, and once a
  configurable *drift threshold* (dirtied fraction of the identity
  universe) trips, folds them into the held secure construction with
  :func:`~repro.mpc.betacalc.secure_beta_update` -- ``O(k)`` secure work in
  the dirty count, never a full rerun;
* owners whose β actually changed are *republished* as ordinary ``upsert``
  records into a fresh :class:`~repro.updates.deltalog.DeltaLog` sharing
  the live log's ``noise_key``, so the republication rides the normal
  seal -> compact -> ``rollout`` path to an epoch+1 snapshot -- and stays
  intersection-closed, because :class:`StickyOwnerStream` coins are keyed,
  persisted, and never redrawn.

The refresher deliberately does *not* read truth out of segments: segments
hold published rows (truth + sticky noise), and deriving membership from
them would launder noise into the β computation.  Truth arrives through
:meth:`BetaRefresher.fold` from the same :class:`DeltaLog` state the
segments were sealed from.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass, field
from typing import Any, Optional

import numpy as np

from repro.core.errors import ModelError
from repro.mpc.betacalc import (
    IncrementalBetaState,
    SecureBetaResult,
    secure_beta_update,
)
from repro.serving.snapshot import snapshot_epoch
from repro.updates.compactor import CompactionStats, compact_snapshot
from repro.updates.deltalog import DeltaLog, OwnerDelta
from repro.updates.segments import seal_segment

__all__ = ["BetaRefresher", "RefreshOutcome"]


@dataclass
class RefreshOutcome:
    """What one incremental refresh did, end to end."""

    dirty: list[int]  # identities securely re-evaluated
    closure: list[int]  # identities whose selection bit could move
    republished: list[int]  # owners upserted with a changed β
    lambda_before: float
    lambda_after: float
    result: SecureBetaResult
    # Landing info -- populated by :meth:`BetaRefresher.refresh_and_land`.
    epoch: Optional[int] = None
    snapshot: dict[str, Any] = field(default_factory=dict)
    rollout_events: list = field(default_factory=list)


class BetaRefresher:
    """Maintain a held secure construction against serving-side churn.

    ``state`` is a :class:`IncrementalBetaState` captured by
    ``secure_beta_calculation(..., keep_state=True)``; ``provider_bits`` is
    the matching ``m x n`` truth matrix (mutated in place as churn folds
    in).  ``drift_threshold`` is the dirtied fraction of the identity
    universe at which :attr:`should_refresh` trips -- wire
    :meth:`observe` as a ``Compactor(on_compaction=...)`` hook and call
    :meth:`refresh` (or :meth:`refresh_and_land`) when it returns True.

    Owners enrolled past the held universe cannot be folded in (the share
    vectors have no column for them), and neither can an owner whose
    providers include one past the held ``m`` (the bit matrix has no row
    for it, and dropping it would undercount σ); they are collected in
    :attr:`out_of_universe` and :attr:`needs_full_rebuild` turns True --
    the caller's cue to run a fresh ``keep_state=True`` full construction.
    """

    def __init__(
        self,
        state: IncrementalBetaState,
        provider_bits: list[list[int]],
        drift_threshold: float = 0.01,
        triple_source: str = "dealer",
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
        self.triple_source = triple_source
        self.pending: set[int] = set()
        self.out_of_universe: set[int] = set()
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

    def fold(self, deltas: dict[int, OwnerDelta]) -> list[int]:
        """Fold a delta log's net per-owner truth into the bit matrix.

        Call with ``log.state()`` *before* the log is sealed away.  Updates
        ``provider_bits`` columns and marks the owners dirty; returns the
        in-universe owners folded this call.  A removed owner's column
        zeroes out (frequency 0 -- the identity drops out of every count).
        """
        folded = []
        for owner, delta in deltas.items():
            members = set() if delta.removed else delta.providers
            if owner >= self.n_identities or any(i >= self.state.m for i in members):
                self.out_of_universe.add(owner)
                continue
            for i in range(self.state.m):
                self.provider_bits[i][owner] = 1 if i in members else 0
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
        result = secure_beta_update(
            self.state,
            self.provider_bits,
            dirty,
            rng,
            triple_source=self.triple_source,
        )
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

    # -- landing: epoch+1 snapshot + rolling reload ---------------------------

    def refresh_and_land(
        self,
        base_path: str,
        workdir: str,
        noise_key: bytes,
        rng: Optional[random.Random] = None,
        supervisor=None,
        streamer=None,
    ) -> RefreshOutcome:
        """Refresh, then land the changed β as a normal epoch+1 snapshot.

        Republication is deliberately boring: the changed owners are
        ``upsert``-ed (same truth, new β) into a scratch :class:`DeltaLog`
        carrying the *live log's* ``noise_key``, sealed into a segment, and
        compacted onto ``base_path`` -- so every republished row reuses the
        owner's persisted sticky coins and the republication is
        intersection-closed (β up -> superset, β down -> subset, same-β
        bits byte-identical).  If a ``supervisor`` is passed, the fleet is
        rolled onto the new snapshot shard by shard
        (:meth:`FleetSupervisor.rollout` semantics).  If the leader's
        :class:`~repro.replication.SegmentStreamer` is passed, the segment
        is sealed into the directory it watches and archived before the
        compaction unlinks it, under a name that sorts right after the
        newest segment already in the stream (followers resume from a name
        cursor) -- so followers converge across the refresh epoch like any
        other.  A refresh that changes no β lands nothing and leaves the
        epoch alone.
        """
        outcome = self.refresh(rng)
        if not outcome.republished:
            outcome.epoch = snapshot_epoch(base_path)
            return outcome
        base_epoch = snapshot_epoch(base_path)
        tag = f"beta-refresh-{base_epoch + 1}"
        log_path = os.path.join(workdir, f"{tag}.dlt")
        seg_dir = workdir
        if streamer is not None:
            seg_dir = streamer.segment_dir
            streamer.refresh()
            streamed = [entry["name"] for entry in streamer.manifest()]
            if streamed:
                # "~" sorts after "." and before the next counter/timestamp.
                tag = f"{max(streamed).removesuffix('.seg.npz')}~{tag}"
        seg_path = os.path.join(seg_dir, f"{tag}.seg.npz")
        log = DeltaLog.create(log_path, self.state.m, noise_key=noise_key)
        try:
            for j in outcome.republished:
                providers = [
                    i for i in range(self.state.m) if self.provider_bits[i][j]
                ]
                log.upsert(j, providers, float(self.state.betas[j]))
            seal_segment(log, seg_path, base_epoch=base_epoch)
        finally:
            log.close()
        try:
            if streamer is not None:
                streamer.refresh()
            summary = compact_snapshot(base_path, [seg_path])
        finally:
            for path in (seg_path, log_path):
                if os.path.exists(path):
                    os.unlink(path)
        outcome.epoch = int(summary["epoch"])
        outcome.snapshot = summary
        if supervisor is not None:
            outcome.rollout_events = supervisor.rollout(base_path)
        return outcome
