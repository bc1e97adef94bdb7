"""Secure β calculation: the complete phase-1 pipeline (paper Alg. 1).

Orchestrates the MPC-reduced computation flow of Eq. 9 end to end:

    provider bits --SecSumShare--> c coordinator shares
                  --CountBelow (GMW)--> #common identities + ξ
                  --λ (public, Eq. 7)-->
                  --β-selection (GMW)--> per-identity "publish as 1" bits
                  --open σ for unselected--> β* in the clear (Eq. 3/4/5)

The returned β vector is what providers feed into randomized publication
(phase 2).  The reference (trusted, centralized) computation of the same
function is :func:`repro.core.construction.compute_betas`; tests assert the
two agree.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.core.mixing import compute_lambda
from repro.core.policies import BetaPolicy, frequency_thresholds
from repro.mpc.countbelow import (
    COIN_BITS,
    CountBelowResult,
    CountBelowState,
    SelectionResult,
    draw_decoy_coins,
    identity_ids,
    run_beta_selection_subset,
    update_count_below,
)
from repro.mpc.field import Zq, default_modulus_for_sum
from repro.mpc.offline.factory import TripleFactory
from repro.mpc.offline.phases import PhaseReport
from repro.mpc.secsum import SecSumResult, SecSumShare

__all__ = [
    "IncrementalBetaState",
    "IncrementalPassInfo",
    "SecureBetaResult",
    "secure_beta_calculation",
    "secure_beta_update",
    "selection_closure",
    "DEFAULT_OFFLINE_SEED",
]

# Factory seeding is deliberately *not* drawn from the protocol rng: triple
# values never influence Beaver outputs, and keeping the offline stream out
# of the protocol's coin stream is what makes dealer-fed and factory-fed
# constructions byte-identical.
DEFAULT_OFFLINE_SEED = 0x0FF1CE

TRIPLE_SOURCES = ("dealer", "factory")


@dataclass
class IncrementalBetaState:
    """Everything a construction must hold to be maintained incrementally.

    Captured by ``secure_beta_calculation(..., keep_state=True)`` and
    consumed (and updated in place) by :func:`secure_beta_update`.  The
    secret material -- coordinator frequency shares and the CountBelow tree
    levels -- never leaves the coordinators in a deployment; the public
    material (λ, selection bits, opened frequencies, β) is exactly what a
    full run reveals anyway.  Per-identity inputs and secrets are held as
    arrays; the public outputs keep the types of :class:`SecureBetaResult`.

    A *blank* state -- what a from-scratch run starts its one pass from --
    holds no SecSumShare result, thresholds or coins yet (``None``) and
    zero-filled CountBelow trees.
    """

    m: int
    c: int
    policy: BetaPolicy
    epsilons: np.ndarray  # (n,) float
    thresholds: Optional[np.ndarray]  # (n,) int64
    common_sigma_threshold: float
    high_threshold: int
    ring: Zq
    secsum: Optional[SecSumResult]
    count_state: CountBelowState
    coins: Optional[np.ndarray]  # persisted (n, c*COIN_BITS) decoy-coin matrix
    lambda_: float
    publish_as_one: list[int]
    betas: np.ndarray
    opened_frequencies: dict[int, int]

    @property
    def n_identities(self) -> int:
        return len(self.epsilons)


@dataclass
class IncrementalPassInfo:
    """Public shape of one incremental pass (for accounting + benchmarks)."""

    dirty: list[int]  # identities whose inputs changed
    closure: list[int]  # identities securely re-evaluated in selection
    lambda_before: float
    lambda_after: float
    triple_words_provisioned: int = 0


def selection_closure(
    dirty: list[int],
    publish_as_one: list[int],
    lambda_scaled_before: int,
    lambda_scaled_after: int,
) -> list[int]:
    """Identities whose selection bit can change under this pass.

    The dirty identities always re-run (their frequency shares moved).  A
    *clean* identity's circuit ``common_j OR (r_j < λ)`` has both operands
    frozen except λ, and both disjuncts are monotone in λ, so with the
    persisted coin ``r_j``:

    * λ unchanged -- no clean bit can move: closure = dirty set only;
    * λ increased -- a clean 1 stays 1 (whichever disjunct held still
      holds); only clean 0s (the identities *below* the old rank boundary)
      can cross ``r_j < λ``;
    * λ decreased -- a clean 0 stays 0; only clean 1s can lose their coin.

    Everything outside the returned closure provably keeps its previous
    public bit, which is the dirty-set-closure argument (DESIGN.md §7.10)
    that makes the incremental pass exact rather than approximate.
    """
    publish = np.asarray(publish_as_one, dtype=bool)
    if lambda_scaled_after > lambda_scaled_before:
        member = ~publish
    elif lambda_scaled_after < lambda_scaled_before:
        member = publish.copy()
    else:
        member = np.zeros(len(publish), dtype=bool)
    member[np.asarray(dirty, dtype=np.int64)] = True
    return np.flatnonzero(member).tolist()


@dataclass
class SecureBetaResult:
    """Outputs and full accounting of one secure β calculation."""

    betas: np.ndarray  # final per-identity publishing probabilities
    n_common: int  # truly common count, revealed by CountBelow
    n_natural_decoys: int  # broadcast-but-not-common count, ditto
    xi: float  # revealed by CountBelow
    lambda_: float  # public mixing probability (Eq. 7)
    publish_as_one: list[int]  # per-identity selection bits (public)
    opened_frequencies: dict[int, int]  # identity -> opened frequency
    thresholds: list[int]  # public per-identity frequency thresholds
    secsum: SecSumResult
    count_result: CountBelowResult
    selection_result: SelectionResult
    # Per-phase setup/offline/online accounting; populated when triples come
    # from the offline factory, None under the trusted dealer.
    phases: Optional[PhaseReport] = None
    # Held material for incremental maintenance (``keep_state=True`` full
    # runs and every :func:`secure_beta_update` result).
    state: Optional[IncrementalBetaState] = None
    # Populated only by :func:`secure_beta_update`.
    incremental: Optional[IncrementalPassInfo] = None

    @property
    def total_and_gates(self) -> int:
        return self.count_result.stats.and_gates + self.selection_result.stats.and_gates

    @property
    def total_circuit_size(self) -> int:
        return self.count_result.total_gates + self.selection_result.total_gates


def secure_beta_calculation(
    provider_bits: list[list[int]],
    epsilons: list[float],
    policy: BetaPolicy,
    c: int,
    rng: random.Random,
    common_sigma_threshold: float = 0.5,
    engine: str = "batch",
    triple_source: str = "dealer",
    factory: TripleFactory | None = None,
    offline_producers: int = 2,
    keep_state: bool = False,
    coins: Optional[np.ndarray] = None,
) -> SecureBetaResult:
    """Run Alg. 1 over ``m`` providers' private bits for ``n`` identities.

    The run is the incremental pass of :func:`secure_beta_update` over a
    blank held state with every identity dirty -- so its closure is the
    whole universe (DESIGN.md §7.10) and "incremental ≡ from-scratch" holds
    by construction.

    ``coins`` replays an explicit decoy-coin matrix through the selection
    stage instead of drawing fresh coins from ``rng`` -- the knob that makes
    a from-scratch run byte-comparable to an incremental
    :func:`secure_beta_update` chain holding those coins.

    ``provider_bits[i][j]`` is provider ``i``'s membership bit for identity
    ``j``.  ``c`` is the collusion-tolerance parameter (number of
    coordinators / shares).  ``common_sigma_threshold`` is the public bound
    separating truly common identities from natural decoys (see
    :mod:`repro.core.mixing`).  Both MPC stages evaluate the identity
    universe bitsliced, 64 to a word (see :mod:`repro.mpc.countbelow`).
    ``engine`` accepts only ``"batch"``: it is kept solely because the
    frozen benchmark harness (``benchmarks/e2e``) still passes it.

    ``triple_source`` picks where Beaver triples come from: ``"dealer"``
    keeps the trusted dealer; ``"factory"`` streams them from the dealerless
    offline pipeline (:mod:`repro.mpc.offline`), with production running
    concurrently with (and ahead of) the online evaluation.  Pass a started
    ``factory`` to manage its lifecycle (and quotas) yourself -- e.g. a
    pre-filled factory for a sequential offline-then-online baseline;
    otherwise one is created with the exact demand (count-phase words up
    front, selection words topped up once λ is public) and closed before
    returning.  Outputs are byte-identical across both sources: triple
    values never leak into Beaver-masked results, and the engine's coin
    stream does not depend on the source.

    ``keep_state=True`` additionally returns the held secret material on
    ``result.state`` so later churn can be folded in with
    :func:`secure_beta_update` at cost ``O(k)`` in the dirty count instead
    of a full rerun.
    """
    m = len(provider_bits)
    if m == 0:
        raise ValueError("need at least one provider")
    n_ids = len(provider_bits[0])
    if len(epsilons) != n_ids:
        raise ValueError(
            f"need one epsilon per identity ({n_ids}), got {len(epsilons)}"
        )
    # The frozen benchmark harness is the only caller still passing
    # ``engine``; drop the keyword once it no longer does.
    if engine != "batch":
        raise ValueError(f"unknown engine {engine!r}: only 'batch' remains")
    ring = Zq(default_modulus_for_sum(m))
    high_threshold = max(1, math.ceil(common_sigma_threshold * m))
    epsilons = np.array(epsilons, dtype=float)  # owned: the state keeps it
    blank = IncrementalBetaState(
        m=m,
        c=c,
        policy=policy,
        epsilons=epsilons,
        thresholds=None,  # O(n): computed once the factory is producing
        common_sigma_threshold=common_sigma_threshold,
        high_threshold=high_threshold,
        ring=ring,
        secsum=None,
        count_state=CountBelowState.blank(
            c, epsilons, (ring.q - 1).bit_length(), high_threshold
        ),
        coins=coins,
        # The nominal non-degenerate λ the selection stage is provisioned
        # against before the real one is public: the selection circuit's AND
        # count does not depend on λ's value (only the degenerate λ ∈ {0, 1}
        # folds the coin comparator away, shrinking the circuit), so this is
        # the exact demand in the common case and a safe over-estimate in
        # the degenerate ones.
        lambda_=1.0 / (1 << COIN_BITS),
        publish_as_one=[0] * n_ids,
        betas=np.ones(n_ids, dtype=float),
        opened_frequencies={},
    )
    result = _secure_beta_pass(
        blank, provider_bits, np.arange(n_ids), rng, triple_source, factory,
        offline_producers,
    )
    result.incremental = None  # a full run is not reported as a maintenance pass
    if not keep_state:
        result.state = result.count_result.state = None
    return result


def secure_beta_update(
    state: IncrementalBetaState,
    provider_bits: list[list[int]],
    dirty: list[int],
    rng: random.Random,
    triple_source: str = "dealer",
    factory: TripleFactory | None = None,
    offline_producers: int = 2,
) -> SecureBetaResult:
    """Fold churn into a held construction at ``O(k)`` secure cost.

    ``state`` is the result of a ``keep_state=True`` full run (or a previous
    update -- the state threads through); ``provider_bits`` is the providers'
    *new* full bit matrix and ``dirty`` names the identity columns whose
    bits may have changed.  The pass re-runs SecSumShare only over the dirty
    columns (:meth:`~repro.mpc.secsum.SecSumShare.apply_delta`), patches the
    CountBelow reduction tree along the dirty leaves' root paths
    (:func:`~repro.mpc.countbelow.update_count_below`), recomputes the
    public λ, and securely re-evaluates selection for the dirty set plus
    the λ-drift closure (:func:`selection_closure`) -- every identity
    outside the closure provably keeps its previous public bit, so the
    result is *identical* to a from-scratch run over the updated inputs
    evaluated with the persisted decoy coins.

    ``triple_source="factory"`` provisions the pass λ-exactly: incremental
    count words plus a nominal dirty-only selection estimate up front, with
    an ``add_quota`` top-up once λ (and hence the closure) is public.
    ``state`` is updated in place and re-attached to the returned result, so
    updates chain.  The returned :class:`SecureBetaResult` carries
    full-universe outputs (β, selection bits, opened frequencies) plus an
    :class:`IncrementalPassInfo` describing the pass.
    """
    return _secure_beta_pass(
        state, provider_bits, dirty, rng, triple_source, factory,
        offline_producers,
    )


def _secure_beta_pass(
    state: IncrementalBetaState,
    provider_bits: list[list[int]],
    dirty,
    rng: random.Random,
    triple_source: str,
    factory: TripleFactory | None,
    offline_producers: int,
) -> SecureBetaResult:
    """One pass of the Eq. 9 flow over ``dirty``, folded into ``state``.

    The only implementation of phase 1: a blank ``state`` (no SecSumShare
    result held yet) with every identity dirty is the from-scratch run.
    """
    m, c = state.m, state.c
    ring = state.ring
    n_ids = state.n_identities
    if triple_source not in TRIPLE_SOURCES:
        raise ValueError(
            f"unknown triple_source {triple_source!r} (expected one of {TRIPLE_SOURCES})"
        )
    if factory is not None and triple_source != "factory":
        raise ValueError("passing a factory requires triple_source='factory'")
    if len(provider_bits) != m:
        raise ValueError(f"expected bits from {m} providers, got {len(provider_bits)}")
    for i, row in enumerate(provider_bits):
        if len(row) != n_ids:
            raise ValueError(
                f"provider {i} supplied {len(row)} bits, expected {n_ids}"
            )
    dirty_ids = identity_ids(dirty, n_ids, "dirty")
    dirty_columns = dirty_ids.tolist()

    call_start = time.perf_counter()
    lambda_before = state.lambda_
    lambda_scaled_before = round(lambda_before * (1 << COIN_BITS))

    own_factory = None
    source = None
    provisioned = 0
    # An empty dirty set re-evaluates nothing: the count stage returns its
    # held aggregates, so λ and the closure cannot move, and no factory (nor
    # its base-OT setup) is started -- every phase reports zero.
    if triple_source == "factory" and factory is None and dirty_ids.size:
        # λ-exact provisioning: the count-phase demand is fully determined
        # by the dirty set, and the selection demand by the closure -- which
        # needs λ.  Nominally the closure is just the dirty set (λ unmoved);
        # any λ drift widens it, covered by the add_quota top-up once λ is
        # public.  Provisioning early keeps the producers streaming through
        # the count phase instead of stalling on the λ barrier.  The demand
        # is threshold-independent, so the factory starts *before* every
        # O(n) clear-text step below (thresholds, SecSumShare) -- serial
        # prep hidden under production.  The demand is priced by the
        # closed-form schedule walk (imported here: the cost model itself
        # imports ``repro.mpc``).
        from repro.analysis.cost_model import ConstructionCostModel

        model = ConstructionCostModel(
            m, n_ids, c, common_sigma_threshold=state.common_sigma_threshold
        )
        provisioned = model.incremental_count_words(
            state.count_state.leaves(dirty_ids)
        ) + model.incremental_selection_words(len(dirty_ids), lambda_scaled_before)
        own_factory = TripleFactory(
            parties=c,
            seed=DEFAULT_OFFLINE_SEED,
            target_words=provisioned,
            producers=offline_producers,
        ).start()
        factory = own_factory
    if factory is not None:
        source = factory.source()

    try:
        # Public per-identity thresholds t_j = ceil(σ'_j · m) (Alg. 1, line 2).
        if state.thresholds is None:
            state.thresholds = frequency_thresholds(state.policy, state.epsilons, m)

        # Stage 1.1: SecSumShare (paper Fig. 3, phase 1.1) over the dirty
        # columns -- triple production is already running underneath it in
        # factory mode.  Only the dirty columns are read, so only they are
        # gathered (once) and validated; a blank state takes the whole
        # matrix as one array (``apply_delta`` over zeros with every column
        # dirty *is* ``run``, minus its per-column gather).
        secsum = SecSumShare(m=m, c=c, ring=ring, rng=rng)
        if state.secsum is None:
            sum_result = secsum.run(_bit_matrix(provider_bits))
        else:
            sum_result = secsum.apply_delta(
                state.secsum,
                _bit_matrix([[row[j] for j in dirty_columns] for row in provider_bits]),
                dirty_columns,
            )

        # Stage 1.2a: CountBelow under generic MPC (Alg. 1, line 3) -- the
        # held reduction tree patched along the dirty root paths, the three
        # root aggregates re-opened.
        online_start = time.perf_counter()
        count_result = update_count_below(
            state.count_state,
            sum_result.coordinator_shares,
            dirty_ids,
            state.thresholds,
            ring,
            rng,
            triple_source=source,
        )

        # λ is computed from public values only (Eq. 7, net of natural decoys).
        lambda_ = compute_lambda(
            count_result.n_common,
            n_ids,
            count_result.xi,
            n_natural_decoys=count_result.n_natural_decoys,
        )
        lambda_scaled_after = round(lambda_ * (1 << COIN_BITS))

        # The closure: dirty identities plus the clean identities whose
        # persisted coin comparison can flip under the λ drift.
        publish = np.array(state.publish_as_one, dtype=np.uint8)
        closure = selection_closure(
            dirty_ids, publish, lambda_scaled_before, lambda_scaled_after
        )

        # λ is now public, so the selection stage's exact triple demand is
        # known; top up the auto-managed factory if the nominal provisioning
        # fell short.
        if own_factory is not None:
            exact = source.words_consumed + model.incremental_selection_words(
                len(closure), lambda_scaled_after
            )
            if exact > provisioned:
                own_factory.add_quota(exact - provisioned)

        # Stage 1.2b: per-identity β-selection over the closure, with the
        # persisted coins (drawn here on a blank state), fed the broadcast
        # shares CountBelow's leaves hold.
        if state.coins is None:
            state.coins = draw_decoy_coins(rng, n_ids, c)
        selection_result = run_beta_selection_subset(
            state.count_state, lambda_, rng, closure, state.coins,
            triple_source=source,
        )
        state.coins = selection_result.coins
        online_end = time.perf_counter()
    finally:
        if own_factory is not None:
            own_factory.close()

    # Priced after close: an owned factory's producers are joined, so its
    # word count and offline stats are one consistent snapshot.
    phases = None
    if source is not None:
        phases = _build_phase_report(
            factory, source, call_start, online_start, online_end,
            count_result, selection_result,
        )
    elif triple_source == "factory":
        phases = PhaseReport()

    # Non-private end of the flow (Eq. 9): open σ only for the closure's
    # *unselected* identities, evaluate the heavy β* math in the clear, and
    # splice the closure's fresh public bits into the held full-universe
    # outputs; everything outside the closure keeps its previous bit (the
    # §7.10 argument) and, being clean, its previous frequency and β.
    closure_ids = np.asarray(closure, dtype=np.int64)
    selected = np.asarray(selection_result.publish_as_one, dtype=bool)
    publish[closure_ids] = selected
    reselected, reopened = closure_ids[selected], closure_ids[~selected]
    freqs = sum_result.reconstruct_many(ring, reopened)
    betas = state.betas.copy()
    betas[reselected] = 1.0
    betas[reopened] = state.policy.beta_vector(
        freqs / m, state.epsilons[reopened], m
    )
    opened = dict(state.opened_frequencies)
    for j in reselected.tolist():
        opened.pop(j, None)
    opened.update(zip(reopened.tolist(), freqs.tolist()))

    state.secsum = sum_result
    state.lambda_ = lambda_
    state.publish_as_one = publish.tolist()
    state.betas = betas.copy()
    state.opened_frequencies = dict(opened)

    return SecureBetaResult(
        betas=betas,
        n_common=count_result.n_common,
        n_natural_decoys=count_result.n_natural_decoys,
        xi=count_result.xi,
        lambda_=lambda_,
        publish_as_one=publish.tolist(),
        opened_frequencies=opened,
        thresholds=state.thresholds.tolist(),
        secsum=sum_result,
        count_result=count_result,
        selection_result=selection_result,
        phases=phases,
        state=state,
        incremental=IncrementalPassInfo(
            dirty=dirty_columns,
            closure=closure,
            lambda_before=lambda_before,
            lambda_after=lambda_,
            triple_words_provisioned=provisioned,
        ),
    )


def _bit_matrix(provider_bits) -> np.ndarray:
    """``provider_bits`` as a uint8 array, every entry checked to be a bit
    in one array test."""
    raw = np.asarray(provider_bits)
    bad = (raw != 0) & (raw != 1)
    if bad.any():
        i, j = np.argwhere(bad)[0]
        raise ValueError(f"provider {i} supplied non-bit value {raw[i, j]}")
    return raw.astype(np.uint8, copy=False)


def _build_phase_report(
    factory: TripleFactory,
    source,
    call_start: float,
    online_start: float,
    online_end: float,
    count_result: CountBelowResult,
    selection_result: SelectionResult,
) -> PhaseReport:
    """Assemble the setup/offline/online split for one factory-fed run."""
    report = PhaseReport()
    report.setup.add(factory.setup_stats)
    report.offline.add(factory.offline_stats)
    # Offline wall time is the production *span* (parallel producers), not
    # summed producer busy time; the overlap with this call's protocol work
    # is the part the pipeline hid from the critical path.
    p0 = factory.started_at if factory.started_at is not None else call_start
    p1 = factory.finished_at if factory.finished_at is not None else online_end
    report.offline.wall_time_s = max(0.0, p1 - p0)
    report.offline.hidden_time_s = max(
        0.0, min(p1, online_end) - max(p0, call_start)
    )
    online = report.online
    for stats in (count_result.stats, selection_result.stats):
        online.bits_sent += stats.bits_sent
        online.messages += stats.messages
        online.rounds += stats.rounds
    online.wall_time_s = online_end - online_start
    report.triple_words_produced = factory.words_produced
    report.triple_words_consumed = source.words_consumed
    report.stall_time_s = source.stall_time_s
    return report

