"""CountBelow and secure β-selection: the generic-MPC stage (paper Alg. 2).

The ``c`` coordinators arrive here holding additive shares ``s(k, j)`` of
each identity's frequency (SecSumShare outputs).  Two circuits are compiled
and evaluated under GMW (:mod:`repro.mpc.gmw` -- our FairplayMP stand-in):

1. **CountBelow** (Alg. 2) -- reconstruct each ``S[j] = Σ_k s(k, j)``
   *inside the circuit* (modular adder over ``Z_{2^w}``), compare against the
   public per-identity threshold ``t_j``, and reveal only

   * the number of common identities (``S[j] >= t_j`` count), and
   * ξ = max ǫ over common identities (needed to set λ, Sec. III-B-2) --
     computed as a mux/max tree over the public ǫ values gated by the secret
     common bits.

2. **β-selection** -- after λ is public, a second circuit decides per
   identity whether it is published with β = 1: ``common_j OR decoy_j``
   where the decoy coin ``decoy_j = (r_j < λ·2^k)`` is drawn from jointly
   random bits contributed by all coordinators (so no single party knows
   which non-common identities are decoys -- required for the mixing defence
   to survive collusion, see paper Sec. III-B-2).

Identities whose selection bit is 0 are *opened*: their frequency shares are
exchanged and β* is computed in the clear (cheap, non-secure end of the
Eq. 9 computation flow).  This is exactly the paper's "push complex
computation toward the non-private end" optimization.

Evaluation
----------
Both protocols are evaluated in *decomposed* form: one small cached circuit
per identity (thresholds/ǫ as public input bits, so the structure is
identity-independent) plus staged pairwise reduction trees over the unopened
per-identity output shares.  Every stage's whole fleet runs bitsliced, 64
identities per machine word, in one pass through
:class:`~repro.mpc.gmw.BatchGMWEngine`, including the reduction-tree levels
(which stay wide enough to fill lanes until the very top).

The monolithic builders :func:`build_count_circuit` and
:func:`build_selection_circuit` -- one circuit covering every identity, with
thresholds and ǫ baked in as constants -- are not evaluated by any pipeline.
They remain as the Fig. 6b circuit-size reference and the optimizer
ablation's input.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np

from repro.mpc.circuits import (
    Circuit,
    CircuitBuilder,
    less_than,
    less_than_const,
    popcount,
    ripple_add,
    ripple_add_mod2k,
)
from repro.mpc.circuits.compiled import compile_circuit
from repro.mpc.circuits.evaluator import bit_matrix_to_ints, ints_to_bit_matrix
from repro.mpc.field import Zq
from repro.mpc.gmw import (
    BatchGMWEngine,
    BatchGMWResult,
    GMWStats,
    account_output_opening,
    expected_stats,
)

__all__ = [
    "CountBelowResult",
    "CountBelowState",
    "SelectionResult",
    "build_count_circuit",
    "build_selection_circuit",
    "build_count_identity_circuit",
    "build_selection_identity_circuit",
    "run_count_below",
    "run_beta_selection",
    "run_beta_selection_subset",
    "draw_decoy_coins",
    "dirty_root_paths",
    "identity_ids",
    "COUNT_TREES",
    "update_count_below",
    "EPSILON_SCALE_BITS",
    "COIN_BITS",
    "max_tree",
    "scale_epsilon",
    "scale_epsilons",
]

# Fixed-point resolution for public ǫ values inside the ξ-max circuit.
EPSILON_SCALE_BITS = 10
# Resolution of the Bernoulli(λ) decoy coins.
COIN_BITS = 16


@dataclass
class CountBelowState:
    """Held secret material that makes CountBelow incrementally updatable.

    Consumed and updated in place by :func:`update_count_below`; a
    from-scratch run is that update over :meth:`blank` with every identity
    dirty.  Holds, per reduction tree (truly-common sum, natural-decoy sum,
    gated-ǫ max), *every level's* share array: ``levels[0]`` are the
    per-identity output shares of the count-identity circuit (the tree
    leaves) and ``levels[-1]`` is the single-element root.  A delta
    touching ``k`` leaves then re-evaluates only the ``O(k log n)`` pair
    circuits on the dirty root paths instead of rebuilding all ``n - 1``
    internal nodes, and re-opens only the three roots -- exactly the values
    a from-scratch run would reveal, so the incremental pass leaks nothing
    beyond a full one.
    """

    width: int
    high_threshold: int
    n_identities: int
    truly_levels: list  # list[np.ndarray], each (parties, n_level, w_level)
    natural_levels: list
    xi_levels: list
    # Opened aggregates of the last (full or incremental) evaluation.
    n_common: int = 0
    n_natural_decoys: int = 0
    xi_scaled: int = 0

    @classmethod
    def blank(
        cls, parties: int, n_identities: int, width: int, high_threshold: int
    ) -> "CountBelowState":
        """Zero-filled trees over ``n_identities`` leaves, nothing evaluated.

        Level sizes run ``n -> ceil(n/2) -> ... -> 1`` and level widths
        follow the pair circuits' output widths -- the shapes
        :func:`_secure_tree_update` writes into.
        """
        if n_identities < 1:
            raise ValueError("reduction over zero elements")
        stacks = {}
        for attr, pair_circuit, w in COUNT_TREES:
            stacks[attr] = levels = []
            n = n_identities
            while True:
                levels.append(np.zeros((parties, n, w), dtype=np.uint8))
                if n == 1:
                    break
                w = len(pair_circuit(w).outputs)
                n = (n + 1) // 2
        return cls(
            width=width,
            high_threshold=high_threshold,
            n_identities=n_identities,
            **stacks,
        )


@dataclass
class CountBelowResult:
    """Public outputs of the CountBelow MPC.

    ``n_common`` counts *truly common* identities (frequency at/above the
    public high threshold); ``n_natural_decoys`` counts identities whose β
    forces broadcast (frequency ≥ t_j) but which are not frequency-common --
    they already serve as decoys for the mixing defence (see
    :mod:`repro.core.mixing`).
    """

    n_common: int
    n_natural_decoys: int
    xi_scaled: int  # max ǫ over truly commons, scaled by 2^EPSILON_SCALE_BITS
    stats: GMWStats
    circuit: Circuit  # the per-identity count circuit
    # Total non-free gates evaluated across all instances and tree levels.
    total_gates: int
    # Per-identity stats of one count-identity instance.
    stats_per_identity: GMWStats
    # Held tree material for incremental maintenance (``keep_state=True``).
    state: Optional[CountBelowState] = None

    @property
    def xi(self) -> float:
        return self.xi_scaled / (1 << EPSILON_SCALE_BITS)


@dataclass
class SelectionResult:
    """Public outputs of the β-selection MPC."""

    publish_as_one: list[int]  # per-identity bit: β forced to 1
    stats: GMWStats
    circuit: Circuit  # the per-identity selection circuit
    total_gates: int
    stats_per_identity: GMWStats
    # The (n, c*COIN_BITS) decoy-coin bit matrix the run evaluated with.
    # Persisting it is what lets an incremental re-selection reproduce every
    # clean identity's coin comparison bit-for-bit -- the sticky-decoy
    # requirement of intersection-closed republication.
    coins: np.ndarray


def build_count_circuit(
    c: int,
    thresholds: list[int],
    epsilons_scaled: list[int],
    width: int,
    high_threshold: int,
) -> Circuit:
    """Compile Alg. 2 (+ ξ computation) for ``len(thresholds)`` identities.

    Input layout: party-major -- for coordinator ``k``, for identity ``j``,
    ``width`` little-endian bits of share ``s(k, j)``.

    Per identity the circuit derives ``broadcast_j = S_j ≥ t_j`` (β forced
    to 1) and ``high_j = S_j ≥ high_threshold`` (frequency-common); it
    reveals only three aggregates: the truly-common count
    (broadcast ∧ high), the natural-decoy count (broadcast ∧ ¬high), and
    ξ = max ǫ over the truly common.

    Builds are memoized on the full parameter tuple: repeated runs over the
    same policy (the common case in benchmarks and the construction
    simulator) pay circuit compilation once.
    """
    if len(thresholds) != len(epsilons_scaled):
        raise ValueError("thresholds/epsilons must align")
    return _build_count_circuit_cached(
        c, tuple(thresholds), tuple(epsilons_scaled), width, high_threshold
    )


@lru_cache(maxsize=32)
def _build_count_circuit_cached(
    c: int,
    thresholds: tuple,
    epsilons_scaled: tuple,
    width: int,
    high_threshold: int,
) -> Circuit:
    n_ids = len(thresholds)
    b = CircuitBuilder()
    # Declare all inputs first (party-major order).
    share_bits = [
        [b.input_bits(width) for _ in range(n_ids)] for _ in range(c)
    ]
    truly_bits = []
    natural_bits = []
    for j, t in enumerate(thresholds):
        total = share_bits[0][j]
        for k in range(1, c):
            total = ripple_add_mod2k(b, total, share_bits[k][j])
        if t > (1 << width) - 1:
            broadcast = b.zero()  # threshold unreachable: never broadcast
        else:
            broadcast = b.not_(less_than_const(b, total, t))
        if high_threshold > (1 << width) - 1:
            high = b.zero()
        else:
            high = b.not_(less_than_const(b, total, high_threshold))
        truly = b.and_(broadcast, high)
        truly_bits.append(truly)
        natural_bits.append(b.and_(broadcast, b.not_(high)))
    count_truly = popcount(b, truly_bits)
    count_natural = popcount(b, natural_bits)
    # ξ = max over j of (truly_j ? ǫ_j : 0), as a mux/max tree.
    zero_eps = b.constant_bits(0, EPSILON_SCALE_BITS)
    gated = [
        b.mux_bits(
            truly_bits[j],
            b.constant_bits(epsilons_scaled[j], EPSILON_SCALE_BITS),
            zero_eps,
        )
        for j in range(n_ids)
    ]
    xi = max_tree(b, gated)
    b.output_bits(count_truly)
    b.output_bits(count_natural)
    b.output_bits(xi)
    return b.build()


def build_selection_circuit(
    c: int, thresholds: list[int], lambda_scaled: int, width: int
) -> Circuit:
    """Compile the per-identity β-selection: ``common_j OR (r_j < λ)``.

    Input layout: for each coordinator, first its frequency-share bits
    (identity-major), then its ``COIN_BITS`` random bits per identity.  The
    XOR of all parties' random bits yields jointly uniform ``r_j``.

    Memoized like :func:`build_count_circuit`.
    """
    if not 0 <= lambda_scaled <= (1 << COIN_BITS):
        raise ValueError(f"lambda_scaled out of range: {lambda_scaled}")
    return _build_selection_circuit_cached(c, tuple(thresholds), lambda_scaled, width)


@lru_cache(maxsize=32)
def _build_selection_circuit_cached(
    c: int, thresholds: tuple, lambda_scaled: int, width: int
) -> Circuit:
    n_ids = len(thresholds)
    b = CircuitBuilder()
    share_bits = []
    rand_bits = []
    for _ in range(c):
        share_bits.append([b.input_bits(width) for _ in range(n_ids)])
        rand_bits.append([b.input_bits(COIN_BITS) for _ in range(n_ids)])
    for j, t in enumerate(thresholds):
        total = share_bits[0][j]
        for k in range(1, c):
            total = ripple_add_mod2k(b, total, share_bits[k][j])
        if t > (1 << width) - 1:
            common = b.zero()
        else:
            common = b.not_(less_than_const(b, total, t))
        # Jointly random value r_j = XOR of all parties' contributions.
        r = [
            b.xor_many([rand_bits[k][j][i] for k in range(c)])
            for i in range(COIN_BITS)
        ]
        if lambda_scaled >= (1 << COIN_BITS):
            coin = b.one()
        elif lambda_scaled == 0:
            coin = b.zero()
        else:
            coin = less_than_const(b, r, lambda_scaled)
        b.output(b.or_(common, coin))
    return b.build()


# -- decomposed (per-identity) circuits ---------------------------------------


@lru_cache(maxsize=None)
def build_count_identity_circuit(
    c: int, width: int, high_threshold: int, eps_bits: int = EPSILON_SCALE_BITS
) -> Circuit:
    """One identity's slice of Alg. 2, with identity-specific data as inputs.

    The monolithic :func:`build_count_circuit` bakes every identity's
    threshold and ǫ in as constants, so each identity gets a structurally
    different circuit -- useless for bitslicing.  Here the per-identity data
    travels as *public input bits* instead, making one cached circuit serve
    the whole identity universe:

    * ``c * width`` bits -- the coordinators' frequency shares ``s(k, j)``;
    * ``width`` bits -- the public threshold ``t_j`` (clamped to 0 when
      unrepresentable);
    * 1 ``reach`` bit -- 0 iff ``t_j`` exceeds the ring maximum, forcing
      ``broadcast = 0`` exactly like the monolithic builder's constant-zero
      arm;
    * ``eps_bits`` bits -- the scaled public ǫ_j.

    ``high_threshold`` stays a baked constant (it is uniform across the run
    and part of the cache key).  Outputs, kept *unopened* for the reduction
    trees: ``truly_j``, ``natural_j``, and the gated ǫ
    (``truly_j ? ǫ_j : 0``, one AND per bit).
    """
    b = CircuitBuilder()
    share_bits = [b.input_bits(width) for _ in range(c)]
    t_bits = b.input_bits(width)
    reach = b.input_bit()
    eps_in = b.input_bits(eps_bits)
    total = share_bits[0]
    for k in range(1, c):
        total = ripple_add_mod2k(b, total, share_bits[k])
    broadcast = b.and_(b.not_(less_than(b, total, t_bits)), reach)
    if high_threshold > (1 << width) - 1:
        high = b.zero()
    else:
        high = b.not_(less_than_const(b, total, high_threshold))
    truly = b.and_(broadcast, high)
    b.output(truly)
    b.output(b.and_(broadcast, b.not_(high)))
    for bit in eps_in:
        b.output(b.and_(truly, bit))
    return b.build()


@lru_cache(maxsize=None)
def build_selection_identity_circuit(
    c: int, width: int, lambda_scaled: int, coin_bits: int = COIN_BITS
) -> Circuit:
    """One identity's β-selection: ``(S ≥ t AND reach) OR (r < λ)``.

    Same input-lifting as :func:`build_count_identity_circuit`; λ stays a
    baked constant (uniform per run, part of the cache key).  The single
    output bit is public per identity, so it is opened directly -- no
    reduction stage needed.
    """
    if not 0 <= lambda_scaled <= (1 << coin_bits):
        raise ValueError(f"lambda_scaled out of range: {lambda_scaled}")
    b = CircuitBuilder()
    share_bits = [b.input_bits(width) for _ in range(c)]
    rand_bits = [b.input_bits(coin_bits) for _ in range(c)]
    t_bits = b.input_bits(width)
    reach = b.input_bit()
    total = share_bits[0]
    for k in range(1, c):
        total = ripple_add_mod2k(b, total, share_bits[k])
    common = b.and_(b.not_(less_than(b, total, t_bits)), reach)
    r = [b.xor_many([rand_bits[k][i] for k in range(c)]) for i in range(coin_bits)]
    if lambda_scaled >= (1 << coin_bits):
        coin = b.one()
    elif lambda_scaled == 0:
        coin = b.zero()
    else:
        coin = less_than_const(b, r, lambda_scaled)
    b.output(b.or_(common, coin))
    return b.build()


@lru_cache(maxsize=None)
def _pair_sum_circuit(width: int) -> Circuit:
    """``x + y`` over two ``width``-bit operands, full ``width + 1``-bit out."""
    b = CircuitBuilder()
    x = b.input_bits(width)
    y = b.input_bits(width)
    b.output_bits(ripple_add(b, x, y))
    return b.build()


@lru_cache(maxsize=None)
def _pair_max_circuit(width: int) -> Circuit:
    """``max(x, y)`` over two ``width``-bit operands."""
    b = CircuitBuilder()
    x = b.input_bits(width)
    y = b.input_bits(width)
    b.output_bits(b.mux_bits(less_than(b, x, y), y, x))
    return b.build()


# CountBelow's three reduction trees: the :class:`CountBelowState` attribute
# holding each one's levels, its pair circuit (by operand width), and the
# width of its leaves (the count-identity circuit's output slices, in order).
COUNT_TREES = (
    ("truly_levels", _pair_sum_circuit, 1),
    ("natural_levels", _pair_sum_circuit, 1),
    ("xi_levels", _pair_max_circuit, EPSILON_SCALE_BITS),
)


def _run_stage(
    circuit: Circuit,
    parties: int,
    rng: random.Random,
    plain: Optional[np.ndarray] = None,
    shared: Optional[np.ndarray] = None,
    open_outputs: bool = True,
    triple_source=None,
) -> tuple[BatchGMWResult, int]:
    """Evaluate ``n`` instances of ``circuit`` as one bitsliced fleet.

    Exactly one of ``plain`` (an ``(n, n_inputs)`` plaintext bit matrix,
    shared internally) and ``shared`` (a ``(parties, n, n_inputs)`` matrix of
    existing XOR share bits) must be given.  Returns the engine's result and
    the non-free gates evaluated across all instances.

    ``triple_source`` optionally replaces the per-stage trusted dealer with
    an offline source (see :mod:`repro.mpc.offline`); one source is shared
    across every stage of a construction so preprocessing is drawn down
    sequentially.
    """
    if (plain is None) == (shared is None):
        raise ValueError("exactly one of plain/shared inputs required")
    eng = BatchGMWEngine(circuit, parties, rng, triple_source=triple_source)
    if plain is not None:
        res = eng.run(plain, open_outputs=open_outputs)
    else:
        res = eng.run_shared_bits(shared, open_outputs=open_outputs)
    return res, compile_circuit(circuit).gate_count * res.n_instances


def dirty_root_paths(n: int, dirty: np.ndarray) -> list[tuple[np.ndarray, bool]]:
    """The pairwise reduction tree's schedule over ``n`` leaves, ``dirty`` changed.

    ``dirty`` is a sorted, duplicate-free int64 array of leaf positions
    (:func:`identity_ids`).  One entry per level, leaves first: the sorted
    parent indices whose pair circuit has a dirty operand, and whether the
    level's odd trailing element (carried up unpaired) is dirty.  Level
    sizes run ``n -> ceil(n/2) -> ... -> 1``; with every leaf dirty every
    pair of every level is scheduled, which is the from-scratch reduction.
    :func:`_secure_tree_update` executes this schedule and
    :class:`~repro.analysis.cost_model.ConstructionCostModel` prices it.
    """
    paths = []
    while n > 1:
        n_pairs = n // 2
        dirty = _dedup_sorted(dirty // 2)
        # Leaf n-1 of an odd level maps to slot n_pairs: the carry slot.
        carry = bool(dirty.size) and int(dirty[-1]) == n_pairs
        paths.append((dirty[:-1] if carry else dirty, carry))
        n = n_pairs + n % 2
    return paths


def _secure_tree_update(
    levels: list,
    paths: list[tuple[np.ndarray, bool]],
    pair_circuit,
    parties: int,
    rng: random.Random,
    stats: GMWStats,
    triple_source=None,
) -> int:
    """Recompute a held sum/max reduction tree along dirty root paths.

    ``levels`` is the per-level share-array stack (leaves first, root last),
    each ``(parties, n_level, width_level)`` party-wise XOR share bits of
    little-endian numbers; ``levels[0]`` must already hold the *updated*
    leaf shares at the dirty positions and ``paths`` is their
    :func:`dirty_root_paths` schedule.  Level by level, only the pair
    circuits whose operands contain a dirty element are re-evaluated --
    ``pair_circuit(width)``, the 2-ary sum (width grows by 1) or max, as one
    `_run_stage` fleet, so a level with ``k`` dirty pairs is one bitsliced
    pass over ``ceil(k/64)`` words per wire -- and an odd
    trailing element is carried up zero-padded (all-zero share columns are
    a valid sharing of 0, free of communication).  ``O(k log n)`` pair
    circuits for ``k`` dirty leaves; all ``n - 1`` when every leaf is dirty.

    Returns the non-free gates evaluated; communication accumulates into
    ``stats``.  The root (``levels[-1]``) is left *shared* -- opening is
    the caller's single final round.
    """
    gates = 0
    for arr, nxt, (parents, carry_dirty) in zip(levels, levels[1:], paths):
        n, width = arr.shape[1], arr.shape[2]
        if parents.size:
            left = arr[:, 2 * parents, :]
            right = arr[:, 2 * parents + 1, :]
            stage, stage_gates = _run_stage(
                pair_circuit(width),
                parties,
                rng,
                shared=np.concatenate([left, right], axis=2),
                open_outputs=False,
                triple_source=triple_source,
            )
            stats.add(stage.stats)
            gates += stage_gates
            nxt[:, parents, :] = stage.output_shares
        if carry_dirty:
            nxt[:, n // 2, :width] = arr[:, n - 1, :]
            nxt[:, n // 2, width:] = 0
    return gates


def _open_shared_int(share_bits: np.ndarray) -> int:
    """Open one secret-shared number: XOR shares across parties, decode."""
    bits = np.bitwise_xor.reduce(share_bits, axis=0)
    return int(bit_matrix_to_ints(bits[None, :])[0])


def _dedup_sorted(values: np.ndarray) -> np.ndarray:
    keep = np.ones(values.size, dtype=bool)
    keep[1:] = values[1:] != values[:-1]
    return values[keep]


def identity_ids(ids, n_ids: int, what: str) -> np.ndarray:
    """``ids`` as a sorted, duplicate-free int64 array within ``[0, n_ids)``."""
    idx = _dedup_sorted(np.sort(np.asarray(ids, dtype=np.int64)))
    if idx.size and not 0 <= idx[0] <= idx[-1] < n_ids:
        raise ValueError(f"{what} identity out of range: {idx.tolist()}")
    return idx


def _identity_input_blocks(
    coordinator_shares,
    thresholds,
    idx: np.ndarray,
    width: int,
) -> tuple[list[np.ndarray], np.ndarray, np.ndarray]:
    """Shared input-encoding of the decomposed entry points, for ``idx``.

    ``coordinator_shares`` are the ``c`` full-universe share vectors (lists
    or a ``(c, n)`` array), ``thresholds`` the aligned vector.  Returns, for
    the ``idx`` identities, the per-coordinator share-bit blocks, the
    threshold-bit block (clamped to 0 where unrepresentable), and the reach
    column.
    """
    shares = _share_matrix(coordinator_shares)
    thresholds = np.asarray(thresholds, dtype=np.int64)
    if shares.shape[1:] != thresholds.shape:
        raise ValueError("coordinator share vectors must align with thresholds")
    thresholds = thresholds[idx]
    reach = thresholds <= (1 << width) - 1
    share_mats = [ints_to_bit_matrix(row, width) for row in shares[:, idx]]
    t_mat = ints_to_bit_matrix(np.where(reach, thresholds, 0), width)
    return share_mats, t_mat, reach.astype(np.uint8)[:, None]


def _share_matrix(coordinator_shares) -> np.ndarray:
    """The ``(c, n)`` int64 form of share vectors given as lists or arrays."""
    shares = np.asarray(coordinator_shares, dtype=np.int64)
    if shares.ndim != 2:
        raise ValueError(
            f"expected c aligned coordinator share vectors, got shape {shares.shape}"
        )
    return shares


def update_count_below(
    state: CountBelowState,
    coordinator_shares: list[list[int]],
    dirty: list[int],
    thresholds: list[int],
    epsilons: list[float],
    ring: Zq,
    rng: random.Random,
    triple_source=None,
) -> CountBelowResult:
    """CountBelow via per-identity circuits + secure reduction trees, with
    the secure work restricted to the dirty set.

    ``state`` is the held material of a prior run, or
    :meth:`CountBelowState.blank` with every identity in ``dirty`` -- the
    from-scratch run; ``coordinator_shares`` are the *updated* full share
    vectors (clean columns unchanged, dirty columns freshly re-shared via
    :meth:`~repro.mpc.secsum.SecSumShare.apply_delta`).  The count-identity
    circuit is re-evaluated only for ``dirty`` identities, the three
    reduction trees are patched along the dirty root paths
    (:func:`_secure_tree_update`), and the three roots are re-opened in one
    final round -- the same public aggregates a full run would reveal.

    ``state`` is updated in place (leaf shares, tree levels, opened
    aggregates).  An empty dirty set returns the cached aggregates with
    zero communication.
    """
    c = len(coordinator_shares)
    n_ids = len(thresholds)
    if n_ids != state.n_identities:
        raise ValueError(
            f"state covers {state.n_identities} identities, inputs {n_ids}"
        )
    if len(epsilons) != n_ids:
        raise ValueError("thresholds/epsilons must align")
    width = (ring.q - 1).bit_length()
    if width != state.width:
        raise ValueError(f"state width {state.width} != ring width {width}")
    circuit = build_count_identity_circuit(c, width, state.high_threshold)
    idx = identity_ids(dirty, n_ids, "dirty")
    totals = GMWStats(parties=c)
    if not idx.size:
        return CountBelowResult(
            n_common=state.n_common,
            n_natural_decoys=state.n_natural_decoys,
            xi_scaled=state.xi_scaled,
            stats=totals,
            circuit=circuit,
            total_gates=0,
            stats_per_identity=expected_stats(circuit, c, open_outputs=False),
            state=state,
        )

    share_mats, t_mat, reach_col = _identity_input_blocks(
        coordinator_shares, thresholds, idx, width
    )
    eps_mat = ints_to_bit_matrix(
        scale_epsilons(np.asarray(epsilons, dtype=float)[idx]), EPSILON_SCALE_BITS
    )
    inputs = np.concatenate(share_mats + [t_mat, reach_col, eps_mat], axis=1)
    stage, gates = _run_stage(
        circuit,
        c,
        rng,
        plain=inputs,
        open_outputs=False,
        triple_source=triple_source,
    )
    totals.add(stage.stats)

    # The identity circuit's outputs are the three trees' leaves, in order.
    paths = dirty_root_paths(n_ids, idx)
    roots = []
    column = 0
    for attr, pair_circuit, leaf_width in COUNT_TREES:
        levels = getattr(state, attr)
        levels[0][:, idx, :] = stage.output_shares[:, :, column : column + leaf_width]
        column += leaf_width
        gates += _secure_tree_update(
            levels, paths, pair_circuit, c, rng, totals, triple_source
        )
        roots.append(levels[-1][:, 0, :])

    # Single final opening round: the three aggregates are revealed together.
    account_output_opening(totals, c, sum(root.shape[1] for root in roots))
    state.n_common, state.n_natural_decoys, state.xi_scaled = (
        _open_shared_int(root) for root in roots
    )
    return CountBelowResult(
        n_common=state.n_common,
        n_natural_decoys=state.n_natural_decoys,
        xi_scaled=state.xi_scaled,
        stats=totals,
        circuit=circuit,
        total_gates=gates,
        stats_per_identity=stage.per_instance,
        state=state,
    )


def draw_decoy_coins(rng: random.Random, n_ids: int, parties: int) -> np.ndarray:
    """A fresh ``(n_ids, parties * COIN_BITS)`` decoy-coin bit matrix
    (numpy stream seeded from the protocol rng)."""
    np_rng = np.random.default_rng(rng.getrandbits(64))
    return np_rng.integers(0, 2, size=(n_ids, parties * COIN_BITS), dtype=np.uint8)


def run_beta_selection_subset(
    coordinator_shares: list[list[int]],
    thresholds: list[int],
    lambda_: float,
    ring: Zq,
    rng: random.Random,
    subset: list[int],
    coins: np.ndarray,
    triple_source=None,
) -> SelectionResult:
    """β-selection via the per-identity circuit (outputs public, no trees),
    evaluated only for the ``subset`` identities.

    ``coordinator_shares``/``thresholds``/``coins`` span the *full*
    identity universe, ``subset`` names the identities whose selection bit
    must be (re-)evaluated -- every identity on a from-scratch run, the
    dirty set plus the λ-drift closure computed by the caller on an
    incremental one (see :mod:`repro.mpc.betacalc`).  Coins come from the
    persisted matrix of the prior run, so an untouched identity
    re-evaluated here reproduces its previous coin comparison exactly.
    ``publish_as_one`` is aligned with sorted ``subset`` order.
    """
    c = len(coordinator_shares)
    n_ids = len(thresholds)
    width = (ring.q - 1).bit_length()
    if (1 << width) != ring.q:
        raise ValueError("selection requires a power-of-two modulus")
    if not 0.0 <= lambda_ <= 1.0:
        raise ValueError(f"lambda must be in [0, 1], got {lambda_}")
    lambda_scaled = round(lambda_ * (1 << COIN_BITS))
    circuit = build_selection_identity_circuit(c, width, lambda_scaled)
    idx = identity_ids(subset, n_ids, "subset")
    coins = np.asarray(coins, dtype=np.uint8)
    if coins.shape != (n_ids, c * COIN_BITS):
        raise ValueError(
            f"coins must have shape ({n_ids}, {c * COIN_BITS}), got {coins.shape}"
        )
    if not idx.size:
        return SelectionResult(
            publish_as_one=[],
            stats=GMWStats(parties=c),
            circuit=circuit,
            total_gates=0,
            stats_per_identity=expected_stats(circuit, c, open_outputs=True),
            coins=coins,
        )
    share_mats, t_mat, reach_col = _identity_input_blocks(
        coordinator_shares, thresholds, idx, width
    )
    inputs = np.concatenate(share_mats + [coins[idx], t_mat, reach_col], axis=1)
    stage, gates = _run_stage(
        circuit,
        c,
        rng,
        plain=inputs,
        open_outputs=True,
        triple_source=triple_source,
    )
    return SelectionResult(
        publish_as_one=stage.outputs[:, 0].tolist(),
        stats=stage.stats,
        circuit=circuit,
        total_gates=gates,
        stats_per_identity=stage.per_instance,
        coins=coins,
    )


def run_count_below(
    coordinator_shares: list[list[int]],
    thresholds: list[int],
    epsilons: list[float],
    ring: Zq,
    rng: random.Random,
    high_threshold: int | None = None,
) -> CountBelowResult:
    """Execute CountBelow under GMW among the ``c`` coordinators.

    ``high_threshold`` is the public frequency bound separating truly common
    identities from natural decoys; by default every broadcast identity
    counts as common (pass an explicit value -- typically ``ceil(0.5 m)`` --
    to enable the natural-decoy accounting).  Runs
    :func:`update_count_below` over a blank state with every identity dirty.
    """
    n_ids = len(thresholds)
    if len(epsilons) != n_ids:
        raise ValueError("thresholds/epsilons must align")
    width = (ring.q - 1).bit_length()
    if (1 << width) != ring.q:
        raise ValueError("CountBelow requires a power-of-two modulus")
    if high_threshold is None:
        high_threshold = 0  # every broadcast identity is "high"
    result = update_count_below(
        CountBelowState.blank(len(coordinator_shares), n_ids, width, high_threshold),
        coordinator_shares,
        np.arange(n_ids),
        thresholds,
        epsilons,
        ring,
        rng,
    )
    result.state = None
    return result


def run_beta_selection(
    coordinator_shares: list[list[int]],
    thresholds: list[int],
    lambda_: float,
    ring: Zq,
    rng: random.Random,
) -> SelectionResult:
    """Execute the β-selection circuit under GMW among the coordinators:
    :func:`run_beta_selection_subset` over every identity, with decoy coins
    freshly drawn from ``rng``."""
    n_ids = len(thresholds)
    coins = draw_decoy_coins(rng, n_ids, len(coordinator_shares))
    return run_beta_selection_subset(
        coordinator_shares, thresholds, lambda_, ring, rng, np.arange(n_ids), coins
    )


def scale_epsilons(epsilons) -> np.ndarray:
    """Public ǫ values as ``EPSILON_SCALE_BITS`` fixed point (int64 array)."""
    eps = np.asarray(epsilons, dtype=float)
    bad = ~((eps >= 0.0) & (eps <= 1.0))
    if bad.any():
        raise ValueError(f"epsilon must be in [0, 1], got {eps[bad][0]}")
    scale = 1 << EPSILON_SCALE_BITS
    return np.minimum(scale - 1, np.rint(eps * scale).astype(np.int64))


def scale_epsilon(epsilon: float) -> int:
    return int(scale_epsilons([epsilon])[0])


def max_tree(b: CircuitBuilder, numbers: list[list[int]]) -> list[int]:
    """Balanced unsigned-max reduction over equal-width bit vectors."""
    if not numbers:
        raise ValueError("max over zero numbers")
    level = numbers
    while len(level) > 1:
        nxt = []
        for i in range(0, len(level) - 1, 2):
            x, y = level[i], level[i + 1]
            nxt.append(b.mux_bits(less_than(b, x, y), y, x))
        if len(level) % 2:
            nxt.append(level[-1])
        level = nxt
    return level[0]
