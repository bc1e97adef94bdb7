"""Closed-form per-phase cost model for the secure β construction.

Answers, without running any MPC, three questions about a construction over
``m`` providers, ``n`` identities, and ``c`` coordinators:

* **setup** -- what the one-time base-OT emulation costs on the wire;
* **offline** -- what producing the construction's Beaver triples costs
  through the OT-extension pipeline (bits, messages, rounds), and exactly
  *how many* bitsliced triple words the engine will draw -- the number the
  :class:`~repro.mpc.offline.factory.TripleFactory` is provisioned with;
* **online** -- the GMW evaluation's communication, replicated analytically
  from the staged schedule in :mod:`repro.mpc.countbelow` via the same
  :func:`~repro.mpc.gmw.expected_stats` accounting the engine uses, so the
  model is *exact* against measured engine stats (asserted in the tests).

Shaped after pia-mpc's ``complexity.py`` phase model, but in closed form
without a symbolic-algebra dependency: every estimate carries a human-
readable ``formula`` string alongside its evaluated value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.mpc.countbelow import (
    COUNT_TREES,
    build_count_identity_circuit,
    build_selection_identity_circuit,
    dirty_root_paths,
    identity_ids,
)
from repro.mpc.field import default_modulus_for_sum
from repro.mpc.gmw import GMWStats, account_output_opening, expected_stats
from repro.mpc.offline.factory import DEFAULT_BLOCK_WORDS
from repro.mpc.offline.generator import BASE_OT_BITS_PER_OT, KAPPA
from repro.net.transport import HEADER_BITS

__all__ = ["CostEstimate", "ConstructionCostModel"]


@dataclass(frozen=True)
class CostEstimate:
    """One phase's predicted wire cost, with its derivation."""

    bits_sent: int
    messages: int
    rounds: int
    formula: str

    @property
    def bytes_sent(self) -> float:
        return self.bits_sent / 8


class ConstructionCostModel:
    """Per-phase costs of one secure construction, in closed form.

    Parameterized by the protocol sizes (``m`` providers, ``n_identities``,
    ``c`` coordinators) and the offline pipeline's shape (``kappa``,
    ``block_words``, ``producers``).
    """

    def __init__(
        self,
        m: int,
        n_identities: int,
        c: int,
        kappa: int = KAPPA,
        block_words: int = DEFAULT_BLOCK_WORDS,
        producers: int = 2,
        common_sigma_threshold: float = 0.5,
    ):
        if m < 1 or n_identities < 1 or c < 2:
            raise ValueError("need m >= 1, n_identities >= 1, c >= 2")
        self.m = m
        self.n_identities = n_identities
        self.c = c
        self.kappa = kappa
        self.block_words = block_words
        self.producers = producers
        self.modulus = default_modulus_for_sum(m)
        self.width = (self.modulus - 1).bit_length()
        self.high_threshold = max(1, math.ceil(common_sigma_threshold * m))

    # ------------------------------------------------------------------
    # Online phase and triple demand: exact replication of the staged
    # schedule over a dirty set.  A full run is the pass with every
    # identity dirty and every identity in the selection closure.
    # ------------------------------------------------------------------
    def _count_fleets(self, dirty) -> tuple[list[tuple[GMWStats, int]], int]:
        """What ``update_count_below`` evaluates over this dirty set.

        One ``(per-instance stats, instances)`` entry per ``_run_stage``
        fleet -- ``k = |dirty|`` identity circuits, then per reduction tree
        the pair circuits on the dirty leaves' root paths (the
        :func:`~repro.mpc.countbelow.dirty_root_paths` schedule the tree
        routine itself executes; an odd carry propagates for free) -- plus
        the bit width of the single three-root opening round.
        """
        dirty = identity_ids(dirty, self.n_identities, "dirty")
        if not dirty.size:
            return [], 0
        circuit = build_count_identity_circuit(self.c, self.width, self.high_threshold)
        fleets = [(expected_stats(circuit, self.c, open_outputs=False), dirty.size)]
        paths = dirty_root_paths(self.n_identities, dirty)
        opened = 0
        for _, pair_circuit, width in COUNT_TREES:
            for parents, _ in paths:
                circuit = pair_circuit(width)
                if parents.size:
                    per_pair = expected_stats(circuit, self.c, open_outputs=False)
                    fleets.append((per_pair, parents.size))
                width = len(circuit.outputs)
            opened += width
        return fleets, opened

    def _selection_fleet(self, n_subset: int, lambda_scaled: int):
        if n_subset <= 0:
            return []
        circuit = build_selection_identity_circuit(self.c, self.width, lambda_scaled)
        return [(expected_stats(circuit, self.c, open_outputs=True), n_subset)]

    def _stats(self, fleets, opened: int = 0) -> GMWStats:
        # The engine aggregates per-instance accounting over instances --
        # the paper's cost model, under which lanes do not share rounds.
        stats = GMWStats(parties=self.c)
        for per, n in fleets:
            stats.add(per, times=n)
        account_output_opening(stats, self.c, opened)
        return stats

    @staticmethod
    def _words(fleets) -> int:
        """64-lane triple words the engine draws for these fleets: one per
        AND gate per 64-instance lane group of each fleet."""
        return sum(math.ceil(n / 64) * per.and_gates for per, n in fleets)

    def incremental_count_stats(self, dirty) -> GMWStats:
        """Exact GMW stats of ``update_count_below`` over this dirty set."""
        return self._stats(*self._count_fleets(dirty))

    def incremental_selection_stats(
        self, n_subset: int, lambda_scaled: int
    ) -> GMWStats:
        """Exact GMW stats of β-selection restricted to ``n_subset`` identities."""
        return self._stats(self._selection_fleet(n_subset, lambda_scaled))

    def incremental_online(
        self, dirty, n_subset: int, lambda_scaled: int
    ) -> CostEstimate:
        """Wire cost of one incremental pass (dirty count + closure selection)."""
        count = self.incremental_count_stats(dirty)
        sel = self.incremental_selection_stats(n_subset, lambda_scaled)
        return CostEstimate(
            bits_sent=count.bits_sent + sel.bits_sent,
            messages=count.messages + sel.messages,
            rounds=count.rounds + sel.rounds,
            formula=(
                f"k({len(set(dirty))}) identity circuits + dirty-root-path "
                f"pair circuits over 3 trees + one 3-root opening + "
                f"closure({n_subset}) selection circuits; per circuit: sum "
                f"over AND layers of 2*ands*c*(c-1) bits + openings*c*(c-1) bits"
            ),
        )

    def incremental_count_words(self, dirty) -> int:
        """Triple words an incremental CountBelow pass consumes."""
        return self._words(self._count_fleets(dirty)[0])

    def incremental_selection_words(self, n_subset: int, lambda_scaled: int) -> int:
        """Triple words a subset-restricted selection stage consumes."""
        return self._words(self._selection_fleet(n_subset, lambda_scaled))

    def incremental_total_words(self, dirty, n_subset: int, lambda_scaled: int) -> int:
        return self.incremental_count_words(dirty) + self.incremental_selection_words(
            n_subset, lambda_scaled
        )

    # The full-run forms: every identity dirty, every identity selected.
    def online_count_stats(self) -> GMWStats:
        """Exact GMW stats of the CountBelow stage (identity fleet + trees)."""
        return self.incremental_count_stats(np.arange(self.n_identities))

    def online_selection_stats(self, lambda_scaled: int) -> GMWStats:
        """Exact GMW stats of the β-selection stage for a known λ."""
        return self.incremental_selection_stats(self.n_identities, lambda_scaled)

    def online(self, lambda_scaled: int) -> CostEstimate:
        return self.incremental_online(
            range(self.n_identities), self.n_identities, lambda_scaled
        )

    def count_phase_words(self) -> int:
        """Triple words the CountBelow stage consumes."""
        return self.incremental_count_words(np.arange(self.n_identities))

    def selection_phase_words(self, lambda_scaled: int) -> int:
        """Triple words the selection stage consumes (λ known post-count)."""
        return self.incremental_selection_words(self.n_identities, lambda_scaled)

    def total_words(self, lambda_scaled: int) -> int:
        return self.count_phase_words() + self.selection_phase_words(lambda_scaled)

    # ------------------------------------------------------------------
    # Setup phase: emulated base OTs.
    # ------------------------------------------------------------------
    def setup(self, producers: int | None = None) -> CostEstimate:
        p = self.producers if producers is None else producers
        pairs = self.c * (self.c - 1)
        bits = p * pairs * (self.kappa * BASE_OT_BITS_PER_OT + 2 * HEADER_BITS)
        return CostEstimate(
            bits_sent=bits,
            messages=p * pairs * 2,
            rounds=2,
            formula=(
                f"producers({p}) * c(c-1)({pairs}) * "
                f"(kappa({self.kappa}) * base_ot_bits({BASE_OT_BITS_PER_OT}) "
                f"+ 2*header({HEADER_BITS}))"
            ),
        )

    # ------------------------------------------------------------------
    # Offline phase: OT-extension triple production.
    # ------------------------------------------------------------------
    def offline(
        self,
        words: int,
        producers: int | None = None,
        block_words: int | None = None,
    ) -> CostEstimate:
        """Wire cost of producing ``words`` triple words through the factory.

        Mirrors the factory's chunked dispatch exactly: ``words`` split into
        ``ceil(words / block_words)`` block-sized chunks for the producers
        to claim, each block costing every ordered pair one ``64*n*kappa``-bit
        extension matrix plus ``64*n`` correction bits (2 messages).
        Rounds assume a balanced pool -- the slowest producer runs
        ``ceil(blocks / producers)`` sequential blocks of 2 rounds each --
        so measured rounds can exceed this slightly when the producers'
        claims skew.
        """
        p = self.producers if producers is None else producers
        bw = self.block_words if block_words is None else block_words
        pairs = self.c * (self.c - 1)
        total_blocks = math.ceil(words / bw)
        bits = pairs * (64 * words * (self.kappa + 1)) + total_blocks * pairs * 2 * HEADER_BITS
        rounds = 2 * math.ceil(total_blocks / p)
        return CostEstimate(
            bits_sent=bits,
            messages=2 * pairs * total_blocks,
            rounds=rounds,
            formula=(
                f"c(c-1)({pairs}) * 64*words({words})*(kappa+1)({self.kappa + 1}) "
                f"+ blocks({total_blocks}) * c(c-1) * 2*header({HEADER_BITS}); "
                f"rounds = 2 * ceil(blocks/producers({p})), balanced pool"
            ),
        )

    # ------------------------------------------------------------------
    def describe(self, lambda_scaled: int) -> str:
        """Human-readable per-phase breakdown (pia-mpc complexity style)."""
        words = self.total_words(lambda_scaled)
        setup = self.setup()
        offline = self.offline(words)
        online = self.online(lambda_scaled)
        lines = [
            f"construction cost model: m={self.m} n={self.n_identities} "
            f"c={self.c} width={self.width}",
            f"  triple demand : {words} words "
            f"({self.count_phase_words()} count "
            f"+ {self.selection_phase_words(lambda_scaled)} selection)",
            f"  setup         : {setup.bits_sent} bits, {setup.rounds} rounds",
            f"                  <- {setup.formula}",
            f"  offline       : {offline.bits_sent} bits, {offline.rounds} rounds",
            f"                  <- {offline.formula}",
            f"  online        : {online.bits_sent} bits, {online.rounds} rounds",
            f"                  <- {online.formula}",
        ]
        return "\n".join(lines)
