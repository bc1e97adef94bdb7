"""Distributed ǫ-PPI construction over the network simulator (Fig. 3).

Runs the full two-phase protocol as timed actors, producing the
start-to-end execution time metric of the paper's Fig. 6:

* **Phase 1.1** -- SecSumShare with real share payloads (ring messages,
  super-share aggregation at the ``c`` coordinators);
* **Phase 1.2** -- the generic-MPC stage.  The secure computation itself is
  executed *computationally* by :func:`repro.mpc.betacalc.secure_beta_calculation`
  (our FairplayMP stand-in); its measured round/message/byte/gate counts are
  then *replayed* as timed all-to-all traffic + CPU charges among the
  coordinators, the standard way to get faithful timing out of a
  discrete-event model (see DESIGN.md);
* **Opening + broadcast** -- coordinators open σ for unselected identities,
  coordinator 0 assembles the final β vector and broadcasts it to all ``m``
  providers;
* **Phase 2** -- every provider pays the randomized-publication CPU cost.

The pure-MPC baseline (:class:`PureMPCSimulation`) replays the monolithic
``m``-party GMW run instead, preceded by input sharing, with no SecSumShare
reduction -- the comparison system of Fig. 6.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np

from repro.core.policies import BetaPolicy
from repro.mpc.betacalc import (
    IncrementalBetaState,
    SecureBetaResult,
    secure_beta_calculation,
    secure_beta_update,
)
from repro.mpc.field import Zq, default_modulus_for_sum
from repro.mpc.pure import PureMPCResult, run_pure_beta_calculation
from repro.net.latency import EMULAB_LAN, LatencyModel
from repro.net.metrics import NetworkMetrics
from repro.net.simulator import Node, Simulator
from repro.net.transport import Message, ring_elements_bits
from repro.protocol import messages as mk
from repro.protocol.secsum_nodes import SHARE_COMPUTE_S, SecSumNode

__all__ = [
    "DistributedConstructionResult",
    "run_distributed_construction",
    "run_incremental_construction",
    "run_pure_mpc_simulation",
]

# CPU cost per published cell during randomized publication (phase 2).
PUBLISH_COMPUTE_S = 5e-8
# Wire size of one β value in the final broadcast (an IEEE double).
BETA_BITS = 64


@dataclass
class DistributedConstructionResult:
    """Timing + outcome of one simulated distributed construction."""

    betas: np.ndarray
    secure_result: SecureBetaResult | PureMPCResult
    metrics: NetworkMetrics

    @property
    def execution_time_s(self) -> float:
        """The paper's start-to-end execution time (Fig. 6a/6c)."""
        return self.metrics.finish_time_s


class _MPCReplayMixin:
    """Round-synchronous replay of a measured GMW communication pattern."""

    def _init_replay(
        self,
        peers: list[int],
        rounds: int,
        bits_per_link_per_round: int,
        compute_per_round_s: float,
    ) -> None:
        self._peers = peers
        self._total_rounds = rounds
        self._bits_per_link = bits_per_link_per_round
        self._compute_per_round = compute_per_round_s
        self._current_round = 0
        self._round_counts: dict[int, int] = {}
        self._replay_done = False
        self._replay_started = False

    def _start_replay(self) -> None:
        self._replay_started = True
        if self._total_rounds == 0:
            self._replay_done = True
            self._on_replay_done()
            return
        self._send_round(0)
        # Peers may have raced ahead; consume any buffered round messages.
        self._advance_rounds()

    def _send_round(self, r: int) -> None:
        self.compute(self._compute_per_round)
        for peer in self._peers:
            self.send(peer, mk.MPC_ROUND, r, self._bits_per_link)
        # A round with no peers (degenerate single-party MPC) self-advances.
        if not self._peers:
            self._advance_rounds()

    def _on_mpc_round(self, message: Message) -> None:
        r = message.payload
        self._round_counts[r] = self._round_counts.get(r, 0) + 1
        self._advance_rounds()

    def _advance_rounds(self) -> None:
        while (
            self._replay_started
            and not self._replay_done
            and self._round_counts.get(self._current_round, 0) >= len(self._peers)
        ):
            self._current_round += 1
            if self._current_round >= self._total_rounds:
                self._replay_done = True
                self._on_replay_done()
            else:
                self._send_round(self._current_round)

    def _on_replay_done(self) -> None:
        raise NotImplementedError


class _EPPINode(SecSumNode, _MPCReplayMixin):
    """A provider that also plays coordinator + MPC party when id < c."""

    def __init__(self, *args, driver: "_Driver", **kwargs):
        super().__init__(*args, **kwargs)
        self._driver = driver
        self._open_reports = 0
        if self.is_coordinator:
            d = driver
            self._init_replay(
                peers=[p for p in range(d.c) if p != self.node_id],
                rounds=d.mpc_rounds,
                bits_per_link_per_round=d.mpc_bits_per_link,
                compute_per_round_s=d.mpc_compute_per_round,
            )

    def on_message(self, message: Message) -> None:
        if message.kind == mk.MPC_ROUND:
            self._on_mpc_round(message)
        elif message.kind == mk.OPEN_FREQ:
            self._on_open(message)
        elif message.kind == mk.BETA_BROADCAST:
            self._on_beta(message)
        else:
            super().on_message(message)

    # SecSum coordinator completion hook -> start the MPC stage.
    def _on_super_share(self, message: Message) -> None:
        super()._on_super_share(message)
        if self._received_reports == self._expected_reports:
            self._start_replay()

    # MPC stage finished on this coordinator.
    def _on_replay_done(self) -> None:
        opened = self._driver.open_count
        if self.node_id == 0:
            self._maybe_finalize()
        else:
            # Ship shares of the to-be-opened identities to coordinator 0.
            self.send(
                0,
                mk.OPEN_FREQ,
                None,
                ring_elements_bits(opened, self.ring.q),
            )

    def _on_open(self, message: Message) -> None:
        self.compute(SHARE_COMPUTE_S * self._driver.open_count)
        self._open_reports += 1
        self._maybe_finalize()

    def _maybe_finalize(self) -> None:
        if self._replay_done and self._open_reports == self.c - 1:
            self._finalize()

    def _finalize(self) -> None:
        # Coordinator 0 evaluates β* in the clear for opened identities and
        # broadcasts the final vector (safe to release, paper Sec. IV-C).
        # Only the pass's closure ships its β entries.
        n_beta = self._driver.broadcast_count
        self.compute(SHARE_COMPUTE_S * n_beta)
        for pid in range(self.m):
            if pid != self.node_id:
                self.send(pid, mk.BETA_BROADCAST, None, BETA_BITS * n_beta)
        self._publish()

    def _on_beta(self, message: Message) -> None:
        self._publish()

    def _publish(self) -> None:
        # Phase 2: randomized (re-)publication of this provider's row --
        # restricted to the changed columns on an incremental pass.
        self.compute(PUBLISH_COMPUTE_S * self._driver.broadcast_count)


class _Driver:
    """Shared state between the offline secure computation and the sim."""

    def __init__(self, result: SecureBetaResult, c: int, latency: LatencyModel):
        self.result = result
        self.c = c
        # The pass's selection stage covers its closure -- the whole
        # universe on a full run: σ is opened for the closure's unselected
        # identities, and the closure's β entries are broadcast and
        # republished.
        selection_bits = result.selection_result.publish_as_one
        self.open_count = selection_bits.count(0)
        self.broadcast_count = len(selection_bits)
        count_stats = result.count_result.stats
        sel_stats = result.selection_result.stats
        self.mpc_rounds = count_stats.rounds + sel_stats.rounds
        total_bits = count_stats.bits_sent + sel_stats.bits_sent
        links = max(1, self.mpc_rounds * c * (c - 1))
        self.mpc_bits_per_link = math.ceil(total_bits / links)
        total_gates = result.total_circuit_size
        total_ands = count_stats.and_gates + sel_stats.and_gates
        # AND-opening work scales with the number of MPC peers (all-to-all
        # masked-difference exchange) -- pinned to c-1 here, which is the
        # whole point of the MPC-reduced design.
        total_compute = (
            total_gates * latency.gate_compute_s
            + total_ands * latency.and_extra_compute_s * max(1, c - 1)
        )
        self.mpc_compute_per_round = total_compute / max(1, self.mpc_rounds)


def run_distributed_construction(
    provider_bits: list[list[int]],
    epsilons: list[float],
    policy: BetaPolicy,
    c: int,
    rng: random.Random,
    latency: LatencyModel = EMULAB_LAN,
    triple_source: str = "dealer",
    factory=None,
    offline_producers: int = 2,
) -> DistributedConstructionResult:
    """Simulate the full ǫ-PPI construction and return timing metrics.

    ``triple_source="factory"`` draws Beaver triples from the dealerless
    offline pipeline instead of the trusted dealer (see
    :mod:`repro.mpc.offline` and :func:`secure_beta_calculation`); the β
    vector and the replayed online communication pattern are identical
    either way, so this changes the real wall-clock of the construction
    run, not the simulated timing.
    """
    result = secure_beta_calculation(
        provider_bits,
        epsilons,
        policy,
        c,
        rng,
        triple_source=triple_source,
        factory=factory,
        offline_producers=offline_producers,
    )
    return _simulate(result, provider_bits, c, rng, latency)


def _simulate(
    result: SecureBetaResult,
    node_inputs: list[list[int]],
    c: int,
    rng: random.Random,
    latency: LatencyModel,
) -> DistributedConstructionResult:
    """Replay one secure pass over the simulator: provider ``i`` re-shares
    ``node_inputs[i]`` in phase 1.1, the coordinators replay the pass's
    measured MPC traffic, open, broadcast and everyone republishes."""
    driver = _Driver(result, c, latency)
    sim = Simulator(latency=latency)
    m = len(node_inputs)
    ring = Zq(default_modulus_for_sum(m))
    for i, inputs in enumerate(node_inputs):
        sim.add_node(
            _EPPINode(
                i,
                m,
                c,
                ring,
                inputs,
                random.Random(rng.getrandbits(64)),
                driver=driver,
            )
        )
    metrics = sim.run()
    return DistributedConstructionResult(
        betas=result.betas, secure_result=result, metrics=metrics
    )


def run_incremental_construction(
    state: IncrementalBetaState,
    provider_bits: list[list[int]],
    dirty: list[int],
    rng: random.Random,
    latency: LatencyModel = EMULAB_LAN,
    triple_source: str = "dealer",
    factory=None,
    offline_producers: int = 2,
) -> DistributedConstructionResult:
    """Simulate one delta-aware maintenance pass over a held construction.

    The computational work is :func:`repro.mpc.betacalc.secure_beta_update`
    (dirty-column SecSumShare, dirty-root-path CountBelow, closure-only
    selection); its measured stats are then replayed over the simulator
    exactly as in :func:`run_distributed_construction`, with every
    universe-sized leg shrunk to its incremental size: providers re-share
    only the ``|dirty|`` columns in phase 1.1, the σ opening ships only the
    closure's unselected identities, coordinator 0 broadcasts only the
    closure's β entries, and phase 2 republishes only the changed columns.
    The returned β vector (and ``state``) covers the full universe.
    """
    m = len(provider_bits)
    if m != state.m:
        raise ValueError(f"state covers {state.m} providers, got {m}")
    result = secure_beta_update(
        state,
        provider_bits,
        dirty,
        rng,
        triple_source=triple_source,
        factory=factory,
        offline_producers=offline_producers,
    )
    dirty_ids = result.incremental.dirty
    dirty_columns = [[row[j] for j in dirty_ids] for row in provider_bits]
    return _simulate(result, dirty_columns, state.c, rng, latency)


class _PureMPCNode(Node, _MPCReplayMixin):
    """One party of the monolithic m-party MPC baseline."""

    def __init__(
        self,
        node_id: int,
        m: int,
        n_ids: int,
        rounds: int,
        bits_per_link: int,
        compute_per_round: float,
    ):
        super().__init__(node_id)
        self.m = m
        self.n_ids = n_ids
        self._init_replay(
            peers=[p for p in range(m) if p != node_id],
            rounds=rounds,
            bits_per_link_per_round=bits_per_link,
            compute_per_round_s=compute_per_round,
        )
        self._input_shares_received = 0

    def on_start(self) -> None:
        # Input sharing: every party XOR-shares its input bits to all others.
        for peer in self._peers:
            self.send(peer, mk.INPUT_SHARE, None, self.n_ids)

    def on_message(self, message: Message) -> None:
        if message.kind == mk.INPUT_SHARE:
            self._input_shares_received += 1
            if self._input_shares_received == len(self._peers):
                self._start_replay()
        elif message.kind == mk.MPC_ROUND:
            self._on_mpc_round(message)
        else:
            raise RuntimeError(f"unexpected message kind {message.kind}")

    def _on_replay_done(self) -> None:
        # Publication cost, as in the reduced protocol.
        self.compute(PUBLISH_COMPUTE_S * self.n_ids)


def run_pure_mpc_simulation(
    provider_bits: list[list[int]],
    epsilons: list[float],
    policy: BetaPolicy,
    rng: random.Random,
    latency: LatencyModel = EMULAB_LAN,
) -> DistributedConstructionResult:
    """Simulate the pure-MPC baseline construction (Fig. 6 comparison)."""
    m = len(provider_bits)
    n_ids = len(provider_bits[0])
    result = run_pure_beta_calculation(provider_bits, epsilons, policy, rng)

    rounds = result.stats.rounds
    links = max(1, rounds * m * (m - 1))
    bits_per_link = math.ceil(result.stats.bits_sent / links)
    # Monolithic MPC: every AND opening is exchanged among all m parties.
    total_compute = (
        result.total_circuit_size * latency.gate_compute_s
        + result.total_and_gates * latency.and_extra_compute_s * max(1, m - 1)
    )
    compute_per_round = total_compute / max(1, rounds)

    sim = Simulator(latency=latency)
    for i in range(m):
        sim.add_node(
            _PureMPCNode(i, m, n_ids, rounds, bits_per_link, compute_per_round)
        )
    metrics = sim.run()
    return DistributedConstructionResult(
        betas=result.betas, secure_result=result, metrics=metrics
    )
