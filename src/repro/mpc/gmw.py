"""GMW-style semi-honest Boolean MPC over XOR shares.

This module plays the role of the FairplayMP runtime in the paper's
prototype: it takes a compiled Boolean circuit and evaluates it among ``c``
simulated parties such that no party (and no coalition smaller than ``c``)
learns anything beyond the circuit outputs.

Protocol recap (Goldreich-Micali-Wigderson, semi-honest variant):

* every wire value is XOR-shared across the parties;
* XOR and NOT gates are evaluated locally (NOT by flipping party 0's share);
* each AND gate consumes one Beaver triple ``(a, b, c = a&b)``: parties open
  the masked differences ``d = x ^ a`` and ``e = y ^ b`` (one broadcast
  round), then set their share of ``z = x & y`` to
  ``c_i ^ (d & b_i) ^ (e & a_i)`` with party 0 additionally XOR-ing ``d & e``;
* output wires are opened at the end.

AND gates at the same multiplicative depth are batched into a single round,
matching how circuit-based MPC engines amortize communication; the recorded
round/message/bit counts feed the network-cost model used for Fig. 6a/6c.

Two engines share the layer schedule of
:mod:`repro.mpc.circuits.compiled`:

* :class:`GMWProtocol` -- the scalar one-instance-at-a-time engine: the
  per-circuit oracle the batch engine is tested against, and the evaluator
  of the pure-MPC baseline and the A2B conversion;
* :class:`BatchGMWEngine` -- the bitsliced engine that runs the
  construction pipeline: 64 independent
  instances ride in the bit-lanes of one ``uint64`` and a fleet of ``n``
  in ``ceil(n / 64)`` words per wire, so a single pass over the circuit
  evaluates every instance, and the Beaver masking of a layer is one
  vectorized array expression across gates, words *and* lanes.

The batch engine deliberately reports **per-instance** communication stats
computed with the same accounting helpers as the scalar engine: bitslicing
is a computational speedup of the simulation, not a change to the paper's
Fig. 6 cost model (see DESIGN.md).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from repro.mpc.circuits.compiled import (
    LANES,
    OP_CONST,
    OP_INPUT,
    OP_NOT,
    OP_XOR,
    CompiledCircuit,
    compile_circuit,
    pack_fleet,
    unpack_fleet,
)
from repro.mpc.circuits.gates import Circuit
from repro.mpc.triples import TripleDealer

__all__ = [
    "GMWProtocol",
    "BatchGMWEngine",
    "GMWResult",
    "BatchGMWResult",
    "GMWStats",
    "PartyTranscript",
    "account_and_layer",
    "account_output_opening",
    "expected_stats",
]

_FULL_MASK = np.uint64((1 << LANES) - 1)


@dataclass
class GMWStats:
    """Communication/computation accounting for one secure evaluation."""

    parties: int = 0
    and_gates: int = 0
    rounds: int = 0
    messages: int = 0
    bits_sent: int = 0
    triples_consumed: int = 0

    def add(self, other: "GMWStats", times: int = 1) -> None:
        """Accumulate ``other`` (scaled by ``times``) into this record."""
        self.and_gates += other.and_gates * times
        self.rounds += other.rounds * times
        self.messages += other.messages * times
        self.bits_sent += other.bits_sent * times
        self.triples_consumed += other.triples_consumed * times


def account_and_layer(stats: GMWStats, parties: int, n_ands: int) -> None:
    """Charge one AND-layer broadcast round to ``stats``.

    All ANDs of a layer open their ``(d, e)`` masks together: one round,
    ``p*(p-1)`` messages, each carrying the 2 opened bits of every AND.
    This is the single source of truth used by the scalar and batch engines.
    """
    if n_ands <= 0:
        return
    stats.rounds += 1
    stats.messages += parties * (parties - 1)
    stats.bits_sent += 2 * n_ands * parties * (parties - 1)


def account_output_opening(stats: GMWStats, parties: int, n_outputs: int) -> None:
    """Charge the final output-opening round to ``stats``.

    A circuit with no outputs (or an evaluation that keeps its outputs
    shared) pays nothing -- centralizing the empty/non-empty branch here is
    what keeps the scalar and batch engines from double- or under-counting
    the opening traffic.
    """
    if n_outputs <= 0:
        return
    stats.rounds += 1
    stats.messages += parties * (parties - 1)
    stats.bits_sent += n_outputs * parties * (parties - 1)


def expected_stats(
    circuit: Circuit, parties: int, open_outputs: bool = True
) -> GMWStats:
    """Analytic per-instance stats of one GMW evaluation of ``circuit``.

    Derived from the compiled layer schedule with the same accounting
    helpers the engines use, so an actual scalar run reports exactly these
    numbers; the batch engine uses this as its per-instance record.
    """
    compiled = compile_circuit(circuit)
    stats = GMWStats(parties=parties)
    for layer in compiled.layers:
        account_and_layer(stats, parties, layer.n_ands)
        stats.and_gates += layer.n_ands
    if open_outputs:
        account_output_opening(stats, parties, compiled.n_outputs)
    stats.triples_consumed = stats.and_gates
    return stats


@dataclass
class PartyTranscript:
    """Everything one party observes: its shares and all opened bits.

    Used by the secrecy tests -- under XOR sharing every recorded value is
    either a uniformly random share or a uniformly masked opening, so the
    transcript of any single party must be distribution-independent of other
    parties' inputs.
    """

    party: int
    input_shares: list[int] = field(default_factory=list)
    opened_values: list[int] = field(default_factory=list)
    output_bits: list[int] = field(default_factory=list)


@dataclass
class GMWResult:
    """Outputs plus accounting and per-party transcripts.

    When the evaluation keeps its outputs secret (``open_outputs=False``),
    ``outputs`` is empty and ``output_shares[p][k]`` holds party ``p``'s XOR
    share of output wire ``k`` instead.
    """

    outputs: list[int]
    stats: GMWStats
    transcripts: list[PartyTranscript]
    output_shares: Optional[list[list[int]]] = None


class GMWProtocol:
    """Evaluate one circuit among ``parties`` simulated semi-honest parties."""

    def __init__(self, circuit: Circuit, parties: int, rng: random.Random):
        if parties < 2:
            raise ValueError(f"GMW needs >= 2 parties, got {parties}")
        self.circuit = circuit
        self.compiled: CompiledCircuit = compile_circuit(circuit)
        self.parties = parties
        self._rng = rng
        # The dealer runs on a stream forked off the protocol rng, so the
        # protocol's own coin stream does not depend on how many triples
        # the circuit consumes.
        self.dealer = TripleDealer(parties, random.Random(rng.getrandbits(64)))

    # -- input sharing ---------------------------------------------------------

    def share_inputs(self, inputs: Sequence[int]) -> list[list[int]]:
        """XOR-share a plaintext input vector; result indexed [party][input]."""
        if len(inputs) != self.circuit.n_inputs:
            raise ValueError(
                f"circuit has {self.circuit.n_inputs} inputs, got {len(inputs)}"
            )
        shares = [[0] * len(inputs) for _ in range(self.parties)]
        for j, bit in enumerate(inputs):
            if bit not in (0, 1):
                raise ValueError(f"inputs must be bits, got {bit}")
            parity = 0
            for p in range(self.parties - 1):
                r = self._rng.getrandbits(1)
                shares[p][j] = r
                parity ^= r
            shares[self.parties - 1][j] = parity ^ bit
        return shares

    # -- evaluation ---------------------------------------------------------

    def run(self, inputs: Sequence[int], open_outputs: bool = True) -> GMWResult:
        """Share ``inputs``, evaluate securely, open outputs."""
        return self.run_shared(self.share_inputs(inputs), open_outputs=open_outputs)

    def run_shared(
        self,
        input_shares: Sequence[Sequence[int]],
        open_outputs: bool = True,
    ) -> GMWResult:
        """Evaluate from pre-shared inputs (indexed [party][input])."""
        if len(input_shares) != self.parties:
            raise ValueError(
                f"expected shares for {self.parties} parties, got {len(input_shares)}"
            )
        n_in = self.circuit.n_inputs
        for p, row in enumerate(input_shares):
            if len(row) != n_in:
                raise ValueError(f"party {p} supplied {len(row)} shares, need {n_in}")

        stats = GMWStats(parties=self.parties)
        transcripts = [PartyTranscript(party=p) for p in range(self.parties)]
        for p in range(self.parties):
            transcripts[p].input_shares = list(input_shares[p])

        # wire_shares[p][w] = party p's XOR share of wire w
        wire_shares = [[0] * self.circuit.n_wires for _ in range(self.parties)]

        for layer in self.compiled.layers:
            # AND arguments always come from strictly earlier layers, so the
            # whole layer's Beaver openings happen before its linear gates.
            for a_wire, b_wire, out in zip(layer.and_a, layer.and_b, layer.and_out):
                self._eval_and(int(a_wire), int(b_wire), int(out), wire_shares, transcripts, stats)
            account_and_layer(stats, self.parties, layer.n_ands)
            stats.and_gates += layer.n_ands
            for op, a0, a1, out, aux in layer.linear:
                if op == OP_XOR:
                    for p in range(self.parties):
                        wire_shares[p][out] = wire_shares[p][a0] ^ wire_shares[p][a1]
                elif op == OP_NOT:
                    for p in range(self.parties):
                        wire_shares[p][out] = wire_shares[p][a0]
                    wire_shares[0][out] ^= 1
                elif op == OP_INPUT:
                    for p in range(self.parties):
                        wire_shares[p][out] = input_shares[p][aux]
                elif op == OP_CONST:
                    wire_shares[0][out] = aux

        outputs: list[int] = []
        output_shares: Optional[list[list[int]]] = None
        if open_outputs:
            for w in self.circuit.outputs:
                bit = 0
                for p in range(self.parties):
                    bit ^= wire_shares[p][w]
                outputs.append(bit)
            account_output_opening(stats, self.parties, len(self.circuit.outputs))
        else:
            output_shares = [
                [wire_shares[p][w] for w in self.circuit.outputs]
                for p in range(self.parties)
            ]
        for p in range(self.parties):
            transcripts[p].output_bits = list(outputs)
        stats.triples_consumed = stats.and_gates
        return GMWResult(
            outputs=outputs,
            stats=stats,
            transcripts=transcripts,
            output_shares=output_shares,
        )

    # -- internals ------------------------------------------------------------

    def _eval_and(
        self,
        a_wire: int,
        b_wire: int,
        out: int,
        wire_shares: list[list[int]],
        transcripts: list[PartyTranscript],
        stats: GMWStats,
    ) -> None:
        triple = self.dealer.deal()
        # Masked openings d = x ^ a, e = y ^ b (public once broadcast).
        d = 0
        e = 0
        for p in range(self.parties):
            d ^= wire_shares[p][a_wire] ^ triple[p].a
            e ^= wire_shares[p][b_wire] ^ triple[p].b
        for p in range(self.parties):
            z = triple[p].c ^ (d & triple[p].b) ^ (e & triple[p].a)
            if p == 0:
                z ^= d & e
            wire_shares[p][out] = z
            transcripts[p].opened_values.extend((d, e))


@dataclass
class BatchGMWResult:
    """Result of one bitsliced evaluation over ``n_instances`` lanes.

    ``outputs[i][k]`` is instance ``i``'s opened output bit ``k`` (``None``
    when outputs stay shared; then ``output_shares[p, i, k]`` holds party
    ``p``'s XOR share instead).  ``per_instance`` is the scalar-identical
    per-instance accounting; ``stats`` aggregates it over all instances --
    the paper's cost model, under which lanes do not share rounds.
    ``physical_rounds`` counts the broadcast rounds the batched evaluation
    actually needed: one per AND layer, plus one output opening, for the
    whole fleet -- every 64-lane chunk rides the same round, so the count
    does not depend on ``n_instances``.
    """

    n_instances: int
    outputs: Optional[np.ndarray]
    output_shares: Optional[np.ndarray]
    per_instance: GMWStats
    stats: GMWStats
    physical_rounds: int


class BatchGMWEngine:
    """Bitsliced GMW: one pass over the circuit evaluates the whole fleet.

    Wire state is an ``(n_wires, parties, chunks)`` ``uint64`` array with
    ``chunks = ceil(n / 64)``; bit-lane ``i % 64`` of chunk ``i // 64``
    belongs to instance ``i``.  Linear gates are interpreted once for all
    instances; each AND layer gathers its argument words with one
    fancy-index, draws its Beaver triples for every chunk at once, and
    applies the masking identity as whole-array expressions -- vectorized
    across gates, chunks *and* lanes.  The working set is
    ``n_wires * parties * ceil(n / 64) * 8`` bytes of wire state (2.3 MB
    for the widest stage -- the 301-wire selection circuit -- of a
    20 000-identity, 3-party construction) plus one layer's triples.
    """

    def __init__(
        self,
        circuit: Circuit,
        parties: int,
        rng: random.Random,
        triple_source=None,
    ):
        if parties < 2:
            raise ValueError(f"GMW needs >= 2 parties, got {parties}")
        self.circuit = circuit
        self.compiled: CompiledCircuit = compile_circuit(circuit)
        self.parties = parties
        self._rng = rng
        self._np_rng = np.random.default_rng(rng.getrandbits(64))
        # Forked dealer stream; the seed draw happens whether or not a
        # triple source is plugged in, so the engine's coin consumption --
        # and hence every opened value and output -- is byte-identical
        # whether triples come from the trusted dealer or the offline
        # factory (Beaver outputs never depend on triple values).
        dealer_seed = rng.getrandbits(64)
        if triple_source is None:
            self.dealer = TripleDealer(parties, random.Random(dealer_seed))
        else:
            self.dealer = triple_source

    # -- input sharing ---------------------------------------------------------

    def share_inputs(self, inputs: np.ndarray) -> np.ndarray:
        """XOR-share a fleet: ``(n, n_inputs)`` bits ->
        ``(n_inputs, parties, chunks)`` lane-packed share words."""
        mat = np.asarray(inputs, dtype=np.uint8)
        if mat.ndim != 2 or mat.shape[1] != self.compiled.n_inputs:
            raise ValueError(
                f"expected an (n, {self.compiled.n_inputs}) input matrix, "
                f"got shape {mat.shape}"
            )
        if mat.size and mat.max() > 1:
            raise ValueError("inputs must be bits")
        packed = pack_fleet(mat.T)  # (n_inputs, chunks)
        # Uniform words for every party, one share corrected to the input.
        shares = self._np_rng.bit_generator.random_raw(
            (packed.shape[0], self.parties, packed.shape[1])
        )
        shares[:, 0] ^= np.bitwise_xor.reduce(shares, axis=1) ^ packed
        return shares

    # -- evaluation ---------------------------------------------------------

    def run(self, inputs: np.ndarray, open_outputs: bool = True) -> BatchGMWResult:
        """Share and evaluate ``(n, n_inputs)`` plaintext instances."""
        return self.run_shared(
            self.share_inputs(inputs), len(inputs), open_outputs=open_outputs
        )

    def run_shared_bits(
        self, share_bits: np.ndarray, open_outputs: bool = True
    ) -> BatchGMWResult:
        """Evaluate many instances whose inputs are *already* secret-shared.

        ``share_bits`` is ``(parties, n_instances, n_inputs)``: party ``p``'s
        XOR share bit of each input of each instance (the layout
        ``run_shared(..., open_outputs=False)`` hands back, letting staged
        pipelines chain batched evaluations without ever opening).
        """
        arr = np.asarray(share_bits, dtype=np.uint8)
        if arr.ndim != 3 or arr.shape[0] != self.parties or (
            arr.shape[2] != self.compiled.n_inputs
        ):
            raise ValueError(
                f"expected a ({self.parties}, n, {self.compiled.n_inputs}) share "
                f"tensor, got shape {arr.shape}"
            )
        return self.run_shared(
            pack_fleet(arr.transpose(2, 0, 1)), arr.shape[1], open_outputs=open_outputs
        )

    def run_shared(
        self,
        input_shares: np.ndarray,
        n_instances: int,
        open_outputs: bool = True,
    ) -> BatchGMWResult:
        """Evaluate a pre-shared fleet: the one evaluation loop.

        ``input_shares`` is the ``(n_inputs, parties, chunks)`` lane-packed
        share tensor (as produced by :meth:`share_inputs`, or assembled from
        upstream secret shares; a single chunk may drop the last axis);
        ``n_instances`` says how many lanes are live -- the tail chunk's
        surplus lanes carry garbage and are dropped on unpack.
        """
        compiled = self.compiled
        parties = self.parties
        if n_instances < 1:
            raise ValueError("need at least one instance")
        chunks = -(-n_instances // LANES)
        shares = np.ascontiguousarray(input_shares, dtype=np.uint64)
        if shares.ndim == 2:
            shares = shares[:, :, None]
        if shares.shape != (compiled.n_inputs, parties, chunks):
            raise ValueError(
                f"expected a ({compiled.n_inputs}, {parties}, {chunks}) share tensor "
                f"for {n_instances} instances, got shape {shares.shape}"
            )

        wires = np.zeros((compiled.n_wires, parties, chunks), dtype=np.uint64)
        physical_rounds = 0
        for layer in compiled.layers:
            k = layer.n_ands
            if k:
                x = wires[layer.and_a]  # (k, parties, chunks)
                y = wires[layer.and_b]
                ta, tb, tc = self._deal_layer(k, n_instances)
                # One broadcast round: open d = x ^ a and e = y ^ b for the
                # whole layer -- every gate, chunk and lane at once.
                d = np.bitwise_xor.reduce(x ^ ta, axis=1, keepdims=True)
                e = np.bitwise_xor.reduce(y ^ tb, axis=1, keepdims=True)
                z = tc ^ (d & tb) ^ (e & ta)
                z[:, :1] ^= d & e
                wires[layer.and_out] = z
                physical_rounds += 1
            for op, a0, a1, out, aux in layer.linear:
                if op == OP_XOR:
                    np.bitwise_xor(wires[a0], wires[a1], out=wires[out])
                elif op == OP_NOT:
                    wires[out] = wires[a0]
                    wires[out, 0] ^= _FULL_MASK
                elif op == OP_INPUT:
                    wires[out] = shares[aux]
                else:  # OP_CONST
                    wires[out, 0] = _FULL_MASK if aux else np.uint64(0)

        per_instance = expected_stats(self.circuit, parties, open_outputs=open_outputs)
        outputs: Optional[np.ndarray] = None
        output_shares: Optional[np.ndarray] = None
        out_words = wires[compiled.outputs]  # (n_outputs, parties, chunks)
        if open_outputs:
            opened = np.bitwise_xor.reduce(out_words, axis=1)
            outputs = np.ascontiguousarray(unpack_fleet(opened, n_instances).T)
            if compiled.n_outputs:
                physical_rounds += 1
        else:
            # (parties, n_instances, n_outputs): party-major secret shares.
            output_shares = np.ascontiguousarray(
                unpack_fleet(out_words, n_instances).transpose(1, 2, 0)
            )

        stats = GMWStats(parties=parties)
        stats.add(per_instance, times=n_instances)
        return BatchGMWResult(
            n_instances=n_instances,
            outputs=outputs,
            output_shares=output_shares,
            per_instance=per_instance,
            stats=stats,
            physical_rounds=physical_rounds,
        )

    def _deal_layer(self, k: int, n: int) -> list[np.ndarray]:
        """Beaver shares for ``k`` ANDs of ``n`` instances, each ``(k, parties, chunks)``.

        Full chunks draw 64-lane words and the tail chunk only its
        ``n % 64`` live lanes, so the source's ``issued`` grows by exactly
        ``k * n``, the tail's dead lanes are zero in every share word, and
        an offline source burns ``k * ceil(n / 64)`` words.
        """
        full, tail = divmod(n, LANES)
        deals = []
        if full:
            deals.append(self.dealer.deal_batch(k * full, lanes=LANES))
        if tail:
            deals.append(self.dealer.deal_batch(k, lanes=tail))
        # (k * c, parties) word arrays -> (k, parties, c) views, gate-major.
        parts = [
            [w.reshape(k, -1, self.parties).transpose(0, 2, 1) for w in deal]
            for deal in deals
        ]
        if len(parts) == 1:
            return parts[0]
        return [np.concatenate(words, axis=2) for words in zip(*parts)]
