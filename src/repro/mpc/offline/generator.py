"""Dealerless Beaver-triple generation from pairwise-correlated randomness.

Replaces the trusted :class:`~repro.mpc.triples.TripleDealer` for the offline
phase: the ``c`` MPC parties jointly produce XOR-shared bit triples using a
*simulated OT-extension* protocol in the IKNP style.  Per batch each party
draws random share words ``a_p, b_p``; every ordered pair ``(i, j)`` then
runs a correlated-OT over the bit-lanes so that the pair ends up with XOR
shares of the cross term ``a_i & b_j``.  Party ``p``'s product share is

    c_p = (a_p & b_p) XOR  XOR_{j != p} u_{pj}  XOR  XOR_{i != p} v_{ip}

with ``u_{ij} ^ v_{ij} = a_i & b_j``, so the shares reconstruct to
``c = a & b`` lane-wise -- the exact format :meth:`TripleDealer.deal_batch`
emits and :class:`~repro.mpc.gmw.BatchGMWEngine` consumes.

Like the rest of the repo's MPC substrate the parties are co-simulated in
one process, so the OT is *emulated*: pads that a real receiver would obtain
from the OT-extension matrix are derived here by selecting between the
sender's two pads with the receiver's choice bit.  What is faithful is (a)
the algebra -- shares are genuinely pairwise-correlated randomness, no party
ever materializes ``a``, ``b`` or ``c``; (b) the wire shape -- the
extension matrix is bulk traffic whose serialization dominates offline
wall time, which is why the phase is worth pipelining (the *local*
computation samples the pad distribution directly on packed words, the
standard co-simulation shortcut; the full per-lane PRG/hash transcript a
real party would compute is kept as ``_cross_terms_hashed``, the oracle
the tests hold that kernel against); and (c) the communication
accounting, recorded per party through
:class:`repro.net.metrics.NetworkMetrics` exactly like the online engine:
``n * kappa`` extension-matrix bits receiver->sender plus ``n`` correction
bits sender->receiver per batch, plus the one-time base-OT setup.

When constructed with a ``link_bandwidth_bps``, the generator additionally
*waits out* each batch's simulated per-link wire time, making offline
wall-clock bandwidth-faithful: the extension matrix is bulk traffic, so a
producer spends most of its wall time waiting on the wire -- which is
precisely the time the :class:`~repro.mpc.offline.factory.TripleFactory`
hides under the online phase's CPU work.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.mpc.triples import mask_dead_lanes
from repro.net.metrics import NetworkMetrics
from repro.net.transport import HEADER_BITS

from .phases import PhaseStats

__all__ = [
    "KAPPA",
    "BASE_OT_BITS_PER_OT",
    "DEFAULT_OFFLINE_BANDWIDTH_BPS",
    "DEFAULT_OFFLINE_LATENCY_S",
    "TripleBlock",
    "DealerlessTripleGenerator",
    "splitmix64",
]

# Computational security parameter: width of the OT-extension matrix.
KAPPA = 128
# Emulated base-OT wire cost per OT instance (public-key operation: one
# group element each way plus two ciphertexts, Chou-Orlandi shape).
BASE_OT_BITS_PER_OT = 3 * 256

# Default wire profile for offline production (used by the factory): the
# preprocessing committee runs over a 200 Mbps provisioned slice -- twice
# the WAN ablation's per-link bandwidth, a fifth of the LAN profile's --
# so bulk extension-matrix traffic never contends with the latency-critical
# online phase, with LAN-grade propagation.  The extension matrix
# dominates: each triple word moves ``64 * (kappa + 1)`` bits per ordered
# pair, which at kappa=128 makes the offline phase bandwidth-bound, exactly
# why it pays to pipeline it under the online computation.
DEFAULT_OFFLINE_BANDWIDTH_BPS = 200e6
DEFAULT_OFFLINE_LATENCY_S = 0.0002

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)


def splitmix64(x: np.ndarray) -> np.ndarray:
    """Vectorized splitmix64 finalizer -- the subsystem's PRG / hash core."""
    with np.errstate(over="ignore"):
        z = (x + _GOLDEN).astype(np.uint64)
        z = (z ^ (z >> np.uint64(30))) * _MIX1
        z = (z ^ (z >> np.uint64(27))) * _MIX2
        return z ^ (z >> np.uint64(31))


class _Stream:
    """Counter-mode splitmix64 word stream (one per party / pair role)."""

    def __init__(self, seed: int):
        self._seed = np.uint64(seed & 0xFFFFFFFFFFFFFFFF)
        self._counter = 0

    def words(self, n: int) -> np.ndarray:
        ctr = np.arange(self._counter, self._counter + n, dtype=np.uint64)
        self._counter += n
        return splitmix64(self._seed ^ (ctr * _GOLDEN))


def _unpack_bits(words: np.ndarray) -> np.ndarray:
    """uint64 words -> flat lane-major bit array (lane i = bit i of word)."""
    return np.unpackbits(words.view(np.uint8), bitorder="little")


def _pack_bits(bits: np.ndarray) -> np.ndarray:
    """Inverse of :func:`_unpack_bits`; ``len(bits)`` must be a multiple of 64."""
    return np.packbits(bits, bitorder="little").view(np.uint64)


@dataclass
class TripleBlock:
    """One batch of bitsliced triple shares plus its offline cost."""

    a: np.ndarray  # (words, parties) uint64
    b: np.ndarray
    c: np.ndarray
    lanes: int
    stats: PhaseStats

    @property
    def words(self) -> int:
        return int(self.a.shape[0])

    @property
    def triples(self) -> int:
        return self.words * self.lanes


class DealerlessTripleGenerator:
    """Joint triple production for ``parties`` co-simulated MPC parties.

    Deterministic in ``seed``: the per-party input streams and per-pair
    OT-extension streams are all derived from it, so two generators with the
    same seed produce identical blocks (which is what keeps each factory
    producer thread's stream reproducible run to run).
    """

    def __init__(
        self,
        parties: int,
        seed: int,
        metrics: NetworkMetrics | None = None,
        kappa: int = KAPPA,
        link_bandwidth_bps: float | None = None,
        link_latency_s: float = 0.0,
        interrupt=None,
    ):
        if parties < 2:
            raise ValueError(f"need at least 2 parties, got {parties}")
        if kappa % 64 != 0 or kappa < 64:
            raise ValueError(f"kappa must be a positive multiple of 64, got {kappa}")
        if link_bandwidth_bps is not None and link_bandwidth_bps <= 0:
            raise ValueError("link_bandwidth_bps must be positive")
        self.parties = parties
        self.kappa = kappa
        # Wire-time emulation: when a bandwidth is set, each phase *waits*
        # for its dominant per-link transfer (pairs run on disjoint links in
        # parallel, so the span is one link's serialization plus round
        # latency).  ``None`` keeps the generator compute-only for tests;
        # the factory turns this on so offline wall-clock is wire-faithful
        # and genuinely overlappable with online CPU work.
        self.link_bandwidth_bps = link_bandwidth_bps
        self.link_latency_s = link_latency_s
        # Optional threading.Event: when set, pending wire waits return
        # early -- lets a shutting-down factory reclaim a producer that is
        # mid-transfer instead of waiting out the simulated link.
        self.interrupt = interrupt
        self._kw = kappa // 64  # extension-matrix row width in uint64 words
        self.metrics = metrics if metrics is not None else NetworkMetrics()
        self.words_produced = 0
        self._setup_done = False
        root = np.uint64(seed & 0xFFFFFFFFFFFFFFFF)
        # Independent streams: party p's (a, b) input randomness, and one
        # extension stream + folded base-OT secret per ordered pair (i, j).
        self._party_streams = [
            _Stream(int(splitmix64(root ^ np.uint64(0x5150 + p))))
            for p in range(parties)
        ]
        self._pair_streams: dict[tuple[int, int], _Stream] = {}
        self._pair_secret: dict[tuple[int, int], np.ndarray] = {}
        for i in range(parties):
            for j in range(parties):
                if i == j:
                    continue
                tag = np.uint64(0xA11CE + i * parties + j)
                self._pair_streams[(i, j)] = _Stream(int(splitmix64(root ^ tag)))

    # ------------------------------------------------------------------
    # Setup phase: emulated base OTs, once per ordered pair.
    # ------------------------------------------------------------------
    def setup(self) -> PhaseStats:
        """Run (or re-report) the one-time base-OT phase.

        Each ordered pair runs ``kappa`` base OTs seeding the extension
        matrix; we account their wire cost and derive the sender's folded
        correlation secret ``s`` from the pair stream.  Idempotent: calling
        twice neither re-charges the metrics nor reseeds the secrets.
        """
        stats = PhaseStats(rounds=2 if not self._setup_done else 0)
        if self._setup_done:
            return stats
        for (i, j), stream in self._pair_streams.items():
            self._pair_secret[(i, j)] = stream.words(self._kw)
            # Receiver j's masked public keys, then sender i's ciphertexts.
            recv_bits = self.kappa * 256 + HEADER_BITS
            send_bits = self.kappa * (BASE_OT_BITS_PER_OT - 256) + HEADER_BITS
            stats.record_send(j, recv_bits)
            stats.record_send(i, send_bits)
            self.metrics.record_send(j, "base_ot_pk", recv_bits)
            self.metrics.record_send(i, "base_ot_ct", send_bits)
        self._setup_done = True
        self._wait_wire(self.kappa * BASE_OT_BITS_PER_OT + 2 * HEADER_BITS, rounds=2)
        return stats

    # ------------------------------------------------------------------
    # Offline phase: batched OT-extension triple production.
    # ------------------------------------------------------------------
    def generate(self, words: int, lanes: int = 64) -> TripleBlock:
        """Produce ``words`` bitsliced triple words (``words * lanes`` triples).

        Returns share arrays of shape ``(words, parties)`` with dead lanes
        masked, plus the batch's :class:`PhaseStats` (2 rounds: extension
        matrix receiver->sender, corrections sender->receiver, all pairs in
        parallel).
        """
        if words < 0:
            raise ValueError(f"words must be non-negative, got {words}")
        if not 1 <= lanes <= 64:
            raise ValueError(f"lanes must be in [1, 64], got {lanes}")
        if not self._setup_done:
            self.setup()
        stats = PhaseStats(rounds=2 if words else 0)
        if words == 0:
            empty = np.zeros((0, self.parties), dtype=np.uint64)
            return TripleBlock(a=empty, b=empty.copy(), c=empty.copy(), lanes=lanes, stats=stats)

        n_bits = words * 64
        p = self.parties
        a = np.empty((words, p), dtype=np.uint64)
        b = np.empty((words, p), dtype=np.uint64)
        for k in range(p):
            a[:, k] = self._party_streams[k].words(words)
            b[:, k] = self._party_streams[k].words(words)
        c = a & b  # local term a_p & b_p, cross terms XORed in below

        self._cross_terms(a, b, c, words, n_bits, stats)

        self.words_produced += words
        # Per-link batch span: extension matrix one way, corrections back.
        self._wait_wire(
            (n_bits * self.kappa + HEADER_BITS) + (n_bits + HEADER_BITS), rounds=2
        )
        am, bm, cm = mask_dead_lanes((a, b, c), lanes)
        return TripleBlock(a=am, b=bm, c=cm, lanes=lanes, stats=stats)

    def _cross_terms(
        self,
        a: np.ndarray,
        b: np.ndarray,
        c: np.ndarray,
        words: int,
        n_bits: int,
        stats: PhaseStats,
    ) -> None:
        """Bitsliced cross-term sampling, packed-word arithmetic throughout.

        Per ordered pair the correlated OT leaves sender ``i`` with a
        uniform pad ``u`` and receiver ``j`` with ``v = u ^ (a_i & b_j)``
        -- the *only* property of the hashed transcript the triples depend
        on.  We sample that joint distribution directly from the pair
        stream, 64 lanes per uint64 op, skipping the local-computation
        emulation that a co-simulation does not need.
        """
        p = self.parties
        for i in range(p):
            for j in range(p):
                if i == j:
                    continue
                u = self._pair_streams[(i, j)].words(words)
                v = u ^ (a[:, i] & b[:, j])
                c[:, i] ^= u
                c[:, j] ^= v
                self._record_pair_wire(i, j, n_bits, stats)

    def _cross_terms_hashed(
        self,
        a: np.ndarray,
        b: np.ndarray,
        c: np.ndarray,
        words: int,
        n_bits: int,
        stats: PhaseStats,
    ) -> None:
        """Full IKNP-transcript emulation (extension matrix, two hash
        evaluations per lane) with :meth:`_cross_terms`' signature: the
        protocol's computational shape, kept as the oracle the tests compare
        the runtime kernel against (valid triples, identical wire
        accounting).  No runtime path calls it."""
        p = self.parties
        a_bits = [_unpack_bits(np.ascontiguousarray(a[:, k])) for k in range(p)]
        b_bits = [_unpack_bits(np.ascontiguousarray(b[:, k])) for k in range(p)]
        acc = [np.zeros(n_bits, dtype=np.uint8) for _ in range(p)]

        kw = self._kw
        for i in range(p):
            for j in range(p):
                if i == j:
                    continue
                # Correlated OT, sender i (input a_i), receiver j (choice b_j).
                # Full-width emulation: each OT instance is a kappa-bit row of
                # the extension matrix; q = t0 ^ (b * s) row-wise, pads are a
                # chained hash over the row's kappa/64 words.
                s = self._pair_secret[(i, j)]
                t0 = self._pair_streams[(i, j)].words(n_bits * kw).reshape(n_bits, kw)
                with np.errstate(over="ignore"):
                    b_mask = b_bits[j].astype(np.uint64) * np.uint64(
                        0xFFFFFFFFFFFFFFFF
                    )
                q = t0 ^ (b_mask[:, None] & s[None, :])
                pad0 = self._hash_rows(q)
                pad1 = self._hash_rows(q ^ s[None, :])
                cor = pad0 ^ pad1 ^ a_bits[i]  # correction bits, on the wire
                # Receiver pad = H(t0) = pad_{b}; co-simulated via select.
                recv_pad = np.where(b_bits[j].astype(bool), pad1, pad0)
                u = pad0  # sender's share of a_i & b_j
                v = np.where(b_bits[j].astype(bool), recv_pad ^ cor, recv_pad)
                acc[i] ^= u
                acc[j] ^= v
                self._record_pair_wire(i, j, n_bits, stats)

        for k in range(p):
            c[:, k] ^= _pack_bits(acc[k])

    def _record_pair_wire(
        self, i: int, j: int, n_bits: int, stats: PhaseStats
    ) -> None:
        """Wire accounting: extension matrix j -> i, corrections i -> j."""
        ext_bits = n_bits * self.kappa + HEADER_BITS
        cor_bits = n_bits + HEADER_BITS
        stats.record_send(j, ext_bits)
        stats.record_send(i, cor_bits)
        self.metrics.record_send(j, "ot_ext_matrix", ext_bits)
        self.metrics.record_send(i, "ot_ext_cor", cor_bits)

    def _wait_wire(self, per_link_bits: int, rounds: int) -> None:
        """Sleep out one phase's simulated wire time (no-op when disabled)."""
        if self.link_bandwidth_bps is None:
            return
        delay = rounds * self.link_latency_s + per_link_bits / self.link_bandwidth_bps
        if self.interrupt is not None:
            self.interrupt.wait(delay)
        else:
            time.sleep(delay)

    def _hash_rows(self, rows: np.ndarray) -> np.ndarray:
        """Chained splitmix64 digest of each kappa-bit row -> one pad bit."""
        digest = splitmix64(rows[:, 0])
        for col in range(1, rows.shape[1]):
            digest = splitmix64(digest ^ rows[:, col])
        return (digest & np.uint64(1)).astype(np.uint8)
