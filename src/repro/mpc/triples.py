"""Beaver multiplication triples for the GMW engine.

GMW evaluates XOR gates locally but needs one interaction per AND gate.  The
standard technique is a *Beaver triple*: a random triple ``(a, b, c)`` with
``c = a AND b``, secret-shared among the parties ahead of time.  During the
online phase each AND consumes one triple.

The paper runs FairplayMP whose offline phase uses oblivious transfer between
the real machines; we cannot run OT against real hosts inside a deterministic
simulation, so triples come from a trusted dealer (`TripleDealer`).  This is
the standard MPC-lab substitution (see DESIGN.md): the *online* phase -- the
part whose round and message complexity determines the scaling behaviour the
paper measures -- is unchanged.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

__all__ = [
    "BitTriple",
    "SharedBitTriple",
    "TripleDealer",
    "mask_dead_lanes",
    "unpack_triple_batch",
]

# The triple-source seam: the GMW engines accept any object exposing the
# dealer's dealing surface --
#
#     deal() -> list[SharedBitTriple]                      (scalar engine)
#     deal_batch(count, lanes) -> (a, b, c) uint64 arrays  (batch engine)
#     issued -> int                                        (circuit-size metric)
#
# ``TripleDealer`` below is the trusted-dealer implementation; the dealerless
# offline subsystem (:mod:`repro.mpc.offline`) provides drop-in sources that
# draw from a distributed preprocessing pipeline instead.


@dataclass(frozen=True)
class BitTriple:
    """A plaintext Beaver triple over GF(2): ``c == a & b``."""

    a: int
    b: int
    c: int

    def __post_init__(self) -> None:
        for name, v in (("a", self.a), ("b", self.b), ("c", self.c)):
            if v not in (0, 1):
                raise ValueError(f"triple component {name} must be a bit, got {v}")
        if self.c != (self.a & self.b):
            raise ValueError("invalid triple: c != a & b")


@dataclass(frozen=True)
class SharedBitTriple:
    """One party's XOR-shares of a Beaver triple."""

    a: int
    b: int
    c: int


class TripleDealer:
    """Trusted dealer handing out XOR-shared Beaver triples to ``parties``.

    The dealer also keeps a count of triples issued: the count equals the
    number of AND gates evaluated, which is the dominant term of the
    circuit-size metric reported in Fig. 6b.
    """

    def __init__(self, parties: int, rng: random.Random):
        if parties < 2:
            raise ValueError(f"need at least 2 parties, got {parties}")
        self.parties = parties
        self._rng = rng
        self._np_rng: np.random.Generator | None = None
        self.issued = 0

    def deal(self) -> list[SharedBitTriple]:
        """Generate one triple and split it into per-party XOR shares."""
        rng = self._rng
        a, b = rng.getrandbits(1), rng.getrandbits(1)
        triple = BitTriple(a=a, b=b, c=a & b)
        shares_a = self._xor_share(triple.a)
        shares_b = self._xor_share(triple.b)
        shares_c = self._xor_share(triple.c)
        self.issued += 1
        return [
            SharedBitTriple(a=shares_a[i], b=shares_b[i], c=shares_c[i])
            for i in range(self.parties)
        ]

    def deal_many(self, count: int) -> list[list[SharedBitTriple]]:
        """Deal ``count`` triples; result indexed ``[triple][party]``.

        Routed through :meth:`deal_batch` so scalar callers get the
        vectorized draw: one full word per 64 triples plus one partial word
        for the remainder, keeping ``issued`` at exactly ``count``.
        """
        if count < 0:
            raise ValueError(f"count must be non-negative, got {count}")
        if count == 0:
            return []
        out: list[list[SharedBitTriple]] = []
        words, rem = divmod(count, 64)
        if words:
            out.extend(unpack_triple_batch(self.deal_batch(words, lanes=64), lanes=64))
        if rem:
            out.extend(unpack_triple_batch(self.deal_batch(1, lanes=rem), lanes=rem))
        return out

    def deal_batch(
        self, count: int, lanes: int = 64
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Deal ``count * lanes`` independent bit triples, bitsliced.

        Returns ``(a, b, c)`` share arrays of shape ``(count, parties)`` and
        dtype ``uint64``: entry ``[g, p]`` holds party ``p``'s XOR share of
        64 lane-parallel triples for gate ``g`` -- bit-lane ``i`` of the
        reconstructed words satisfies ``c = a & b`` independently per lane.
        One raw 64-bit draw of shape ``(3, parties, count)`` -- uniform
        shares of ``a``, ``b`` and ``c``, then one share of ``c`` corrected
        so that ``c`` reconstructs to ``a & b`` -- replaces
        ``3 * parties * count * lanes`` scalar RNG calls, which is what makes
        the batched GMW online phase triple-supply-bound no longer.  The
        returned arrays are gate-contiguous views of that one block.

        With ``lanes < 64`` the unused high bit-lanes are masked to zero in
        every share word, so dead lanes carry no random material and the
        arrays contain exactly the ``count * lanes`` triples that ``issued``
        accounts for.
        """
        if count < 0:
            raise ValueError(f"count must be non-negative, got {count}")
        if not 1 <= lanes <= 64:
            raise ValueError(f"lanes must be in [1, 64], got {lanes}")
        if self._np_rng is None:
            # Seeded from the dealer's own stream so runs stay reproducible.
            self._np_rng = np.random.default_rng(self._rng.getrandbits(64))
        raw = self._np_rng.bit_generator.random_raw((3, self.parties, count))
        a, b, c = np.bitwise_xor.reduce(raw, axis=1)
        raw[2, 0] ^= c ^ (a & b)
        self.issued += count * lanes
        return mask_dead_lanes((raw[0].T, raw[1].T, raw[2].T), lanes)

    def _xor_share(self, bit: int) -> list[int]:
        shares = [self._rng.getrandbits(1) for _ in range(self.parties - 1)]
        parity = 0
        for s in shares:
            parity ^= s
        shares.append(parity ^ bit)
        return shares


def mask_dead_lanes(
    arrays: tuple[np.ndarray, np.ndarray, np.ndarray], lanes: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Zero the unused high bit-lanes of bitsliced triple share arrays.

    Share words always hold 64 lanes; when a consumer only uses the low
    ``lanes`` of them, the remaining bit positions must not carry random
    material -- they are unaccounted-for triples and, in the dealerless
    pipeline, unconsumed correlated randomness.  Masking makes the arrays
    self-describing: what you see is exactly what ``issued`` counted.
    """
    if not 1 <= lanes <= 64:
        raise ValueError(f"lanes must be in [1, 64], got {lanes}")
    if lanes == 64:
        return arrays
    mask = np.uint64((1 << lanes) - 1)
    a, b, c = arrays
    return a & mask, b & mask, c & mask


def unpack_triple_batch(
    arrays: tuple[np.ndarray, np.ndarray, np.ndarray], lanes: int = 64
) -> list[list[SharedBitTriple]]:
    """Explode bitsliced ``(a, b, c)`` share arrays into scalar share lists.

    Inverse of the bitslicing done by :meth:`TripleDealer.deal_batch`:
    returns ``count * lanes`` triples indexed ``[triple][party]``, lane-major
    within each word (lane 0 of word 0 first), matching the order in which
    scalar dealing would have produced them.
    """
    a, b, c = arrays
    count, parties = a.shape
    out: list[list[SharedBitTriple]] = []
    for g in range(count):
        for lane in range(lanes):
            bit = np.uint64(1 << lane)
            out.append(
                [
                    SharedBitTriple(
                        a=int(bool(a[g, p] & bit)),
                        b=int(bool(b[g, p] & bit)),
                        c=int(bool(c[g, p] & bit)),
                    )
                    for p in range(parties)
                ]
            )
    return out
