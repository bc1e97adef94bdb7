"""Per-owner sticky-noise streams: the one coin function of republication.

When an owner's row changes (enrollment, move, revocation, a refreshed β),
the delta pipeline must re-publish it -- and ``bench_ablation_refresh.py``
shows that doing so with *fresh* flip coins hands the multi-version
intersection attack a β^k confidence boost per republication.  Sticky coins
fix this, in the owner-major view the update path works in, and an owner
keeps the same coin function for its whole life:

* each delta log holds one long-lived ``noise_key`` (persisted in the log
  header, so reopening the log reproduces the identical streams);
* owner ``j``'s flip coins are one deterministic PRG stream seeded by
  ``SHA-256(domain || key || j)`` -- **prefix-stable**, so growing the
  provider universe extends the stream without disturbing earlier coins;
* the published row is ``true ∪ {p : coin[p] < β_j}``: monotone in β, and
  republishing with the same β_j reproduces the *same* false positives.

The intersection of any number of republications of owner ``j`` therefore
equals the first one, and an observer diffing index versions learns only
the true bit changes the owner actually made -- never which standing bits
are noise.

The stream is numpy's ``default_rng(int(digest))``: ``SeedSequence`` ->
``PCG64`` -> ``random()``.  :meth:`StickyOwnerStream.coins` builds exactly
that, one owner at a time, and is the reference.  Sealing many owners goes
through :meth:`StickyOwnerStream.publish_rows`, which mixes every owner's
``SeedSequence`` pool in one set of uint32 array operations, seeds one
``PCG64`` per owner by assigning its state, and turns the raw words into
doubles as ``(u >> 11) * 2**-53`` -- the same bits, without a ``Generator``
per owner.  ``tests/updates/data/golden_sticky_coins_v1.json`` pins both.
"""

from __future__ import annotations

import hashlib
import operator

import numpy as np

from repro.core.errors import ConstructionError

__all__ = ["StickyOwnerStream"]

_DOMAIN = b"eppi-sticky-owner-v1"

# numpy's SeedSequence mixing constants (pool of four uint32 words) and the
# PCG64 (XSL-RR 128/64) multiplier.
_MASK32 = 0xFFFFFFFF
_MASK128 = (1 << 128) - 1
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = (2549297995355413924 << 64) + 4865540595714422341

# Coins held at once by publish_rows (2 MiB of uint64): a batch of any size
# runs in blocks of owners.
_BLOCK_COINS = 1 << 18


def _owner_index(owner_id) -> int:
    """An owner id as a Python int in ``[0, 2**64)``: the stream hashes it
    as eight big-endian bytes."""
    try:
        owner = operator.index(owner_id)
    except TypeError:
        raise ConstructionError(f"invalid owner id {owner_id!r}") from None
    if not 0 <= owner < 1 << 64:
        raise ConstructionError(f"invalid owner id {owner}")
    return owner


def _true_ids(true_providers) -> np.ndarray:
    true = np.asarray(true_providers, dtype=np.int64)
    if true.ndim != 1:
        raise ConstructionError("true_providers must be a flat id sequence")
    return true


def _check_true_range(true: np.ndarray, n_providers: int) -> None:
    if true.size and (true.min() < 0 or true.max() >= n_providers):
        raise ConstructionError("true provider id out of range")


def _pcg_seeds(words: np.ndarray) -> np.ndarray:
    """``SeedSequence(entropy).generate_state(4, np.uint64)`` for many
    eight-word entropies at once.

    ``words`` is ``uint64[8, k]``: row ``i`` holds entropy word ``i`` (least
    significant first) of each of ``k`` owners.  uint32 arithmetic runs in
    uint64 lanes and is masked back, so no product overflows.  Returns
    ``uint64[4, k]``: PCG64's ``(seed_hi, seed_lo, inc_hi, inc_lo)``.
    """
    mask = np.uint64(_MASK32)
    shift = np.uint64(16)
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ np.uint64(hash_const)
        hash_const = (hash_const * _MULT_A) & _MASK32
        value = (value * np.uint64(hash_const)) & mask
        return value ^ (value >> shift)

    def mix(x, y):
        result = (np.uint64(_MIX_MULT_L) * x - np.uint64(_MIX_MULT_R) * y) & mask
        return result ^ (result >> shift)

    pool = [hashmix(words[i]) for i in range(4)]
    for i_src in range(4):
        for i_dst in range(4):
            if i_src != i_dst:
                pool[i_dst] = mix(pool[i_dst], hashmix(pool[i_src]))
    for i_src in range(4, 8):
        for i_dst in range(4):
            pool[i_dst] = mix(pool[i_dst], hashmix(words[i_src]))
    state = []
    hash_const = _INIT_B
    for i in range(8):
        value = pool[i % 4] ^ np.uint64(hash_const)
        hash_const = (hash_const * _MULT_B) & _MASK32
        value = (value * np.uint64(hash_const)) & mask
        state.append(value ^ (value >> shift))
    return np.array([state[i] | (state[i + 1] << np.uint64(32)) for i in (0, 2, 4, 6)])


class StickyOwnerStream:
    """Deterministic per-owner flip-coin streams under one secret key."""

    def __init__(self, key: bytes):
        if not key:
            raise ConstructionError("noise key must be non-empty")
        self._key = bytes(key)

    @property
    def key(self) -> bytes:
        return self._key

    def _digest(self, owner: int) -> bytes:
        return hashlib.sha256(_DOMAIN + self._key + owner.to_bytes(8, "big")).digest()

    def coins(self, owner_id: int, n_providers: int) -> np.ndarray:
        """The first ``n_providers`` uniform draws of owner ``owner_id``'s
        stream.  Prefix-stable: ``coins(j, n)[:k] == coins(j, k)`` for any
        ``k <= n``, so the same coins survive provider-universe growth.
        """
        owner = _owner_index(owner_id)
        if n_providers < 0:
            raise ConstructionError(f"invalid provider count {n_providers}")
        rng = np.random.default_rng(int.from_bytes(self._digest(owner), "big"))
        return rng.random(n_providers)

    def publish_row(
        self,
        owner_id: int,
        true_providers,
        beta: float,
        n_providers: int,
    ) -> np.ndarray:
        """Sticky owner-major analogue of Eq. 2: the published provider ids.

        Returns a sorted ``int32`` array ``true ∪ {p : coin[p] < beta}``.
        Same β -> identical false-positive set; β' >= β -> superset
        (coins are compared, never redrawn).
        """
        if not 0.0 <= beta <= 1.0:
            raise ConstructionError(f"beta must lie in [0, 1], got {beta}")
        true = _true_ids(true_providers)
        _check_true_range(true, n_providers)
        published = self.coins(owner_id, n_providers) < beta
        published[true] = True
        return np.nonzero(published)[0].astype(np.int32)

    # -- the batched kernel ---------------------------------------------------

    def publish_rows(
        self, owners, true_sets, betas, n_providers: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """:meth:`publish_row` for many owners in one call, as a CSR batch.

        Returns ``(counts, indices)``: ``int64`` row lengths and the
        ``int32`` rows concatenated, row ``k`` being bit-identical to
        ``publish_row(owners[k], true_sets[k], betas[k], n_providers)``.
        Owner ids follow :meth:`coins`' rule.
        """
        owners = [_owner_index(owner) for owner in owners]
        betas = np.asarray(betas, dtype=np.float64)
        if len(true_sets) != len(owners) or betas.shape != (len(owners),):
            raise ConstructionError(
                "owners, true_sets and betas need one entry per owner"
            )
        if n_providers < 0:
            raise ConstructionError(f"invalid provider count {n_providers}")
        bad = ~((betas >= 0.0) & (betas <= 1.0))  # NaN is bad too
        if bad.any():
            raise ConstructionError(
                f"beta must lie in [0, 1], got {betas[bad][0]}"
            )
        trues = [_true_ids(true) for true in true_sets]
        flat = np.concatenate(trues) if trues else np.zeros(0, dtype=np.int64)
        _check_true_range(flat, n_providers)
        sizes = np.array([true.size for true in trues], dtype=np.int64)
        offsets = np.zeros(len(owners) + 1, dtype=np.int64)
        np.cumsum(sizes, out=offsets[1:])
        rows_of_true = np.repeat(np.arange(len(owners)), sizes)

        counts = np.zeros(len(owners), dtype=np.int64)
        indices = []
        step = max(1, _BLOCK_COINS // max(n_providers, 1))
        for lo in range(0, len(owners), step):
            hi = min(lo + step, len(owners))
            published = self._coin_block(owners[lo:hi], n_providers) < betas[lo:hi, None]
            t_lo, t_hi = offsets[lo], offsets[hi]
            published[rows_of_true[t_lo:t_hi] - lo, flat[t_lo:t_hi]] = True
            counts[lo:hi] = np.count_nonzero(published, axis=1)
            indices.append(np.nonzero(published)[1].astype(np.int32))
        flat_rows = np.concatenate(indices) if indices else np.zeros(0, dtype=np.int32)
        return counts, flat_rows

    def _coin_block(self, owners: list, n_providers: int) -> np.ndarray:
        """``coins(j, n_providers)`` of every owner, as ``float64[k, n]``."""
        digests = b"".join(self._digest(owner) for owner in owners)
        # Big-endian digest -> the entropy integer's 32-bit words, least
        # significant first (SeedSequence's word order).
        words = np.frombuffer(digests, dtype=">u4").reshape(-1, 8)[:, ::-1]
        words = words.T.astype(np.uint64)
        seed_hi, seed_lo, inc_hi, inc_lo = (row.tolist() for row in _pcg_seeds(words))
        # A zero top word leaves SeedSequence fewer than eight entropy words
        # (about one owner in 2**32): those owners take the reference path.
        short = np.flatnonzero(words[7] == 0).tolist()
        raw = np.empty((len(owners), n_providers), dtype=np.uint64)
        bitgen = np.random.PCG64(0)
        state = {"state": 0, "inc": 0}
        full = {"bit_generator": "PCG64", "state": state, "has_uint32": 0, "uinteger": 0}
        for k in range(len(owners)):
            # pcg64_set_seed: inc = seq << 1 | 1; two LCG steps around
            # adding the seed; PCG64 then steps before every output.
            inc = ((((inc_hi[k] << 64) | inc_lo[k]) << 1) | 1) & _MASK128
            seed = (seed_hi[k] << 64) | seed_lo[k]
            state["state"] = ((inc + seed) * _PCG_MULT + inc) & _MASK128
            state["inc"] = inc
            bitgen.state = full
            raw[k] = bitgen.random_raw(n_providers)
        coins = (raw >> np.uint64(11)) * (1.0 / (1 << 53))
        for k in short:
            coins[k] = self.coins(owners[k], n_providers)
        return coins
