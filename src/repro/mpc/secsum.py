"""SecSumShare: the parallel secure-sum protocol (paper Sec. IV-B-1, Fig. 3).

Given ``m`` providers each holding a private Boolean per identity, the
protocol outputs ``c`` coordinator-held shares whose sum (mod q) equals the
identity's frequency -- *without* any party learning the frequency or any
other party's input.  It runs in four steps:

1. **Generating shares** -- provider ``p_i`` splits its bit ``M(i, j)`` into
   ``c`` additive shares ``S(i, j, k)``;
2. **Distributing shares** -- share ``k`` goes to the ``k``-th ring successor
   ``p_{(i+k) mod m}`` (share 0 stays local);
3. **Summing shares** -- each provider sums everything it received into a
   *super-share*;
4. **Aggregating super-shares** -- provider ``i`` ships its super-share to
   coordinator ``i mod c``; coordinator sums arrivals into ``s(k, j)``.

Guarantees (Sec. IV-C): (2c−3)-secrecy of inputs and c-secrecy of the output
sum (Thm. 4.1 -- the coordinator shares form a (c, c) additive sharing).

This module is the *computation* of the protocol: deterministic data-flow
with per-party transcripts for the secrecy tests (kept as compact share
arrays, expanded to lists the first time they are read).  The message-level version
timed by the Fig. 6 benchmarks runs on the network simulator in
:mod:`repro.protocol.secsum_nodes`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np

from repro.mpc.additive import AdditiveSharing
from repro.mpc.field import Zq

__all__ = ["SecSumShare", "SecSumResult", "ProviderView"]

# Inputs shared per block of the vectorised run: the transient int64 work is
# a few MiB at any m * n, and an incremental pass over a few hundred dirty
# columns is still one block.
_BLOCK_ELEMENTS = 1 << 18


@dataclass
class ProviderView:
    """Everything provider ``i`` observes during one run (for secrecy tests)."""

    provider: int
    received_shares: list[int] = field(default_factory=list)
    super_share: int = 0


class SecSumResult:
    """Coordinator shares plus per-party observability data.

    ``coordinator_shares[k][j]`` is coordinator ``k``'s share of identity
    ``j``: a ``(c, n)`` int64 array out of the vectorised run and out of
    :meth:`SecSumShare.apply_delta`, nested lists of Python ints out of the
    big-modulus reference run (whose elements may not fit a machine word).

    The vectorised run keeps its data flow compact, at the ring's width
    (:attr:`~repro.mpc.additive.AdditiveSharing.share_dtype`): ``shares``
    is the ``(m, n, c)`` array of every provider's shares and ``supers``
    the ``(m, n)`` super-shares.  The per-party transcripts only the secrecy
    tests read -- ``provider_views`` and ``coordinator_received``, lists of
    Python ints -- are built from them the first time they are read.
    """

    def __init__(
        self,
        coordinator_shares: Union[np.ndarray, list[list[int]]],
        *,
        shares: Optional[np.ndarray] = None,
        supers: Optional[np.ndarray] = None,
        provider_views: Optional[list[ProviderView]] = None,
        coordinator_received: Optional[list[list[int]]] = None,
    ):
        self.coordinator_shares = coordinator_shares
        self.shares = shares
        self.supers = supers
        self._provider_views = provider_views
        self._coordinator_received = coordinator_received

    @property
    def provider_views(self) -> list[ProviderView]:
        """What each provider observed: the shares it received from its
        ring predecessors, in sender order, and its first super-share."""
        if self._provider_views is None:
            m, n_ids, c = self.shares.shape
            views = []
            for dest in range(m):
                senders, ks = zip(*sorted(((dest - k) % m, k) for k in range(1, c)))
                received = self.shares[list(senders), :, list(ks)]  # (c - 1, n_ids)
                views.append(
                    ProviderView(provider=dest, received_shares=received.reshape(-1).tolist())
                )
            if n_ids:
                for view, first in zip(views, self.supers[:, 0].tolist()):
                    view.super_share = first
            self._provider_views = views
        return self._provider_views

    @property
    def coordinator_received(self) -> list[list[int]]:
        """The super-shares coordinator ``k`` received, in provider order."""
        if self._coordinator_received is None:
            c = self.shares.shape[2]
            self._coordinator_received = [
                self.supers[k::c].reshape(-1).tolist() for k in range(c)
            ]
        return self._coordinator_received

    def reconstruct_many(self, ring: Zq, identities) -> np.ndarray:
        """Open the frequencies of ``identities`` (requires all c shares)."""
        shares = np.asarray(self.coordinator_shares, dtype=_share_dtype(ring))
        return shares[:, identities].sum(axis=0) % ring.q

    def reconstruct(self, ring: Zq, identity: int) -> int:
        """Open the frequency of one identity (requires all c shares)."""
        return int(self.reconstruct_many(ring, [identity])[0])


def _share_dtype(ring: Zq):
    """int64 where ``c * q`` cannot wrap it, Python ints otherwise -- the
    same split as :meth:`SecSumShare.run`'s vectorised/scalar dispatch."""
    return np.int64 if ring.q < 1 << 31 else object


class SecSumShare:
    """One SecSumShare instance over ``m`` providers with ``c`` shares."""

    def __init__(self, m: int, c: int, ring: Zq, rng: random.Random):
        if c < 2:
            raise ValueError(f"collusion parameter c must be >= 2, got {c}")
        if m < c:
            raise ValueError(f"need at least c={c} providers, got {m}")
        self.m = m
        self.c = c
        self.ring = ring
        self._rng = rng
        self._sharing = AdditiveSharing(ring, c)

    def run(self, inputs: list[list[int]]) -> SecSumResult:
        """Execute the protocol for all identities at once.

        ``inputs[i][j]`` is provider ``i``'s private value for identity ``j``
        (a membership bit in the paper, but any ring element sums correctly).
        """
        m, c = self.m, self.c
        if len(inputs) != m:
            raise ValueError(f"expected inputs from {m} providers, got {len(inputs)}")
        n_ids = len(inputs[0])
        for i, row in enumerate(inputs):
            if len(row) != n_ids:
                raise ValueError(
                    f"provider {i} supplied {len(row)} values, expected {n_ids}"
                )
        if self.ring.q < 1 << 31:
            # An integer matrix is read as it is (uint8 bits stay one byte
            # each); each block is widened to int64 only while it is shared.
            matrix = np.asarray(inputs)
            if matrix.dtype.kind not in "iu":
                matrix = matrix.astype(np.int64)
            return self._run_vectorized(matrix)
        return self._run_scalar(inputs, n_ids)

    def _run_vectorized(self, inputs: np.ndarray) -> SecSumResult:
        """Array implementation for ``q < 2**31``, streamed in provider blocks.

        Realizes the data flow of :meth:`_run_scalar` with O(m*c) numpy ops
        per block of about ``_BLOCK_ELEMENTS`` inputs.  Shares and
        super-shares are stored at the ring's width, and int64 temporaries
        never outgrow one block, whatever ``m * n``.  A block is whole
        providers, drawn right after the previous block from the one
        generator, so the shares are those one ``share_matrix`` draw over
        all inputs would give.
        """
        m, c, q = self.m, self.c, self.ring.q
        n_ids = inputs.shape[1]
        np_rng = np.random.default_rng(self._rng.getrandbits(64))
        rows = max(1, _BLOCK_ELEMENTS // max(n_ids, 1))
        dtype = self._sharing.share_dtype

        # Step 1: shares[i, j, k] = share k of M(i, j).
        shares = np.empty((m, n_ids, c), dtype=dtype)
        for i in range(0, m, rows):
            self._sharing.share_matrix(
                inputs[i:i + rows].reshape(-1), np_rng,
                out=shares[i:i + rows].reshape(-1, c),
            )

        # Steps 2-3: ring distribution and super-shares.  Provider i
        # receives share k from sender (i - k) % m (share 0 stays local) and
        # sums everything it holds.
        supers = np.empty((m, n_ids), dtype=dtype)
        for i in range(0, m, rows):
            dest = np.arange(i, min(i + rows, m))
            acc = shares[dest, :, 0].astype(np.int64)
            for k in range(1, c):
                acc += shares[(dest - k) % m, :, k]
            supers[i:i + rows] = np.remainder(acc, q, out=acc)

        # Step 4: aggregate at c coordinators; provider i reports to i mod c.
        coordinator_shares = np.empty((c, n_ids), dtype=np.int64)
        for k in range(c):
            coordinator_shares[k] = supers[k::c].sum(axis=0, dtype=np.int64) % q
        return SecSumResult(coordinator_shares, shares=shares, supers=supers)

    def apply_delta(
        self,
        prev: SecSumResult,
        inputs: list[list[int]],
        dirty: list[int],
    ) -> SecSumResult:
        """Re-share only the *dirty* identity columns; reuse held shares.

        ``prev`` is the result of an earlier :meth:`run` (or an earlier
        ``apply_delta``) over the same ``m``/``c`` topology.  ``dirty`` names
        the identity columns whose bits may have changed and ``inputs`` holds
        the providers' *new* values: the full input matrix, or -- for a
        caller that has already gathered (and validated) them -- just its
        dirty columns, in ascending identity order.  The protocol is
        re-executed over exactly the dirty sub-matrix -- the same four
        SecSumShare steps, restricted to ``len(dirty)`` columns, so the
        secure work (and the wire traffic modelled from it) is
        ``O(m * |dirty|)`` instead of ``O(m * n)`` -- and the fresh
        coordinator shares are spliced into a copy of the held vectors.

        Clean columns keep their previous coordinator shares verbatim: an
        additive sharing does not go stale, so reuse leaks nothing new.
        Returns a new :class:`SecSumResult` whose per-party transcripts
        cover only the delta run (what actually crossed the wire).
        """
        m, c = self.m, self.c
        if len(inputs) != m:
            raise ValueError(f"expected inputs from {m} providers, got {len(inputs)}")
        if len(prev.coordinator_shares) != c:
            raise ValueError(
                f"previous result carries {len(prev.coordinator_shares)} "
                f"coordinator share vectors, expected {c}"
            )
        dirty_ids = sorted(set(int(j) for j in dirty))
        # A matrix exactly as wide as the dirty set *is* the gathered
        # sub-matrix (trivially so with every column dirty); the identity
        # universe is then the held result's.
        gathered = len(inputs[0]) == len(dirty_ids)
        n_ids = len(prev.coordinator_shares[0]) if gathered else len(inputs[0])
        for k, shares in enumerate(prev.coordinator_shares):
            if len(shares) != n_ids:
                raise ValueError(
                    f"coordinator {k} held {len(shares)} shares, "
                    f"inputs cover {n_ids} identities"
                )
        if dirty_ids and not 0 <= dirty_ids[0] <= dirty_ids[-1] < n_ids:
            raise ValueError(f"dirty identity out of range: {dirty_ids}")
        coordinator_shares = np.array(
            prev.coordinator_shares, dtype=_share_dtype(self.ring)
        )
        if not dirty_ids:
            return SecSumResult(
                coordinator_shares=coordinator_shares,
                provider_views=[ProviderView(provider=i) for i in range(m)],
                coordinator_received=[[] for _ in range(c)],
            )
        delta = self.run(
            inputs if gathered else [[row[j] for j in dirty_ids] for row in inputs]
        )
        coordinator_shares[:, dirty_ids] = delta.coordinator_shares
        delta.coordinator_shares = coordinator_shares
        return delta

    def _run_scalar(self, inputs: list[list[int]], n_ids: int) -> SecSumResult:
        """Reference implementation (also the big-modulus fallback)."""
        m, c = self.m, self.c

        # Step 1: every provider shares every input value into c pieces.
        # shares[i][j] = list of c share values of M(i, j).
        shares = [
            [self._sharing.share(value, self._rng) for value in row]
            for row in inputs
        ]

        # Step 2: ring distribution -- share k of provider i lands at
        # provider (i + k) mod m.  received[i][j] collects what p_i holds.
        received: list[list[list[int]]] = [
            [[] for _ in range(n_ids)] for _ in range(m)
        ]
        views = [ProviderView(provider=i) for i in range(m)]
        for i in range(m):
            for j in range(n_ids):
                for k in range(c):
                    dest = (i + k) % m
                    value = shares[i][j][k]
                    received[dest][j].append(value)
                    if dest != i:
                        views[dest].received_shares.append(value)

        # Step 3: super-shares.
        supers = [
            [self.ring.sum(received[i][j]) for j in range(n_ids)] for i in range(m)
        ]
        for i in range(m):
            # Record the (single-identity-summed) super share for inspection.
            views[i].super_share = supers[i][0] if n_ids else 0

        # Step 4: aggregate at c coordinators (providers 0 .. c-1 by
        # convention); provider i reports to coordinator i mod c.
        coordinator_shares = [[0] * n_ids for _ in range(c)]
        coordinator_received: list[list[int]] = [[] for _ in range(c)]
        for i in range(m):
            k = i % c
            for j in range(n_ids):
                coordinator_shares[k][j] = self.ring.add(
                    coordinator_shares[k][j], supers[i][j]
                )
            coordinator_received[k].extend(supers[i])
        return SecSumResult(
            coordinator_shares=coordinator_shares,
            provider_views=views,
            coordinator_received=coordinator_received,
        )
