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
with per-party transcripts for the secrecy tests.  The message-level version
timed by the Fig. 6 benchmarks runs on the network simulator in
:mod:`repro.protocol.secsum_nodes`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Union

import numpy as np

from repro.mpc.additive import AdditiveSharing
from repro.mpc.field import Zq

__all__ = ["SecSumShare", "SecSumResult", "ProviderView"]


@dataclass
class ProviderView:
    """Everything provider ``i`` observes during one run (for secrecy tests)."""

    provider: int
    received_shares: list[int] = field(default_factory=list)
    super_share: int = 0


@dataclass
class SecSumResult:
    """Coordinator shares plus per-party observability data.

    ``coordinator_shares[k][j]`` is coordinator ``k``'s share of identity
    ``j``: a ``(c, n)`` int64 array out of the vectorised run and out of
    :meth:`SecSumShare.apply_delta`, nested lists of Python ints out of the
    big-modulus reference run (whose elements may not fit a machine word).
    """

    coordinator_shares: Union[np.ndarray, list[list[int]]]
    provider_views: list[ProviderView]
    coordinator_received: list[list[int]]  # super-shares seen by coordinator k

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
            return self._run_vectorized(np.asarray(inputs, dtype=np.int64))
        return self._run_scalar(inputs, n_ids)

    def _run_vectorized(self, inputs: np.ndarray) -> SecSumResult:
        """Array implementation: one RNG draw and O(m*c) numpy ops total.

        Replaces the per-element Python loops of :meth:`_run_scalar`; both
        paths realize the identical protocol data-flow, this one bounded by
        ``q < 2**31`` so int64 accumulation cannot wrap.
        """
        m, c, q = self.m, self.c, self.ring.q
        n_ids = inputs.shape[1]
        np_rng = np.random.default_rng(self._rng.getrandbits(64))

        # Step 1: shares[i, j, k] = share k of M(i, j), all drawn at once.
        shares = self._sharing.share_matrix(inputs.reshape(-1), np_rng).reshape(
            m, n_ids, c
        )

        # Step 2: ring distribution.  Provider dest receives share k from
        # sender (dest - k) % m, one whole identity-row per (sender, k)
        # pair; the transcript lists them in sender order.
        views = []
        for dest in range(m):
            senders, ks = zip(*sorted(((dest - k) % m, k) for k in range(1, c)))
            received = shares[list(senders), :, list(ks)]  # (c - 1, n_ids)
            views.append(
                ProviderView(provider=dest, received_shares=received.reshape(-1).tolist())
            )

        # Step 3: super-shares.  received-by-i share k came from (i - k) % m,
        # i.e. rolling the sender axis forward by k aligns it with i.
        supers = np.zeros((m, n_ids), dtype=np.int64)
        for k in range(c):
            supers += np.roll(shares[:, :, k], shift=k, axis=0)
        supers %= q
        if n_ids:
            for view, first in zip(views, supers[:, 0].tolist()):
                view.super_share = first

        # Step 4: aggregate at c coordinators; provider i reports to i mod c.
        coordinator_shares = np.empty((c, n_ids), dtype=np.int64)
        coordinator_received: list[list[int]] = []
        for k in range(c):
            mine = supers[k::c]
            coordinator_shares[k] = mine.sum(axis=0) % q
            coordinator_received.append(mine.reshape(-1).tolist())
        return SecSumResult(
            coordinator_shares=coordinator_shares,
            provider_views=views,
            coordinator_received=coordinator_received,
        )

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
        return SecSumResult(
            coordinator_shares=coordinator_shares,
            provider_views=delta.provider_views,
            coordinator_received=delta.coordinator_received,
        )

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
