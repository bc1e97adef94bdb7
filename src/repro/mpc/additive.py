"""(c, c) additive secret sharing with additive homomorphism.

This is the sharing scheme underlying the SecSumShare protocol (paper
Sec. IV-B-1 and Theorem 4.1).  A secret ``v`` in ``Z_q`` is split into ``c``
shares ``s_0 .. s_{c-1}`` with ``sum(s_k) ≡ v (mod q)``: the first ``c - 1``
shares are uniform random ring elements and the last one is chosen to make the
sum correct.

Properties (Thm. 4.1):

* **Recoverability** -- the sum of all ``c`` shares reconstructs the secret.
* **Secrecy** -- any proper subset of shares is jointly uniform and therefore
  statistically independent of the secret.
* **Additive homomorphism** -- share-wise addition of two sharings is a valid
  sharing of the sum of the secrets, which is what lets SecSumShare aggregate
  locally without communication per addition.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.mpc.field import Zq

__all__ = ["AdditiveSharing", "Share"]


@dataclass(frozen=True)
class Share:
    """One additive share: the ``index``-th of ``count`` shares of some secret.

    Shares are tagged with their index and total count purely as a guard
    against protocol bugs (mixing shares of different sharings); the tags
    carry no secret information.
    """

    index: int
    count: int
    value: int

    def __post_init__(self) -> None:
        if not 0 <= self.index < self.count:
            raise ValueError(
                f"share index {self.index} out of range for count {self.count}"
            )
        if self.value < 0:
            raise ValueError(f"share value must be canonical (>= 0), got {self.value}")


class AdditiveSharing:
    """A (c, c) additive secret-sharing scheme over ``Z_q``."""

    def __init__(self, ring: Zq, count: int):
        if count < 2:
            raise ValueError(f"need at least 2 shares, got {count}")
        self.ring = ring
        self.count = count

    def share(self, secret: int, rng: random.Random) -> list[int]:
        """Split ``secret`` into ``count`` raw share values.

        The first ``count - 1`` values are uniform; the last absorbs the
        difference so the modular sum equals the secret.
        """
        secret = self.ring.reduce(secret)
        values = self.ring.random_elements(rng, self.count - 1)
        last = self.ring.sub(secret, self.ring.sum(values))
        values.append(last)
        return values

    @property
    def share_dtype(self) -> np.dtype:
        """The narrowest dtype that holds every ring element: ``uint8`` for
        ``q <= 2**8``, ``uint16`` for ``q <= 2**16``, ``int64`` otherwise --
        a function of the ring, never a setting."""
        q = self.ring.q
        if q <= 1 << 8:
            return np.dtype(np.uint8)
        return np.dtype(np.uint16 if q <= 1 << 16 else np.int64)

    def share_matrix(
        self,
        values: Sequence[int],
        np_rng: np.random.Generator,
        out: np.ndarray | None = None,
    ) -> np.ndarray:
        """Vectorized :meth:`share`: split many secrets with one random draw.

        Returns an ``(len(values), count)`` matrix whose row ``j`` is a
        valid (c, c) sharing of ``values[j]``: the first ``count - 1``
        columns are one uniform batch draw and the last column absorbs the
        modular difference.  The matrix is int64, or ``out`` when given (any
        integer dtype that holds a ring element, e.g. :attr:`share_dtype`).
        Requires ``q < 2**31`` so the column sums fit int64 without
        wrapping.

        The draw is one ``integers(0, q, (len(values), count - 1), int64)``
        call, so sharing a vector in consecutive pieces from one generator
        gives the same matrix as sharing it whole.
        """
        q = self.ring.q
        if q >= 1 << 31:
            raise ValueError("share_matrix requires modulus < 2**31; use share()")
        vals = np.asarray(values, dtype=np.int64) % q
        if vals.ndim != 1:
            raise ValueError(f"expected a 1-D secret vector, got shape {vals.shape}")
        rand = np_rng.integers(0, q, size=(vals.size, self.count - 1), dtype=np.int64)
        if out is None:
            out = np.empty((vals.size, self.count), dtype=np.int64)
        out[:, :-1] = rand
        # last = (vals - Σ rand) mod q, computed in place over ``vals``.
        np.subtract(vals, rand.sum(axis=1), out=vals)
        out[:, -1] = np.remainder(vals, q, out=vals)
        return out

    def share_tagged(self, secret: int, rng: random.Random) -> list[Share]:
        """Like :meth:`share` but returning tagged :class:`Share` objects."""
        return [
            Share(index=k, count=self.count, value=v)
            for k, v in enumerate(self.share(secret, rng))
        ]

    def reconstruct(self, values: Sequence[int]) -> int:
        """Recover the secret from all ``count`` raw share values."""
        if len(values) != self.count:
            raise ValueError(
                f"reconstruction needs exactly {self.count} shares, got {len(values)}"
            )
        return self.ring.sum(values)

    def reconstruct_tagged(self, shares: Sequence[Share]) -> int:
        """Recover the secret from tagged shares, validating the tags."""
        if len(shares) != self.count:
            raise ValueError(
                f"reconstruction needs exactly {self.count} shares, got {len(shares)}"
            )
        seen = set()
        for s in shares:
            if s.count != self.count:
                raise ValueError(
                    f"share tagged for {s.count}-of-{s.count} scheme, expected {self.count}"
                )
            if s.index in seen:
                raise ValueError(f"duplicate share index {s.index}")
            seen.add(s.index)
        return self.ring.sum(s.value for s in shares)

    def add(self, a: Sequence[int], b: Sequence[int]) -> list[int]:
        """Share-wise addition: a valid sharing of ``secret(a) + secret(b)``."""
        if len(a) != self.count or len(b) != self.count:
            raise ValueError("share vectors must both have length == count")
        return [self.ring.add(x, y) for x, y in zip(a, b)]

    def add_constant(self, a: Sequence[int], k: int) -> list[int]:
        """Add a public constant to a sharing (added to share 0 only)."""
        if len(a) != self.count:
            raise ValueError("share vector must have length == count")
        out = list(a)
        out[0] = self.ring.add(out[0], k)
        return out

    def scale(self, a: Sequence[int], k: int) -> list[int]:
        """Multiply a sharing by a public constant."""
        if len(a) != self.count:
            raise ValueError("share vector must have length == count")
        return [self.ring.mul(x, k) for x in a]

    def zero_sharing(self, rng: random.Random) -> list[int]:
        """A fresh random sharing of zero (useful for re-randomization)."""
        return self.share(0, rng)

    def rerandomize(self, a: Sequence[int], rng: random.Random) -> list[int]:
        """Return an independent-looking sharing of the same secret."""
        return self.add(a, self.zero_sharing(rng))
