"""Modular (ring ``Z_q``) arithmetic used by the secret-sharing layer.

The SecSumShare protocol of the paper (Sec. IV-B-1) works in the ring of
integers modulo a public modulus ``q``.  ``q`` must be strictly larger than the
largest possible secret sum -- for the frequency sums of the paper this means
``q > m`` (the number of providers) so that identity frequencies never wrap.

All shares in this codebase are plain Python ints reduced modulo ``q``; this
module centralizes the modular arithmetic so protocols never hand-roll ``%``
expressions (and so a swap of the ring touches one file).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable, Sequence

__all__ = ["Zq", "default_modulus_for_sum"]


def default_modulus_for_sum(max_sum: int) -> int:
    """Return a safe modulus for secrets whose sum never exceeds ``max_sum``.

    A power of two is chosen for cheap reduction; correctness only requires
    ``q > max_sum``.
    """
    if max_sum < 0:
        raise ValueError(f"max_sum must be non-negative, got {max_sum}")
    q = 1
    while q <= max_sum:
        q <<= 1
    return q


@dataclass(frozen=True)
class Zq:
    """The ring of integers modulo ``q``.

    Instances are tiny immutable value objects; protocols hold one and use it
    for every arithmetic step so the modulus is impossible to mix up between
    parties.
    """

    q: int

    def __post_init__(self) -> None:
        if self.q < 2:
            raise ValueError(f"modulus must be >= 2, got {self.q}")

    def reduce(self, x: int) -> int:
        """Reduce an integer into canonical range ``[0, q)``."""
        return x % self.q

    def add(self, a: int, b: int) -> int:
        return (a + b) % self.q

    def sub(self, a: int, b: int) -> int:
        return (a - b) % self.q

    def mul(self, a: int, b: int) -> int:
        return (a * b) % self.q

    def neg(self, a: int) -> int:
        return (-a) % self.q

    def sum(self, xs: Iterable[int]) -> int:
        """Sum of many ring elements."""
        total = 0
        for x in xs:
            total += x
        return total % self.q

    def inv(self, a: int) -> int:
        """Multiplicative inverse (requires ``gcd(a, q) == 1``)."""
        a = a % self.q
        if a == 0:
            raise ZeroDivisionError("0 has no multiplicative inverse")
        g, x = _extended_gcd(a, self.q)
        if g != 1:
            raise ZeroDivisionError(f"{a} is not invertible modulo {self.q}")
        return x % self.q

    def pow(self, a: int, e: int) -> int:
        return pow(a % self.q, e, self.q)

    def random_element(self, rng: random.Random) -> int:
        """Uniformly random ring element."""
        return rng.randrange(self.q)

    def random_elements(self, rng: random.Random, count: int) -> list[int]:
        return [rng.randrange(self.q) for _ in range(count)]

    def contains(self, x: int) -> bool:
        return 0 <= x < self.q

    def check_all(self, xs: Sequence[int]) -> None:
        """Raise ``ValueError`` if any element is outside canonical range."""
        for x in xs:
            if not self.contains(x):
                raise ValueError(f"element {x} outside Z_{self.q}")


def _extended_gcd(a: int, b: int) -> tuple[int, int]:
    """Return ``(g, x)`` with ``g = gcd(a, b)`` and ``a*x ≡ g (mod b)``."""
    old_r, r = a, b
    old_x, x = 1, 0
    while r != 0:
        quotient = old_r // r
        old_r, r = r, old_r - quotient * r
        old_x, x = x, old_x - quotient * x
    return old_r, old_x
