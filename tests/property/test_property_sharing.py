"""Property-based tests (hypothesis) for the secret-sharing layer."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mpc.additive import AdditiveSharing
from repro.mpc.field import Zq, default_modulus_for_sum
from repro.mpc.secsum import SecSumShare


@given(
    secret=st.integers(min_value=0, max_value=10**9),
    count=st.integers(min_value=2, max_value=8),
    q_exp=st.integers(min_value=1, max_value=30),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=150)
def test_additive_roundtrip(secret, count, q_exp, seed):
    """reconstruct(share(v)) == v mod q for any parameters."""
    ring = Zq(1 << q_exp)
    scheme = AdditiveSharing(ring, count)
    shares = scheme.share(secret, random.Random(seed))
    assert scheme.reconstruct(shares) == secret % ring.q


@given(
    a=st.integers(min_value=0, max_value=10**6),
    b=st.integers(min_value=0, max_value=10**6),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=100)
def test_additive_homomorphism(a, b, seed):
    ring = Zq(1 << 20)
    scheme = AdditiveSharing(ring, 3)
    rng = random.Random(seed)
    sa, sb = scheme.share(a, rng), scheme.share(b, rng)
    assert scheme.reconstruct(scheme.add(sa, sb)) == (a + b) % ring.q


@given(
    bits=st.lists(
        st.lists(st.integers(min_value=0, max_value=1), min_size=1, max_size=5),
        min_size=3,
        max_size=10,
    ),
    c=st.integers(min_value=2, max_value=3),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=100)
def test_secsum_always_sums_correctly(bits, c, seed):
    """SecSumShare invariant 3 (DESIGN.md): coordinator shares always sum to
    the per-identity column totals, for any m >= c and any inputs."""
    n = min(len(row) for row in bits)
    inputs = [row[:n] for row in bits]
    m = len(inputs)
    ring = Zq(default_modulus_for_sum(m))
    result = SecSumShare(m, c, ring, random.Random(seed)).run(inputs)
    for j in range(n):
        assert result.reconstruct(ring, j) == sum(row[j] for row in inputs)
