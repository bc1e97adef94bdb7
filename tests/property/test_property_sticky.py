"""Property-based tests for sticky publication and intersection stability.

Coin-level properties of :class:`StickyOwnerStream` (prefix stability,
β-monotone rows, per-row recall) live in ``test_property_updates.py``; these
check the whole published matrix the intersection attacker sees.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.attacks.intersection import intersection_attack
from repro.core.model import MembershipMatrix

from tests.attacks.test_intersection import sticky_publish

KEY = b"\x11" * 16

cells = st.sets(
    st.tuples(
        st.integers(min_value=0, max_value=9),
        st.integers(min_value=0, max_value=4),
    ),
    max_size=20,
)


def membership(pairs) -> MembershipMatrix:
    matrix = MembershipMatrix(10, 5)
    for pid, oid in pairs:
        matrix.set(pid, oid)
    return matrix


@given(
    cells=cells,
    beta=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    versions=st.integers(min_value=1, max_value=5),
)
@settings(max_examples=80)
def test_sticky_intersection_fixed_point(cells, beta, versions):
    """Any number of sticky republications intersect to the first version."""
    matrix = membership(cells)
    betas = np.full(matrix.n_owners, beta)
    published = [sticky_publish(matrix, betas, KEY) for _ in range(versions)]
    result = intersection_attack(matrix, published)
    assert np.array_equal(result.intersection, published[0])


@given(cells=cells, beta=st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
@settings(max_examples=80)
def test_sticky_recall_invariant(cells, beta):
    """Sticky publication preserves the truthful rule like Eq. 2 does."""
    matrix = membership(cells)
    published = sticky_publish(matrix, np.full(matrix.n_owners, beta), KEY)
    dense = matrix.to_dense()
    assert np.all(published[dense == 1] == 1)
