"""Property suite: vectorised CountBelow thresholds equal the scalar bisection.

``frequency_thresholds`` runs the σ' bisection of Alg. 1 (line 2) elementwise
over the whole ǫ vector; the oracle below is the scalar implementation it
replaced, kept verbatim.  Equality is exact -- the thresholds are public
circuit inputs, so one differing integer changes the construction.
"""

import math
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import PolicyError
from repro.core.policies import (
    BasicPolicy,
    BetaPolicy,
    ChernoffPolicy,
    IncrementedExpectationPolicy,
    basic_beta,
    frequency_threshold,
    frequency_thresholds,
)


def scalar_sigma_threshold(policy: BetaPolicy, epsilon: float, m: int) -> float:
    if policy.beta(1.0, epsilon, m) < 1.0:
        return 1.0
    lo, hi = 0.0, 1.0
    for _ in range(60):
        mid = (lo + hi) / 2.0
        if policy.beta(mid, epsilon, m) >= 1.0:
            hi = mid
        else:
            lo = mid
    return hi


def scalar_frequency_threshold(policy: BetaPolicy, epsilon: float, m: int) -> int:
    sigma = scalar_sigma_threshold(policy, epsilon, m)
    t = math.ceil(sigma * m - 1e-9)
    return max(1, min(t, m + 1))


@dataclass
class SquaredPolicy(BetaPolicy):
    """A custom policy with no ``beta_vector`` override (base-class loop)."""

    name: str = "squared"

    def beta(self, sigma: float, epsilon: float, m: int) -> float:
        return min(1.0, 1.5 * basic_beta(sigma, epsilon) ** 2)


POLICIES = [
    ChernoffPolicy(0.9),
    ChernoffPolicy(0.6),
    BasicPolicy(),
    IncrementedExpectationPolicy(),
    SquaredPolicy(),
]

epsilon_vectors = st.lists(
    st.one_of(
        st.sampled_from([0.0, 1.0, 0.5]),
        st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    ),
    min_size=0,
    max_size=24,
)


@pytest.mark.parametrize(
    "policy", POLICIES, ids=["chernoff-0.9", "chernoff-0.6", "basic", "inc-exp", "custom"]
)
@settings(max_examples=40, deadline=None)
@given(eps=epsilon_vectors, m=st.integers(min_value=1, max_value=1000))
def test_vector_thresholds_equal_scalar_bisection(policy, eps, m):
    got = frequency_thresholds(policy, eps, m)
    assert got.dtype == np.int64
    assert got.tolist() == [scalar_frequency_threshold(policy, e, m) for e in eps]


@settings(max_examples=40, deadline=None)
@given(
    eps=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    m=st.integers(min_value=1, max_value=1000),
)
def test_scalar_entry_point_is_the_one_element_call(eps, m):
    policy = ChernoffPolicy(0.9)
    t = frequency_threshold(policy, eps, m)
    assert isinstance(t, int)
    assert t == scalar_frequency_threshold(policy, eps, m)


@pytest.mark.parametrize("bad", [-0.01, 1.01, float("nan")])
def test_out_of_range_epsilon_rejected(bad):
    with pytest.raises(PolicyError):
        frequency_thresholds(BasicPolicy(), [0.3, bad], 10)
    with pytest.raises(PolicyError):
        frequency_threshold(BasicPolicy(), bad, 10)
