"""Bitsliced CountBelow and β-selection against plaintext ground truth.

The contract of the construction path:

* the three opened CountBelow aggregates equal the plaintext counts and ξ,
  over degenerate (single identity), partial, exactly-one-word and ragged
  (64 + 1) fleets;
* selection publishes every common identity and follows λ's extremes;
* the full `secure_beta_calculation` pipeline produces the reference β
  vector.
"""

import math
import random

import pytest

from repro.core.policies import BasicPolicy, frequency_threshold
from repro.mpc.betacalc import secure_beta_calculation
from repro.mpc.countbelow import run_beta_selection, run_count_below, scale_epsilon
from repro.mpc.field import Zq, default_modulus_for_sum
from repro.mpc.secsum import SecSumShare


def _setup(m, c, n_ids, seed, q=None):
    rng = random.Random(seed)
    ring = Zq(q if q is not None else default_modulus_for_sum(m))
    inputs = [[rng.randint(0, 1) for _ in range(n_ids)] for _ in range(m)]
    shares = SecSumShare(m, c, ring, random.Random(seed + 1)).run(inputs)
    return ring, inputs, shares.coordinator_shares


@pytest.mark.parametrize(
    "m,c,n_ids,high",
    [
        (8, 2, 1, 4),  # single identity: degenerate trees
        (8, 3, 17, 4),
        (12, 4, 64, 6),  # exactly one full lane chunk
        (10, 3, 65, 5),  # ragged chunk (64 + 1)
        (5, 2, 3, 3),  # odd carry at the first tree level
        (16, 5, 63, 8),  # one lane short of a full chunk
        (9, 3, 128, 5),  # two full chunks
        (7, 2, 129, 4),  # two full chunks and a one-lane tail
    ],
)
def test_count_below_matches_plaintext(m, c, n_ids, high):
    ring, inputs, coord = _setup(m, c, n_ids, seed=m * 100 + n_ids)
    rng = random.Random(77)
    thresholds = [rng.randint(1, m) for _ in range(n_ids)]
    if n_ids > 2:
        thresholds[2] = ring.q * 10  # unreachable threshold arm
    eps = [rng.random() for _ in range(n_ids)]
    res = run_count_below(
        coord, thresholds, eps, ring, random.Random(5), high_threshold=high
    )
    # Ground truth: broadcast iff the frequency reaches a representable
    # threshold; truly common iff it also reaches ``high``.
    freqs = [sum(row[j] for row in inputs) for j in range(n_ids)]
    broadcast = [
        thresholds[j] < ring.q and freqs[j] >= thresholds[j] for j in range(n_ids)
    ]
    truly = [j for j in range(n_ids) if broadcast[j] and freqs[j] >= high]
    assert res.n_common == len(truly)
    assert res.n_natural_decoys == sum(broadcast) - len(truly)
    assert res.xi_scaled == max((scale_epsilon(eps[j]) for j in truly), default=0)
    assert res.total_gates > 0


@pytest.mark.parametrize("lambda_", [0.0, 0.35, 1.0])
def test_selection_commons_and_lambda_extremes(lambda_):
    ring, inputs, coord = _setup(9, 3, 40, seed=8)
    rng = random.Random(2)
    thresholds = [rng.randint(1, 9) for _ in range(40)]
    res = run_beta_selection(coord, thresholds, lambda_, ring, random.Random(6))
    assert res.stats.and_gates == 40 * res.stats_per_identity.and_gates
    # Commons always selected; λ extremes fully determine the rest.
    freqs = [sum(row[j] for row in inputs) for j in range(40)]
    for j in range(40):
        if freqs[j] >= thresholds[j]:
            assert res.publish_as_one[j] == 1
        elif lambda_ == 0.0:
            assert res.publish_as_one[j] == 0
        elif lambda_ == 1.0:
            assert res.publish_as_one[j] == 1


@pytest.mark.parametrize("n_ids", [1, 63, 64, 65, 129])
def test_selection_across_lane_boundaries(n_ids):
    """λ = 0 publishes exactly the commons and λ = 1 publishes everything,
    whatever the fleet's split into 64-lane words."""
    ring, inputs, coord = _setup(7, 3, n_ids, seed=n_ids)
    rng = random.Random(n_ids + 1)
    thresholds = [rng.randint(1, 7) for _ in range(n_ids)]
    freqs = [sum(row[j] for row in inputs) for j in range(n_ids)]
    commons = [int(freqs[j] >= thresholds[j]) for j in range(n_ids)]
    none = run_beta_selection(coord, thresholds, 0.0, ring, random.Random(3))
    every = run_beta_selection(coord, thresholds, 1.0, ring, random.Random(4))
    assert list(none.publish_as_one) == commons
    assert list(every.publish_as_one) == [1] * n_ids
    for res in (none, every):
        assert res.stats.and_gates == n_ids * res.stats_per_identity.and_gates


def test_only_batch_engine_accepted():
    with pytest.raises(ValueError, match="engine"):
        secure_beta_calculation(
            [[1, 0], [0, 1]], [0.5, 0.5], BasicPolicy(), 2, random.Random(0),
            engine="mono",
        )


def test_secure_beta_calculation_matches_reference():
    """End-to-end Alg. 1 vs the trusted computation."""
    _check_against_reference(10, 3, 25, seed=21)


@pytest.mark.parametrize(
    "m,c,n_ids",
    [
        (6, 2, 1),  # two coordinators, single identity
        (12, 5, 64),  # five coordinators, one full lane chunk
        (9, 4, 65),  # ragged chunk
    ],
)
def test_secure_beta_calculation_matches_reference_across_shapes(m, c, n_ids):
    _check_against_reference(m, c, n_ids, seed=m * 1000 + c * 100 + n_ids)


def _check_against_reference(m, c, n_ids, seed):
    policy = BasicPolicy()
    rng = random.Random(seed)
    provider_bits = [[rng.randint(0, 1) for _ in range(n_ids)] for _ in range(m)]
    epsilons = [rng.random() for _ in range(n_ids)]
    result = secure_beta_calculation(
        provider_bits, epsilons, policy, c, random.Random(33)
    )

    freqs = [sum(row[j] for row in provider_bits) for j in range(n_ids)]
    # Selected identities publish with β=1; the rest get the clear β*.
    for j in range(n_ids):
        if result.publish_as_one[j]:
            assert result.betas[j] == 1.0
        else:
            expected = policy.beta(freqs[j] / m, epsilons[j], m)
            assert result.betas[j] == pytest.approx(expected)
    # Opened frequencies are exact.
    for j, f in result.opened_frequencies.items():
        assert f == freqs[j]
    # n_common matches the trusted count of truly common identities.
    thresholds = [frequency_threshold(policy, e, m) for e in epsilons]
    high = max(1, math.ceil(0.5 * m))
    expected_common = sum(
        1 for j in range(n_ids) if freqs[j] >= thresholds[j] and freqs[j] >= high
    )
    assert result.n_common == expected_common


def test_distributed_construction_smoke():
    """The simulator replays per-identity costs from a bitsliced run."""
    from repro.protocol.construction import run_distributed_construction

    m, c, n_ids = 8, 3, 12
    rng = random.Random(14)
    provider_bits = [[rng.randint(0, 1) for _ in range(n_ids)] for _ in range(m)]
    epsilons = [0.3] * n_ids
    res = run_distributed_construction(
        provider_bits, epsilons, BasicPolicy(), c, random.Random(7)
    )
    assert res.execution_time_s > 0
    assert res.betas.shape == (n_ids,)
    assert res.secure_result.total_circuit_size > 0
