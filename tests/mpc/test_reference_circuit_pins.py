"""Pinned gate counts and GMW accounting of the reference circuits.

The monolithic CountBelow / selection builders and the pure-MPC baseline
(:mod:`repro.mpc.pure`) are the paper's Fig. 6b circuit-size reference and
the pure-MPC leg of Fig. 6a/6c.  They declare no public inputs and bake
thresholds, ǫ and λ in as constants, so no compiler lowering may change
what they cost: ``stats()``, the compiled schedule and ``expected_stats``
are pinned here, at two shapes each, to the numbers the builders produced
before AND-with-public-operand lowering existed.
"""

import pytest

from repro.core.policies import BasicPolicy, ChernoffPolicy
from repro.mpc.circuits import compile_circuit
from repro.mpc.countbelow import build_count_circuit, build_selection_circuit
from repro.mpc.gmw import expected_stats
from repro.mpc.pure import build_pure_circuit


def _count_a():
    return build_count_circuit(3, [4, 9, 17, 100], [10, 300, 1000, 0], 5, 9)


def _selection_a():
    return build_selection_circuit(3, [4, 9, 17, 100], 12345, 5)


def _count_b():
    return build_count_circuit(2, [3, 3, 12], [512, 1, 77], 4, 6)


def _selection_b():
    return build_selection_circuit(2, [3, 3, 12], 12345, 4)


def _pure(m, epsilons, policy, lambda_scaled):
    return lambda: build_pure_circuit(m, epsilons, policy, lambda_scaled, 2)


# name -> (builder, parties,
#          stats() as (inputs, consts, xor, and, not),
#          compiled (and_gates, gate_count, layers),
#          expected_stats as (and_gates, rounds, messages, bits_sent, triples))
PINS = {
    "count/c3-w5": (
        _count_a, 3,
        (60, 2, 527, 191, 76), (191, 794, 30), (191, 30, 180, 2388, 191),
    ),
    "selection/c3-w5": (
        _selection_a, 3,
        (252, 2, 533, 123, 82), (123, 738, 18), (123, 18, 108, 1500, 123),
    ),
    "count/c2-w4": (
        _count_b, 2,
        (24, 2, 304, 118, 53), (118, 475, 29), (118, 29, 58, 504, 118),
    ),
    "selection/c2-w4": (
        _selection_b, 2,
        (120, 2, 282, 75, 63), (75, 420, 18), (75, 18, 36, 306, 75),
    ),
    "pure-count/chernoff-m4": (
        _pure(4, [0.2, 0.7], ChernoffPolicy(0.9), None), 4,
        (8, 2, 10088, 3497, 1190), (3497, 14775, 507), (3497, 507, 6084, 84096, 3497),
    ),
    "pure-selection/chernoff-m4": (
        _pure(4, [0.2, 0.7], ChernoffPolicy(0.9), 3000), 4,
        (136, 2, 10226, 3505, 1210), (3505, 14941, 496), (3505, 496, 5952, 84384, 3505),
    ),
    "pure-count/basic-m3": (
        _pure(3, [0.5, 0.3, 0.9], BasicPolicy(), None), 3,
        (9, 2, 3791, 1259, 648), (1259, 5698, 279), (1259, 279, 1674, 15204, 1259),
    ),
    "pure-selection/basic-m3": (
        _pure(3, [0.5, 0.3, 0.9], BasicPolicy(), 40000), 3,
        (153, 2, 3913, 1258, 673), (1258, 5844, 268), (1258, 268, 1608, 15294, 1258),
    ),
}


@pytest.mark.parametrize("name", sorted(PINS))
def test_reference_circuit_cost_is_pinned(name):
    build, parties, gates, compiled, expected = PINS[name]
    circuit = build()
    s = circuit.stats()
    assert (s.inputs, s.consts, s.xor, s.and_, s.not_) == gates
    cc = compile_circuit(circuit)
    assert (cc.and_gates, cc.gate_count, len(cc.layers)) == compiled
    e = expected_stats(circuit, parties)
    assert (e.and_gates, e.rounds, e.messages, e.bits_sent, e.triples_consumed) == expected
    # Every AND of a reference circuit is paid for: the size metric's AND
    # count and the triples the GMW schedule draws are one number.
    assert e.and_gates == s.multiplicative_size
