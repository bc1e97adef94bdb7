"""Property tests: bitsliced batch GMW == scalar GMW == plaintext evaluate.

Random circuits x random lane-packed input batches, including ragged final
chunks (n_instances % 64 != 0) and the per-instance stats contract: the
batch engine must report exactly the communication a scalar run of the same
circuit reports, per instance and in aggregate.
"""

import random

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mpc.circuits import evaluate, evaluate_batch
from repro.mpc.gmw import BatchGMWEngine, GMWEngine, expected_stats

from tests.property.test_property_gmw import random_circuit


def _random_inputs(n_instances: int, n_inputs: int, seed: int) -> np.ndarray:
    return np.random.default_rng(seed).integers(
        0, 2, size=(n_instances, n_inputs), dtype=np.uint8
    )


@given(
    n_inputs=st.integers(min_value=1, max_value=8),
    n_gates=st.integers(min_value=1, max_value=40),
    circuit_seed=st.integers(min_value=0, max_value=10**6),
    input_seed=st.integers(min_value=0, max_value=10**6),
    n_instances=st.integers(min_value=1, max_value=70),
    parties=st.integers(min_value=2, max_value=4),
)
@settings(max_examples=40, deadline=None)
def test_batch_matches_scalar_and_plaintext(
    n_inputs, n_gates, circuit_seed, input_seed, n_instances, parties
):
    """Three independent evaluations of the same batch must agree bit-for-bit.

    ``n_instances`` ranges past 64 so the final lane chunk is ragged for a
    fair share of examples.
    """
    circuit = random_circuit(n_inputs, n_gates, circuit_seed)
    inputs = _random_inputs(n_instances, n_inputs, input_seed)

    plain = evaluate_batch(circuit, inputs)
    batch = BatchGMWEngine(circuit, parties, random.Random(input_seed + 1)).run(inputs)
    scalar_engine = GMWEngine(circuit, parties, random.Random(input_seed + 2))

    assert batch.outputs.shape == plain.shape
    np.testing.assert_array_equal(batch.outputs, plain)
    for i in range(n_instances):
        row = [int(v) for v in inputs[i]]
        assert list(batch.outputs[i]) == evaluate(circuit, row)
        scalar = scalar_engine.run(row)
        assert list(batch.outputs[i]) == scalar.outputs
        # Per-instance stats contract: batched accounting == scalar reality.
        assert batch.per_instance == scalar.stats


@given(
    n_inputs=st.integers(min_value=1, max_value=6),
    n_gates=st.integers(min_value=1, max_value=30),
    circuit_seed=st.integers(min_value=0, max_value=10**6),
    n_instances=st.integers(min_value=1, max_value=130),
    parties=st.integers(min_value=2, max_value=4),
)
@settings(max_examples=30, deadline=None)
def test_batch_aggregate_stats_scale_linearly(
    n_inputs, n_gates, circuit_seed, n_instances, parties
):
    """Aggregate stats are exactly n_instances x the per-instance record --
    the paper's cost model, under which lanes never share rounds."""
    circuit = random_circuit(n_inputs, n_gates, circuit_seed)
    inputs = _random_inputs(n_instances, n_inputs, seed=circuit_seed + 1)
    batch = BatchGMWEngine(circuit, parties, random.Random(3)).run(inputs)
    per = batch.per_instance
    assert per == expected_stats(circuit, parties)
    assert batch.stats.rounds == per.rounds * n_instances
    assert batch.stats.messages == per.messages * n_instances
    assert batch.stats.bits_sent == per.bits_sent * n_instances
    assert batch.stats.and_gates == per.and_gates * n_instances
    assert batch.stats.triples_consumed == per.triples_consumed * n_instances
    # Physical rounds are what the bitsliced run actually needed: one per
    # AND layer plus the opening -- the per-instance count -- for the whole
    # fleet, however many 64-lane words it fills.
    assert batch.physical_rounds == per.rounds


@given(
    n_inputs=st.integers(min_value=1, max_value=6),
    n_gates=st.integers(min_value=1, max_value=25),
    circuit_seed=st.integers(min_value=0, max_value=10**6),
    n_instances=st.integers(min_value=1, max_value=70),
)
@settings(max_examples=30, deadline=None)
def test_unopened_output_shares_reconstruct(
    n_inputs, n_gates, circuit_seed, n_instances
):
    """open_outputs=False keeps outputs shared; XOR over parties opens them."""
    parties = 3
    circuit = random_circuit(n_inputs, n_gates, circuit_seed)
    inputs = _random_inputs(n_instances, n_inputs, seed=circuit_seed + 7)
    batch = BatchGMWEngine(circuit, parties, random.Random(5)).run(
        inputs, open_outputs=False
    )
    assert batch.outputs is None
    assert batch.output_shares.shape == (parties, n_instances, len(circuit.outputs))
    reconstructed = np.bitwise_xor.reduce(batch.output_shares, axis=0)
    np.testing.assert_array_equal(reconstructed, evaluate_batch(circuit, inputs))
    # No opening round is charged when outputs stay shared.
    opened = expected_stats(circuit, parties, open_outputs=True)
    assert batch.per_instance == expected_stats(circuit, parties, open_outputs=False)
    assert batch.per_instance.rounds == opened.rounds - (1 if circuit.outputs else 0)
