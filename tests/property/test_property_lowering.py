"""Property tests for AND-with-public-operand lowering.

Random circuits over a random subset of *public* inputs.  The compiler turns
every AND with a public operand into a local op, so:

* the gate-by-gate plaintext evaluator, the bitsliced ``evaluate_batch``,
  the scalar ``GMWProtocol`` and the ``BatchGMWEngine`` agree on every
  output;
* ``expected_stats(...).and_gates`` equals the ANDs whose operands are both
  secret -- counted here by an independent taint walk -- and equals the
  triples the dealer actually issued;
* outputs do not depend on how the secret inputs are shared, while a public
  input is never randomly shared (party 0 holds it, the rest hold 0).
"""

import random

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mpc.circuits import Circuit, CircuitBuilder, GateOp, evaluate, evaluate_batch
from repro.mpc.circuits.compiled import compile_circuit, pack_fleet
from repro.mpc.gmw import BatchGMWEngine, GMWProtocol, expected_stats


def random_mixed_circuit(public: list, n_gates: int, seed: int) -> Circuit:
    """A random circuit whose input ``i`` is public iff ``public[i]``."""
    rng = random.Random(seed)
    b = CircuitBuilder()
    wires = [b.input_bit(public=p) for p in public]
    wires.append(b.zero())
    wires.append(b.one())
    for _ in range(n_gates):
        op = rng.choice(["xor", "and", "and", "or", "not", "mux"])
        if op == "not":
            wires.append(b.not_(rng.choice(wires)))
        elif op == "mux":
            wires.append(b.mux(rng.choice(wires), rng.choice(wires), rng.choice(wires)))
        else:
            fn = {"xor": b.xor, "and": b.and_, "or": b.or_}[op]
            wires.append(fn(rng.choice(wires), rng.choice(wires)))
    for w in wires[-min(4, len(wires)):]:
        b.output(w)
    return b.build()


def secret_ands(circuit: Circuit) -> int:
    """ANDs neither of whose operands is public, by a direct taint walk: a
    wire is public iff it reaches a public input and no secret one."""
    reaches_public, reaches_secret = {}, {}
    paid = 0
    for g in circuit.gates:
        if g.op is GateOp.INPUT:
            reaches_public[g.out], reaches_secret[g.out] = g.public, not g.public
            continue
        reaches_public[g.out] = any(reaches_public[a] for a in g.args)
        reaches_secret[g.out] = any(reaches_secret[a] for a in g.args)
        if g.op is GateOp.AND and not any(
            reaches_public[a] and not reaches_secret[a] for a in g.args
        ):
            paid += 1
    return paid


circuits = st.fixed_dictionaries(
    {
        "public": st.lists(st.booleans(), min_size=1, max_size=8),
        "n_gates": st.integers(min_value=1, max_value=40),
        "seed": st.integers(min_value=0, max_value=10**6),
    }
)


@given(
    shape=circuits,
    input_seed=st.integers(min_value=0, max_value=10**6),
    n_instances=st.integers(min_value=1, max_value=70),
    parties=st.integers(min_value=2, max_value=4),
)
@settings(max_examples=40, deadline=None)
def test_every_evaluator_agrees(shape, input_seed, n_instances, parties):
    circuit = random_mixed_circuit(shape["public"], shape["n_gates"], shape["seed"])
    inputs = np.random.default_rng(input_seed).integers(
        0, 2, size=(n_instances, circuit.n_inputs), dtype=np.uint8
    )
    plain = evaluate_batch(circuit, inputs)
    batch = BatchGMWEngine(circuit, parties, random.Random(input_seed + 1)).run(inputs)
    np.testing.assert_array_equal(batch.outputs, plain)
    scalar = GMWProtocol(circuit, parties, random.Random(input_seed + 2))
    for i, row in enumerate(inputs[:8].tolist()):
        assert evaluate(circuit, row) == scalar.run(row).outputs == plain[i].tolist()


@given(
    shape=circuits,
    n_instances=st.integers(min_value=1, max_value=70),
    parties=st.integers(min_value=2, max_value=4),
)
@settings(max_examples=40, deadline=None)
def test_triples_are_exactly_the_secret_ands(shape, n_instances, parties):
    circuit = random_mixed_circuit(shape["public"], shape["n_gates"], shape["seed"])
    paid = secret_ands(circuit)
    assert expected_stats(circuit, parties).and_gates == paid
    assert compile_circuit(circuit).and_gates == paid
    # The Fig. 6b size still counts every gate, lowered or not.
    s = circuit.stats()
    assert compile_circuit(circuit).gate_count == s.xor + s.and_ + s.not_

    scalar = GMWProtocol(circuit, parties, random.Random(1))
    result = scalar.run([1] * circuit.n_inputs)
    assert scalar.dealer.issued == result.stats.triples_consumed == paid

    engine = BatchGMWEngine(circuit, parties, random.Random(2))
    batch = engine.run(np.ones((n_instances, circuit.n_inputs), dtype=np.uint8))
    assert engine.dealer.issued == batch.stats.triples_consumed == paid * n_instances


@given(
    shape=circuits,
    input_seed=st.integers(min_value=0, max_value=10**6),
    mask_seed=st.integers(min_value=0, max_value=10**6),
    n_instances=st.integers(min_value=1, max_value=70),
    parties=st.integers(min_value=2, max_value=4),
)
@settings(max_examples=40, deadline=None)
def test_outputs_do_not_depend_on_the_secret_sharing(
    shape, input_seed, mask_seed, n_instances, parties
):
    circuit = random_mixed_circuit(shape["public"], shape["n_gates"], shape["seed"])
    public = np.flatnonzero(shape["public"])
    secret = np.flatnonzero(~np.asarray(shape["public"]))
    inputs = np.random.default_rng(input_seed).integers(
        0, 2, size=(n_instances, circuit.n_inputs), dtype=np.uint8
    )
    expected = evaluate_batch(circuit, inputs)

    engine = BatchGMWEngine(circuit, parties, random.Random(input_seed))
    shares = engine.share_inputs(inputs)
    # A public input is held by party 0 alone.
    packed = pack_fleet(inputs.T)
    np.testing.assert_array_equal(shares[public, 0], packed[public])
    assert not shares[public, 1:].any()
    # Re-share the secret inputs with a fresh random sharing of zero.
    rng = np.random.default_rng(mask_seed)
    mask = rng.bit_generator.random_raw((secret.size, parties - 1) + shares.shape[2:])
    shares[secret, 1:] ^= mask
    shares[secret, 0] ^= np.bitwise_xor.reduce(mask, axis=1)
    rerun = engine.run_shared(shares, n_instances)
    np.testing.assert_array_equal(rerun.outputs, expected)

    scalar = GMWProtocol(circuit, parties, random.Random(mask_seed))
    row = inputs[0].tolist()
    row_shares = scalar.share_inputs(row)
    for j in public.tolist():
        assert [row_shares[p][j] for p in range(parties)] == [row[j]] + [0] * (parties - 1)
    flip = random.Random(mask_seed)
    for j in secret.tolist():
        for p in range(1, parties):
            bit = flip.getrandbits(1)
            row_shares[p][j] ^= bit
            row_shares[0][j] ^= bit
    assert scalar.run_shared(row_shares).outputs == expected[0].tolist()
