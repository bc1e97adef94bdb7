"""Unit tests for the bitsliced batch infrastructure.

Covers lane packing, the vectorized triple dealer and bit codecs, compiled
circuit caching, the `BatchGMWEngine` contract against the scalar oracle,
and the unified opening/accounting helpers (the `bits_sent` double-count
fix).
"""

import random

import numpy as np
import pytest

from repro.mpc.additive import AdditiveSharing
from repro.mpc.circuits import (
    CircuitBuilder,
    bit_matrix_to_ints,
    compile_circuit,
    evaluate,
    evaluate_batch,
    ints_to_bit_matrix,
    less_than,
    pack_fleet,
    pack_lanes,
    ripple_add,
    unpack_fleet,
    unpack_lanes,
)
from repro.mpc.countbelow import build_count_identity_circuit, build_selection_identity_circuit
from repro.mpc.field import Zq
from repro.mpc.gmw import (
    BatchGMWEngine,
    GMWEngine,
    GMWProtocol,
    GMWStats,
    account_and_layer,
    account_output_opening,
    expected_stats,
)
from repro.mpc.offline.sources import PrefetchedTripleSource
from repro.mpc.triples import TripleDealer

# Fleet sizes straddling the 64-lane word boundary: one partial word, one
# full word, full + tail, two full, and a fleet of 65 words (64 full + tail).
FLEET_SIZES = [1, 63, 64, 65, 128, 129, 4097]


def mixed_circuit():
    """A small circuit exercising every gate kind with real AND depth."""
    b = CircuitBuilder()
    x = b.input_bits(4)
    y = b.input_bits(4)
    s = ripple_add(b, x, y)
    lt = less_than(b, x, y)
    b.output_bits(s)
    b.output(b.mux(lt, b.one(), b.zero()))
    b.output(b.not_(b.and_(x[0], y[0])))
    return b.build()


# -- lane packing ------------------------------------------------------------


def test_pack_unpack_roundtrip():
    rng = np.random.default_rng(1)
    for n_lanes in (1, 5, 63, 64):
        bits = rng.integers(0, 2, size=(n_lanes, 17), dtype=np.uint8)
        words = pack_lanes(bits)
        assert words.shape == (17,)
        np.testing.assert_array_equal(unpack_lanes(words, n_lanes), bits)


@pytest.mark.parametrize("n", FLEET_SIZES)
def test_pack_fleet_roundtrip_and_lane_order(n):
    """Instance ``i`` is bit-lane ``i % 64`` of word ``i // 64``, along the
    last axis of any leading shape; the tail word's dead lanes are zero."""
    bits = np.random.default_rng(n).integers(0, 2, size=(2, 3, n), dtype=np.uint8)
    words = pack_fleet(bits)
    assert words.shape == (2, 3, -(-n // 64)) and words.dtype == np.uint64
    np.testing.assert_array_equal(unpack_fleet(words, n), bits)
    for i in (0, n // 2, n - 1):
        lane = (words[1, 2, i // 64] >> np.uint64(i % 64)) & np.uint64(1)
        assert lane == bits[1, 2, i]
    if n % 64:
        assert not np.any(words[..., -1] >> np.uint64(n % 64))
    # One word per column is exactly pack_lanes.
    if n <= 64:
        np.testing.assert_array_equal(pack_lanes(bits[0].T), words[0, :, 0])
    with pytest.raises(ValueError):
        unpack_fleet(words, words.shape[-1] * 64 + 1)


def test_pack_rejects_too_many_lanes():
    with pytest.raises(ValueError):
        pack_lanes(np.zeros((65, 3), dtype=np.uint8))


# -- bit codecs ----------------------------------------------------------------


def test_ints_to_bit_matrix_matches_scalar():
    from repro.mpc.circuits import int_to_bits

    values = [0, 1, 5, 127, 128, 255]
    mat = ints_to_bit_matrix(values, 8)
    for i, v in enumerate(values):
        assert list(mat[i]) == int_to_bits(v, 8)
    np.testing.assert_array_equal(bit_matrix_to_ints(mat), np.asarray(values))


def test_ints_to_bit_matrix_rejects_overflow():
    with pytest.raises(ValueError):
        ints_to_bit_matrix([8], 3)
    with pytest.raises(ValueError):
        ints_to_bit_matrix([-1], 3)


# -- vectorized triple dealing ---------------------------------------------------


@pytest.mark.parametrize("parties", [2, 3, 5])
def test_deal_batch_triples_valid_per_lane(parties):
    dealer = TripleDealer(parties, random.Random(11))
    a, b, c = dealer.deal_batch(40, lanes=64)
    assert a.shape == b.shape == c.shape == (40, parties)
    assert a.dtype == b.dtype == c.dtype == np.uint64
    ra = np.bitwise_xor.reduce(a, axis=1)
    rb = np.bitwise_xor.reduce(b, axis=1)
    rc = np.bitwise_xor.reduce(c, axis=1)
    np.testing.assert_array_equal(rc, ra & rb)
    assert dealer.issued == 40 * 64
    # Random material, not a degenerate (all-equal) triple: every share
    # column of every component differs across the 40 gates.
    for arr in (a, b, c):
        assert all(len(set(arr[:, p].tolist())) == 40 for p in range(parties))


@pytest.mark.parametrize("parties", [2, 3, 5])
def test_deal_batch_zero_count_is_empty(parties):
    dealer = TripleDealer(parties, random.Random(11))
    for arr in dealer.deal_batch(0):
        assert arr.shape == (0, parties) and arr.dtype == np.uint64
    assert dealer.issued == 0


def test_deal_batch_validates_args():
    dealer = TripleDealer(2, random.Random(0))
    with pytest.raises(ValueError):
        dealer.deal_batch(-1)
    with pytest.raises(ValueError):
        dealer.deal_batch(1, lanes=65)


# -- compiled circuit caching ---------------------------------------------------


def test_compile_circuit_cached_on_circuit():
    circuit = mixed_circuit()
    assert compile_circuit(circuit) is compile_circuit(circuit)


def test_identity_circuit_builders_cached():
    build_count_identity_circuit.cache_clear()
    c1 = build_count_identity_circuit(3, 5, 4)
    c2 = build_count_identity_circuit(3, 5, 4)
    assert c1 is c2
    assert build_count_identity_circuit.cache_info().hits == 1
    build_selection_identity_circuit.cache_clear()
    s1 = build_selection_identity_circuit(3, 5, 1000)
    s2 = build_selection_identity_circuit(3, 5, 1000)
    assert s1 is s2
    assert build_selection_identity_circuit.cache_info().hits == 1
    # Different parameters miss.
    assert build_count_identity_circuit(3, 5, 6) is not c1


def test_mono_builder_cached():
    from repro.mpc.countbelow import build_count_circuit, build_selection_circuit

    a = build_count_circuit(3, [2, 3], [10, 20], 4, 2)
    b = build_count_circuit(3, [2, 3], [10, 20], 4, 2)
    assert a is b
    s1 = build_selection_circuit(3, [2, 3], 77, 4)
    s2 = build_selection_circuit(3, [2, 3], 77, 4)
    assert s1 is s2


# -- batch engine vs oracles ---------------------------------------------------


def _and_layers(circuit) -> int:
    return sum(1 for layer in compile_circuit(circuit).layers if layer.n_ands)


def _fleet_stats(per_instance: GMWStats, n: int) -> GMWStats:
    stats = GMWStats(parties=per_instance.parties)
    stats.add(per_instance, times=n)
    return stats


@pytest.mark.parametrize("n", [100] + FLEET_SIZES)
def test_batch_engine_matches_plaintext_and_scalar(n):
    circuit = mixed_circuit()
    rng = np.random.default_rng(5)
    inputs = rng.integers(0, 2, size=(n, circuit.n_inputs), dtype=np.uint8)
    engine = BatchGMWEngine(circuit, 3, random.Random(1))
    batch = engine.run(inputs)
    assert batch.n_instances == n
    np.testing.assert_array_equal(batch.outputs, evaluate_batch(circuit, inputs))
    scalar = GMWEngine(circuit, 3, random.Random(2))
    # The scalar oracle on the head and on the whole tail word of the fleet.
    for i in sorted(set(range(min(n, 130))) | set(range(max(0, n - 70), n))):
        res = scalar.run([int(v) for v in inputs[i]])
        assert list(batch.outputs[i]) == res.outputs
        assert list(batch.outputs[i]) == evaluate(circuit, [int(v) for v in inputs[i]])
        assert batch.per_instance == res.stats
    # One pass for the whole fleet, accounted per instance.
    assert batch.stats == _fleet_stats(batch.per_instance, n)
    assert engine.dealer.issued == batch.per_instance.and_gates * n
    assert batch.physical_rounds == _and_layers(circuit) + 1


@pytest.mark.parametrize("n", [70] + FLEET_SIZES)
def test_batch_unopened_shares_reconstruct(n):
    circuit = mixed_circuit()
    rng = np.random.default_rng(9)
    inputs = rng.integers(0, 2, size=(n, circuit.n_inputs), dtype=np.uint8)
    batch = BatchGMWEngine(circuit, 4, random.Random(3)).run(inputs, open_outputs=False)
    assert batch.outputs is None
    assert batch.output_shares.shape == (4, n, len(circuit.outputs))
    opened = np.bitwise_xor.reduce(batch.output_shares, axis=0)
    np.testing.assert_array_equal(opened, evaluate_batch(circuit, inputs))
    assert batch.stats == _fleet_stats(batch.per_instance, n)
    assert batch.physical_rounds == _and_layers(circuit)  # nothing opened


class _RecordingSource:
    """Triple source that keeps every ``deal_batch`` it hands the engine."""

    def __init__(self, inner):
        self.inner = inner
        self.deals = []

    def deal_batch(self, count, lanes=64):
        arrays = self.inner.deal_batch(count, lanes=lanes)
        self.deals.append((count, lanes, arrays))
        return arrays


@pytest.mark.parametrize("n", FLEET_SIZES)
@pytest.mark.parametrize("kind", ["dealer", "prefetched"])
def test_fleet_triple_accounting_is_exact(kind, n):
    """A fleet layer asks for ``k * chunks`` words, yet ``issued`` grows by
    exactly ``ands * n``, an offline pool burns exactly ``ands * ceil(n/64)``
    words, and the tail chunk's dead lanes are zero in every share word."""
    circuit = mixed_circuit()
    parties = 3
    ands = compile_circuit(circuit).and_gates
    words = ands * -(-n // 64)
    if kind == "dealer":
        inner = TripleDealer(parties, random.Random(8))
    else:
        inner = PrefetchedTripleSource(
            *TripleDealer(parties, random.Random(8)).deal_batch(words)
        )
    source = _RecordingSource(inner)
    inputs = np.random.default_rng(n).integers(
        0, 2, size=(n, circuit.n_inputs), dtype=np.uint8
    )
    batch = BatchGMWEngine(circuit, parties, random.Random(4), triple_source=source).run(inputs)
    np.testing.assert_array_equal(batch.outputs, evaluate_batch(circuit, inputs))

    assert inner.issued == ands * n
    assert sum(count * lanes for count, lanes, _ in source.deals) == ands * n
    assert sum(count for count, _, _ in source.deals) == words
    if kind == "prefetched":
        assert inner.words_consumed == words
        assert inner.words_remaining == 0
    for count, lanes, (a, b, c) in source.deals:
        assert lanes in (64, n % 64)
        assert a.shape == b.shape == c.shape == (count, parties)
        dead = np.uint64(~((1 << lanes) - 1) & 0xFFFFFFFFFFFFFFFF)
        for arr in (a, b, c):
            assert not np.any(arr & dead)
        ra, rb, rc = (np.bitwise_xor.reduce(arr, axis=1) for arr in (a, b, c))
        np.testing.assert_array_equal(rc, ra & rb)


def test_run_shared_bits_chains_batched_stages():
    """Feeding one batch's unopened shares into a second circuit works."""
    b = CircuitBuilder()
    x = b.input_bits(2)
    b.output(b.and_(x[0], x[1]))
    second = b.build()

    b2 = CircuitBuilder()
    y = b2.input_bits(3)
    b2.output(b2.xor(y[0], y[1]))
    b2.output(b2.and_(y[1], y[2]))
    first = b2.build()

    rng = np.random.default_rng(2)
    inputs = rng.integers(0, 2, size=(90, 3), dtype=np.uint8)
    stage1 = BatchGMWEngine(first, 3, random.Random(4)).run(inputs, open_outputs=False)
    stage2 = BatchGMWEngine(second, 3, random.Random(5)).run_shared_bits(
        stage1.output_shares
    )
    expected = evaluate_batch(first, inputs)
    for i in range(90):
        assert stage2.outputs[i, 0] == (expected[i, 0] & expected[i, 1])


def test_batch_engine_validates_inputs():
    circuit = mixed_circuit()
    eng = BatchGMWEngine(circuit, 3, random.Random(0))
    with pytest.raises(ValueError):
        eng.run(np.zeros((0, circuit.n_inputs), dtype=np.uint8))
    with pytest.raises(ValueError):
        eng.run(np.zeros((3, circuit.n_inputs + 1), dtype=np.uint8))
    with pytest.raises(ValueError):
        eng.run(np.full((3, circuit.n_inputs), 2, dtype=np.uint8))
    with pytest.raises(ValueError):
        BatchGMWEngine(circuit, 1, random.Random(0))
    # Pre-shared fleets: the word tensor must match the live-lane count.
    inputs = np.ones((3, circuit.n_inputs), dtype=np.uint8)
    shares = eng.share_inputs(inputs)
    assert shares.shape == (circuit.n_inputs, 3, 1)
    one_chunk = eng.run_shared(shares[:, :, 0], 3)  # a single chunk may be 2-D
    np.testing.assert_array_equal(one_chunk.outputs, evaluate_batch(circuit, inputs))
    for bad_n in (0, 65):
        with pytest.raises(ValueError):
            eng.run_shared(shares, bad_n)
    with pytest.raises(ValueError):
        eng.run_shared(shares[:, :2], 3)


# -- unified accounting (the opening double-count fix) -----------------------------


def test_account_helpers_are_noop_on_empty():
    stats = GMWStats(parties=3)
    account_and_layer(stats, 3, 0)
    account_output_opening(stats, 3, 0)
    assert stats == GMWStats(parties=3)


def test_no_opening_round_when_no_outputs_both_engines():
    b = CircuitBuilder()
    x = b.input_bits(2)
    b.and_(x[0], x[1])  # work, but nothing revealed
    circuit = b.circuit  # bypass build() output validation if any
    circuit.validate()

    scalar = GMWProtocol(circuit, 3, random.Random(1)).run([1, 1])
    assert scalar.stats.rounds == 1  # the single AND layer, no opening
    assert scalar.stats.bits_sent == 2 * 1 * 3 * 2

    batch = BatchGMWEngine(circuit, 3, random.Random(1)).run(
        np.ones((10, 2), dtype=np.uint8)
    )
    assert batch.per_instance == scalar.stats
    assert batch.outputs.shape == (10, 0)


def test_opening_round_charged_once():
    circuit = mixed_circuit()
    opened = expected_stats(circuit, 3, open_outputs=True)
    shared = expected_stats(circuit, 3, open_outputs=False)
    n_out = len(circuit.outputs)
    assert opened.rounds == shared.rounds + 1
    assert opened.messages == shared.messages + 3 * 2
    assert opened.bits_sent == shared.bits_sent + n_out * 3 * 2
    # And the scalar engine reports exactly the analytic numbers.
    run = GMWProtocol(circuit, 3, random.Random(2)).run([0] * circuit.n_inputs)
    assert run.stats == opened


def test_scalar_run_shared_open_outputs_false():
    circuit = mixed_circuit()
    proto = GMWProtocol(circuit, 3, random.Random(6))
    res = proto.run([1, 0, 1, 0, 0, 1, 1, 0], open_outputs=False)
    assert res.outputs == []
    opened = [0] * len(circuit.outputs)
    for p in range(3):
        for k, bit in enumerate(res.output_shares[p]):
            opened[k] ^= bit
    assert opened == evaluate(circuit, [1, 0, 1, 0, 0, 1, 1, 0])


# -- vectorized additive sharing -----------------------------------------------


def test_share_matrix_reconstructs():
    ring = Zq(1 << 20)
    sharing = AdditiveSharing(ring, 4)
    values = [0, 1, 12345, (1 << 20) - 1]
    mat = sharing.share_matrix(values, np.random.default_rng(3))
    assert mat.shape == (4, 4)
    recon = mat.sum(axis=1) % ring.q
    np.testing.assert_array_equal(recon, np.asarray(values))


def test_share_matrix_rejects_huge_modulus():
    sharing = AdditiveSharing(Zq((1 << 31) + 11), 3)
    with pytest.raises(ValueError):
        sharing.share_matrix([1], np.random.default_rng(0))
