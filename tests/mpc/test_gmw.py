"""Tests for the GMW secure-evaluation engine against the plaintext oracle."""

import random

import pytest

from repro.mpc.circuits import (
    CircuitBuilder,
    bits_to_int,
    evaluate,
    int_to_bits,
    less_than,
    popcount,
    ripple_add,
)
from repro.mpc.gmw import GMWProtocol
from repro.mpc.triples import TripleDealer


def build_mixed_circuit():
    """A circuit exercising every gate kind: (x + y) and x < y and parity."""
    b = CircuitBuilder()
    xs, ys = b.input_bits(4), b.input_bits(4)
    b.output_bits(ripple_add(b, xs, ys))
    b.output(less_than(b, xs, ys))
    b.output(b.not_(b.xor_many(xs + ys)))
    return b.build()


class TestCorrectness:
    @pytest.mark.parametrize("parties", [2, 3, 5])
    def test_matches_plaintext_oracle(self, parties):
        circuit = build_mixed_circuit()
        rng = random.Random(11)
        for _ in range(20):
            x, y = rng.randrange(16), rng.randrange(16)
            inputs = int_to_bits(x, 4) + int_to_bits(y, 4)
            expected = evaluate(circuit, inputs)
            result = GMWProtocol(circuit, parties, random.Random(rng.random())).run(
                inputs
            )
            assert result.outputs == expected

    def test_popcount_under_gmw(self):
        b = CircuitBuilder()
        bits = b.input_bits(7)
        b.output_bits(popcount(b, bits))
        circuit = b.build()
        protocol = GMWProtocol(circuit, 3, random.Random(5))
        result = protocol.run([1, 0, 1, 1, 0, 1, 1])
        assert bits_to_int(result.outputs) == 5

    def test_constants_and_not_gates(self):
        b = CircuitBuilder()
        x = b.input_bit()
        b.output(b.xor(x, b.one()))
        b.output(b.and_(b.not_(x), b.one()))
        circuit = b.build()
        for x in (0, 1):
            res = GMWProtocol(circuit, 3, random.Random(2)).run([x])
            assert res.outputs == [x ^ 1, x ^ 1]


class TestInputSharing:
    def test_shares_reconstruct_inputs(self):
        circuit = build_mixed_circuit()
        protocol = GMWProtocol(circuit, 4, random.Random(3))
        inputs = [1, 0, 1, 1, 0, 0, 1, 0]
        shares = protocol.share_inputs(inputs)
        assert len(shares) == 4
        for j, bit in enumerate(inputs):
            parity = 0
            for p in range(4):
                parity ^= shares[p][j]
            assert parity == bit

    def test_run_shared_equals_run(self):
        circuit = build_mixed_circuit()
        inputs = int_to_bits(9, 4) + int_to_bits(4, 4)
        p1 = GMWProtocol(circuit, 3, random.Random(8))
        expected = evaluate(circuit, inputs)
        assert p1.run_shared(p1.share_inputs(inputs)).outputs == expected

    def test_wrong_input_length_rejected(self):
        circuit = build_mixed_circuit()
        protocol = GMWProtocol(circuit, 2, random.Random(1))
        with pytest.raises(ValueError):
            protocol.run([0, 1])

    def test_non_bit_input_rejected(self):
        circuit = build_mixed_circuit()
        protocol = GMWProtocol(circuit, 2, random.Random(1))
        with pytest.raises(ValueError):
            protocol.run([2] * circuit.n_inputs)


class TestAccounting:
    def test_and_gates_counted(self):
        circuit = build_mixed_circuit()
        result = GMWProtocol(circuit, 3, random.Random(1)).run(
            [0] * circuit.n_inputs
        )
        assert result.stats.and_gates == circuit.stats().and_
        assert result.stats.triples_consumed == result.stats.and_gates

    def test_rounds_bounded_by_and_depth_plus_output(self):
        circuit = build_mixed_circuit()
        result = GMWProtocol(circuit, 3, random.Random(1)).run(
            [0] * circuit.n_inputs
        )
        # Layer batching: rounds must be far below the AND count.
        assert result.stats.rounds <= result.stats.and_gates
        assert result.stats.rounds >= 2  # at least one AND layer + output

    def test_messages_scale_quadratically_with_parties(self):
        circuit = build_mixed_circuit()
        inputs = [0] * circuit.n_inputs
        msgs = {}
        for p in (2, 4):
            res = GMWProtocol(circuit, p, random.Random(1)).run(inputs)
            msgs[p] = res.stats.messages
        # p*(p-1) growth: 4 parties => 6x the pairs of 2 parties.
        assert msgs[4] == msgs[2] * 6

    def test_xor_only_circuit_single_round(self):
        b = CircuitBuilder()
        x, y = b.input_bit(), b.input_bit()
        b.output(b.xor(x, y))
        res = GMWProtocol(b.build(), 3, random.Random(1)).run([1, 1])
        assert res.stats.and_gates == 0
        assert res.stats.rounds == 1  # only the output opening


class TestTranscripts:
    def test_transcripts_present_per_party(self):
        circuit = build_mixed_circuit()
        res = GMWProtocol(circuit, 3, random.Random(1)).run([0] * circuit.n_inputs)
        assert len(res.transcripts) == 3
        assert [t.party for t in res.transcripts] == [0, 1, 2]

    def test_single_party_view_independent_of_other_inputs(self):
        """Party 0's input shares are identical in distribution whatever the
        other bits are -- with a fixed RNG, literally identical here because
        masking randomness is drawn before the final parity share."""
        circuit = build_mixed_circuit()
        p_a = GMWProtocol(circuit, 3, random.Random(42))
        p_b = GMWProtocol(circuit, 3, random.Random(42))
        shares_a = p_a.share_inputs([0] * 8)
        shares_b = p_b.share_inputs([1] * 8)
        assert shares_a[0] == shares_b[0]
        assert shares_a[1] == shares_b[1]
        # Only the last party's shares absorb the difference.
        assert shares_a[2] != shares_b[2]

    def test_opened_values_are_masked(self):
        """Openings (d, e) = (x^a, y^b) must cover both bit values over many
        runs -- i.e. they do not leak the wire value deterministically."""
        b = CircuitBuilder()
        x, y = b.input_bit(), b.input_bit()
        b.output(b.and_(x, y))
        circuit = b.build()
        seen = set()
        for seed in range(64):
            res = GMWProtocol(circuit, 2, random.Random(seed)).run([1, 1])
            seen.update(res.transcripts[0].opened_values)
        assert seen == {0, 1}


class TestDealerStream:
    def test_dealer_forks_one_draw_off_the_protocol_rng(self):
        """The dealer runs on its own stream, seeded by exactly one 64-bit
        draw, so the protocol's coins never depend on the triple count."""
        rng, reference = random.Random(9), random.Random(9)
        protocol = GMWProtocol(build_mixed_circuit(), 3, rng)
        dealer = TripleDealer(3, random.Random(reference.getrandbits(64)))
        assert rng.getstate() == reference.getstate()
        assert protocol.dealer.deal() == dealer.deal()

    def test_one_triple_per_and_gate(self):
        circuit = build_mixed_circuit()
        protocol = GMWProtocol(circuit, 3, random.Random(4))
        protocol.run([1] * circuit.n_inputs)
        assert protocol.dealer.issued == circuit.stats().and_


class TestValidation:
    def test_minimum_two_parties(self):
        with pytest.raises(ValueError):
            GMWProtocol(build_mixed_circuit(), 1, random.Random(1))

    def test_run_shared_validates_party_count(self):
        circuit = build_mixed_circuit()
        protocol = GMWProtocol(circuit, 3, random.Random(1))
        with pytest.raises(ValueError):
            protocol.run_shared([[0] * circuit.n_inputs] * 2)

    def test_run_shared_validates_share_length(self):
        circuit = build_mixed_circuit()
        protocol = GMWProtocol(circuit, 2, random.Random(1))
        with pytest.raises(ValueError):
            protocol.run_shared([[0] * 3, [0] * circuit.n_inputs])
