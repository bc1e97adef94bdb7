"""Ablation: MPC model choice for the secure sum + compare workload.

The paper's design (Sec. VI-B discussion) rests on the TASTY observation
that MPC models have module-specific sweet spots.  This bench measures the
three ways to realize "sum m private bits, compare against a threshold"
inside this codebase:

* **secsum+gmw** (the paper's choice): SecSumShare reduces the sum to c
  additive shares for free outside MPC; only a c-share in-circuit addition
  + comparison runs under GMW.
* **secsum+a2b+gmw** (explicit hybrid): same SecSumShare, then a
  masked-opening A2B conversion so the Boolean stage is a subtractor +
  comparison -- fewer AND gates, one extra opening round.
* **pure-gmw**: the whole popcount + comparison among all m parties --
  Boolean MPC on a sum-shaped workload, the known worst case.

Metric: AND gates (interactive crypto work) and communication bits of the
secure stage.
"""

import random

from repro.analysis.reporting import format_table
from repro.mpc.circuits import (
    CircuitBuilder,
    int_to_bits,
    less_than_const,
    popcount,
    ripple_add_mod2k,
)
from repro.mpc.conversion import A2BDealer, a2b_convert
from repro.mpc.field import Zq, default_modulus_for_sum
from repro.mpc.gmw import GMWProtocol
from repro.mpc.secsum import SecSumShare

M = 24
C = 3
THRESHOLD = 12


def _input_bits(seed: int) -> list[int]:
    rng = random.Random(seed)
    return [rng.randint(0, 1) for _ in range(M)]


def strategy_secsum_gmw(bits: list[int], seed: int) -> dict:
    ring = Zq(default_modulus_for_sum(M))
    w = (ring.q - 1).bit_length()
    rng = random.Random(seed)
    secsum = SecSumShare(M, C, ring, rng).run([[b] for b in bits])
    shares = [int(secsum.coordinator_shares[k][0]) for k in range(C)]

    b = CircuitBuilder()
    share_bits = [b.input_bits(w) for _ in range(C)]
    total = share_bits[0]
    for s in share_bits[1:]:
        total = ripple_add_mod2k(b, total, s)
    b.output(b.not_(less_than_const(b, total, THRESHOLD)))
    circuit = b.build()
    inputs = [bit for s in shares for bit in int_to_bits(s, w)]
    run = GMWProtocol(circuit, C, rng).run(inputs)
    return {
        "result": run.outputs[0],
        "and_gates": run.stats.and_gates,
        "mpc_bits": run.stats.bits_sent,
        "parties": C,
    }


def strategy_secsum_a2b_gmw(bits: list[int], seed: int) -> dict:
    ring = Zq(default_modulus_for_sum(M))
    w = (ring.q - 1).bit_length()
    rng = random.Random(seed)
    secsum = SecSumShare(M, C, ring, rng).run([[b] for b in bits])
    shares = [int(secsum.coordinator_shares[k][0]) for k in range(C)]

    dealer = A2BDealer(parties=C, ring=ring, rng=rng)
    conv = a2b_convert(shares, ring, dealer, rng)

    b = CircuitBuilder()
    value_bits = b.input_bits(w)
    b.output(b.not_(less_than_const(b, value_bits, THRESHOLD)))
    circuit = b.build()
    protocol = GMWProtocol(circuit, C, rng)
    run = protocol.run_shared(conv.bit_shares)
    return {
        "result": run.outputs[0],
        "and_gates": conv.stats.and_gates + run.stats.and_gates,
        "mpc_bits": conv.stats.bits_sent + run.stats.bits_sent,
        "parties": C,
    }


def strategy_pure_gmw(bits: list[int], seed: int) -> dict:
    rng = random.Random(seed)
    b = CircuitBuilder()
    ins = b.input_bits(M)
    freq = popcount(b, ins)
    b.output(b.not_(less_than_const(b, freq, THRESHOLD)))
    circuit = b.build()
    run = GMWProtocol(circuit, M, rng).run(bits)
    return {
        "result": run.outputs[0],
        "and_gates": run.stats.and_gates,
        "mpc_bits": run.stats.bits_sent,
        "parties": M,
    }


def run_hybrid_ablation(seed: int = 0):
    bits = _input_bits(seed)
    expected = 1 if sum(bits) >= THRESHOLD else 0
    rows = {}
    for name, fn in (
        ("secsum+gmw", strategy_secsum_gmw),
        ("secsum+a2b+gmw", strategy_secsum_a2b_gmw),
        ("pure-gmw", strategy_pure_gmw),
    ):
        out = fn(bits, seed + 1)
        assert out["result"] == expected, name
        rows[name] = out
    return rows


def test_ablation_hybrid_models(benchmark, report):
    rows = benchmark.pedantic(run_hybrid_ablation, rounds=1, iterations=1)
    report(
        f"Ablation: MPC model for sum-{M}-bits + compare (threshold {THRESHOLD})",
        format_table(
            ["strategy", "parties-in-mpc", "and-gates", "mpc-bits"],
            [
                [name, row["parties"], row["and_gates"], row["mpc_bits"]]
                for name, row in rows.items()
            ],
        ),
    )
    # The paper's choice beats pure Boolean MPC decisively...
    assert rows["secsum+gmw"]["and_gates"] < rows["pure-gmw"]["and_gates"]
    assert rows["secsum+gmw"]["mpc_bits"] < rows["pure-gmw"]["mpc_bits"]
    # ...and the explicit A2B hybrid shaves the in-circuit addition further.
    assert rows["secsum+a2b+gmw"]["and_gates"] < rows["secsum+gmw"]["and_gates"]
