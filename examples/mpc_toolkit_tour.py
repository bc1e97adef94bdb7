"""A tour of the MPC substrate as a standalone toolkit.

The cryptographic machinery built for the ǫ-PPI reproduction is usable on
its own.  This example walks through the layers:

1. additive secret sharing,
2. Boolean circuits: build, evaluate, optimize,
3. secure evaluation under GMW,
4. in-circuit fixed-point arithmetic (the Eq. 8 β formula),
5. arithmetic-to-Boolean conversion (the TASTY-style hybrid).

Run:  python examples/mpc_toolkit_tour.py
"""

import random

from repro.mpc import (
    AdditiveSharing,
    GMWProtocol,
    Zq,
    A2BDealer,
    a2b_convert,
)
from repro.mpc.circuits import (
    CircuitBuilder,
    bits_to_int,
    evaluate,
    int_to_bits,
    less_than_const,
    ripple_add,
)
from repro.mpc.circuits.fixedpoint import ONE, beta_basic_circuit
from repro.mpc.circuits.optimize import optimize


def main() -> None:
    rng = random.Random(7)

    print("== 1. secret sharing ==")
    ring = Zq(64)
    additive = AdditiveSharing(ring, count=3)
    shares = additive.share(42, rng)
    print(f"  additive (3,3) shares of 42 mod 64: {shares} "
          f"-> reconstruct {additive.reconstruct(shares)}")

    print("\n== 2. Boolean circuits ==")
    b = CircuitBuilder()
    xs, ys = b.input_bits(8), b.input_bits(8)
    total = ripple_add(b, xs, ys)
    b.output_bits(total)
    b.output(less_than_const(b, xs, 100))
    circuit = b.build()
    inputs = int_to_bits(77, 8) + int_to_bits(55, 8)
    out = evaluate(circuit, inputs)
    print(f"  77 + 55 = {bits_to_int(out[:-1])}, 77 < 100 = {bool(out[-1])}")
    optimized, rep = optimize(circuit)
    print(f"  optimizer: {rep.before_total} -> {rep.after_total} gates "
          f"({rep.before_and} -> {rep.after_and} ANDs)")

    print("\n== 3. secure evaluation ==")
    gmw = GMWProtocol(circuit, parties=3, rng=rng)
    res = gmw.run(inputs)
    print(f"  GMW (3 parties): same outputs = {res.outputs == out}, "
          f"{res.stats.and_gates} triples, {res.stats.rounds} rounds, "
          f"{res.stats.bits_sent} bits")

    print("\n== 4. fixed-point beta in-circuit (Eq. 8) ==")
    b = CircuitBuilder()
    freq = b.input_bits(5)
    beta = beta_basic_circuit(b, freq, m=20, epsilon=0.5)
    b.output_bits(beta)
    beta_circuit = b.build()
    raw = bits_to_int(evaluate(beta_circuit, int_to_bits(4, 5)))
    print(f"  beta_b(f=4, m=20, eps=0.5) = {raw / ONE:.4f} "
          f"(float formula: {1/((20/4-1)*(1/0.5-1)):.4f}) "
          f"at {beta_circuit.stats().and_} AND gates")

    print("\n== 5. A2B conversion (hybrid MPC glue) ==")
    ring = Zq(64)
    dealer = A2BDealer(parties=3, ring=ring, rng=rng)
    arith = AdditiveSharing(ring, 3).share(37, rng)
    conv = a2b_convert(arith, ring, dealer, rng)
    print(f"  additive shares of 37 -> XOR bit-shares; reconstruct "
          f"{conv.reconstruct()} (opened mask z = {conv.opened_mask}, "
          f"uniform)")


if __name__ == "__main__":
    main()
