"""Boolean-circuit framework: the computation model of the generic-MPC stage.

This package plays the role of FairplayMP's circuit compiler in the paper's
prototype: protocol logic (CountBelow, the pure-MPC baseline) is *compiled*
to circuits of XOR/AND/NOT gates, whose gate counts give the circuit-size
metric of Fig. 6b and which the GMW engine evaluates securely.
"""

from repro.mpc.circuits.adder import (
    add_many,
    full_adder,
    half_adder,
    popcount,
    ripple_add,
    ripple_add_mod2k,
)
from repro.mpc.circuits.builder import CircuitBuilder
from repro.mpc.circuits.comparator import (
    equals_const,
    greater_equal,
    less_than,
    less_than_const,
)
from repro.mpc.circuits.compiled import (
    LANES,
    CompiledCircuit,
    CompiledLayer,
    compile_circuit,
    evaluate_batch,
    pack_fleet,
    pack_lanes,
    unpack_fleet,
    unpack_lanes,
)
from repro.mpc.circuits.evaluator import (
    bit_matrix_to_ints,
    bits_to_int,
    evaluate,
    int_to_bits,
    ints_to_bit_matrix,
)
from repro.mpc.circuits.divider import divide, isqrt
from repro.mpc.circuits.gates import Circuit, CircuitStats, Gate, GateOp
from repro.mpc.circuits.multiplier import (
    multiply,
    multiply_const,
    ripple_sub,
    shift_left,
    truncate,
)
from repro.mpc.circuits.optimize import OptimizationReport, optimize

__all__ = [
    "Circuit",
    "CircuitBuilder",
    "CircuitStats",
    "CompiledCircuit",
    "CompiledLayer",
    "Gate",
    "GateOp",
    "LANES",
    "add_many",
    "bit_matrix_to_ints",
    "bits_to_int",
    "compile_circuit",
    "equals_const",
    "evaluate",
    "evaluate_batch",
    "full_adder",
    "greater_equal",
    "half_adder",
    "int_to_bits",
    "ints_to_bit_matrix",
    "pack_fleet",
    "pack_lanes",
    "unpack_fleet",
    "unpack_lanes",
    "less_than",
    "less_than_const",
    "multiply",
    "multiply_const",
    "popcount",
    "ripple_add",
    "ripple_add_mod2k",
    "ripple_sub",
    "shift_left",
    "truncate",
    "divide",
    "isqrt",
    "optimize",
    "OptimizationReport",
]
