"""Boolean circuit representation.

Circuits are straight-line programs over single-bit wires with XOR / AND /
NOT gates plus constant and input wires.  This mirrors the computation model
of FairplayMP (the Boolean-circuit MPC engine used by the paper): XOR and NOT
are "free" under XOR-sharing while each AND gate costs one interactive
multiplication, so gate counts here translate directly into the paper's
circuit-size metric (Fig. 6b).

A circuit is built once (see :mod:`repro.mpc.circuits.builder`) and then
evaluated either in plaintext (:mod:`repro.mpc.circuits.evaluator`) or
securely under GMW (:mod:`repro.mpc.gmw`).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable

__all__ = ["GateOp", "Gate", "Circuit", "CircuitStats"]


class GateOp(enum.Enum):
    """Gate kinds supported by the evaluators."""

    INPUT = "input"  # value supplied at evaluation time
    CONST = "const"  # fixed 0/1
    XOR = "xor"
    AND = "and"
    NOT = "not"


@dataclass(frozen=True)
class Gate:
    """One gate; ``out`` is the wire this gate drives.

    ``args`` holds input wire ids (2 for XOR/AND, 1 for NOT, none for
    INPUT/CONST).  For CONST gates ``const_value`` carries the bit.  For INPUT
    gates ``input_index`` is the position in the evaluation-time input vector
    and ``public`` says whether every party may know its value (see
    :func:`~repro.mpc.circuits.compiled.compile_circuit`).
    """

    op: GateOp
    out: int
    args: tuple[int, ...] = ()
    const_value: int = 0
    input_index: int = -1
    public: bool = False


@dataclass
class CircuitStats:
    """Gate-count breakdown; ``size`` follows the FairplayMP convention of
    counting non-free gates (AND) plus linear gates, since compiled circuit
    size in the paper grows with total gates while *cost* is AND-dominated."""

    inputs: int = 0
    consts: int = 0
    xor: int = 0
    and_: int = 0
    not_: int = 0

    @property
    def total(self) -> int:
        return self.inputs + self.consts + self.xor + self.and_ + self.not_

    @property
    def size(self) -> int:
        """Total gate count (the Fig. 6b metric)."""
        return self.xor + self.and_ + self.not_

    @property
    def multiplicative_size(self) -> int:
        """AND-gate count: the number of interactive MPC operations."""
        return self.and_


class Circuit:
    """An immutable-after-build straight-line Boolean circuit."""

    def __init__(self) -> None:
        self.gates: list[Gate] = []
        self.outputs: list[int] = []
        self.n_inputs = 0

    def add_input(self, public: bool = False) -> int:
        wire = len(self.gates)
        self.gates.append(
            Gate(op=GateOp.INPUT, out=wire, input_index=self.n_inputs, public=public)
        )
        self.n_inputs += 1
        return wire

    def add_const(self, value: int) -> int:
        if value not in (0, 1):
            raise ValueError(f"constant must be a bit, got {value}")
        wire = len(self.gates)
        self.gates.append(Gate(op=GateOp.CONST, out=wire, const_value=value))
        return wire

    def add_gate(self, op: GateOp, args: Iterable[int]) -> int:
        args = tuple(args)
        arity = {GateOp.XOR: 2, GateOp.AND: 2, GateOp.NOT: 1}.get(op)
        if arity is None:
            raise ValueError(f"add_gate cannot create {op} gates")
        if len(args) != arity:
            raise ValueError(f"{op.value} gate needs {arity} args, got {len(args)}")
        for a in args:
            if not 0 <= a < len(self.gates):
                raise ValueError(f"argument wire {a} does not exist yet")
        wire = len(self.gates)
        self.gates.append(Gate(op=op, out=wire, args=args))
        return wire

    def mark_output(self, wire: int) -> None:
        if not 0 <= wire < len(self.gates):
            raise ValueError(f"output wire {wire} does not exist")
        self.outputs.append(wire)

    def mark_outputs(self, wires: Iterable[int]) -> None:
        for w in wires:
            self.mark_output(w)

    @property
    def n_wires(self) -> int:
        return len(self.gates)

    def stats(self) -> CircuitStats:
        s = CircuitStats()
        for g in self.gates:
            if g.op is GateOp.INPUT:
                s.inputs += 1
            elif g.op is GateOp.CONST:
                s.consts += 1
            elif g.op is GateOp.XOR:
                s.xor += 1
            elif g.op is GateOp.AND:
                s.and_ += 1
            elif g.op is GateOp.NOT:
                s.not_ += 1
        return s

    def validate(self) -> None:
        """Check topological well-formedness (every arg precedes its gate)."""
        input_positions = set()
        for i, g in enumerate(self.gates):
            if g.out != i:
                raise ValueError(f"gate {i} has inconsistent out wire {g.out}")
            for a in g.args:
                if a >= i:
                    raise ValueError(f"gate {i} reads not-yet-defined wire {a}")
            if g.op is GateOp.INPUT:
                if g.input_index in input_positions:
                    raise ValueError(f"duplicate input index {g.input_index}")
                input_positions.add(g.input_index)
        if input_positions != set(range(self.n_inputs)):
            raise ValueError("input indices are not contiguous from 0")
        for w in self.outputs:
            if not 0 <= w < len(self.gates):
                raise ValueError(f"dangling output wire {w}")
