"""High-level circuit construction helpers.

`CircuitBuilder` wraps a :class:`~repro.mpc.circuits.gates.Circuit` with the
derived operators (OR, MUX, equality, ...) used by the arithmetic sub-circuits
in :mod:`repro.mpc.circuits.adder` and :mod:`repro.mpc.circuits.comparator`.

Multi-bit integers are represented as little-endian lists of wire ids
(``bits[0]`` is the least significant bit), matching the convention of the
adder/comparator modules.
"""

from __future__ import annotations

from typing import Sequence

from repro.mpc.circuits.gates import Circuit, GateOp

__all__ = ["CircuitBuilder"]


class CircuitBuilder:
    """Fluent builder producing a :class:`Circuit`."""

    def __init__(self) -> None:
        self.circuit = Circuit()
        self._zero: int | None = None
        self._one: int | None = None

    # -- wires ------------------------------------------------------------

    def input_bit(self, public: bool = False) -> int:
        """A fresh input wire; ``public`` declares a value every party knows
        (a threshold, a public ǫ), which makes ANDs with it free."""
        return self.circuit.add_input(public)

    def input_bits(self, width: int, public: bool = False) -> list[int]:
        """``width`` fresh input wires, little-endian."""
        if width < 1:
            raise ValueError(f"width must be >= 1, got {width}")
        return [self.circuit.add_input(public) for _ in range(width)]

    def zero(self) -> int:
        """The shared constant-0 wire (created lazily, reused)."""
        if self._zero is None:
            self._zero = self.circuit.add_const(0)
        return self._zero

    def one(self) -> int:
        if self._one is None:
            self._one = self.circuit.add_const(1)
        return self._one

    def constant_bits(self, value: int, width: int) -> list[int]:
        """Wires for the little-endian binary expansion of ``value``."""
        if value < 0:
            raise ValueError(f"constants must be non-negative, got {value}")
        if value >= (1 << width):
            raise ValueError(f"{value} does not fit in {width} bits")
        return [self.one() if (value >> i) & 1 else self.zero() for i in range(width)]

    # -- primitive gates ----------------------------------------------------

    def xor(self, a: int, b: int) -> int:
        return self.circuit.add_gate(GateOp.XOR, (a, b))

    def and_(self, a: int, b: int) -> int:
        return self.circuit.add_gate(GateOp.AND, (a, b))

    def not_(self, a: int) -> int:
        return self.circuit.add_gate(GateOp.NOT, (a,))

    # -- derived gates --------------------------------------------------------

    def or_(self, a: int, b: int) -> int:
        """``a | b`` as ``(a ^ b) ^ (a & b)``."""
        return self.xor(self.xor(a, b), self.and_(a, b))

    def xnor(self, a: int, b: int) -> int:
        return self.not_(self.xor(a, b))

    def mux(self, sel: int, if_true: int, if_false: int) -> int:
        """``sel ? if_true : if_false`` = ``if_false ^ (sel & (if_true ^ if_false))``."""
        return self.xor(if_false, self.and_(sel, self.xor(if_true, if_false)))

    def mux_bits(self, sel: int, if_true: Sequence[int], if_false: Sequence[int]) -> list[int]:
        if len(if_true) != len(if_false):
            raise ValueError("mux arms must have equal width")
        return [self.mux(sel, t, f) for t, f in zip(if_true, if_false)]

    def and_many(self, bits: Sequence[int]) -> int:
        """Balanced AND-tree over one or more bits."""
        return self._tree(list(bits), self.and_)

    def or_many(self, bits: Sequence[int]) -> int:
        return self._tree(list(bits), self.or_)

    def xor_many(self, bits: Sequence[int]) -> int:
        return self._tree(list(bits), self.xor)

    def equal_bits(self, a: Sequence[int], b: Sequence[int]) -> int:
        """1 iff the two little-endian bit vectors encode the same integer."""
        if len(a) != len(b):
            raise ValueError("equality operands must have equal width")
        return self.and_many([self.xnor(x, y) for x, y in zip(a, b)])

    def is_zero(self, bits: Sequence[int]) -> int:
        return self.not_(self.or_many(bits))

    # -- outputs ------------------------------------------------------------

    def output(self, wire: int) -> None:
        self.circuit.mark_output(wire)

    def output_bits(self, bits: Sequence[int]) -> None:
        self.circuit.mark_outputs(bits)

    def build(self) -> Circuit:
        self.circuit.validate()
        return self.circuit

    # -- internals ------------------------------------------------------------

    def _tree(self, bits: list[int], op) -> int:
        if not bits:
            raise ValueError("tree reduction over zero bits")
        while len(bits) > 1:
            nxt = [op(bits[i], bits[i + 1]) for i in range(0, len(bits) - 1, 2)]
            if len(bits) % 2:
                nxt.append(bits[-1])
            bits = nxt
        return bits[0]
