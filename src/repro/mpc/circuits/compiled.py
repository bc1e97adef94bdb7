"""Compiled circuits: the flat, array-backed form shared by all evaluators.

A :class:`~repro.mpc.circuits.gates.Circuit` is a list of `Gate` objects --
convenient to build, slow to interpret.  `compile_circuit` lowers it once
into a :class:`CompiledCircuit`: flat ``numpy`` opcode/argument/output
arrays plus a precomputed layer schedule (gates grouped by multiplicative
depth, AND gates of each layer gathered into index arrays).  Both the
plaintext evaluators and the GMW engines run off this form, so the layering
logic -- which also determines the round accounting -- exists in exactly one
place.

The compiled form is what makes *bitsliced* batch evaluation possible: with
every wire holding a ``uint64`` whose bit-lanes are independent instances,
one pass over the compiled program evaluates up to 64 instances at once,
and the per-layer AND index arrays let the Beaver-triple masking be
vectorized across gates as well as lanes (see :mod:`repro.mpc.gmw`).

Compilation also tracks which wires are *public*: a wire is public when it
depends on at least one public input (see
:meth:`~repro.mpc.circuits.builder.CircuitBuilder.input_bit`) and on no
secret one.  An AND with a public operand needs no Beaver triple -- every
party ANDs its share with the known value -- so it is lowered to a local
``OP_LAND`` in the layer's linear list and adds no depth.  Constants are
deliberately *not* public: the monolithic builders bake thresholds in as
constants and stay the Fig. 6b reference, so an AND with a constant keeps
its triple.  ``gate_count`` still counts every gate (the Fig. 6b size);
``and_gates`` and the layers' AND arrays hold only the secret × secret ANDs.

Compilation is cached on the circuit object itself: building is O(gates)
and every identity in a batched CountBelow run shares one circuit, so the
cache turns n compilations into one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.mpc.circuits.gates import Circuit, GateOp

__all__ = [
    "CompiledCircuit",
    "CompiledLayer",
    "compile_circuit",
    "evaluate_batch",
    "pack_fleet",
    "unpack_fleet",
    "pack_lanes",
    "unpack_lanes",
    "LANES",
]

# Lane capacity of one machine word: instances per bitsliced evaluation pass.
LANES = 64

# Opcodes of the flat program (values match the array in ``ops``).  OP_LAND
# is an AND lowered to a local op because ``arg1`` is public.
OP_INPUT, OP_CONST, OP_XOR, OP_AND, OP_NOT, OP_LAND = range(6)

# Wire taint while compiling: built from constants only, from public inputs
# (and constants), or from at least one secret input.
_CONST, _PUBLIC, _SECRET = range(3)

_OPCODE = {
    GateOp.INPUT: OP_INPUT,
    GateOp.CONST: OP_CONST,
    GateOp.XOR: OP_XOR,
    GateOp.AND: OP_AND,
    GateOp.NOT: OP_NOT,
}

_FULL_MASK = (1 << LANES) - 1


@dataclass
class CompiledLayer:
    """One multiplicative-depth layer of the schedule.

    ``linear`` holds the local gates of the layer in topological order as
    ``(op, arg0, arg1, out, aux)`` tuples (``aux`` is the input index for
    INPUT gates and the bit value for CONST gates); an AND with a public
    operand is local too (``OP_LAND``, public operand in ``arg1``).  The
    secret × secret AND gates are safe to evaluate *before* the layer's
    linear gates -- their arguments always come from strictly earlier
    layers -- which is what lets one vectorized Beaver step handle the
    whole layer.
    """

    linear: list = field(default_factory=list)
    and_a: np.ndarray = None
    and_b: np.ndarray = None
    and_out: np.ndarray = None

    @property
    def n_ands(self) -> int:
        return len(self.and_out)


@dataclass
class CompiledCircuit:
    """Flat program: numpy opcode/arg/out arrays + the layer schedule."""

    n_wires: int
    n_inputs: int
    ops: np.ndarray  # uint8, one opcode per gate
    arg0: np.ndarray  # int64, first argument wire (-1 if none)
    arg1: np.ndarray  # int64, second argument wire (-1 if none)
    out: np.ndarray  # int64, output wire (== gate index)
    aux: np.ndarray  # int64, input index / const value
    outputs: np.ndarray  # int64, output wire ids
    layers: list  # list[CompiledLayer]
    and_gates: int  # secret x secret ANDs: one Beaver triple each
    gate_count: int  # XOR + AND + NOT gates (the Fig. 6b "size" metric)
    public_inputs: np.ndarray  # int64, sorted indices of the public inputs

    @property
    def n_outputs(self) -> int:
        return len(self.outputs)


def compile_circuit(circuit: Circuit) -> CompiledCircuit:
    """Validate and lower ``circuit`` to flat arrays + AND layers.

    Cached on the circuit: validation and lowering both happen on the miss,
    so the engines built per stage on a shared circuit pay neither again.
    """
    cached = getattr(circuit, "_compiled", None)
    if cached is not None:
        return cached

    circuit.validate()
    n = circuit.n_wires
    ops = np.zeros(n, dtype=np.uint8)
    arg0 = np.full(n, -1, dtype=np.int64)
    arg1 = np.full(n, -1, dtype=np.int64)
    out = np.zeros(n, dtype=np.int64)
    aux = np.zeros(n, dtype=np.int64)

    depth = [0] * n
    taint = [_CONST] * n
    public_inputs = []
    layer_gates: dict = {}
    and_total = 0
    size = 0
    for i, gate in enumerate(circuit.gates):
        code = _OPCODE[gate.op]
        out[i] = gate.out
        if gate.args:
            arg0[i] = gate.args[0]
            if len(gate.args) > 1:
                arg1[i] = gate.args[1]
            taint[i] = max(taint[a] for a in gate.args)
        if gate.op is GateOp.INPUT:
            aux[i] = gate.input_index
            taint[i] = _PUBLIC if gate.public else _SECRET
            if gate.public:
                public_inputs.append(gate.input_index)
            d = 0
        elif gate.op is GateOp.CONST:
            aux[i] = gate.const_value
            d = 0
        elif gate.op is GateOp.AND and _PUBLIC not in [taint[a] for a in gate.args]:
            d = max(depth[a] for a in gate.args) + 1
            and_total += 1
            size += 1
        else:
            if gate.op is GateOp.AND:
                code = OP_LAND
                if taint[gate.args[0]] == _PUBLIC:
                    arg0[i], arg1[i] = gate.args[1], gate.args[0]
            d = max((depth[a] for a in gate.args), default=0)
            size += 1
        ops[i] = code
        depth[gate.out] = d
        layer_gates.setdefault(d, []).append(i)

    layers: list[CompiledLayer] = []
    for d in sorted(layer_gates):
        linear = []
        la, lb, lo = [], [], []
        for i in layer_gates[d]:
            if ops[i] == OP_AND:
                la.append(arg0[i])
                lb.append(arg1[i])
                lo.append(out[i])
            else:
                linear.append((int(ops[i]), int(arg0[i]), int(arg1[i]), int(out[i]), int(aux[i])))
        layers.append(
            CompiledLayer(
                linear=linear,
                and_a=np.asarray(la, dtype=np.int64),
                and_b=np.asarray(lb, dtype=np.int64),
                and_out=np.asarray(lo, dtype=np.int64),
            )
        )

    compiled = CompiledCircuit(
        n_wires=n,
        n_inputs=circuit.n_inputs,
        ops=ops,
        arg0=arg0,
        arg1=arg1,
        out=out,
        aux=aux,
        outputs=np.asarray(circuit.outputs, dtype=np.int64),
        layers=layers,
        and_gates=and_total,
        gate_count=size,
        public_inputs=np.asarray(sorted(public_inputs), dtype=np.int64),
    )
    circuit._compiled = compiled
    return compiled


# -- lane packing ------------------------------------------------------------


def pack_fleet(bits: np.ndarray) -> np.ndarray:
    """Pack 0/1 values along the last axis into lane words, all chunks at once.

    ``(..., n)`` bits -> ``(..., ceil(n / 64))`` ``uint64``: instance ``i``
    becomes bit-lane ``i % 64`` of chunk ``i // 64``; the tail chunk's unused
    high lanes are zero.
    """
    b = np.asarray(bits, dtype=np.uint8)
    chunks = -(-b.shape[-1] // LANES)
    packed = np.zeros(b.shape[:-1] + (chunks * 8,), dtype=np.uint8)
    packed[..., : -(-b.shape[-1] // 8)] = np.packbits(b, axis=-1, bitorder="little")
    return packed.view("<u8").astype(np.uint64, copy=False)


def unpack_fleet(words: np.ndarray, n: int) -> np.ndarray:
    """Inverse of :func:`pack_fleet`: ``(..., chunks)`` words -> ``(..., n)`` bits."""
    w = np.ascontiguousarray(words, dtype="<u8")
    if n > w.shape[-1] * LANES:
        raise ValueError(f"{w.shape[-1]} words hold at most {w.shape[-1] * LANES} lanes, got {n}")
    return np.unpackbits(w.view(np.uint8), axis=-1, count=n, bitorder="little")


def pack_lanes(bits: np.ndarray) -> np.ndarray:
    """Pack a ``(n_lanes, n_cols)`` 0/1 matrix into ``(n_cols,)`` uint64 words.

    Lane ``i`` (instance ``i``) becomes bit ``i`` of every output word.
    """
    b = np.asarray(bits)
    if b.ndim != 2:
        raise ValueError(f"expected a 2-D bit matrix, got shape {b.shape}")
    if b.shape[0] > LANES:
        raise ValueError(f"at most {LANES} lanes per word, got {b.shape[0]}")
    if b.shape[0] == 0:
        return np.zeros(b.shape[1], dtype=np.uint64)
    return pack_fleet(b.T)[:, 0]


def unpack_lanes(words: np.ndarray, n_lanes: int) -> np.ndarray:
    """Inverse of :func:`pack_lanes`: ``(n_cols,)`` words -> ``(n_lanes, n_cols)``."""
    return np.ascontiguousarray(unpack_fleet(np.asarray(words)[:, None], n_lanes).T)


# -- bitsliced plaintext evaluation ---------------------------------------------


def evaluate_batch(circuit: Circuit, inputs: Sequence[Sequence[int]]) -> np.ndarray:
    """Evaluate ``circuit`` on many input rows at once, bitsliced.

    ``inputs`` is an ``(n_instances, n_inputs)`` 0/1 matrix; the result is the
    ``(n_instances, n_outputs)`` matrix of output bits, row ``i`` equal to
    ``evaluate(circuit, inputs[i])``.  Instances are packed 64 to a word and
    every wire is one ``(chunks,)`` row, so any batch size is a single pass.
    """
    compiled = compile_circuit(circuit)
    mat = np.asarray(inputs, dtype=np.uint8)
    if mat.ndim != 2 or mat.shape[1] != compiled.n_inputs:
        raise ValueError(
            f"expected an (n, {compiled.n_inputs}) input matrix, got shape {mat.shape}"
        )
    if mat.size and mat.max() > 1:
        raise ValueError("inputs must be bits")
    packed = pack_fleet(mat.T)  # (n_inputs, chunks)
    wires = np.zeros((compiled.n_wires, packed.shape[1]), dtype=np.uint64)
    full = np.uint64(_FULL_MASK)
    for layer in compiled.layers:
        if layer.n_ands:
            wires[layer.and_out] = wires[layer.and_a] & wires[layer.and_b]
        for op, a0, a1, w, aux in layer.linear:
            if op == OP_XOR:
                wires[w] = wires[a0] ^ wires[a1]
            elif op == OP_LAND:
                wires[w] = wires[a0] & wires[a1]
            elif op == OP_NOT:
                wires[w] = wires[a0] ^ full
            elif op == OP_INPUT:
                wires[w] = packed[aux]
            else:  # OP_CONST
                wires[w] = full if aux else np.uint64(0)
    return np.ascontiguousarray(unpack_fleet(wires[compiled.outputs], mat.shape[0]).T)
