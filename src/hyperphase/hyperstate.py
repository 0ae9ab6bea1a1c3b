"""Dense n-qubit state vectors and the hypergraph-state encoding.

Each hyperedge acts as a multi-controlled Z: the amplitude of a basis state
is negated exactly when every member qubit reads 1.  Applying one gate per
hyperedge to |+>^n yields the hypergraph state, whose amplitudes are all
+-2^(-n/2) with signs (-1)^f(v) for the Boolean function
f(v) = XOR over hyperedges of AND over member bits.

``encode_hypergraph`` is the one encoder: every partitioned state is
``encode_hypergraph`` of some hypergraph, and f is read off its sign bits.

Bit convention: qubit 1 is the most significant bit of the basis index, so
basis state |10...0> has qubit 1 equal to 1.  An empty hyperedge is the
literal zero-controlled Z: a global factor of -1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .hypergraph import Hypergraph, PartitionEnsemble

__all__ = [
    "MAX_QUBITS",
    "QubitStateVector",
    "BooleanFunctionTable",
    "plus_state",
    "apply_ckz",
    "encode_hypergraph",
    "boolean_function",
    "state_from_boolean_function",
    "is_real_equally_weighted",
    "encode_partitioned",
]

MAX_QUBITS = 20


class QubitStateVector:
    """2^n complex amplitudes with unit norm; qubit 1 is the index MSB."""

    __slots__ = ("n_qubits", "amplitudes")

    def __init__(self, n_qubits: int, amplitudes: np.ndarray) -> None:
        if not 1 <= n_qubits <= MAX_QUBITS:
            raise ValueError(f"n_qubits must be in 1..{MAX_QUBITS}, got {n_qubits}")
        amps = np.array(amplitudes, dtype=np.complex128, copy=True)
        if amps.shape != (2**n_qubits,):
            raise ValueError(
                f"expected {2**n_qubits} amplitudes for {n_qubits} qubits, got shape {amps.shape}"
            )
        norm = float(np.sum(np.abs(amps) ** 2))
        if not abs(norm - 1.0) <= 1e-12:
            raise ValueError(f"state norm is {norm}, expected 1 within 1e-12")
        amps.flags.writeable = False
        object.__setattr__(self, "n_qubits", n_qubits)
        object.__setattr__(self, "amplitudes", amps)

    def __setattr__(self, name, value):  # pragma: no cover - guard
        raise AttributeError("QubitStateVector is immutable")

    def basis_labels(self) -> list[str]:
        """Bitstrings of the basis indices, qubit 1 first: format(i, f"0{n}b") for each i."""
        n = self.n_qubits
        index = np.arange(2**n, dtype=np.uint32)
        # one uint8 column per qubit plus a newline column; temporaries stay O(2^n) per bit
        table = np.empty((2**n, n + 1), dtype=np.uint8)
        table[:, n] = ord("\n")
        for bit in range(n):
            np.bitwise_and(index >> (n - 1 - bit), 1, out=table[:, bit], casting="unsafe")
        table[:, :n] += ord("0")
        return str(table.data, "ascii").split("\n")[:-1]


@dataclass(frozen=True)
class BooleanFunctionTable:
    """Truth table of f over all 2^n inputs, stored as 0/1 bytes."""

    n_inputs: int
    values: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.values) != 2**self.n_inputs:
            raise ValueError(
                f"table length {len(self.values)} does not match 2^{self.n_inputs}"
            )
        if any(v not in (0, 1) for v in self.values):
            raise ValueError("table entries must be 0 or 1")


def plus_state(n: int) -> QubitStateVector:
    """|+>^n: all 2^n amplitudes equal 2^(-n/2)."""
    if not 1 <= n <= MAX_QUBITS:
        raise ValueError(f"n must be in 1..{MAX_QUBITS}, got {n}")
    return QubitStateVector(n, np.full(2**n, 2.0 ** (-n / 2.0), dtype=np.complex128))


def apply_ckz(s: QubitStateVector, targets: Iterable[int]) -> QubitStateVector:
    """Multi-controlled Z over ``targets``: negate amplitudes where all targets are 1.

    The empty target set is the literal C^0 Z, a global factor of -1 (every
    basis state trivially satisfies the condition).
    """
    n = s.n_qubits
    qubits = set(int(t) for t in targets)
    for q in qubits:
        if not 1 <= q <= n:
            raise ValueError(f"target qubit {q} out of range 1..{n}")
    # axis q-1 is qubit q; negation (unlike *= -1) also flips the sign of 0j
    view = s.amplitudes.reshape((2,) * n).copy()
    block = tuple(1 if q in qubits else slice(None) for q in range(1, n + 1))
    view[block] = -view[block]
    return QubitStateVector(n, view.reshape(-1))


def encode_hypergraph(h: Hypergraph, global_gate: bool = False) -> QubitStateVector:
    """Hypergraph state: one C^kZ per hyperedge applied to |+>^n.

    The diagonal gates commute, so hyperedge order is irrelevant.  Hyperedge
    weights play no role here; they act only in the matrix algebra and the
    phase map.  ``global_gate`` additionally applies the all-qubits gate
    (sign flip on the all-ones basis state), off by default.
    """
    if h.n_vertices > MAX_QUBITS:
        raise ValueError(
            f"hypergraph has {h.n_vertices} vertices; dense encoding is capped at {MAX_QUBITS}"
        )
    state = plus_state(h.n_vertices)
    for members, _ in h.hyperedges:
        state = apply_ckz(state, members)
    if global_gate:
        state = apply_ckz(state, range(1, h.n_vertices + 1))
    return state


def boolean_function(h: Hypergraph) -> BooleanFunctionTable:
    """f(v) = XOR over hyperedges of AND over member bits of v.

    Read off the sign bits of ``encode_hypergraph(h)``.  An empty hyperedge
    contributes the constant 1 (empty AND), flipping the whole table.
    """
    signs = np.signbit(encode_hypergraph(h).amplitudes.real)
    return BooleanFunctionTable(h.n_vertices, tuple(signs.astype(np.uint8).tolist()))


def state_from_boolean_function(t: BooleanFunctionTable) -> QubitStateVector:
    """Real equally weighted state with amplitudes 2^(-n/2) * (-1)^f(v)."""
    n = t.n_inputs
    if not 1 <= n <= MAX_QUBITS:
        raise ValueError(f"n_inputs must be in 1..{MAX_QUBITS}, got {n}")
    signs = 1.0 - 2.0 * np.array(t.values, dtype=np.float64)
    return QubitStateVector(n, (2.0 ** (-n / 2.0)) * signs.astype(np.complex128))


def is_real_equally_weighted(s: QubitStateVector, tol: float = 1e-12) -> bool:
    """True iff every amplitude lies within tol of +-2^(-n/2) on the real axis."""
    c = 2.0 ** (-s.n_qubits / 2.0)
    amps = s.amplitudes
    dist = np.minimum(np.abs(amps - c), np.abs(amps + c))
    return bool(np.all(dist <= tol) and np.all(np.abs(amps.imag) <= tol))


def encode_partitioned(
    h: Hypergraph, p: PartitionEnsemble
) -> tuple[list[QubitStateVector], QubitStateVector]:
    """Per-part hypergraph states plus their tensor product.

    Part k is ``encode_hypergraph`` of the subhypergraph induced on it, its
    vertices relabelled 1..|part| in increasing order; crossing hyperedges are
    dropped (cut_cost accounts for them) and empty ones go to part 1 only.
    The combined state is ``encode_hypergraph`` of every uncut hyperedge on
    qubits 1..n, so it equals the full encoding whenever nothing is cut.
    """
    if p.parent is not h:
        raise ValueError("partition ensemble does not belong to this hypergraph")
    if not p.covers_all_vertices():
        raise ValueError("partition must cover every vertex")
    if any(len(part) == 0 for part in p.parts):
        raise ValueError("empty parts cannot be encoded")
    if h.n_vertices > MAX_QUBITS:
        raise ValueError(
            f"hypergraph has {h.n_vertices} vertices; dense encoding is capped at {MAX_QUBITS}"
        )

    states: list[QubitStateVector] = []
    for k, part in enumerate(p.parts):
        local = {v: i + 1 for i, v in enumerate(sorted(part))}
        induced = [([local[v] for v in m], w) for m, w in h.hyperedges
                   if m <= part and (m or k == 0)]
        states.append(encode_hypergraph(Hypergraph(len(part), induced)))
    kept = [(m, w) for m, w in h.hyperedges if any(m <= part for part in p.parts)]
    return states, encode_hypergraph(Hypergraph(h.n_vertices, kept))
