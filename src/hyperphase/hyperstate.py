"""Dense n-qubit state vectors and the hypergraph-state encoding.

Each hyperedge acts as a multi-controlled Z: the amplitude of a basis state
is negated exactly when every member qubit reads 1.  Applying one gate per
hyperedge to |+>^n yields the hypergraph state, whose amplitudes are all
+-2^(-n/2) with signs (-1)^f(v) for the Boolean function
f(v) = XOR over hyperedges of AND over member bits.

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


def _target_mask(n: int, targets: Iterable[int]) -> int:
    mask = 0
    for q in set(int(t) for t in targets):
        if not 1 <= q <= n:
            raise ValueError(f"target qubit {q} out of range 1..{n}")
        mask |= 1 << (n - q)
    return mask


def apply_ckz(s: QubitStateVector, targets: Iterable[int]) -> QubitStateVector:
    """Multi-controlled Z over ``targets``: negate amplitudes where all targets are 1.

    The empty target set is the literal C^0 Z, a global factor of -1 (every
    basis state trivially satisfies the condition).
    """
    mask = _target_mask(s.n_qubits, targets)
    idx = np.arange(2**s.n_qubits)
    amps = s.amplitudes.copy()
    sel = (idx & mask) == mask
    amps[sel] = -amps[sel]
    return QubitStateVector(s.n_qubits, amps)


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

    An empty hyperedge contributes the constant 1 (empty AND), flipping the
    whole table.
    """
    n = h.n_vertices
    if n > MAX_QUBITS:
        raise ValueError(f"hypergraph has {n} vertices; table is capped at {MAX_QUBITS}")
    idx = np.arange(2**n)
    f = np.zeros(2**n, dtype=np.uint8)
    for members, _ in h.hyperedges:
        mask = _target_mask(n, members)
        f ^= ((idx & mask) == mask).astype(np.uint8)
    return BooleanFunctionTable(n, tuple(int(x) for x in f))


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


def _permute_to_natural_order(
    combined: np.ndarray, qubit_order: list[int], n: int
) -> np.ndarray:
    """Reindex a state whose tensor slots follow ``qubit_order`` back to labels 1..n."""
    idx = np.arange(2**n)
    natural = np.zeros(2**n, dtype=np.int64)
    for slot, vertex in enumerate(qubit_order):
        bits = (idx >> (n - 1 - slot)) & 1
        natural |= bits << (n - vertex)
    out = np.empty(2**n, dtype=np.complex128)
    out[natural] = combined
    return out


def encode_partitioned(
    h: Hypergraph, p: PartitionEnsemble
) -> tuple[list[QubitStateVector], QubitStateVector]:
    """Per-part hypergraph states plus their tensor product.

    Each part encodes the subhypergraph induced on it: only hyperedges whose
    members all lie inside the part survive; hyperedges crossing parts are
    dropped (their penalty is what cut_cost accounts).  Empty hyperedges are
    a global phase and are applied once, to the first part, so the tensor
    product matches the unpartitioned encoding whenever nothing is cut.  The
    combined state is reindexed to the natural qubit order 1..n.
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

    n_empty_edges = sum(1 for members, _ in h.hyperedges if not members)
    states: list[QubitStateVector] = []
    qubit_order: list[int] = []
    for k, part in enumerate(p.parts):
        vertices = sorted(part)
        local = {v: i + 1 for i, v in enumerate(vertices)}
        qubit_order.extend(vertices)
        state = plus_state(len(vertices))
        for members, _ in h.hyperedges:
            if members and members <= part:
                state = apply_ckz(state, [local[v] for v in members])
        if k == 0 and n_empty_edges % 2 == 1:
            state = apply_ckz(state, [])
        states.append(state)

    # per-part states are exactly +-2^(-n_k/2); kron the +-1 signs (exact
    # products) and apply one fresh 2^(-n/2) so the tensor product is
    # bitwise identical to encode_hypergraph
    signs = np.where(states[0].amplitudes.real >= 0, 1.0, -1.0)
    for s in states[1:]:
        signs = np.kron(signs, np.where(s.amplitudes.real >= 0, 1.0, -1.0))
    combined = signs.astype(np.complex128) * (2.0 ** (-h.n_vertices / 2.0))
    combined = _permute_to_natural_order(combined, qubit_order, h.n_vertices)
    return states, QubitStateVector(h.n_vertices, combined)
