"""Hypergraph states as sign tables, and the hypergraph-state encoding.

Each hyperedge acts as a multi-controlled Z: the amplitude of a basis state
is negated exactly when every member qubit reads 1.  Applying one gate per
hyperedge to |+>^n yields the hypergraph state, whose amplitudes are all
+-2^(-n/2) with signs (-1)^f(v) for the Boolean function
f(v) = XOR over hyperedges of AND over member bits.  A state is stored as
that table, one byte per basis state, and a gate XORs a block of it; only
``amplitudes`` builds the complex amplitudes.  Every partitioned state is
``encode_hypergraph``, the one encoder, of some hypergraph.

Qubit 1 is the most significant bit of the basis index: |10...0> has qubit
1 equal to 1.  An empty hyperedge is the zero-controlled Z, a global -1.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from .hypergraph import Hypergraph, PartitionEnsemble, _edge_parts, _require_int, _Value

__all__ = [
    "MAX_QUBITS",
    "QubitStateVector",
    "plus_state",
    "apply_ckz",
    "encode_hypergraph",
    "boolean_function",
    "is_real_equally_weighted",
    "encode_partitioned",
]

MAX_QUBITS = 20


class QubitStateVector(_Value):
    """The state (-1)^f(v) 2^(-n/2), held as ``signs``: f as a read-only uint8 table."""

    __slots__ = ("n_qubits", "signs")

    def __init__(self, n_qubits: int, signs: np.ndarray) -> None:
        n_qubits = _require_int(n_qubits, "n_qubits", 1, MAX_QUBITS)
        table = np.asarray(signs)
        if table.shape != (2**n_qubits,):
            raise ValueError(f"signs: expected shape ({2**n_qubits},), got {table.shape}")
        if table.dtype.kind not in "biu" or table.min() < 0 or table.max() > 1:
            raise ValueError(f"signs: expected bool or integer 0s and 1s, got dtype {table.dtype}")
        table = table.astype(np.uint8)  # a copy, even of uint8 input
        self._set(n_qubits, table)

    @property
    def amplitudes(self) -> np.ndarray:
        """Read-only complex128 (-1)^f 2^(-n/2), built per access; f = 1 gives imaginary -0.0."""
        c = complex(2.0 ** (-self.n_qubits / 2.0))
        amps = np.array([c, -c]).take(self.signs)
        amps.flags.writeable = False
        return amps


def plus_state(n: int) -> QubitStateVector:
    """|+>^n: the zero table, all 2^n amplitudes 2^(-n/2)."""
    n = _require_int(n, "n", 1, MAX_QUBITS)
    table = np.zeros(2**n, dtype=np.uint8)
    return object.__new__(QubitStateVector)._set(n, table)  # all 0s: no scan, no copy


def apply_ckz(s: QubitStateVector, targets: Iterable[int]) -> QubitStateVector:
    """Multi-controlled Z on ``targets``: flip f where all are 1 (no targets: everywhere)."""
    n = s.n_qubits
    qubits = {_require_int(t, "targets", 1, n) for t in targets}
    signs = s.signs.copy()
    # axis q-1 is qubit q (a trailing ... keeps an all-targets block a 0-d view); the
    # last k qubits' block is a mask XORed into whole runs of 2**k bytes, not a few at a time
    index = tuple(1 if q in qubits else slice(None) for q in range(1, n + 1)) + (...,)
    k = min(n, 10)
    mask = np.zeros((2,) * k, dtype=np.uint8)
    mask[index[n - k :]] = 1
    block = signs.reshape((2,) * n)[index[: n - k] + (...,)]
    block ^= mask
    return object.__new__(QubitStateVector)._set(n, signs)  # the table is 0s and 1s: no re-check


def encode_hypergraph(h: Hypergraph) -> QubitStateVector:
    """Hypergraph state: one C^kZ per hyperedge applied to |+>^n.

    The diagonal gates commute, so hyperedge order is irrelevant.  Hyperedge
    weights act only in the matrix algebra and the phase map.
    """
    n = _require_int(h.n_vertices, "vertices (qubits, capped for the dense encoding)", high=MAX_QUBITS)
    state = plus_state(n)
    for members, _ in h.hyperedges:
        state = apply_ckz(state, members)
    return state


def boolean_function(s: QubitStateVector) -> np.ndarray:
    """The table of ``s``: f(v) as 2^n read-only uint8 zeros and ones.

    For ``s = encode_hypergraph(h)``, f(v) is the XOR over hyperedges of the
    AND over member bits; an empty hyperedge (empty AND) flips every entry.
    """
    return s.signs


def is_real_equally_weighted(s: QubitStateVector) -> bool:
    """Always True: a state holds only its sign table f, so it is (-1)^f 2^(-n/2) by construction."""
    return True


def encode_partitioned(
    h: Hypergraph, p: PartitionEnsemble
) -> tuple[list[QubitStateVector], QubitStateVector]:
    """Per-part hypergraph states plus their tensor product.

    Part k is ``encode_hypergraph`` of the hyperedges that ``_edge_parts``, the
    cut rule of ``cut_cost``, puts in it (an empty one in part 1, a cut one in
    none), its vertices relabelled 1..|part| in increasing order.
    The combined state is ``encode_hypergraph`` of every uncut hyperedge on
    qubits 1..n, so it equals the full encoding whenever nothing is cut; it is
    encoded first, so a hypergraph past MAX_QUBITS is refused before any part.
    """
    if p.parent is not h:
        raise ValueError("partition ensemble does not belong to this hypergraph")
    if not p.covers_all_vertices():
        raise ValueError("partition must cover every vertex")
    if any(len(part) == 0 for part in p.parts):
        raise ValueError("empty parts cannot be encoded")
    owner = _edge_parts(p)
    combined = encode_hypergraph(Hypergraph(h.n_vertices, [e for e, k in zip(h.hyperedges, owner) if k >= 0]))
    states: list[QubitStateVector] = []
    for k, part in enumerate(p.parts):
        local = {v: i + 1 for i, v in enumerate(sorted(part))}
        induced = [([local[v] for v in m], w) for (m, w), q in zip(h.hyperedges, owner) if q == k]
        states.append(encode_hypergraph(Hypergraph(len(part), induced)))
    return states, combined
