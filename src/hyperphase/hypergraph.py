"""Weighted hypergraph data model, matrix algebra, and balanced partitions.

Vertices are labelled 1..n in all public inputs and outputs.  Matrices are
dense float64 numpy arrays; hypergraphs here are desk-scale, and dense exact
arithmetic keeps integer test oracles exact.
"""

from __future__ import annotations

import itertools
import math
from typing import Callable, Iterable

import numpy as np

__all__ = [
    "Hypergraph",
    "PartitionEnsemble",
    "BalanceReport",
    "incidence_matrix",
    "vertex_degree_matrix",
    "edge_degree_matrix",
    "edge_weight_sum_matrix",
    "adjacency_matrix",
    "momentum_laplacian",
    "position_laplacian",
    "part_weight",
    "is_balanced",
    "cut_cost",
]

# Cells a dense array (a matrix, grid or Wigner correlation) may span, checked by _require_cells
# before it is allocated: 2**24 float64 cells are 128 MiB.  A hypergraph's per-vertex arrays are
# capped like any other: it has 1..MAX_CELLS vertices.
MAX_CELLS = 2**24
# str() and int() refuse an int longer than this (from Python 3.10.7 and 3.11).
_STR_DIGITS = 4300


class _Value:
    """Base of the package's value types: each slot is set once, by ``_set``, then read only.
    Public constructors check (and copy) outside input; a value the library derives skips
    them, as ``object.__new__(T)._set(...)``, or ``._adopt(...)`` to take over a fresh array."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def _set(self, *values):
        """Fill the slots in order; returns self."""
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)
        return self


def _require_int(value, path: str, low: int | None = None, high: int | None = None) -> int:
    """``value`` as an int in low..high, an end that is None being open: the one check of every
    integer and its range.  A value past _STR_DIGITS digits, where str() refuses, is named by
    their count."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{path}: expected an integer, got {_echo(value)}")
    v = int(value)
    if (low is None or v >= low) and (high is None or v <= high):
        return v
    bound = f">= {low}" if high is None else f"<= {high}" if low is None else f"in {low}..{high}"
    d = _digits(abs(v))
    raise ValueError(f"{path}: expected an integer {bound}, got {v if d <= _STR_DIGITS else f'{d} digits'}")


def _require_cells(what: str, rows: int, cols: int) -> None:
    """Refuse a rows x cols array of more than MAX_CELLS cells, before it is allocated."""
    _require_int(rows * cols, f"cells of the {what} ({rows} x {cols})", high=MAX_CELLS)


def _require_real(value, path: str) -> float:
    """``value`` as a finite float64: the one check of every real the package takes."""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise ValueError(f"{path}: expected a number, got {_echo(value)}")
    try:
        v = float(value)
    except OverflowError:  # a Python int past float64: its digit count, not its digits
        raise ValueError(f"{path}: expected a finite number, got {_digits(abs(value))} digits") from None
    if not math.isfinite(v):
        raise ValueError(f"{path}: expected a finite number, got {value!r}")
    return v


def _require_phase(rad: float, path: str) -> None:
    """Refuse a largest phase ``rad`` that is not at most 2**53 rad, inf and nan too: past it a
    phase has no correct digit left.  The one home of the phase bound."""
    if not rad <= 2.0**53:
        raise ValueError(f"{path}: expected a phase of at most 2**53 rad, got {rad}")


def _echo(value) -> str:
    """How a refusal shows ``value``: its repr, cut after 20 characters with '...'; a str is cut
    before it is quoted."""
    if isinstance(value, str):
        return repr(value if len(value) <= 20 else value[:20] + "...")
    text = repr(value)
    return text if len(text) <= 20 else text[:20] + "..."


def _digits(n: int) -> int:
    """The decimal digits of the int n >= 0, counted without str(), which refuses past 4300."""
    d = int((n.bit_length() - 1) * 0.30102999566)  # at most log10(n): the constant is below log10(2)
    while n >= 10 ** (d + 1):
        d += 1
    return d + 1


def _require_number(value, path: str) -> float:
    v = _require_real(value, path)
    if not v > 0:
        raise ValueError(f"{path}: expected a positive number, got {value!r}")
    return v


class Hypergraph(_Value):
    """A weighted hypergraph: n vertices, vertex weights, weighted hyperedges.

    ``hyperedges`` is an ordered tuple of ``(members, weight)`` pairs; members
    are 1-based vertex indices stored as frozensets (duplicates collapse).
    Empty member sets are legal and contribute zero to every degree matrix.
    Each value is checked here, once and in order, and refused with its JSON document
    path: vertices an integer in 1..MAX_CELLS, members in 1..n, weights finite positive numbers.
    """

    __slots__ = ("n_vertices", "vertex_weights", "hyperedges")

    def __init__(
        self,
        n_vertices: int,
        hyperedges: Iterable[tuple[Iterable[int], float]] = (),
        vertex_weights: Iterable[float] | None = None,
    ) -> None:
        n = _require_int(n_vertices, "vertices", 1, MAX_CELLS)  # before any per-vertex array is made
        if vertex_weights is None:
            weights = (1.0,) * n
        else:
            weights = tuple(vertex_weights)
            if len(weights) != n:
                raise ValueError(f"vertex_weights: expected {n} entries, got {len(weights)}")
            weights = tuple(_require_number(w, f"vertex_weights[{i}]") for i, w in enumerate(weights))
        edges = []
        for j, (members, weight) in enumerate(hyperedges):
            checked = []
            for i, v in enumerate(members):
                if type(v) is not int or not 1 <= v <= n:  # the path is built only for the rest
                    v = _require_int(v, f"edges[{j}].members[{i}]", 1, n)
                checked.append(v)
            edges.append((frozenset(checked), _require_number(weight, f"edges[{j}].weight")))
        self._set(n, weights, tuple(edges))

    def __eq__(self, other):
        return self._fields() == other._fields() if type(other) is Hypergraph else NotImplemented

    def __hash__(self) -> int:
        return hash(self._fields())

    def _fields(self) -> tuple:
        return self.n_vertices, self.vertex_weights, self.hyperedges

    @property
    def n_edges(self) -> int:
        return len(self.hyperedges)

    def edge_weights(self) -> tuple[float, ...]:
        return tuple(w for _, w in self.hyperedges)

    def edge_members(self) -> tuple[frozenset[int], ...]:
        return tuple(m for m, _ in self.hyperedges)


def _memberships(h: Hypergraph) -> tuple[np.ndarray, np.ndarray]:
    """0-based (vertex, edge) of every membership, ordered by edge and then by vertex."""
    members = h.edge_members()
    edge = np.repeat(np.arange(h.n_edges, dtype=np.int64), np.fromiter(map(len, members), dtype=np.intp))
    key = edge * h.n_vertices + np.fromiter(itertools.chain.from_iterable(members), dtype=np.int64) - 1
    key.sort()  # edge * n + vertex: frozenset iteration order can differ between equal hypergraphs
    return np.divmod(key, h.n_vertices)[::-1]


def incidence_matrix(h: Hypergraph) -> np.ndarray:
    """n x m 0/1 matrix: entry (i, j) is 1 iff vertex i+1 belongs to hyperedge j."""
    _require_cells("incidence matrix", h.n_vertices, h.n_edges)
    mat = np.zeros((h.n_vertices, h.n_edges), dtype=np.float64)
    mat[_memberships(h)] = 1.0
    return mat


def _checked(form: Callable[..., np.ndarray], *args) -> np.ndarray:
    """``form(*args)`` as float64: a bincount with nothing to add returns integer zeros.

    Weights near the float64 limit can overflow the sums; that raises a ValueError instead
    of leaking numpy warnings and inf or nan entries.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        out = np.asarray(form(*args), dtype=np.float64)
    if not np.all(np.isfinite(out)):
        raise ValueError("edge weights too large: weighted degree or Gram sums overflow float64")
    return out


def _gram(h: Hypergraph, x: np.ndarray) -> np.ndarray:
    """H diag(x) H^T, the one product behind A and both Laplacians; its n x n cells are
    checked before H is built."""
    _require_cells("vertex-by-vertex Gram product", h.n_vertices, h.n_vertices)
    inc = incidence_matrix(h)
    return (inc * x) @ inc.T


def _adjacency(h: Hypergraph) -> np.ndarray:
    a = _gram(h, np.array(h.edge_weights()))
    np.fill_diagonal(a, 0.0)
    return a


def _laplacian(gram: np.ndarray, diag: np.ndarray) -> np.ndarray:
    """diag(diag) - gram in gram's own array, bit for bit: 0 - g keeps zeros +0.0, -g + d is d - g."""
    np.subtract(0.0, gram, out=gram)
    gram.flat[:: len(gram) + 1] += diag
    return gram


def _vertex_degrees(h: Hypergraph) -> np.ndarray:
    """d(v) = sum of weights of hyperedges containing v (H w), added from 0.0 in edge order."""
    vertex, edge = _memberships(h)
    return _checked(np.bincount, vertex, np.array(h.edge_weights())[edge], h.n_vertices)


def _edge_weight_sums(h: Hypergraph) -> np.ndarray:
    """f_w(e) = sum of member vertex weights (vw H), added from 0.0 in ascending vertex order."""
    vertex, edge = _memberships(h)
    return _checked(np.bincount, edge, np.array(h.vertex_weights)[vertex], h.n_edges)


def _edge_degrees(h: Hypergraph) -> np.ndarray:
    """d(e) = |e|, the hyperedge cardinality (column sums of H), counted without building H."""
    return np.fromiter(map(len, h.edge_members()), dtype=np.float64, count=h.n_edges)


def vertex_degree_matrix(h: Hypergraph) -> np.ndarray:
    """Diagonal D_v of the vertex degrees d(v)."""
    _require_cells("vertex degree matrix", h.n_vertices, h.n_vertices)
    return np.diag(_vertex_degrees(h))


def edge_degree_matrix(h: Hypergraph) -> np.ndarray:
    """Diagonal D_e of the edge degrees d(e) = |e|."""
    _require_cells("edge degree matrix", h.n_edges, h.n_edges)
    return np.diag(_edge_degrees(h))


def edge_weight_sum_matrix(h: Hypergraph) -> np.ndarray:
    """Diagonal f_w: per-edge sum of member vertex weights.

    With unit vertex weights this coincides with the edge degree matrix.
    """
    _require_cells("edge weight sum matrix", h.n_edges, h.n_edges)
    return np.diag(_edge_weight_sums(h))


def adjacency_matrix(h: Hypergraph) -> np.ndarray:
    """Weighted adjacency A = H W H^T - D_v; diagonal forced to exact zero."""
    return _checked(_adjacency, h)


def momentum_laplacian(h: Hypergraph) -> np.ndarray:
    """Unnormalized Laplacian L = D_v - A (equivalently 2 D_v - H W H^T)."""
    return _checked(lambda: _laplacian(_adjacency(h), _vertex_degrees(h)))


def position_laplacian(h: Hypergraph) -> np.ndarray:
    """Position-form Laplacian L = 2 D_v - H f_w H^T."""
    return _checked(lambda: _laplacian(_gram(h, _edge_weight_sums(h)), 2 * _vertex_degrees(h)))


class PartitionEnsemble(_Value):
    """Disjoint vertex groups P_1..P_K of a parent hypergraph, with balance factor delta."""

    __slots__ = ("parent", "parts", "delta", "_owner")  # _owner: vertex -> 0-based part index

    def __init__(
        self, parent: Hypergraph, parts: Iterable[Iterable[int]], delta: float
    ) -> None:
        delta = _require_real(delta, "delta")
        if not 0.0 < delta < 1.0:
            raise ValueError(f"delta must lie in (0, 1), got {delta}")
        frozen: list[frozenset[int]] = []
        owner: dict[int, int] = {}
        for k, p in enumerate(parts):
            pset = frozenset(_require_int(v, f"parts[{k}]", 1, parent.n_vertices) for v in p)
            overlap = owner.keys() & pset
            if overlap:
                raise ValueError(f"parts[{k}]: vertices {sorted(overlap)} already assigned")
            owner.update(dict.fromkeys(pset, k))
            frozen.append(pset)
        self._set(parent, tuple(frozen), delta, owner)

    @property
    def n_parts(self) -> int:
        return len(self.parts)

    def covers_all_vertices(self) -> bool:
        return len(self._owner) == self.parent.n_vertices  # every key is a vertex 1..n


def part_weight(p: PartitionEnsemble, k: int) -> float:
    """Total vertex weight of part k (0-based part index); a sum past float64 is refused."""
    part = p.parts[_require_int(k, "k", 0, p.n_parts - 1)]
    total = sum(p.parent.vertex_weights[v - 1] for v in part)
    return _require_real(total, f"vertex weight sum of parts[{k}]")


class BalanceReport(_Value):
    """Per-part balance check: each part weight must stay strictly below (1+delta)*mean."""

    __slots__ = ("part_weights", "mean_weight", "bound", "delta", "per_part_ok", "balanced")

    def __bool__(self) -> bool:
        return self.balanced


def is_balanced(p: PartitionEnsemble) -> BalanceReport:
    """Check the strict balance criterion f_k < (1+delta) * mean over all parts."""
    if p.n_parts == 0:
        raise ValueError("partition ensemble has no parts")
    weights = tuple(part_weight(p, k) for k in range(p.n_parts))
    parts = f"parts[0..{p.n_parts - 1}]"
    mean = _require_real(sum(weights) / p.n_parts, f"mean weight of {parts}")
    bound = _require_real((1.0 + p.delta) * mean, f"(1 + delta) * mean weight of {parts} for delta={p.delta}")
    ok = tuple(w < bound for w in weights)
    return object.__new__(BalanceReport)._set(weights, mean, bound, p.delta, ok, all(ok))


def _edge_parts(p: PartitionEnsemble) -> list[int]:
    """Each hyperedge's 0-based part: -1 if it spans two or more (it is cut), 0 if it is
    empty.  Every vertex touched by a hyperedge must be assigned to some part."""
    found = []
    for j, members in enumerate(p.parent.edge_members()):
        spanned = {p._owner.get(v) for v in members} or {0}
        if None in spanned:
            v = next(v for v in members if v not in p._owner)
            raise ValueError(f"hyperedge {j}: vertex {v} is not assigned to any part")
        found.append(spanned.pop() if len(spanned) == 1 else -1)
    return found


def cut_cost(p: PartitionEnsemble) -> float:
    """Partition cost: every hyperedge spanning >= 2 parts contributes d(e) - 1."""
    return float(sum(len(m) - 1 for m, k in zip(p.parent.edge_members(), _edge_parts(p)) if k < 0))
