"""Dictionary between hypergraph quantities and phase-space coordinates.

Hyperedge weights select momentum rows, vertex degrees select position
columns (falling back to hyperedge degrees when some hyperedge is empty),
and the grid extent comes from the hypergraph boundary: the largest weight
and the largest degree, padded by a margin factor.  The scale is the
identity, p = omega(e) and q = d(v) in grid units.
"""

from __future__ import annotations

import numpy as np

from .hypergraph import Hypergraph, _Value, _edge_degrees, _require_phase, _require_real, _vertex_degrees
from .wigner import PhaseSpaceGrid, WignerField

__all__ = [
    "PhaseMap",
    "grid_from_boundary",
    "map_momentum_rows",
    "build_phase_map",
    "initial_field_from_hypergraph",
]

VERTEX_DEGREE = "vertex_degree"
EDGE_DEGREE = "edge_degree"


class PhaseMap(_Value):
    """Slice assignment for a hypergraph on a grid; only ``source`` and ``grid`` are stored.

    The rest is derived from them on read.  momentum_rows maps hyperedge
    index (0-based list position) to a row.  position_cols maps vertex label
    (1-based) to a column, unless the empty-hyperedge fallback triggered, in
    which case it maps hyperedge index to a column and degree_source is
    "edge_degree".
    """

    __slots__ = ("source", "grid")

    def __eq__(self, other):
        if type(other) is not PhaseMap:
            return NotImplemented
        return all(getattr(self, f) == getattr(other, f) for f in self.__slots__)

    @property
    def momentum_rows(self) -> dict[int, int]:
        return map_momentum_rows(self.source, self.grid)

    @property
    def position_cols(self) -> dict[int, int]:
        kind, g = self.degree_source, self.grid
        cols = _nearest_centers(_DEGREES[kind](self.source), g.q_min, g.dq, g.n_q)
        return dict(enumerate(cols.tolist(), start=int(kind == VERTEX_DEGREE)))  # labels are 1-based

    @property
    def degree_source(self) -> str:
        return _degree_source(self.source)


def _nearest_centers(values, lo: float, delta: float, count: int) -> np.ndarray:
    """Index of the cell center nearest each value, clamped to 0..count-1; ties take the lower."""
    with np.errstate(over="ignore"):  # an offset past float64 is +-inf, clamped to an end below
        x = (np.asarray(values, dtype=np.float64) - lo) / delta - 0.5
    return np.clip(-np.floor(0.5 - x), 0, count - 1).astype(np.int64)


def _degree_source(h: Hypergraph) -> str:
    """Edge degrees place the position columns if any hyperedge is empty, else vertex degrees."""
    return EDGE_DEGREE if any(len(m) == 0 for m in h.edge_members()) else VERTEX_DEGREE


_DEGREES = {VERTEX_DEGREE: _vertex_degrees, EDGE_DEGREE: _edge_degrees}


def _boundary(h: Hypergraph) -> dict[str, float]:
    """The largest edge weight and the largest of the degrees that place position columns, by
    name: the extents of ``grid_from_boundary``'s p and q axes, before the margin."""
    source = _degree_source(h)
    return {"edge weight": max(h.edge_weights()), source.replace("_", " "): float(_DEGREES[source](h).max())}


def grid_from_boundary(
    h: Hypergraph,
    n_q: int,
    n_p: int,
    margin: float = 0.0,
    m: float = 1.0,
    hbar: float = 1.0,
) -> PhaseSpaceGrid:
    """Grid whose extents are the hypergraph boundary scaled by (1 + margin).

    Momentum runs to the largest hyperedge weight; position runs to the
    largest of the degrees that place position columns.
    """
    margin = _require_real(margin, "margin")
    if margin < 0:
        raise ValueError(f"margin: expected a number >= 0, got {margin}")
    if h.n_edges == 0:
        raise ValueError("hypergraph has no hyperedges; no phase-space boundary derivable")
    # refused here: PhaseSpaceGrid would name an inf q_max or p_max
    p_hi, q_hi = (_require_real((1.0 + margin) * top, f"(1 + margin) * the largest {name}, {top}, for "
                                f"margin={margin}") for name, top in _boundary(h).items())
    if q_hi <= 0.0:
        raise ValueError("hypergraph boundary has zero position extent (all hyperedges empty)")
    return PhaseSpaceGrid(n_q, n_p, 0.0, q_hi, 0.0, p_hi, m, hbar)


def map_momentum_rows(h: Hypergraph, grid: PhaseSpaceGrid) -> dict[int, int]:
    """Assign each hyperedge to the row whose center momentum is nearest its weight.

    Nearest-center rounding is monotone in the weight; equal weights share a
    row and ties fall to the lower row index.
    """
    return dict(enumerate(_nearest_centers(h.edge_weights(), grid.p_min, grid.dp, grid.n_p).tolist()))


def build_phase_map(h: Hypergraph, grid: PhaseSpaceGrid) -> PhaseMap:
    """Momentum rows by hyperedge weight; position columns by vertex degree.

    Position columns fall back to edge degrees, keyed by hyperedge index
    instead of vertex label, exactly when some hyperedge has no members.
    Nothing is computed here: the map derives each of them when it is read.
    """
    return object.__new__(PhaseMap)._set(h, grid)


def initial_field_from_hypergraph(
    h: Hypergraph,
    grid: PhaseSpaceGrid,
    k_default: float = 0.0,
) -> WignerField:
    """Sum of plane-wave rows, one per hyperedge on its mapped momentum row.

    Each hyperedge contributes cos(k_default q) at t = 0 on its row; rows
    shared by several hyperedges accumulate.  The result is a slice-carrier
    field (field_mode=True), not a normalized Wigner function.
    """
    k = _require_real(k_default, "k_default")
    _require_phase(abs(k) * max(abs(grid.q_min), abs(grid.q_max)),
                   f"k_default*q for k_default={k} on q in [{grid.q_min}, {grid.q_max}]")
    wave = np.cos(k * grid.q_centers())
    values = np.zeros((grid.n_p, grid.n_q))
    for row in map_momentum_rows(h, grid).values():
        values[row] += wave
    return object.__new__(WignerField)._adopt(grid, values, 0.0, True)  # fresh: no copy
