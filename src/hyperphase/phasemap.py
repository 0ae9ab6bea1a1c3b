"""Dictionary between hypergraph quantities and phase-space coordinates.

Hyperedge weights select momentum rows, vertex degrees select position
columns (falling back to hyperedge degrees when some hyperedge is empty),
and the grid extent comes from the hypergraph boundary: the largest weight
and the largest degree, padded by a margin factor.  The scale is the
identity, p = omega(e) and q = d(v) in grid units.
"""

from __future__ import annotations

import math

import numpy as np

from .hypergraph import Hypergraph, _Value, _edge_degrees, _vertex_degrees
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
    """Slice assignment for a hypergraph on a grid.

    momentum_rows maps hyperedge index (0-based list position) to a row.
    position_cols maps vertex label (1-based) to a column, unless the
    empty-hyperedge fallback triggered, in which case it maps hyperedge
    index to a column and degree_source is "edge_degree".
    """

    __slots__ = ("source", "grid", "momentum_rows", "position_cols", "degree_source")

    def __init__(self, source: Hypergraph, grid: PhaseSpaceGrid, momentum_rows: dict[int, int],
                 position_cols: dict[int, int], degree_source: str) -> None:
        self._set(source, grid, momentum_rows, position_cols, degree_source)

    def __eq__(self, other):
        if type(other) is not PhaseMap:
            return NotImplemented
        return all(getattr(self, f) == getattr(other, f) for f in self.__slots__)


def _nearest_center(value: float, lo: float, delta: float, count: int) -> int:
    # round-half-down keeps ties on the lower index
    x = (value - lo) / delta - 0.5
    j = -math.floor(0.5 - x)
    return min(max(j, 0), count - 1)


def _position_degrees(h: Hypergraph) -> tuple[np.ndarray, str]:
    """Position-column degrees and their source: edge degrees if any hyperedge is empty."""
    if any(len(members) == 0 for members in h.edge_members()):
        return _edge_degrees(h), EDGE_DEGREE
    return _vertex_degrees(h), VERTEX_DEGREE


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
    if not 0 <= margin < math.inf:
        raise ValueError(f"margin must be a finite number >= 0, got {margin}")
    if h.n_edges == 0:
        raise ValueError("hypergraph has no hyperedges; no phase-space boundary derivable")
    p_hi = (1.0 + margin) * max(h.edge_weights())
    q_hi = (1.0 + margin) * float(_position_degrees(h)[0].max())
    if q_hi <= 0.0:
        raise ValueError("hypergraph boundary has zero position extent (all hyperedges empty)")
    return PhaseSpaceGrid(n_q, n_p, 0.0, q_hi, 0.0, p_hi, m, hbar)


def map_momentum_rows(h: Hypergraph, grid: PhaseSpaceGrid) -> dict[int, int]:
    """Assign each hyperedge to the row whose center momentum is nearest its weight.

    Nearest-center rounding is monotone in the weight; equal weights share a
    row and ties fall to the lower row index.
    """
    return {
        j: _nearest_center(w, grid.p_min, grid.dp, grid.n_p)
        for j, w in enumerate(h.edge_weights())
    }


def build_phase_map(h: Hypergraph, grid: PhaseSpaceGrid) -> PhaseMap:
    """Momentum rows by hyperedge weight; position columns by vertex degree.

    Position columns fall back to edge degrees, keyed by hyperedge index
    instead of vertex label, exactly when some hyperedge has no members.
    """
    degrees, source = _position_degrees(h)
    first_key = 1 if source == VERTEX_DEGREE else 0  # vertex labels are 1-based
    cols = {
        first_key + i: _nearest_center(float(d), grid.q_min, grid.dq, grid.n_q)
        for i, d in enumerate(degrees)
    }
    return PhaseMap(
        source=h,
        grid=grid,
        momentum_rows=map_momentum_rows(h, grid),
        position_cols=cols,
        degree_source=source,
    )


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
    k = float(k_default)
    if not math.isfinite(k * max(abs(grid.q_min), abs(grid.q_max))):
        raise ValueError(f"k_default={k_default} makes the phase k*q overflow float64 "
                         f"on q in [{grid.q_min}, {grid.q_max}]")
    wave = np.cos(k * grid.q_centers())
    values = np.zeros((grid.n_p, grid.n_q))
    for row in map_momentum_rows(h, grid).values():
        values[row] += wave
    return WignerField(grid, values, t=0.0, field_mode=True)
