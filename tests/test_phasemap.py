import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperphase import (
    Hypergraph,
    PhaseSpaceGrid,
    build_phase_map,
    free_stream_step,
    grid_from_boundary,
    initial_field_from_hypergraph,
    map_momentum_rows,
    total_mass,
)
from hyperphase.phasemap import EDGE_DEGREE, VERTEX_DEGREE, _nearest_centers

from conftest import random_hypergraph, traced_peak


def nearest_row(value, centers) -> int:
    """Independent nearest-center oracle; argmin takes the first (lower) index on ties."""
    return int(np.argmin(np.abs(centers - value)))


def nearest_center(value: float, lo: float, delta: float, count: int) -> int:
    """The scalar rule that ``_nearest_centers`` vectorizes: round half down, then clamp."""
    x = (value - lo) / delta - 0.5
    if math.isinf(x):  # an offset past float64: the clamp takes the end on its side
        return count - 1 if x > 0 else 0
    j = -math.floor(0.5 - x)
    return min(max(j, 0), count - 1)


def axis_values(lo: float, delta: float, count: int):
    """Values inside an axis, exactly on its cell boundaries lo + k delta, and outside it, up
    to +-1e308, where the offset over the cell width can overflow float64."""
    hi = lo + count * delta
    boundary = st.integers(-2, count + 2).map(lambda k: lo + k * delta)  # ties: the lower cell
    outside = st.floats(hi, hi + 1e4) | st.floats(lo - 1e4, lo) | st.floats(-1e308, 1e308)
    return st.floats(lo, hi) | boundary | outside


@settings(deadline=None, max_examples=300)
@given(
    data=st.data(),
    lows=st.tuples(st.floats(0, 1e3), st.floats(0, 1e3)),
    spans=st.tuples(st.floats(1e-3, 1e4), st.floats(1e-3, 1e4)),
    counts=st.tuples(st.integers(2, 4096), st.integers(2, 4096)),
    scale=st.floats(5e-294, 1.0),  # cell widths down to ~1e-300
)
def test_nearest_centers_match_the_scalar_rule(data, lows, spans, counts, scale):
    """The nearest-center rule is plain numpy IEEE arithmetic ((v - lo) / d - 0.5, then
    -floor(0.5 - x), clamped), checked against the scalar rule it replaced, on arm64 too."""
    (q_lo, p_lo), (n_q, n_p) = lows, counts
    g = PhaseSpaceGrid(n_q, n_p, q_lo * scale, (q_lo + spans[0]) * scale,
                       p_lo * scale, (p_lo + spans[1]) * scale)
    axes = {"cols": (g.q_min, g.dq, g.n_q), "rows": (g.p_min, g.dp, g.n_p)}
    values = data.draw(st.lists(axis_values(*axes["cols"]) | axis_values(*axes["rows"]),
                                min_size=1, max_size=40))
    want = {}
    for name, (lo, delta, count) in axes.items():
        want[name] = [nearest_center(v, lo, delta, count) for v in values]  # clamped outside
        got = _nearest_centers(values, lo, delta, count)
        assert got.dtype == np.int64 and got.tolist() == want[name]
    # the map places rows by weight and columns by degree: vertex i + 1 alone in edge i, both
    # of the i-th positive value (a degree adds its one weight to 0.0, exactly)
    kept = [i for i, v in enumerate(values) if v > 0]
    h = Hypergraph(len(kept) or 1, [({k + 1}, values[i]) for k, i in enumerate(kept)])
    pmap = build_phase_map(h, g)
    assert pmap.momentum_rows == {k: want["rows"][i] for k, i in enumerate(kept)}
    if kept:
        assert pmap.position_cols == {k + 1: want["cols"][i] for k, i in enumerate(kept)}


def test_offsets_past_float64_clamp_to_the_ends_without_a_warning():
    # 1e308 over a cell width of 0.25 (rows) or 2.5e-291 (columns) overflows float64
    pmap = build_phase_map(Hypergraph(2, [({1}, 1e308)]), PhaseSpaceGrid(4, 4, 0.0, 1e-290, 0.0, 1.0))
    assert pmap.momentum_rows == {0: 3} and pmap.position_cols == {1: 3, 2: 0}


# --- boundary-derived grids ---------------------------------------------------

def test_fig4_boundary_extents(fig4):
    g = grid_from_boundary(fig4, 16, 16, margin=0.25)
    assert g.p_max == pytest.approx(3.75)
    assert g.q_max == pytest.approx(6.25)
    assert g.p_min == 0.0 and g.q_min == 0.0


def test_zero_margin_extents(fig4):
    g = grid_from_boundary(fig4, 8, 8, margin=0.0)
    assert g.p_max == 3.0  # max edge weight
    assert g.q_max == 5.0  # max vertex degree


def test_edgeless_has_no_boundary():
    with pytest.raises(ValueError, match="no hyperedges"):
        grid_from_boundary(Hypergraph(3), 8, 8)


def test_all_empty_edges_degenerate():
    h = Hypergraph(2, [(set(), 1.0)])
    with pytest.raises(ValueError, match="zero position extent"):
        grid_from_boundary(h, 8, 8)


def test_empty_edge_switches_boundary_to_edge_degrees():
    h = Hypergraph(4, [(set(), 3.0), ({1, 2}, 1.0)])
    g = grid_from_boundary(h, 8, 8, margin=0.0)
    assert g.q_max == 2.0  # max d(e), not max d(v) = 1
    assert g.p_max == 3.0


@pytest.mark.parametrize("h, margin, message", [
    (Hypergraph(2, [({1}, 1e308)]), 1.0,
     "(1 + margin) * the largest edge weight, 1e+308, for margin=1.0: expected a finite number, got inf"),
    (Hypergraph(2, [({1}, 6e307), ({1}, 6e307)]), 0.5,
     "(1 + margin) * the largest vertex degree, 1.2e+308, for margin=0.5: expected a finite number, got inf"),
    # an empty hyperedge places position columns by edge degree
    (Hypergraph(2, [(set(), 1e-300), ({1, 2}, 1e-300)]), 1e308,
     "(1 + margin) * the largest edge degree, 2.0, for margin=1e+308: expected a finite number, got inf"),
])
def test_overflowing_boundary_names_margin(h, margin, message):
    """The grid's extents (1 + margin) * boundary are checked before PhaseSpaceGrid sees them."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError) as info:
            grid_from_boundary(h, 8, 8, margin)
    assert str(info.value) == message


def test_negative_margin_rejected(fig4):
    with pytest.raises(ValueError, match="margin"):
        grid_from_boundary(fig4, 8, 8, margin=-0.1)


# --- momentum rows -------------------------------------------------------------

def test_fig4_momentum_rows_nearest_center(fig4):
    g = grid_from_boundary(fig4, 16, 15, margin=0.25)  # dp = 0.25
    rows = map_momentum_rows(fig4, g)
    centers = g.p_centers()
    assert rows == {j: nearest_row(w, centers) for j, w in enumerate(fig4.edge_weights())}
    # weights 1, 2, 3 sit on cell edges; ties resolve to the lower row
    assert rows == {0: 3, 1: 7, 2: 11}


def test_equal_weights_share_row():
    h = Hypergraph(4, [({1, 2}, 2.0), ({3, 4}, 2.0), ({1, 4}, 1.0)])
    g = grid_from_boundary(h, 8, 13, margin=0.3)
    rows = map_momentum_rows(h, g)
    assert rows[0] == rows[1]


def test_single_edge_row():
    h = Hypergraph(3, [({1, 2, 3}, 1.7)])
    g = grid_from_boundary(h, 8, 9, margin=0.5)
    rows = map_momentum_rows(h, g)
    assert rows[0] == nearest_row(1.7, g.p_centers())


def test_momentum_row_monotonicity_random():
    rng = np.random.default_rng(31)
    for _ in range(100):
        base = random_hypergraph(rng, allow_empty=False)
        if base.n_edges == 0:
            continue
        h = Hypergraph(
            base.n_vertices,
            [(m, float(rng.uniform(0.1, 9.0))) for m, _ in base.hyperedges],
        )
        g = grid_from_boundary(h, 8, int(rng.integers(2, 40)), margin=0.2)
        rows = map_momentum_rows(h, g)
        order = sorted(range(h.n_edges), key=lambda j: h.edge_weights()[j])
        for a, b in zip(order, order[1:]):
            wa, wb = h.edge_weights()[a], h.edge_weights()[b]
            if wa == wb:
                assert rows[a] == rows[b]
            else:
                assert rows[a] <= rows[b]


def test_map_determinism(fig4):
    g = grid_from_boundary(fig4, 32, 32, margin=0.25)
    assert map_momentum_rows(fig4, g) == map_momentum_rows(fig4, g)
    assert build_phase_map(fig4, g) == build_phase_map(fig4, g)


# --- position columns -------------------------------------------------------------

def test_fig4_position_columns(fig4):
    g = grid_from_boundary(fig4, 25, 16, margin=0.25)
    pmap = build_phase_map(fig4, g)
    cols = pmap.position_cols
    assert pmap.degree_source == VERTEX_DEGREE
    centers = g.q_centers()
    degrees = {1: 4.0, 2: 3.0, 3: 3.0, 4: 5.0}
    assert cols == {v: nearest_row(d, centers) for v, d in degrees.items()}
    assert cols[2] == cols[3]  # equal degrees share a column


def test_empty_edge_triggers_edge_degree_fallback():
    h = Hypergraph(4, [(set(), 1.0), ({1, 2, 3}, 2.0)])
    g = grid_from_boundary(h, 12, 8, margin=0.2)
    pmap = build_phase_map(h, g)
    cols = pmap.position_cols
    assert pmap.degree_source == EDGE_DEGREE
    assert set(cols) == {0, 1}  # keyed by hyperedge index under the fallback
    assert cols[1] == nearest_row(3.0, g.q_centers())


def test_fallback_exclusivity_random():
    rng = np.random.default_rng(37)
    for _ in range(100):
        h = random_hypergraph(rng)
        if h.n_edges == 0 or all(len(m) == 0 for m in h.edge_members()):
            continue
        g = grid_from_boundary(h, 8, 8, margin=0.1)
        has_empty = any(len(m) == 0 for m in h.edge_members())
        assert (build_phase_map(h, g).degree_source == EDGE_DEGREE) == has_empty


def test_build_phase_map(fig4):
    g = grid_from_boundary(fig4, 16, 16, margin=0.25)
    pmap = build_phase_map(fig4, g)
    assert pmap.source is fig4
    assert pmap.grid is g
    assert pmap.degree_source == VERTEX_DEGREE
    assert set(pmap.momentum_rows) == {0, 1, 2}
    assert set(pmap.position_cols) == {1, 2, 3, 4}


# --- initial fields -----------------------------------------------------------------

def test_fig4_initial_field_constant_rows(fig4):
    g = grid_from_boundary(fig4, 32, 16, margin=0.25)
    field = initial_field_from_hypergraph(fig4, g, k_default=0.0)
    rows = map_momentum_rows(fig4, g)
    mapped = sorted(set(rows.values()))
    assert len(mapped) == 3
    for j in range(g.n_p):
        if j in mapped:
            assert np.array_equal(field.values[j], np.ones(32))
        else:
            assert np.all(field.values[j] == 0.0)
    assert total_mass(field) == pytest.approx(3 * 32 * g.dq * g.dp, rel=1e-12)
    assert field.field_mode
    assert field.t == 0.0


def test_initial_field_adopts_its_fresh_rows():
    h = Hypergraph(3, [({1, 2}, 1.0), ({2, 3}, 2.0), ({1}, 0.5)])
    n = 1024
    g = grid_from_boundary(h, n, n)
    made = []
    peak = traced_peak(lambda: made.append(initial_field_from_hypergraph(h, g, k_default=1.0)))
    # the summed rows and their finiteness mask (2.13 fields when the constructor copied them)
    assert peak <= 1.3 * n * n * 8, peak / (n * n * 8)
    assert not made[0].values.flags.writeable and made[0].field_mode and made[0].t == 0.0


def test_single_edge_single_row():
    h = Hypergraph(3, [({1, 2}, 1.0)])
    g = grid_from_boundary(h, 16, 8, margin=0.5)
    field = initial_field_from_hypergraph(h, g, k_default=0.0)
    assert int(np.count_nonzero(field.values.sum(axis=1))) == 1


def test_overflowing_wavenumber_rejected(fig4):
    g = grid_from_boundary(fig4, 16, 8, margin=0.25)
    for bad in (np.inf, np.nan):
        with pytest.raises(ValueError, match=r"^k_default: expected a finite number, got "):
            initial_field_from_hypergraph(fig4, g, k_default=bad)
    with pytest.raises(ValueError, match=r"^k_default\*q for k_default=1e\+308 on q in \[0.0, 6.25\]: "
                                         r"expected a phase of at most 2\*\*53 rad, got inf$"):
        initial_field_from_hypergraph(fig4, g, k_default=1e308)


def test_heavier_edges_translate_farther():
    h = Hypergraph(4, [({1, 2}, 1.0), ({3, 4}, 3.0)])
    g = grid_from_boundary(h, 256, 16, margin=0.25)
    L = g.q_max - g.q_min
    k = 2.0 * np.pi * 4 / L
    field = initial_field_from_hypergraph(h, g, k_default=k)
    rows = map_momentum_rows(h, g)
    dt = 0.05 * L / (2.0 * np.pi)  # keep shifts under half a wavelength
    stepped = free_stream_step(field, dt)

    def displacement(before, after):
        corr = np.fft.ifft(np.fft.fft(after) * np.conj(np.fft.fft(before))).real
        return int(np.argmax(corr))

    d_light = displacement(field.values[rows[0]], stepped.values[rows[0]])
    d_heavy = displacement(field.values[rows[1]], stepped.values[rows[1]])
    assert d_heavy > d_light
