"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one `[acceptance] ... PASS/FAIL` line (visible with -s or
in the captured output on failure).  Oracles are computed in-test by
independent routes: triple-loop matrix products, exhaustive Boolean-function
evaluation, analytic phase-space formulas, and numpy.roll circular shifts.
"""

import functools
import itertools
import json
import math
import time
from pathlib import Path

import numpy as np

from hyperphase import (
    Hypergraph,
    PartitionEnsemble,
    apply_ckz,
    cut_cost,
    encode_hypergraph,
    evolve,
    free_stream_step,
    formats,
    gaussian_wavefunction,
    incidence_matrix,
    is_balanced,
    make_grid,
    marginals,
    momentum_laplacian,
    plane_wave_slice,
    plus_state,
    total_mass,
    vertex_degree_matrix,
    wigner_transform_pure,
    edge_degree_matrix,
    adjacency_matrix,
    position_laplacian,
    WignerField,
)
from hyperphase.cli import main as cli_main

from conftest import random_hypergraph

FIG4 = Hypergraph(4, [({1, 2, 3}, 1.0), ({2, 3, 4}, 2.0), ({1, 4}, 3.0)])

FIG4_DOC = (
    '{"vertices": 4, "edges": ['
    '{"members": [1, 2, 3], "weight": 1}, '
    '{"members": [2, 3, 4], "weight": 2}, '
    '{"members": [1, 4], "weight": 3}]}'
)

# numpy warm-up so the timed criteria measure compute, not lazy initialization
_ = np.zeros((64, 64)) @ np.zeros((64, 64))
_ = np.fft.fft(np.zeros(64))
_ = incidence_matrix(FIG4)


def best_of_5(call):
    """The last result of ``call`` and the fastest of 5 timed calls: on a loaded machine one
    call can stall with no code at fault, so a time bound holds the best of several."""
    times = []
    for _ in range(5):
        start = time.perf_counter()
        result = call()
        times.append(time.perf_counter() - start)
    return result, min(times)


def criterion(num: int, name: str):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except Exception:
                print(f"[acceptance] {num:2d} {name}: FAIL")
                raise
            print(f"[acceptance] {num:2d} {name}: PASS")

        return wrapper

    return deco


@criterion(1, "Fig. 4 golden incidence and vertex degrees")
def test_criterion_01_fig4_golden():
    (inc, dv), elapsed = best_of_5(lambda: (incidence_matrix(FIG4), vertex_degree_matrix(FIG4)))
    assert np.array_equal(inc, np.array([[1, 0, 1], [1, 1, 0], [1, 1, 0], [0, 1, 1]], dtype=float))
    assert np.array_equal(dv, np.diag([4.0, 3.0, 3.0, 5.0]))
    assert elapsed < 1e-3, f"runtime {elapsed * 1e3:.3f} ms exceeds 1 ms"


@criterion(2, "Laplacian exact oracle")
def test_criterion_02_laplacian_oracle():
    expected = np.array(
        [[4, -1, -1, -3], [-1, 3, -3, -2], [-1, -3, 3, -2], [-3, -2, -2, 5]],
        dtype=float,
    )
    lap = momentum_laplacian(FIG4)
    assert np.array_equal(lap, expected)
    # independent re-derivation: naive triple-loop 2 D_v - H W H^T
    n, m = 4, 3
    weights = [1.0, 2.0, 3.0]
    members = [FIG4.hyperedges[j][0] for j in range(m)]
    inc = [[1.0 if i + 1 in members[j] else 0.0 for j in range(m)] for i in range(n)]
    rederived = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            gram = sum(inc[i][l] * weights[l] * inc[j][l] for l in range(m))
            degree = sum(inc[i][l] * weights[l] for l in range(m)) if i == j else 0.0
            rederived[i, j] = 2.0 * degree - gram
    assert np.array_equal(lap, rederived)


@criterion(3, "degree consistency over 500 random hypergraphs")
def test_criterion_03_degree_consistency():
    rng = np.random.default_rng(2024)
    for _ in range(500):
        h = random_hypergraph(rng, n_max=8, m_max=8, weight_pool=(1, 2, 3, 4, 5))
        inc = incidence_matrix(h)
        w = np.array(h.edge_weights())
        assert np.array_equal((inc * w).sum(axis=1), np.diag(vertex_degree_matrix(h)))
        assert np.array_equal(inc.sum(axis=0), np.diag(edge_degree_matrix(h)))
        lm, lp = momentum_laplacian(h), position_laplacian(h)
        assert np.array_equal(lm, lm.T)
        assert np.array_equal(lp, lp.T)


@criterion(4, "Wigner transform of the unit Gaussian")
def test_criterion_04_wigner_transform():
    grid = make_grid(256, 256, (-8, 8), (-8, 8))
    psi = gaussian_wavefunction(grid)
    w, elapsed = best_of_5(lambda: wigner_transform_pure(psi, grid))
    assert abs(total_mass(w) - 1.0) <= 1e-6
    assert w.values.min() >= -1e-9
    pos, _ = marginals(w)
    assert np.max(np.abs(pos - np.abs(psi.samples) ** 2)) <= 1e-8
    assert np.max(np.abs(w.values - w.values[::-1, :])) <= 1e-10  # p -> -p
    assert elapsed < 1.0, f"runtime {elapsed:.3f} s exceeds 1 s"


@criterion(5, "free streaming vs analytic shear, 100 steps")
def test_criterion_05_free_streaming():
    grid = make_grid(256, 256, (-8, 8), (-8, 8))
    w0 = wigner_transform_pure(gaussian_wavefunction(grid), grid)
    _, mom0 = marginals(w0)
    start = time.perf_counter()
    snapshots = evolve(w0, 0.01, 100)
    elapsed = time.perf_counter() - start
    final = snapshots[-1]
    q = grid.q_centers()[None, :]
    p = grid.p_centers()[:, None]
    analytic = np.exp(-((q - p * 1.0) ** 2) - p**2) / math.pi
    assert np.max(np.abs(final.values - analytic)) <= 1e-6
    assert abs(total_mass(final) - total_mass(w0)) / abs(total_mass(w0)) <= 1e-12
    _, mom1 = marginals(final)
    assert np.max(np.abs(mom1 - mom0)) <= 1e-12
    back = evolve(final, -0.01, 100)[-1]
    assert np.max(np.abs(back.values - w0.values)) <= 1e-10
    assert elapsed < 2.0, f"runtime {elapsed:.3f} s exceeds the 2 s target"


@criterion(6, "integer-cell spectral shift equals circular shift")
def test_criterion_06_integer_shift():
    grid = make_grid(64, 4, (0, 16), (0, 4))  # dq = 0.25, p centers 0.5..3.5
    rng = np.random.default_rng(99)
    field = WignerField(grid, rng.normal(size=(4, 64)), field_mode=True)
    dt = 1.5  # row 0: p dt / m = 0.75 = 3 dq exactly; rows 1..3: 9, 15, 21 cells
    out = free_stream_step(field, dt)
    assert grid.p_centers()[0] * dt / grid.mass == 3 * grid.dq
    for j, pj in enumerate(grid.p_centers()):
        cells = pj * dt / grid.mass / grid.dq
        assert cells == round(cells)
        expected = np.roll(field.values[j], int(cells))
        assert np.max(np.abs(out.values[j] - expected)) <= 1e-10


@criterion(7, "plane-wave dispersion omega = k p / m")
def test_criterion_07_plane_wave_dispersion():
    grid = make_grid(128, 8, (0, 16), (0, 4), m=1.0)
    k = 2.0 * math.pi * 5 / 16.0
    row = 6
    dt = 0.23
    stepped = free_stream_step(plane_wave_slice(grid, row, k, t=0.0), dt)
    advanced = plane_wave_slice(grid, row, k, t=dt)
    # the step must advance the phase by exactly k * p_row * dt / m
    assert np.max(np.abs(stepped.values - advanced.values)) <= 1e-10


@criterion(8, "encoder sign oracle over exhaustive small hypergraphs")
def test_criterion_08_encoder_sign_oracle():
    cases = 0
    for n in range(1, 5):
        subsets = [frozenset(c) for r in range(n + 1) for c in itertools.combinations(range(1, n + 1), r)]
        for m in range(0, 4):
            for combo in itertools.combinations(subsets, m):
                h = Hypergraph(n, [(set(e), 1.0) for e in combo])
                state = encode_hypergraph(h)
                c = 2.0 ** (-n / 2.0)
                for v in range(2**n):
                    f = 0
                    for members in combo:
                        f ^= int(all((v >> (n - q)) & 1 for q in members))
                    sign = -1.0 if f else 1.0
                    assert abs(abs(state.amplitudes[v]) - c) <= 1e-12
                    assert abs(state.amplitudes[v] - sign * c) <= 1e-12
                redone = state
                for members in combo:
                    redone = apply_ckz(redone, members)
                assert np.array_equal(redone.amplitudes, plus_state(n).amplitudes)
                cases += 1
    assert cases >= 200, f"only {cases} enumerated cases"


@criterion(9, "graph-state specialization")
def test_criterion_09_graph_states():
    pair = encode_hypergraph(Hypergraph(2, [({1, 2}, 1.0)]))
    assert np.array_equal(pair.amplitudes, np.array([0.5, 0.5, 0.5, -0.5], dtype=complex))
    triangle = Hypergraph(3, [({1, 2}, 1.0), ({2, 3}, 1.0), ({1, 3}, 1.0)])
    state = encode_hypergraph(triangle)
    c = 2.0 ** (-1.5)
    for v in range(8):
        bits = [(v >> 2) & 1, (v >> 1) & 1, v & 1]
        f = (bits[0] & bits[1]) ^ (bits[1] & bits[2]) ^ (bits[0] & bits[2])
        assert state.amplitudes[v] == (-c if f else c)
    negatives = {v for v in range(8) if state.amplitudes[v] < 0}
    assert negatives == {0b110, 0b101, 0b011, 0b111}


@criterion(10, "balance arithmetic and cut cost")
def test_criterion_10_balance_and_cut():
    h8 = Hypergraph(8)
    parts = [{1, 2, 3}, {4, 5, 6}, {7, 8}]
    assert bool(is_balanced(PartitionEnsemble(h8, parts, 0.2)))
    assert not bool(is_balanced(PartitionEnsemble(h8, parts, 0.1)))
    assert cut_cost(PartitionEnsemble(FIG4, [{1, 2}, {3, 4}], 0.5)) == 5.0


@criterion(11, "CLI determinism and document round trip")
def test_criterion_11_cli_determinism(tmp_path):
    doc = tmp_path / "fig4.json"
    doc.write_text(FIG4_DOC)

    def run_pair(cmd_builder):
        trees = []
        for sub in ("a", "b"):
            out = tmp_path / f"{cmd_builder.__name__}_{sub}"
            assert cli_main(cmd_builder(out)) == 0
            trees.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
        assert trees[0] == trees[1]

    def encode_cmd(out: Path):
        return ["encode", str(doc), "--partition", "1,4|2,3", "--out", str(out)]

    def evolve_cmd(out: Path):
        return ["evolve", str(doc), "--nq", "32", "--np", "32", "--dt", "0.02",
                "--steps", "8", "--out", str(out)]

    run_pair(encode_cmd)
    run_pair(evolve_cmd)

    parsed = formats.parse_hypergraph(FIG4_DOC)
    assert formats.parse_hypergraph(formats.serialize_hypergraph(parsed)) == parsed
