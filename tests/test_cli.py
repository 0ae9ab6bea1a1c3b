import contextlib
import gc
import io
import json
import math
import tempfile
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperphase import QubitStateVector, formats, gaussian_wavefunction, incidence_matrix, make_grid
from hyperphase.cli import main

from conftest import dump_amplitudes

FIG4_DOC = (
    '{"vertices": 4, "edges": ['
    '{"members": [1, 2, 3], "weight": 1}, '
    '{"members": [2, 3, 4], "weight": 2}, '
    '{"members": [1, 4], "weight": 3}]}'
)


@pytest.fixture
def fig4_file(tmp_path) -> Path:
    path = tmp_path / "fig4.json"
    path.write_text(FIG4_DOC)
    return path


def read_tree(root: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(root.iterdir()) if p.is_file()}


# --- info -------------------------------------------------------------------

def test_info(fig4_file, capsys):
    assert main(["info", str(fig4_file)]) == 0
    assert capsys.readouterr().out == (
        "vertices: 4\n"
        "vertex weights: 1, 1, 1, 1\n"
        "hyperedges: 3\n"
        "  e1: {1,2,3} weight 1\n"
        "  e2: {2,3,4} weight 2\n"
        "  e3: {1,4} weight 3\n"
        "vertex degrees: 4, 3, 3, 5\n"
        "edge degrees: 3, 3, 2\n"
        "boundary: max edge weight 3, max vertex degree 5\n"
    )


def test_info_builds_no_square_matrix(tmp_path, capsys):
    n = 3000  # an n x n float64 matrix would take 72 MB
    doc = tmp_path / "wide.json"
    doc.write_text(json.dumps({"vertices": n, "edges": [{"members": [1, n], "weight": 2.5}]}))
    # evolve sizes its grid by the same vertex degrees
    evolve = ["evolve", str(doc), "--nq", "32", "--np", "32", "--dt", "0.1", "--steps", "1",
              "--out", str(tmp_path / "ev")]
    for argv in (["info", str(doc)], evolve):
        tracemalloc.start()
        try:
            assert main(argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 10**6, argv[0]
    out = capsys.readouterr().out
    assert f"vertex degrees: 2.5, {'0, ' * (n - 2)}2.5\n" in out
    assert "edge degrees: 2\n" in out


# One single-member edge per vertex: an n x m incidence matrix of 4097**2 cells, over
# MAX_CELLS = 2**24.  Only incidence_matrix refuses it; degrees are sums over the member lists.
SQUARE_DOC = json.dumps({"vertices": 4097, "edges": [{"members": [v]} for v in range(1, 4098)]})
SQUARE_REFUSAL = ("incidence matrix of n_vertices=4097 x n_edges=4097 = 16785409 cells "
                  "exceeds the cap of 16777216")


def test_info_and_evolve_build_no_incidence_matrix(tmp_path, capsys):
    doc = tmp_path / "square.json"
    doc.write_text(SQUARE_DOC)
    evolve = ["evolve", str(doc), "--dt", "0.1", "--steps", "1", "--out", str(tmp_path / "ev")]
    for argv in (["info", str(doc)], evolve):
        tracemalloc.start()
        try:
            assert main(argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20, argv[0]
    out, err = capsys.readouterr()
    assert f"vertex degrees: {', '.join(['1'] * 4097)}\n" in out and err == ""


def test_incidence_matrix_keeps_its_cap():
    with pytest.raises(ValueError) as err:
        incidence_matrix(formats.parse_hypergraph(SQUARE_DOC))
    assert str(err.value) == SQUARE_REFUSAL


def test_info_overflowing_degrees_are_validation_error(tmp_path, capsys):
    doc = tmp_path / "huge.json"
    doc.write_text(HUGE_SUMS_DOC)
    assert main(["info", str(doc)]) == 1
    assert capsys.readouterr().err.startswith("error: edge weights")


# --- matrices ------------------------------------------------------------------

def test_matrices_outputs(fig4_file, tmp_path):
    out = tmp_path / "mats"
    assert main(["matrices", str(fig4_file), "--out", str(out)]) == 0
    expected = {
        "incidence.csv",
        "vertex_degree.csv",
        "edge_degree.csv",
        "edge_weight_sum.csv",
        "adjacency.csv",
        "laplacian.csv",
        "position_laplacian.csv",
    }
    assert {p.name for p in out.iterdir()} == expected
    lines = (out / "laplacian.csv").read_text().strip().split("\n")
    assert lines[1] == "v1,4,-1,-1,-3"


def test_matrices_edgeless(tmp_path):
    doc = tmp_path / "h.json"
    doc.write_text('{"vertices": 2, "edges": []}')
    out = tmp_path / "m"
    assert main(["matrices", str(doc), "--out", str(out)]) == 0
    square = b",v1,v2\nv1,0,0\nv2,0,0\n"
    assert read_tree(out) == {
        "adjacency.csv": square,
        "edge_degree.csv": b"\n",
        "edge_weight_sum.csv": b"\n",
        "incidence.csv": b"\nv1\nv2\n",  # zero columns: no trailing comma
        "laplacian.csv": square,
        "position_laplacian.csv": square,
        "vertex_degree.csv": square,
    }


def test_matrices_holds_one_matrix_at_a_time(tmp_path):
    n, m = 300, 600
    rng = np.random.default_rng(0)
    edges = [{"members": sorted(int(v) for v in rng.choice(n, int(rng.integers(2, 6)), False) + 1),
              "weight": int(rng.integers(1, 10))} for _ in range(m)]
    doc = tmp_path / "h.json"
    doc.write_text(json.dumps({"vertices": n, "edges": edges}))
    tracemalloc.start()
    try:
        assert main(["matrices", str(doc), "--out", str(tmp_path / "m")]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the largest (m x m) matrix plus two n x m arrays (H and H scaled for a Gram product),
    # where holding all seven matrices at once took 13.6 MiB
    assert peak < (m * m + 2 * n * m) * 8


def test_unwritable_output_is_io_error(fig4_file, tmp_path, capsys):
    blocker = tmp_path / "blocker"
    blocker.write_text("a file, not a directory")
    assert main(["matrices", str(fig4_file), "--out", str(blocker)]) == 2
    assert "i/o error" in capsys.readouterr().err


# --- encode ----------------------------------------------------------------------

def test_encode_fig4(fig4_file, tmp_path):
    out = tmp_path / "enc"
    assert main(["encode", str(fig4_file), "--out", str(out)]) == 0
    dump = (out / "state.txt").read_text().strip().split("\n")
    assert len(dump) == 16
    for line in dump:
        _, re, im = line.split()
        assert abs(float(re)) == 0.25 and float(im) == 0.0
    report = json.loads((out / "report.json").read_text())
    assert report["real_equally_weighted"] is True
    assert report["n_qubits"] == 4


def test_encode_global_gate_flips_all_ones_line_only(fig4_file, tmp_path):
    plain, gated = tmp_path / "plain", tmp_path / "gated"
    assert main(["encode", str(fig4_file), "--out", str(plain)]) == 0
    assert main(["encode", str(fig4_file), "--with-global-gate", "--out", str(gated)]) == 0
    plain_lines = (plain / "state.txt").read_text().splitlines()
    gated_lines = (gated / "state.txt").read_text().splitlines()
    changed = [a.split()[0] for a, b in zip(plain_lines, gated_lines) if a != b]
    assert len(plain_lines) == len(gated_lines) == 16 and changed == ["1111"]
    # f_table_ones counts f of the hypergraph without the gate
    plain_report = json.loads((plain / "report.json").read_text())
    gated_report = json.loads((gated / "report.json").read_text())
    assert (plain_report["global_gate"], gated_report["global_gate"]) == (False, True)
    assert {k for k in plain_report if plain_report[k] != gated_report[k]} == {"global_gate"}
    assert set(plain_report) == set(gated_report)
    assert gated_report["f_table_ones"] == 6 and gated_report["f_table_size"] == 16


def test_encode_partitioned_cut_cost(fig4_file, tmp_path):
    out = tmp_path / "enc"
    code = main(
        ["encode", str(fig4_file), "--partition", "1,4|2,3", "--delta", "0.3", "--out", str(out)]
    )
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    # e1 and e2 are cut (2 each); e3 = {1,4} stays inside a part
    assert report["partition"]["cut_cost"] == 4.0
    assert report["partition"]["balanced"] is True
    assert (out / "part_1.txt").exists() and (out / "part_2.txt").exists()
    assert (out / "combined.txt").exists()
    part1 = dump_amplitudes((out / "part_1.txt").read_bytes())
    assert np.array_equal(part1, np.array([0.5, 0.5, 0.5, -0.5], dtype=complex))


def test_encode_uncut_partition_combined_matches_state(tmp_path):
    doc = tmp_path / "h.json"
    doc.write_text(
        '{"vertices": 5, "edges": [{"members": []}, {"members": [1, 2, 3]}, '
        '{"members": [2, 5]}, {"members": [4]}, {"members": []}, {"members": []}]}'
    )
    out = tmp_path / "enc"
    assert main(["encode", str(doc), "--partition", "1,2,3,4,5", "--out", str(out)]) == 0
    assert (out / "combined.txt").read_bytes() == (out / "state.txt").read_bytes()
    assert (out / "part_1.txt").read_bytes() == (out / "state.txt").read_bytes()


def test_encode_single_vertex_loop(tmp_path):
    doc = tmp_path / "h.json"
    doc.write_text('{"vertices": 1, "edges": [{"members": [1]}]}')
    out = tmp_path / "e"
    assert main(["encode", str(doc), "--out", str(out)]) == 0
    state = dump_amplitudes((out / "state.txt").read_bytes())
    assert np.array_equal(state, np.array([2**-0.5, -(2**-0.5)], dtype=complex))


def test_encode_builds_no_amplitudes(fig4_file, tmp_path, monkeypatch):
    argv = ["encode", str(fig4_file), "--partition", "1,2|3,4", "--with-global-gate", "--out"]
    assert main(argv + [str(tmp_path / "a")]) == 0

    def refuse(state):
        raise AssertionError("amplitudes built")

    monkeypatch.setattr(QubitStateVector, "amplitudes", property(refuse))
    assert main(argv + [str(tmp_path / "b")]) == 0
    written = read_tree(tmp_path / "b")
    assert written == read_tree(tmp_path / "a") and len(written) == 5


def test_encode_oversize_refused(tmp_path, capsys):
    doc = tmp_path / "big.json"
    doc.write_text('{"vertices": 21, "edges": []}')
    assert main(["encode", str(doc), "--out", str(tmp_path / "x")]) == 1
    assert "capped" in capsys.readouterr().err


def test_encode_bad_partition_spec(fig4_file, tmp_path, capsys):
    assert main(["encode", str(fig4_file), "--partition", "1,|2", "--out", str(tmp_path / "x")]) == 1
    assert "partition part 1" in capsys.readouterr().err


def test_invalid_document_is_validation_error(tmp_path, capsys):
    doc = tmp_path / "bad.json"
    doc.write_text('{"vertices": 4, "edges": [{"members": [5]}]}')
    assert main(["info", str(doc)]) == 1
    assert "edges[0].members[0]" in capsys.readouterr().err


HUGE_SUMS_DOC = ('{"vertices": 2, "edges": [{"members": [1, 2], "weight": 1e308}, '
                 '{"members": [1], "weight": 1e308}]}')
HUGE_GRID_DOC = '{"vertices": 1, "edges": [{"members": [1], "weight": 1e308}]}'
SMALL_PHYSICAL = ["--t", "1", "--steps", "2", "--nq", "33", "--np", "33"]


@pytest.mark.parametrize(
    "text,command,message",
    [
        (HUGE_SUMS_DOC, ["matrices"], "error: edge weights"),
        (HUGE_SUMS_DOC, ["evolve", "--dt", "0.1", "--steps", "2"], "error: edge weights"),
        (HUGE_GRID_DOC, ["evolve", "--dt", "0.1", "--steps", "2"],
         "error: phase-space cell area"),
        (HUGE_GRID_DOC, ["evolve", "--dt", "0.1", "--steps", "2", "--margin", "1"],
         "error: phase-space bounds must be finite"),
        (FIG4_DOC, ["evolve", "--physical", "gaussian", "--sigma", "inf", *SMALL_PHYSICAL],
         "error: sigma must be > 0 with a finite sigma**2, got inf"),
        (FIG4_DOC, ["evolve", "--physical", "gaussian", "--sigma", "1e-300", *SMALL_PHYSICAL],
         "error: sigma=1e-300 gives a Gaussian of norm"),
        (FIG4_DOC, ["evolve", "--dt", "0.1", "--steps", "2", "--k-default", "inf"],
         "error: k_default=inf makes the phase k*q overflow"),
        (FIG4_DOC, ["evolve", "--dt", "0.1", "--steps", "2", "--k-default", "1e308"],
         "error: k_default=1e+308 makes the phase k*q overflow"),
        (FIG4_DOC, ["evolve", "--dt", "1e308", "--steps", "3"],
         "error: dt=1e+308 implies a shear p*dt/m of up to inf"),
        (FIG4_DOC, ["evolve", "--physical", "gaussian", "--mass", "1e-320", *SMALL_PHYSICAL],
         "error: dt=0.5 implies a shear p*dt/m of up to inf"),
        (FIG4_DOC, ["evolve", "--physical", "gaussian", "--hbar", "1e-300", *SMALL_PHYSICAL],
         "error: hbar=1e-300 gives a Wigner kernel phase"),
        (FIG4_DOC, ["evolve", "--physical", "gaussian", "--mass", "1e-300", *SMALL_PHYSICAL],
         "error: dt=0.5 implies a shear p*dt/m of up to 3.9999999999999996e+300 per step, "
         "whose spectral phase of"),
        (FIG4_DOC, ["evolve", "--dt", "0.1", "--steps", "2", "--mass", "inf"],
         "error: mass must be finite, got inf"),
        ('{"vertices": 2, "edges": [{"members": [1, 2], "weight": 1e-320}]}',
         ["evolve", "--dt", "0.1", "--steps", "2", "--nq", "4", "--np", "4"],
         "error: phase-space spacing dq=3.122e-321 is 0 or makes pi/dq overflow float64 "
         "for q in [0.0, 1.25e-320], p in [0.0, 1.25e-320]"),
        # only the position Laplacian's 2 d(v) overflows: refused after the other six files
        ('{"vertices": 2, "edges": [{"members": [1, 2], "weight": 1e308}]}', ["matrices"],
         "error: edge weights"),
        (FIG4_DOC, ["evolve", "--dt", "0.1", "--steps", "2", "--margin", "nan"],
         "error: margin must be a finite number >= 0, got nan"),
        (FIG4_DOC, ["evolve", "--dt", "0.1", "--steps", "2", "--margin", "inf"],
         "error: margin must be a finite number >= 0, got inf"),
        (FIG4_DOC, ["evolve", "--dt", "0.1", "--steps", "2", "--margin", "-1"],
         "error: margin must be a finite number >= 0, got -1.0"),
        (FIG4_DOC, ["evolve", "--physical", "gaussian", "--extent", "nan", *SMALL_PHYSICAL],
         "error: extent must be a finite number > 0, got nan"),
        (FIG4_DOC, ["evolve", "--physical", "gaussian", "--extent", "-1", *SMALL_PHYSICAL],
         "error: extent must be a finite number > 0, got -1.0"),
        (FIG4_DOC, ["evolve", "--physical", "gaussian", "--extent", "0", *SMALL_PHYSICAL],
         "error: extent must be a finite number > 0, got 0.0"),
        (FIG4_DOC, ["evolve", "--physical", "gaussian", "--extent", "inf", *SMALL_PHYSICAL],
         "error: extent must be a finite number > 0, got inf"),
    ],
    ids=[f"command{i}" for i in range(22)],
)
def test_overflowing_weights_are_validation_error(text, command, message, tmp_path, capsys):
    doc = tmp_path / "huge.json"
    doc.write_text(text)
    argv = [command[0], str(doc), *command[1:], "--out", str(tmp_path / "out")]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(argv) == 1
    assert caught == []
    err = capsys.readouterr().err
    assert err.startswith(message) and err.count("\n") == 1


# --- evolve ----------------------------------------------------------------------

def test_evolve_hypergraph_mode(fig4_file, tmp_path):
    out = tmp_path / "run"
    code = main(
        ["evolve", str(fig4_file), "--nq", "64", "--np", "64", "--dt", "0.05",
         "--steps", "10", "--out", str(out)]
    )
    assert code == 0
    snaps = sorted(p.name for p in out.glob("snapshot_*.csv"))
    assert len(snaps) == 10
    run = json.loads((out / "run.json").read_text())
    assert run["mass_drift_rel"] <= 1e-12
    assert run["mode"] == "hypergraph"
    meta = json.loads((out / "snapshot_0010.meta.json").read_text())
    assert meta["t"] == pytest.approx(0.5)


def test_evolve_plane_wave_relative_drift_uses_l1_mass(tmp_path):
    # one edge per momentum row, wavenumber 2 pi * 2 / L over the q extent L = 3.75:
    # the field's signed mass is rounding noise, its L1 mass is not
    doc = tmp_path / "h.json"
    doc.write_text('{"vertices": 3, "edges": [{"members": [1, 2], "weight": 1}, '
                   '{"members": [2, 3], "weight": 2}]}')
    out = tmp_path / "run"
    k = 2 * np.pi * 2 / 3.75
    assert main(["evolve", str(doc), "--nq", "64", "--np", "64", "--dt", "0.05",
                 "--steps", "4", "--k-default", repr(k), "--out", str(out)]) == 0
    run = json.loads((out / "run.json").read_text())
    assert abs(run["mass_initial"]) <= 1e-12
    assert run["mass_drift_rel"] <= 1e-12


def test_evolve_rejects_zero_steps(fig4_file, tmp_path, capsys):
    assert main(["evolve", str(fig4_file), "--dt", "0.1", "--steps", "0",
                 "--out", str(tmp_path / "x")]) == 1
    assert "steps" in capsys.readouterr().err


def test_evolve_edgeless_rejected(tmp_path, capsys):
    doc = tmp_path / "h.json"
    doc.write_text('{"vertices": 3, "edges": []}')
    assert main(["evolve", str(doc), "--dt", "0.1", "--out", str(tmp_path / "x")]) == 1
    assert "boundary" in capsys.readouterr().err


def test_evolve_physical_gaussian(tmp_path):
    out = tmp_path / "phys"
    code = main(
        ["evolve", "--physical", "gaussian", "--t", "1.0", "--steps", "50",
         "--nq", "128", "--np", "128", "--out", str(out)]
    )
    assert code == 0
    run = json.loads((out / "run.json").read_text())
    assert run["max_error_vs_analytic"] <= 1e-6
    assert run["mass_drift_rel"] <= 1e-12
    assert len(list(out.glob("snapshot_*.csv"))) == 50


def test_evolve_peak_memory_does_not_grow_with_snapshots(tmp_path):
    # each snapshot is written, and its mass taken, before the next is computed
    argv = ["evolve", "--physical", "gaussian", "--t", "1", "--nq", "128", "--np", "64"]
    assert main(argv + ["--out", str(tmp_path / "warm-up")]) == 0  # import-time and table caches
    peaks = {}
    for steps in (2, 40):
        tracemalloc.start()
        try:
            assert main(argv + ["--steps", str(steps), "--out", str(tmp_path / str(steps))]) == 0
            peaks[steps] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert len(list((tmp_path / "40").glob("snapshot_*.csv"))) == 40
    assert peaks[40] - peaks[2] < 2 * 128 * 64 * 8  # two fields, where one per snapshot is 38


def test_evolve_physical_holds_four_fields(tmp_path):
    n = 512
    argv = ["evolve", "--physical", "gaussian", "--t", "1", "--steps", "8", "--nq", str(n),
            "--np", str(n), "--snapshot-every", "1", "--out", str(tmp_path / "x")]
    tracemalloc.start()
    try:
        assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # a stretch holds the field, its rfft coefficients and one more array of its size: the
    # phase table, then the inverse transform, which is the output when every row is live (a
    # Gaussian's are), and the analytic check builds its field and error in one array (4.31
    # fields with a copy of the live rows, a zeroed output and the check's temporaries)
    assert peak < 3.5 * n * n * 8


def test_hypergraph_evolve_does_no_per_vertex_work_for_the_phase_map(tmp_path):
    # run.json records the degree source and the momentum rows, nothing per vertex; the
    # vertex weights and degrees (8 MB each) are all that grows with the vertex count
    doc = tmp_path / "wide.json"
    doc.write_text('{"vertices": 1000000, "edges": [{"members": [1]}]}')
    argv = ["evolve", str(doc), "--dt", "0.1", "--steps", "1", "--out", str(tmp_path / "x")]
    tracemalloc.start()
    try:
        assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 24 * 2**20  # 96.6 MiB with a column per vertex
    run = json.loads((tmp_path / "x" / "run.json").read_text())
    assert run["degree_source"] == "vertex_degree" and run["momentum_rows"] == {"0": 51}


@pytest.mark.parametrize("mode", [["--physical", "gaussian", "--t", "1"], ["--dt", "0.1"]])
def test_evolve_oversized_grid(mode, fig4_file, tmp_path, capsys):
    doc = [] if mode[0] == "--physical" else [str(fig4_file)]
    argv = ["evolve", *doc, *mode, "--nq", "1000000", "--np", "1000000",
            "--out", str(tmp_path / "x")]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: grid of n_q=1000000 x n_p=1000000") and err.count("\n") == 1


def test_evolve_physical_delta_packet(tmp_path):
    # sigma**2 = 1e-320 leaves one nonzero sample at q = 0; the analytic shear overflows to
    # exp(-inf) = 0 away from it, with no warning
    argv = ["evolve", "--physical", "gaussian", "--sigma", "1e-160", *SMALL_PHYSICAL,
            "--out", str(tmp_path / "x")]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(argv) == 0
    assert caught == []
    run = json.loads((tmp_path / "x" / "run.json").read_text())
    assert run["max_error_vs_analytic"] <= 1e-12


def test_evolve_physical_needs_time(tmp_path, capsys):
    assert main(["evolve", "--physical", "gaussian", "--out", str(tmp_path / "x")]) == 1
    assert "--t" in capsys.readouterr().err


def test_evolve_physical_dt_writes_what_t_over_steps_writes(tmp_path, capsys):
    small = ["evolve", "--physical", "gaussian", "--steps", "4", "--nq", "33", "--np", "33"]
    trees = []
    for time in (["--dt", "0.25"], ["--t", "1"]):
        out = tmp_path / time[0][2:]
        assert main([*small, *time, "--out", str(out)]) == 0
        trees.append(read_tree(out))
    assert trees[0] == trees[1]
    assert json.loads(trees[0]["run.json"])["dt"] == 0.25


@pytest.mark.parametrize("argv, message", [
    (["encode", "FIG4", "--partition", "1,x|2,3,4"], "partition part 1: 'x' is not an integer"),
    (["encode", "FIG4", "--partition", "1,4|2,9"], "partition part 2: vertex 9 out of range 1..4"),
    (["evolve", "FIG4", "--dt", "0.1", "--snapshot-every", "-1"],
     "snapshot_every must be >= 0, got -1"),
    (["evolve", "--physical", "box", "--t", "1"],
     "unknown physical state 'box' (expected 'gaussian')"),
    (["evolve", "--dt", "0.1"], "evolve needs a hypergraph document (or --physical gaussian)"),
    (["evolve", "FIG4", "--steps", "2"], "hypergraph mode needs --dt"),
    # a step count past float64 would overflow t / steps and t + steps * dt
    (["evolve", "--physical", "gaussian", "--t", "1", "--steps", str(10**400)],
     "steps must be at most 1.79769e+308, got 401 digits"),
    (["evolve", "FIG4", "--dt", "0.1", "--steps", str(10**400), "--snapshot-every", "0"],
     "steps must be at most 1.79769e+308, got 401 digits"),
])
def test_refused_flags_are_named(argv, message, fig4_file, tmp_path, capsys):
    argv = [str(fig4_file) if a == "FIG4" else a for a in argv]
    assert main([*argv, "--out", str(tmp_path / "x")]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


REFUSAL_INPUTS = {
    "fig4.json": FIG4_DOC,
    "big.json": '{"vertices": 21, "edges": []}',
    "wide.json": '{"vertices": 200000}',
    "long.json": json.dumps({"vertices": 1, "edges": [{"members": [1]}] * 4097}),
    "one.csv": "q,re,im\n0.5,1,0\n",
}


@pytest.mark.parametrize("argv, message", [
    (["encode", "fig4.json", "--partition", "1,4|2,9"], "partition part 2: vertex 9 out of range"),
    (["encode", "fig4.json", "--partition", "1,4|2,3", "--delta", "1.5"],
     "delta must lie in (0, 1), got 1.5"),
    (["encode", "big.json"], "hypergraph has 21 vertices; dense encoding is capped at 20"),
    (["evolve", "fig4.json", "--steps", "0", "--dt", "0.1"], "steps must be >= 1, got 0"),
    (["evolve", "fig4.json", "--dt", "0.1", "--snapshot-every", "-1"],
     "snapshot_every must be >= 0, got -1"),
    (["evolve", "fig4.json", "--dt", "1e308", "--steps", "3"],
     "dt=1e+308 implies a shear p*dt/m of up to inf"),
    (["wigner-transform", "--state", "one.csv"], "wavefunction file needs at least 2 samples"),
    (["matrices", "wide.json"], "matrices of n_vertices=200000, n_edges=0 hold up to 40000000000 "
     "cells, over the cap of 16777216"),
    (["matrices", "long.json"], "matrices of n_vertices=1, n_edges=4097 hold up to 16785409 cells"),
    (["evolve", "fig4.json", "--dt", "0.1", "--steps", "1000000000000", "--snapshot-every", "0",
      "--nq", "4", "--np", "4"], "steps=1000000000000 on an n_q=4 x n_p=4 grid is too much work: "
     "steps * max(n_q * n_p, 4096) must be at most 68719476736"),
    (["evolve", "fig4.json", "--dt", "0.1", "--steps", "1000000000000", "--snapshot-every", "1",
      "--nq", "4", "--np", "4"], "steps=1000000000000 on an n_q=4 x n_p=4 grid is too much work"),
    (["evolve", "fig4.json", "--dt", "0.1", "--steps", "10000", "--nq", "4", "--np", "4"],
     "steps=10000 with snapshot_every=1 writes more than 9999 snapshots"),
])
def test_refused_run_leaves_out_untouched(argv, message, tmp_path, capsys):
    for name, text in REFUSAL_INPUTS.items():
        (tmp_path / name).write_text(text)
    argv = [str(tmp_path / a) if a in REFUSAL_INPUTS else a for a in argv]
    assert main([*argv, "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert message in err and err.startswith("error: ") and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


# --- wigner-transform ----------------------------------------------------------------

def test_wigner_transform_command(tmp_path, capsys):
    grid = make_grid(64, 64, (-8, 8), (-8, 8))
    psi_path = tmp_path / "psi.csv"
    formats.write_wavefunction(psi_path, gaussian_wavefunction(grid))
    out = tmp_path / "wt"
    assert main(["wigner-transform", "--state", str(psi_path), "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert (out / "snapshot_0000.csv").exists()
    mass_line = next(ln for ln in stdout.splitlines() if ln.startswith("total mass"))
    assert abs(float(mass_line.split(":")[1]) - 1.0) <= 1e-6


@pytest.mark.parametrize(
    "extra, message",
    [
        ([], "error: grid of n_q=8192 x n_p=8192 = 67108864 cells exceeds the cap"),
        (["--np", "2"], "error: Wigner correlation of n_q=8192 x 4096 offsets"),
    ],
)
def test_wigner_transform_oversized_state(extra, message, tmp_path, capsys):
    psi_path = tmp_path / "psi.csv"
    grid = make_grid(8192, 2, (-8, 8), (-8, 8))
    formats.write_wavefunction(psi_path, gaussian_wavefunction(grid))
    argv = ["wigner-transform", "--state", str(psi_path), *extra, "--out", str(tmp_path / "x")]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(message) and err.count("\n") == 1


@pytest.mark.parametrize("hbar", ["1e-320", "1e-300"])
def test_wigner_transform_tiny_hbar(hbar, tmp_path, capsys):
    psi_path = tmp_path / "psi.csv"
    grid = make_grid(64, 64, (-8, 8), (-8, 8))
    formats.write_wavefunction(psi_path, gaussian_wavefunction(grid))
    argv = ["wigner-transform", "--state", str(psi_path), "--hbar", hbar,
            "--out", str(tmp_path / "x")]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(argv) == 1
    assert caught == []
    err = capsys.readouterr().err
    assert err.startswith(f"error: hbar={float(hbar)} gives a Wigner kernel phase")
    assert err.count("\n") == 1


def test_wigner_transform_infinite_hbar(tmp_path, capsys):
    psi_path = tmp_path / "psi.csv"
    formats.write_wavefunction(psi_path, gaussian_wavefunction(make_grid(64, 64, (-8, 8), (-8, 8))))
    argv = ["wigner-transform", "--state", str(psi_path), "--hbar", "inf", "--out", str(tmp_path)]
    assert main(argv) == 1
    assert capsys.readouterr().err == "error: hbar must be finite, got inf\n"


def test_wigner_transform_overflowing_norm(tmp_path, capsys):
    psi_path = tmp_path / "big.csv"
    psi_path.write_text("q,re,im\n0.5,1e308,0\n1.5,1e308,0\n")
    # the squares overflow: a leaked RuntimeWarning would fail under the suite's filter
    assert main(["wigner-transform", "--state", str(psi_path), "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err == (
        f"error: {psi_path}: wavefunction norm is inf, expected 1 within 1e-10\n")


def test_wigner_transform_unnormalized_state_names_its_file(tmp_path, capsys):
    psi_path = tmp_path / "psi.csv"
    psi_path.write_text("q,re,im\n0.5,1,0\n1.5,1,0\n")
    assert main(["wigner-transform", "--state", str(psi_path), "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {psi_path}: wavefunction norm is 2")


def test_wigner_transform_missing_file(tmp_path, capsys):
    assert main(["wigner-transform", "--state", str(tmp_path / "nope.csv"),
                 "--out", str(tmp_path / "x")]) == 2


# --- determinism ------------------------------------------------------------------------

def test_encode_is_deterministic(fig4_file, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert main(["encode", str(fig4_file), "--partition", "1,4|2,3",
                     "--out", str(out)]) == 0
    assert read_tree(a) == read_tree(b)


def test_evolve_is_deterministic(fig4_file, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert main(["evolve", str(fig4_file), "--nq", "32", "--np", "32",
                     "--dt", "0.02", "--steps", "5", "--out", str(out)]) == 0
    assert read_tree(a) == read_tree(b)


def test_output_dir_env_var(fig4_file, tmp_path, monkeypatch):
    env_dir = tmp_path / "envout"
    monkeypatch.setenv("WHN_OUTPUT_DIR", str(env_dir))
    assert main(["encode", str(fig4_file)]) == 0
    assert (env_dir / "state.txt").exists()
    flag_dir = tmp_path / "flagout"
    assert main(["encode", str(fig4_file), "--out", str(flag_dir)]) == 0
    assert (flag_dir / "state.txt").exists()


# --- every subcommand under extreme flags and documents -------------------------

EXTREME_FLOATS = ["nan", "inf", "-inf", "0", "-0", "5e-324", "1e-320", "1e308", "-1e308"]
LARGE_INTS = [str(2**31), str(2**63), str(10**30)]
PAST_FLOAT64 = str(10**400)
EXTREME_WEIGHTS = [math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, 1e-320, 1e308, -1e308,
                   2**63, 10**30, 1, 2.5]
FLAGS = {  # subcommand: its float flags, its int flags
    "info": ([], []),
    "matrices": ([], []),
    "encode": (["--delta"], []),
    "evolve": (["--dt", "--margin", "--k-default", "--mass", "--hbar", "--sigma", "--t",
                "--extent"], ["--nq", "--np", "--steps", "--snapshot-every"]),
    "wigner-transform": (["--pmin", "--pmax", "--mass", "--hbar"], ["--np"]),
}


@st.composite
def cli_runs(draw):
    """A subcommand, its document or state file, and flags set to small or extreme values."""
    command = draw(st.sampled_from(sorted(FLAGS)))
    n = draw(st.integers(1, 6))
    weight = st.one_of(st.sampled_from([1, 2.5]), st.sampled_from(EXTREME_WEIGHTS))
    edges = draw(st.lists(st.fixed_dictionaries(
        {"members": st.lists(st.integers(1, n), max_size=n)}, optional={"weight": weight}),
        max_size=4))
    doc = {"vertices": n, "edges": edges}
    if draw(st.booleans()):
        doc["vertex_weights"] = draw(st.lists(weight, min_size=n, max_size=n))
    samples = draw(st.one_of(st.integers(1, 6).map(lambda k: [k**-0.5] * k),  # unit norm
                             st.lists(st.sampled_from(EXTREME_WEIGHTS), min_size=1, max_size=6)))
    floats, ints = FLAGS[command]
    argv = []
    if command == "evolve":
        argv += draw(st.sampled_from([["--dt", "0.1"], ["--physical", "gaussian", "--t", "1"],
                                      ["--physical", "box"], []]))
        argv += ["--nq", "8", "--np", "8", "--steps", "2"]
    if command == "encode" and draw(st.booleans()):
        argv += ["--partition", draw(st.sampled_from(["1|2", "1,2", "x|1", "0|1", "1,,2", "7"]))]
    flags = floats + ints
    for flag in draw(st.lists(st.sampled_from(flags), max_size=4, unique=True)) if flags else []:
        small = ["1", "2", "3"] if flag in ints else ["0.5", "2"]
        argv += [flag, draw(st.sampled_from(small + EXTREME_FLOATS + LARGE_INTS + [PAST_FLOAT64]))]
    return command, doc, samples, argv


def run_cli(argv: list[str]) -> tuple[int, str, int]:
    """main(argv) in-process: exit code, stderr and peak traced allocation."""
    err = io.StringIO()
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse refuses a flag value
                code = exc.code
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        gc.unfreeze()  # main freezes what is alive; the next example's leftovers must not stay
    return code, err.getvalue(), peak


@settings(deadline=None, max_examples=500)
@given(cli_runs())
def test_cli_survives_extreme_flags_and_documents(run):
    command, doc, samples, argv = run
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "h.json").write_text(json.dumps(doc))
        (tmp / "psi.csv").write_text("q,re,im\n" + "".join(
            f"{i + 0.5},{x!r},0\n" for i, x in enumerate(samples)))
        target = ["--state", str(tmp / "psi.csv")] if command == "wigner-transform" else [
            str(tmp / "h.json")]
        if command == "evolve" and "--physical" in argv:
            target = []
        out = [] if command == "info" else ["--out", str(tmp / "out")]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, err, peak = run_cli([command, *target, *argv, *out])
    assert code in (0, 1, 2), (code, err)
    if code == 1:
        assert len(err.splitlines()) == 1 and err.startswith("error: "), err
    elif code == 0:
        assert err == ""
    assert peak < 4 * 2**20, (argv, peak)
