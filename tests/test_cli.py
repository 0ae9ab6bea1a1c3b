import contextlib
import gc
import hashlib
import io
import json
import math
import os
import platform
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperphase import (QubitStateVector, formats, gaussian_wavefunction, grid_from_boundary,
                        incidence_matrix, make_grid)
from hyperphase.cli import _parse_partition_spec, main

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


def test_info_boundary_is_the_grid_extent(tmp_path, capsys):
    """The boundary line names the degrees grid_from_boundary sizes its q axis by: edge degrees
    once some hyperedge is empty (the largest vertex degree here is 7)."""
    doc = tmp_path / "empty_edge.json"
    doc.write_text('{"vertices": 3, "edges": [{"members": [1, 2], "weight": 2}, '
                   '{"members": [], "weight": 1}, {"members": [1, 3], "weight": 5}]}')
    assert main(["info", str(doc)]) == 0
    assert capsys.readouterr().out.endswith("boundary: max edge weight 5, max edge degree 2\n")
    grid = grid_from_boundary(formats.parse_hypergraph(doc.read_text()), 8, 8)
    assert (grid.p_max, grid.q_max) == (5.0, 2.0)


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
SQUARE_REFUSAL = "cells of the incidence matrix (4097 x 4097): expected an integer <= 16777216, got 16785409"


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


def test_encode_streams_every_state_file(tmp_path):
    doc = tmp_path / "h.json"
    edges = [{"members": [v, v % 20 + 1, (v + 6) % 20 + 1]} for v in range(1, 21)]
    doc.write_text(json.dumps({"vertices": 20, "edges": edges}))
    halves = ",".join(map(str, range(1, 11))) + "|" + ",".join(map(str, range(11, 21)))
    out = tmp_path / "e"
    tracemalloc.start()
    try:
        assert main(["encode", str(doc), "--partition", halves, "--out", str(out)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # state.txt and combined.txt hold 36.8 MiB of text each; built whole, one peaked at 43.9 MiB
    assert (out / "state.txt").stat().st_size > 36 * 2**20
    assert peak < 4 * 2**20, peak


def test_encode_oversize_refused(tmp_path, capsys):
    doc = tmp_path / "big.json"
    doc.write_text('{"vertices": 21, "edges": []}')
    assert main(["encode", str(doc), "--out", str(tmp_path / "x")]) == 1
    assert "capped" in capsys.readouterr().err


def test_encode_bad_partition_spec(fig4_file, tmp_path, capsys):
    assert main(["encode", str(fig4_file), "--partition", "1,|2", "--out", str(tmp_path / "x")]) == 1
    assert "partition part 1" in capsys.readouterr().err


def test_partition_members_read_as_json_integers():
    assert _parse_partition_spec(" 1, +4 |2,03") == [[1, 4], [2, 3]]
    assert _parse_partition_spec("%s3|-2" % ("0" * 5000)) == [[3], [-2]]
    assert _parse_partition_spec("-1%s" % ("0" * 5000)) == [[-(10**5000)]]


@pytest.mark.parametrize("text, message", [
    ('{"vertices": 4, "edges": [{"members": [5]}]}',
     "edges[0].members[0]: expected an integer in 1..4, got 5"),
    # JSON integers past float64: json parses them exactly, and float() of one raises OverflowError
    ('{"vertices": 1, "edges": [{"members": [1], "weight": 1%s}]}' % ("0" * 400),
     "edges[0].weight: expected a finite number, got 401 digits"),
    ('{"vertices": 2, "vertex_weights": [1, 1%s]}' % ("0" * 400),
     "vertex_weights[1]: expected a finite number, got 401 digits"),
    # past the 4300 digits that int() converts, json's parse_int counts them instead
    ('{"vertices": 1, "edges": [{"members": [1], "weight": 1%s}]}' % ("0" * 5000),
     "edges[0].weight: expected a finite number, got 5001 digits"),
    ('{"vertices": 2, "vertex_weights": [1, -1%s]}' % ("0" * 5000),
     "vertex_weights[1]: expected a finite number, got 5001 digits"),
    ('{"vertices": 1%s}' % ("0" * 5000), "vertices: expected an integer in 1..16777216, got 5001 digits"),
    ('{"vertices": 2, "edges": [{"members": [1, 1%s]}]}' % ("0" * 5000),
     "edges[0].members[1]: expected an integer in 1..2, got 5001 digits"),
    ('{"vertices": 10000000000}', "vertices: expected an integer in 1..16777216, got 10000000000"),
    # a refused non-number is echoed up to 20 characters
    ('{"vertices": 2, "edges": [{"members": ["%s"]}]}' % ("x" * 5000),
     "edges[0].members[0]: expected an integer, got 'xxxxxxxxxxxxxxxxxxxx...'"),
    ('{"vertices": "%s"}' % ("x" * 5000), "vertices: expected an integer, got 'xxxxxxxxxxxxxxxxxxxx...'"),
    ('{"vertices": [%s]}' % ", ".join(["1"] * 5000),
     "vertices: expected an integer, got [1, 1, 1, 1, 1, 1, 1..."),
], ids=["member", "edge-weight", "vertex-weight", "edge-weight-5001", "vertex-weight-5001",
        "vertices-5001", "member-5001", "vertices-1e10", "member-str-5000", "vertices-str-5000",
        "vertices-list-5000"])
def test_invalid_document_is_validation_error(text, message, tmp_path, capsys):
    doc = tmp_path / "bad.json"
    doc.write_text(text)
    assert main(["info", str(doc)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


HUGE_SUMS_DOC = ('{"vertices": 2, "edges": [{"members": [1, 2], "weight": 1e308}, '
                 '{"members": [1], "weight": 1e308}]}')
HUGE_GRID_DOC = '{"vertices": 1, "edges": [{"members": [1], "weight": 1e308}]}'
HEAVY_DOC = '{"vertices": 2, "vertex_weights": [1e308, 1e308], "edges": [{"members": [1, 2], "weight": 1}]}'
SMALL_PHYSICAL = ["--t", "1", "--steps", "2", "--nq", "33", "--np", "33"]


@pytest.mark.parametrize(
    "text,command,message",
    [
        (HUGE_SUMS_DOC, ["matrices"], "error: edge weights"),
        (HUGE_SUMS_DOC, ["evolve", "--dt", "0.1", "--steps", "2"], "error: edge weights"),
        (HUGE_GRID_DOC, ["evolve", "--dt", "0.1", "--steps", "2"],
         "error: phase-space cell area"),
        (HUGE_GRID_DOC, ["evolve", "--dt", "0.1", "--steps", "2", "--margin", "1"],
         "error: (1 + margin) * the largest edge weight, 1e+308, for margin=1.0: expected a finite number, "
         "got inf"),
        (FIG4_DOC, ["evolve", "--physical", "gaussian", "--sigma", "inf", *SMALL_PHYSICAL],
         "error: sigma: expected a finite number, got inf"),
        (FIG4_DOC, ["evolve", "--physical", "gaussian", "--sigma", "1e-300", *SMALL_PHYSICAL],
         "error: sigma**2 for sigma=1e-300: expected a positive number, got 0.0"),
        (FIG4_DOC, ["evolve", "--physical", "gaussian", "--t", "1", "--steps", "1", "--nq", "3", "--np", "2",
                    "--sigma", "1e-200"],
         "error: sigma**2 for sigma=1e-200: expected a positive number, got 0.0"),
        # part weights, their mean and the bound past float64 were written to report.json as Infinity
        (HEAVY_DOC, ["encode", "--partition", "1,2"],
         "error: vertex weight sum of parts[0]: expected a finite number, got inf"),
        (HEAVY_DOC, ["encode", "--partition", "1|2"],
         "error: mean weight of parts[0..1]: expected a finite number, got inf"),
        (FIG4_DOC, ["evolve", "--dt", "0.1", "--steps", "2", "--k-default", "inf"],
         "error: k_default: expected a finite number, got inf"),
        (FIG4_DOC, ["evolve", "--dt", "0.1", "--steps", "2", "--k-default", "1e308"],
         "error: k_default*q for k_default=1e+308 on q in [0.0, 6.25]: "
         "expected a phase of at most 2**53 rad, got inf"),
        (FIG4_DOC, ["evolve", "--dt", "1e308", "--steps", "3"],
         "error: spectral phase p*dt/m*pi/dq of a step for dt=1e+308, m=1.0: expected a phase of at most "
         "2**53 rad, got inf"),
        (FIG4_DOC, ["evolve", "--physical", "gaussian", "--mass", "1e-320", *SMALL_PHYSICAL],
         "error: spectral phase p*dt/m*pi/dq of a step for dt=0.5, m=1e-320: expected a phase of at most "
         "2**53 rad, got inf"),
        (FIG4_DOC, ["evolve", "--physical", "gaussian", "--hbar", "1e-300", *SMALL_PHYSICAL],
         "error: Wigner kernel phase 2*dq*m*p/hbar for hbar=1e-300: expected a phase of at most 2**53 rad, "
         "got 1.2412121212121213e+302"),
        (FIG4_DOC, ["evolve", "--physical", "gaussian", "--mass", "1e-300", *SMALL_PHYSICAL],
         "error: spectral phase p*dt/m*pi/dq of a step for dt=0.5, m=1e-300: expected a phase of at most "
         "2**53 rad, got 2.5918139392115786e+301"),
        (FIG4_DOC, ["evolve", "--dt", "0.1", "--steps", "2", "--mass", "inf"],
         "error: mass: expected a finite number, got inf"),
        ('{"vertices": 2, "edges": [{"members": [1, 2], "weight": 1e-320}]}',
         ["evolve", "--dt", "0.1", "--steps", "2", "--nq", "4", "--np", "4"],
         "error: pi/dq of the spacing dq=3.122e-321 for q in [0.0, 1.25e-320], "
         "p in [0.0, 1.25e-320]: expected a finite number, got inf"),
        # only the position Laplacian's 2 d(v) overflows: refused after the other six files
        ('{"vertices": 2, "edges": [{"members": [1, 2], "weight": 1e308}]}', ["matrices"],
         "error: edge weights"),
        (FIG4_DOC, ["evolve", "--dt", "0.1", "--steps", "2", "--margin", "nan"],
         "error: margin: expected a finite number, got nan"),
        (FIG4_DOC, ["evolve", "--dt", "0.1", "--steps", "2", "--margin", "inf"],
         "error: margin: expected a finite number, got inf"),
        (FIG4_DOC, ["evolve", "--dt", "0.1", "--steps", "2", "--margin", "-1"],
         "error: margin: expected a number >= 0, got -1.0"),
        (FIG4_DOC, ["evolve", "--physical", "gaussian", "--extent", "nan", *SMALL_PHYSICAL],
         "error: extent: expected a finite number, got nan"),
        (FIG4_DOC, ["evolve", "--physical", "gaussian", "--extent", "-1", *SMALL_PHYSICAL],
         "error: extent: expected a positive number, got -1.0"),
        (FIG4_DOC, ["evolve", "--physical", "gaussian", "--extent", "0", *SMALL_PHYSICAL],
         "error: extent: expected a positive number, got 0.0"),
        (FIG4_DOC, ["evolve", "--physical", "gaussian", "--extent", "inf", *SMALL_PHYSICAL],
         "error: extent: expected a finite number, got inf"),
    ],
    ids=[f"command{i}" for i in range(25)],
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


def test_evolve_physical_error_is_taken_against_the_closed_form(tmp_path):
    out = tmp_path / "phys"
    assert main(["evolve", "--physical", "gaussian", "--sigma", "0.8", "--t", "0.9", "--steps", "7",
                 "--snapshot-every", "3", "--nq", "48", "--np", "31", "--mass", "1.5",
                 "--out", str(out)]) == 0
    run = json.loads((out / "run.json").read_text())
    final = np.loadtxt(out / "snapshot_0003.csv", delimiter=",")[::-1]  # %.17g round-trips
    t = json.loads((out / "snapshot_0003.meta.json").read_text())["t"]
    grid = make_grid(48, 31, (-8, 8), (-8, 8), 1.5)
    p = grid.p_centers()[:, None]
    exact = np.exp(np.square(grid.q_centers()[None, :] - p * t / grid.mass) / -0.8**2
                   - (0.8 * p) ** 2) / math.pi
    assert run["max_error_vs_analytic"] == float(np.max(np.abs(final - exact)))


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
    # a stretch holds the field, its output and one block of at most 2**16 cells, and the
    # analytic check builds its field and error in one array: the Wigner transform's three
    # fields are most of the 3.11-field peak (4.31 with a copy of the live rows, a zeroed output
    # and the check's temporaries; 3.31 while a stretch transformed the field whole)
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
    assert err.startswith("error: cells of the n_q x n_p grid (1000000 x 1000000)") and err.count("\n") == 1


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
    # the spec's text is checked as it is split; its vertices, after delta, by PartitionEnsemble
    (["encode", "FIG4", "--partition", "1,4|2,9"], "parts[1]: expected an integer in 1..4, got 9"),
    (["encode", "FIG4", "--partition", "9|x"], "partition part 2: 'x' is not an integer"),
    (["encode", "FIG4", "--partition", "1,4|2,9", "--delta", "1.5"],
     "delta must lie in (0, 1), got 1.5"),
    (["evolve", "FIG4", "--dt", "0.1", "--snapshot-every", "-1"],
     "snapshot_every: expected an integer >= 0, got -1"),
    (["evolve", "--physical", "box", "--t", "1"],
     "unknown physical state 'box' (expected 'gaussian')"),
    (["evolve", "--dt", "0.1"], "evolve needs a hypergraph document (or --physical gaussian)"),
    (["evolve", "FIG4", "--steps", "2"], "hypergraph mode needs --dt"),
    (["evolve", "--physical", "gaussian", "--t", "nan"], "t: expected a finite number, got nan"),
    # a step count past float64 would overflow t / steps and t + steps * dt
    (["evolve", "--physical", "gaussian", "--t", "1", "--steps", str(10**400)],
     "steps: expected a finite number, got 401 digits"),
    (["evolve", "FIG4", "--dt", "0.1", "--steps", str(10**400), "--snapshot-every", "0"],
     "steps: expected a finite number, got 401 digits"),
    # the norm is summed from subnormal squares: the refusal names the packet and the cell
    (["evolve", "--physical", "gaussian", "--t", "1", "--sigma", "0.0092", "--nq", "32", "--np", "32"],
     "sigma=0.0092 on a grid of dq=0.5: wavefunction norm is 0.9999286149151664, "
     "expected 1 within 1e-10"),
    # a member is a sign and ASCII digits: int() would read 10 and 4 from these
    (["encode", "FIG4", "--partition", "1_0|2,3,4"], "partition part 1: '1_0' is not an integer"),
    (["encode", "FIG4", "--partition", "1,2|3,\u0664"], "partition part 2: '\u0664' is not an integer"),
    (["encode", "FIG4", "--partition", "1|2,%s" % ("x" * 5000)],
     "partition part 2: 'xxxxxxxxxxxxxxxxxxxx...' is not an integer"),
    # past 4300 digits a member reaches PartitionEnsemble by its count; leading zeros are not counted
    (["encode", "FIG4", "--partition", "1|2,1%s" % ("0" * 5000)],
     "parts[1]: expected an integer in 1..4, got 5001 digits"),
    (["encode", "FIG4", "--partition", "1|2,%s9" % ("0" * 5000)],
     "parts[1]: expected an integer in 1..4, got 9"),
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
    "huge.json": '{"vertices": 10000000000}',
    "huger.json": '{"vertices": 1000000000000000000000}',
    "digits.json": '{"vertices": 1, "edges": [{"members": [1], "weight": 1%s}]}' % ("0" * 5000),
    "heavy.json": HEAVY_DOC,
    "wide_grid.json": '{"vertices": 1, "edges": [{"members": [1], "weight": 2.5e154}]}',
    "w2.csv": "q,re,im\n0,0.7071067811865476,0\n1,0.7071067811865476,0\n",
}


@pytest.mark.parametrize("argv, message", [
    (["encode", "fig4.json", "--partition", "1,4|2,9"], "parts[1]: expected an integer in 1..4, got 9"),
    (["encode", "fig4.json", "--partition", "1,4|2,3", "--delta", "1.5"],
     "delta must lie in (0, 1), got 1.5"),
    (["encode", "big.json"],
     "vertices (qubits, capped for the dense encoding): expected an integer <= 20, got 21"),
    (["evolve", "fig4.json", "--steps", "0", "--dt", "0.1"], "steps: expected an integer >= 1, got 0"),
    (["evolve", "fig4.json", "--dt", "0.1", "--snapshot-every", "-1"],
     "snapshot_every: expected an integer >= 0, got -1"),
    (["evolve", "fig4.json", "--dt", "1e308", "--steps", "3"],
     "spectral phase p*dt/m*pi/dq of a step for dt=1e+308, m=1.0: expected a phase of at most 2**53 rad"),
    (["wigner-transform", "--state", "one.csv"], "wavefunction file needs at least 2 samples"),
    (["matrices", "wide.json"], "cells of the largest matrix (200000 x 200000): "
     "expected an integer <= 16777216, got 40000000000"),
    (["matrices", "long.json"],
     "cells of the largest matrix (4097 x 4097): expected an integer <= 16777216, got 16785409"),
    (["evolve", "fig4.json", "--dt", "0.1", "--steps", "1000000000000", "--snapshot-every", "0",
      "--nq", "4", "--np", "4"], "steps * max(n_q * n_p, 4096) for steps=1000000000000 on an "
     "n_q=4 x n_p=4 grid: expected an integer <= 68719476736, got 4096000000000000"),
    (["evolve", "fig4.json", "--dt", "0.1", "--steps", "1000000000000", "--snapshot-every", "1",
      "--nq", "4", "--np", "4"],
     "for steps=1000000000000 on an n_q=4 x n_p=4 grid: expected an integer <= 68719476736"),
    (["evolve", "fig4.json", "--dt", "0.1", "--steps", "10000", "--nq", "4", "--np", "4"],
     "steps=10000 with snapshot_every=1 writes more than 9999 snapshots"),
    # counts no array can hold, and an int json cannot convert, are refused before any work
    (["encode", "huge.json"], "vertices: expected an integer in 1..16777216, got 10000000000"),
    (["matrices", "huger.json"], "vertices: expected an integer in 1..16777216, got 1000000000000000000000"),
    (["evolve", "huge.json", "--dt", "0.1"], "vertices: expected an integer in 1..16777216"),
    (["encode", "digits.json"], "edges[0].weight: expected a finite number, got 5001 digits"),
    # a finite phase past 2**53 rad has no correct digit left
    (["evolve", "fig4.json", "--dt", "0.1", "--steps", "1", "--nq", "4", "--np", "4", "--k-default", "1e300"],
     "k_default*q for k_default=1e+300 on q in [0.0, 6.25]: "
     "expected a phase of at most 2**53 rad, got 6.25e+300"),
    # sums past float64 are refused before the first file is written
    (["encode", "heavy.json", "--partition", "1,2"],
     "vertex weight sum of parts[0]: expected a finite number"),
    (["encode", "heavy.json", "--partition", "1|2"], "mean weight of parts[0..1]: expected a finite number"),
    (["wigner-transform", "--state", "w2.csv", "--hbar", "1e-307", "--np", "1000"],
     "total mass sum(values)*dq*dp for dq=1.0, dp=0.002: expected a finite number, got inf"),
    (["wigner-transform", "--state", "w2.csv", "--hbar", "1e-307", "--np", "100"],
     "total mass sum(values)*dq*dp for dq=1.0, dp=0.02: expected a finite number, got inf"),
    # one half offset, so no kernel phase, but 2*dq/hbar overflows where dq/(pi*hbar) does not
    (["wigner-transform", "--state", "w2.csv", "--hbar", "1e-308"],
     "Wigner kernel factor 2*dq/hbar for hbar=1e-308: expected a finite number, got inf"),
    (["evolve", "--physical", "gaussian", "--t", "1", "--steps", "1", "--nq", "3", "--np", "2",
      "--sigma", "1e-200"], "sigma**2 for sigma=1e-200: expected a positive number, got 0.0"),
    # a finite cell area of 6.1e307 times the field's sum: run.json read Infinity and NaN
    (["evolve", "wide_grid.json", "--dt", "1e-160", "--steps", "1", "--nq", "4", "--np", "4"],
     "total mass sum(values)*dq*dp for dq=7.8125e+153, dp=7.8125e+153: expected a finite number, got inf"),
])
def test_refused_run_leaves_out_untouched(argv, message, tmp_path, capsys):
    for name, text in REFUSAL_INPUTS.items():
        (tmp_path / name).write_text(text)
    argv = [str(tmp_path / a) if a in REFUSAL_INPUTS else a for a in argv]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main([*argv, "--out", str(tmp_path / "out")]) == 1
    assert caught == []
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
        ([], "error: cells of the n_q x n_p grid (8192 x 8192): "
             "expected an integer <= 16777216, got 67108864"),
        (["--np", "2"], "error: cells of the Wigner correlation of n_q x offsets (8192 x 4096)"),
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
    assert err.startswith(f"error: Wigner kernel phase 2*dq*m*p/hbar for hbar={float(hbar)}: "
                          "expected a phase of at most 2**53 rad, got ")
    assert err.count("\n") == 1


def test_wigner_transform_infinite_hbar(tmp_path, capsys):
    psi_path = tmp_path / "psi.csv"
    formats.write_wavefunction(psi_path, gaussian_wavefunction(make_grid(64, 64, (-8, 8), (-8, 8))))
    argv = ["wigner-transform", "--state", str(psi_path), "--hbar", "inf", "--out", str(tmp_path)]
    assert main(argv) == 1
    assert capsys.readouterr().err == "error: hbar: expected a finite number, got inf\n"


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


# --- committed output digests ------------------------------------------------------------

def _digest_doc(seed: int, n: int, m: int, sizes: tuple[int, int]) -> str:
    """A seeded document: m edges of sizes[0]..sizes[1]-1 members, integer edge and vertex weights."""
    rng = np.random.default_rng(seed)
    edges = [{"members": sorted(int(v) for v in rng.choice(np.arange(1, n + 1), size, replace=False)),
              "weight": int(rng.integers(1, 10))}
             for size in rng.integers(*sizes, size=m)]
    return json.dumps({"vertices": n, "edges": edges,
                       "vertex_weights": [int(w) for w in rng.integers(1, 6, size=n)]})


# The README's document, and per seed one shaped like the encode and evolve workloads' (16
# vertices, 48 edges of 1-6 members) and one like the matrices workload's, at half its size.
DIGEST_DOCS = {"fig4": FIG4_DOC}
DIGEST_RUNS = {
    "info fig4": ["info", "fig4.json"],
    "matrices fig4": ["matrices", "fig4.json"],
    "encode fig4 partition": ["encode", "fig4.json", "--partition", "1,4|2,3", "--delta", "0.2"],
    "encode fig4 global gate": ["encode", "fig4.json", "--with-global-gate"],
    "evolve fig4": ["evolve", "fig4.json", "--nq", "64", "--np", "64", "--dt", "0.05",
                    "--steps", "10", "--snapshot-every", "1"],
}
for _seed in (1, 2, 3):
    DIGEST_DOCS[f"s{_seed}"] = _digest_doc(_seed, 16, 48, (1, 7))
    DIGEST_DOCS[f"m{_seed}"] = _digest_doc(_seed, 125, 250, (2, 9))
    DIGEST_RUNS.update({
        f"info s{_seed}": ["info", f"s{_seed}.json"],
        f"matrices m{_seed}": ["matrices", f"m{_seed}.json"],
        f"encode s{_seed}": ["encode", f"s{_seed}.json"],
        f"encode s{_seed} global gate": ["encode", f"s{_seed}.json", "--with-global-gate"],
        f"encode s{_seed} partition": ["encode", f"s{_seed}.json", "--partition",
                                       "1,2,3,4,5,6,7,8,9|10,11,12,13,14,15,16", "--delta", "0.2"],
        # 30 + 30 + 30 + 10 steps: the last stretch is the shorter rest
        f"evolve s{_seed}": ["evolve", f"s{_seed}.json", "--nq", "256", "--np", "256", "--dt", "0.01",
                             "--steps", "100", "--snapshot-every", "30"],
        f"evolve s{_seed} once": ["evolve", f"s{_seed}.json", "--nq", "48", "--np", "31",
                                  "--dt", "0.125", "--steps", "7", "--snapshot-every", "0"],
    })


def digest_run(name: str, root: Path) -> dict[str, str]:
    """Run ``DIGEST_RUNS[name]`` in ``root``: the first 16 hex digits of the sha256 of its
    stdout and of every file it writes, keyed by file name."""
    command, doc, *flags = DIGEST_RUNS[name]
    (root / doc).write_text(DIGEST_DOCS[doc.removesuffix(".json")], encoding="utf-8")
    out = root / "out"
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = main([command, str(root / doc), *flags, *(["--out", str(out)] if command != "info" else [])])
    assert code == 0, name
    files = read_tree(out) if out.exists() else {}
    return {key: hashlib.sha256(data).hexdigest()[:16]
            for key, data in [("stdout", stdout.getvalue().replace(str(root), "<root>").encode()),
                              *files.items()]}


DIGESTS = {  # digest_run of each DIGEST_RUNS entry
    "encode fig4 global gate": {
        "stdout": "b439f09000d6eb34", "report.json": "34f28b1e542a823d",
        "state.txt": "21d7563c6e02fb0c",
    },
    "encode fig4 partition": {
        "stdout": "32af56173e81e1b8", "combined.txt": "7c308dbe7efebbd6",
        "part_1.txt": "e9583d4b42102aee", "part_2.txt": "84da095c03bb2523",
        "report.json": "70462465da8bb8b1", "state.txt": "a3e642c002d0bb00",
    },
    "encode s1": {
        "stdout": "3aeb002ad68da51f", "report.json": "24af210da6f79d03",
        "state.txt": "c006fad913424a85",
    },
    "encode s1 global gate": {
        "stdout": "3aeb002ad68da51f", "report.json": "2d0e421dbd93c2e3",
        "state.txt": "b29284f214110c6f",
    },
    "encode s1 partition": {
        "stdout": "4d69bb1c30ecc47d", "combined.txt": "c32856e57fdfd54b",
        "part_1.txt": "141bbda16cf4372c", "part_2.txt": "7704e7e5bd57373a",
        "report.json": "805767d523a74af9", "state.txt": "c006fad913424a85",
    },
    "encode s2": {
        "stdout": "3aeb002ad68da51f", "report.json": "fddc1ea30a8061e3",
        "state.txt": "da107eca116cb01c",
    },
    "encode s2 global gate": {
        "stdout": "3aeb002ad68da51f", "report.json": "70eadcb45819ad98",
        "state.txt": "588fd3c6041ac263",
    },
    "encode s2 partition": {
        "stdout": "bf095c5272add51e", "combined.txt": "ac1a81ec6d9a0411",
        "part_1.txt": "7588f7ab1690ca2d", "part_2.txt": "ff14d90435a130f5",
        "report.json": "19d864a60f7db0b4", "state.txt": "da107eca116cb01c",
    },
    "encode s3": {
        "stdout": "3aeb002ad68da51f", "report.json": "f0dd3159654f346d",
        "state.txt": "1fe5a8d8f131b7e1",
    },
    "encode s3 global gate": {
        "stdout": "3aeb002ad68da51f", "report.json": "7527d33dd162b586",
        "state.txt": "049f79d1bcdadd61",
    },
    "encode s3 partition": {
        "stdout": "d84ff579e82abe37", "combined.txt": "9a9b16954f8b80ed",
        "part_1.txt": "875983034668673f", "part_2.txt": "9c806a5bea4eae2b",
        "report.json": "4428843fc07b7f98", "state.txt": "1fe5a8d8f131b7e1",
    },
    "evolve fig4": {
        "stdout": "4cc8b15aa3d37137", "run.json": "0fd2c32fcd6d7fc3",
        "snapshot_0001.csv": "1e8c17641212b82e", "snapshot_0001.meta.json": "b7ff1297fc95f645",
        "snapshot_0002.csv": "1e8c17641212b82e", "snapshot_0002.meta.json": "c8b9cd0d02d34ded",
        "snapshot_0003.csv": "1e8c17641212b82e", "snapshot_0003.meta.json": "a70a8fe88c0e1fe9",
        "snapshot_0004.csv": "1e8c17641212b82e", "snapshot_0004.meta.json": "6f19128c8cd4502d",
        "snapshot_0005.csv": "1e8c17641212b82e", "snapshot_0005.meta.json": "79d2c14043495fda",
        "snapshot_0006.csv": "1e8c17641212b82e", "snapshot_0006.meta.json": "01103f1605c79cb3",
        "snapshot_0007.csv": "1e8c17641212b82e", "snapshot_0007.meta.json": "d4e274a660c4c62c",
        "snapshot_0008.csv": "1e8c17641212b82e", "snapshot_0008.meta.json": "a7da493b9dc28197",
        "snapshot_0009.csv": "1e8c17641212b82e", "snapshot_0009.meta.json": "3a367f1b154980fe",
        "snapshot_0010.csv": "1e8c17641212b82e", "snapshot_0010.meta.json": "6d71a9a9348e7a6d",
    },
    "evolve s1": {
        "stdout": "3192dca4f1b430b6", "run.json": "a5499d7aa75b1974",
        "snapshot_0001.csv": "a1d19de7d29bad04", "snapshot_0001.meta.json": "1e05ef9d4bba2ca5",
        "snapshot_0002.csv": "a1d19de7d29bad04", "snapshot_0002.meta.json": "515aa4f7abd3a837",
        "snapshot_0003.csv": "a1d19de7d29bad04", "snapshot_0003.meta.json": "75c982cfea709b8b",
        "snapshot_0004.csv": "a1d19de7d29bad04", "snapshot_0004.meta.json": "b10b956760d4c105",
    },
    "evolve s1 once": {
        "stdout": "e00a751e29365d2e", "run.json": "c7ead505de77694b",
        "snapshot_0001.csv": "8cf7e2ac92875159", "snapshot_0001.meta.json": "8f3327597912bf89",
    },
    "evolve s2": {
        "stdout": "3192dca4f1b430b6", "run.json": "4c7537511d865206",
        "snapshot_0001.csv": "aa007977b79bd74c", "snapshot_0001.meta.json": "a4b0522f5e5c3e45",
        "snapshot_0002.csv": "aa007977b79bd74c", "snapshot_0002.meta.json": "ebb940cec487bfe7",
        "snapshot_0003.csv": "aa007977b79bd74c", "snapshot_0003.meta.json": "3a2e7b3e2a36db6c",
        "snapshot_0004.csv": "aa007977b79bd74c", "snapshot_0004.meta.json": "38364bfdcc2715ee",
    },
    "evolve s2 once": {
        "stdout": "e00a751e29365d2e", "run.json": "ac482d28ae82acc8",
        "snapshot_0001.csv": "30ef010c79fae6dc", "snapshot_0001.meta.json": "3665667333ffcc43",
    },
    "evolve s3": {
        "stdout": "3192dca4f1b430b6", "run.json": "80cff3d15e4620c7",
        "snapshot_0001.csv": "cf6e0127c24e5f5c", "snapshot_0001.meta.json": "362ee85e01d0141d",
        "snapshot_0002.csv": "cf6e0127c24e5f5c", "snapshot_0002.meta.json": "e0a8a213e3e0da34",
        "snapshot_0003.csv": "cf6e0127c24e5f5c", "snapshot_0003.meta.json": "33a3cbd34e3ace1f",
        "snapshot_0004.csv": "cf6e0127c24e5f5c", "snapshot_0004.meta.json": "8a5536cc45b9a758",
    },
    "evolve s3 once": {
        "stdout": "e00a751e29365d2e", "run.json": "9b850ce33162ad10",
        "snapshot_0001.csv": "7a80820df669f1e5", "snapshot_0001.meta.json": "94a49bd56b8a5888",
    },
    "info fig4": {
        "stdout": "40772362ee11bd91",
    },
    "info s1": {
        "stdout": "fde7e8afb00582d3",
    },
    "info s2": {
        "stdout": "b8ccfeddafb2a46c",
    },
    "info s3": {
        "stdout": "7f60cee6f2674c8c",
    },
    "matrices fig4": {
        "stdout": "b61a955f148ae711", "adjacency.csv": "a2fe7770774784f4",
        "edge_degree.csv": "6b3ea46acc759680", "edge_weight_sum.csv": "6b3ea46acc759680",
        "incidence.csv": "2a609978af0fe26a", "laplacian.csv": "623f344e6e273433",
        "position_laplacian.csv": "8ddd4b999dfe0155", "vertex_degree.csv": "8745a1be56405d1f",
    },
    "matrices m1": {
        "stdout": "b61a955f148ae711", "adjacency.csv": "68ce88a27731d15d",
        "edge_degree.csv": "9c98fe4cad4f75cd", "edge_weight_sum.csv": "ad1ee2cf4c091a24",
        "incidence.csv": "b3c67746e840671e", "laplacian.csv": "54fe99cd5a21b155",
        "position_laplacian.csv": "b8a52dc8d515fc63", "vertex_degree.csv": "6e8ec479f7e09d88",
    },
    "matrices m2": {
        "stdout": "b61a955f148ae711", "adjacency.csv": "9e92b42b4b2b4763",
        "edge_degree.csv": "982baf3ce4e17a64", "edge_weight_sum.csv": "b903f2265e060426",
        "incidence.csv": "6182856fda739bbf", "laplacian.csv": "b27d78b6a0eb8ff1",
        "position_laplacian.csv": "c041738a966c59c7", "vertex_degree.csv": "fe732db0aa542d93",
    },
    "matrices m3": {
        "stdout": "b61a955f148ae711", "adjacency.csv": "986ed58b7a90554f",
        "edge_degree.csv": "ea2619fb3418e645", "edge_weight_sum.csv": "46f9efc76e4b4c32",
        "incidence.csv": "e337aa8f6e8a71cb", "laplacian.csv": "bea4da033b5b6899",
        "position_laplacian.csv": "d1e30ff78bab25e1", "vertex_degree.csv": "878452de26f952d7",
    },
}


@pytest.mark.parametrize("name", sorted(DIGEST_RUNS))
def test_cpu_independent_outputs_match_the_digest_table(name, tmp_path):
    """Every byte of ``info``, integer-weight ``matrices``, ``encode`` and hypergraph-mode
    ``evolve`` at ``--k-default 0`` against a committed table; a change that moves any of
    them on purpose updates the table and lists each moved output.

    Only outputs whose bytes do not depend on the CPU are pinned.  Known to depend on it,
    and left out here: ``evolve --physical`` and ``wigner-transform`` (numpy's SIMD level
    changes the bits of real ``np.exp``, complex multiply and complex ``np.abs``, and the
    Wigner transform's momentum sum is a BLAS dgemm), and the three Gram CSVs
    (``adjacency.csv``, ``laplacian.csv``, ``position_laplacian.csv``) of a document with
    fractional weights, whose dgemm sums round by the BLAS kernel.  Integer weights keep
    every Gram sum exact, whatever the kernel.  CI runs this table on arm64 too.
    """
    assert digest_run(name, tmp_path) == DIGESTS[name]


# The table's runs checked again in child processes under other CPU settings.
CPU_RUNS = ("info fig4", "matrices fig4", "matrices m1", "encode s1 partition",
            "evolve fig4", "evolve s1", "evolve s1 once")
CPU_CHILD = """
import json, tempfile
from pathlib import Path
from test_cli import CPU_RUNS, digest_run
digests = {}
with tempfile.TemporaryDirectory() as tmp:
    for i, name in enumerate(CPU_RUNS):
        (root := Path(tmp, str(i))).mkdir()
        digests[name] = digest_run(name, root)
print(json.dumps(digests))
"""


def cpu_settings() -> list[dict[str, str]]:
    """numpy's dispatch groups found available here, disabled cumulatively from the top; then
    two OpenBLAS kernel types where numpy's OpenBLAS is an x86-64 ``DYNAMIC_ARCH`` build."""
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    except ImportError:  # numpy 1.x
        from numpy.core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    groups = [g for g in __cpu_dispatch__ if __cpu_features__.get(g)]
    if not groups:
        return []
    envs = [{"NPY_DISABLE_CPU_FEATURES": " ".join(groups[k:])} for k in reversed(range(len(groups)))]
    blas = getattr(np.__config__, "CONFIG", {}).get("Build Dependencies", {}).get("blas", {})
    if "DYNAMIC_ARCH" in blas.get("openblas configuration", "") and platform.machine() in ("x86_64", "AMD64"):
        envs += [{"OPENBLAS_CORETYPE": core} for core in ("Haswell", "Prescott")]
    return envs


def test_pinned_outputs_do_not_move_with_the_cpu(tmp_path):
    """``CPU_RUNS`` under each of ``cpu_settings``, one child process per setting at one
    BLAS thread, against the digest table: the standing check that these bytes do not rest
    on numpy's SIMD level or on OpenBLAS's kernel type."""
    envs = cpu_settings()
    if not envs:
        pytest.skip("numpy dispatches no SIMD group above its baseline here")
    path = [str(Path(formats.__file__).parents[1]), str(Path(__file__).parent),
            *filter(None, os.environ.get("PYTHONPATH", "").split(os.pathsep))]
    base = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "PYTHONPATH": os.pathsep.join(path)}

    def child(env: dict[str, str]) -> subprocess.CompletedProcess:
        return subprocess.run([sys.executable, "-c", CPU_CHILD], env={**base, **env}, cwd=tmp_path,
                              capture_output=True, text=True, timeout=120)

    with ThreadPoolExecutor(max_workers=2) as pool:
        done = list(pool.map(child, envs))
    expected = {name: DIGESTS[name] for name in CPU_RUNS}
    for env, run in zip(envs, done):
        assert run.returncode == 0, (env, run.stderr)
        assert json.loads(run.stdout) == expected, env
