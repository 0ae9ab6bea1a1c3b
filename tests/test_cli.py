import json
import warnings
from pathlib import Path

import numpy as np
import pytest

from hyperphase import formats, gaussian_wavefunction, make_grid
from hyperphase.cli import main

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
    out = capsys.readouterr().out
    assert "vertices: 4" in out
    assert "e1: {1,2,3} weight 1" in out
    assert "vertex degrees: 4, 3, 3, 5" in out


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
    part1 = formats.parse_state((out / "part_1.txt").read_text())
    assert np.array_equal(part1.amplitudes, np.array([0.5, 0.5, 0.5, -0.5], dtype=complex))


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
    state = formats.parse_state((out / "state.txt").read_text())
    assert np.array_equal(
        state.amplitudes, np.array([2**-0.5, -(2**-0.5)], dtype=complex)
    )


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


@pytest.mark.parametrize(
    "text,command,message",
    [
        (HUGE_SUMS_DOC, ["matrices"], "error: edge weights"),
        (HUGE_SUMS_DOC, ["evolve", "--dt", "0.1", "--steps", "2"], "error: edge weights"),
        (HUGE_GRID_DOC, ["evolve", "--dt", "0.1", "--steps", "2"],
         "error: phase-space cell area"),
        (HUGE_GRID_DOC, ["evolve", "--dt", "0.1", "--steps", "2", "--margin", "1"],
         "error: phase-space bounds must be finite"),
    ],
    ids=["command0", "command1", "command2", "command3"],
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


def test_evolve_physical_needs_time(tmp_path, capsys):
    assert main(["evolve", "--physical", "gaussian", "--out", str(tmp_path / "x")]) == 1
    assert "--t" in capsys.readouterr().err


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
