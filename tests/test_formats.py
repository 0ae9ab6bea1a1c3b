import json
import math

import numpy as np
import pytest

from hyperphase import (
    Hypergraph,
    QubitStateVector,
    Wavefunction,
    encode_hypergraph,
    gaussian_wavefunction,
    make_grid,
    momentum_laplacian,
    vertex_degree_matrix,
    wigner_transform_pure,
)
from hyperphase import formats

FIG4_DOC = """
{
  "vertices": 4,
  "edges": [
    {"members": [1, 2, 3], "weight": 1},
    {"members": [2, 3, 4], "weight": 2},
    {"members": [1, 4], "weight": 3}
  ]
}
"""


def test_parse_fig4_document():
    h = formats.parse_hypergraph(FIG4_DOC)
    assert np.array_equal(vertex_degree_matrix(h), np.diag([4.0, 3.0, 3.0, 5.0]))


def test_parse_edgeless_document():
    h = formats.parse_hypergraph('{"vertices": 2, "edges": []}')
    assert h.n_vertices == 2 and h.n_edges == 0


def test_parse_default_weight_is_one():
    h = formats.parse_hypergraph('{"vertices": 2, "edges": [{"members": [1]}]}')
    assert h.hyperedges[0][1] == 1.0


def test_parse_member_out_of_range_names_location():
    doc = '{"vertices": 4, "edges": [{"members": [1]}, {"members": [2, 5]}]}'
    with pytest.raises(ValueError, match=r"edges\[1\]\.members\[1\].*5"):
        formats.parse_hypergraph(doc)


@pytest.mark.parametrize(
    "doc,pattern",
    [
        ("{not json", "malformed JSON"),
        ("[1,2]", "document root"),
        ('{"edges": []}', "vertices"),
        ('{"vertices": 0}', "vertices"),
        ('{"vertices": 2, "edges": [{"members": [1], "weight": 0}]}', r"edges\[0\]\.weight"),
        ('{"vertices": 2, "edges": [{"members": [1], "weight": -3}]}', r"edges\[0\]\.weight"),
        ('{"vertices": 2, "edges": [{"members": [1], "weight": true}]}', r"edges\[0\]\.weight"),
        ('{"vertices": 2, "edges": [{"weight": 1}]}', r"edges\[0\].*members"),
        ('{"vertices": 2, "edges": [{"members": [1.5]}]}', r"members\[0\]"),
        ('{"vertices": 2, "vertex_weights": [1], "edges": []}', "vertex_weights"),
        ('{"vertices": 2, "vertex_weights": [1, 0], "edges": []}', r"vertex_weights\[1\]"),
    ],
)
def test_parse_rejections(doc, pattern):
    with pytest.raises(ValueError, match=pattern):
        formats.parse_hypergraph(doc)


def test_round_trip_identity(fig4):
    assert formats.parse_hypergraph(formats.serialize_hypergraph(fig4)) == fig4
    weighted = Hypergraph(
        3, [({1, 3}, 0.75), (set(), 2.5)], vertex_weights=[0.5, 1.25, 3.0]
    )
    assert formats.parse_hypergraph(formats.serialize_hypergraph(weighted)) == weighted


def test_state_dump_round_trip(fig4):
    state = encode_hypergraph(fig4)
    text = formats.dump_state(state)
    lines = text.strip().split("\n")
    assert len(lines) == 16
    assert lines[0].split() == ["0000", "0.25", "0"]
    back = formats.parse_state(text)
    assert back.n_qubits == 4
    assert np.array_equal(back.amplitudes, state.amplitudes)


def test_parse_state_rejects_bad_dump():
    with pytest.raises(ValueError, match="empty"):
        formats.parse_state("")
    with pytest.raises(ValueError, match="expected 2"):
        formats.parse_state("0 1 0\n")
    with pytest.raises(ValueError, match="bitstring"):
        formats.parse_state("2x 1 0\n01 0 0\n10 0 0\n11 0 0\n")
    with pytest.raises(ValueError, match="21-qubit.*capped at 20"):
        formats.parse_state("0" * 21 + " 1 0\n")


def test_matrix_csv_layout(tmp_path, fig4):
    path = tmp_path / "laplacian.csv"
    labels = [f"v{i}" for i in range(1, 5)]
    formats.write_matrix_csv(path, momentum_laplacian(fig4), labels, labels)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == ",v1,v2,v3,v4"
    assert lines[1] == "v1,4,-1,-1,-3"


def test_snapshot_rows_run_from_p_max(tmp_path):
    grid = make_grid(4, 3, (0, 4), (0, 3))
    values = np.arange(12, dtype=float).reshape(3, 4)  # row 0 = lowest p
    from hyperphase import WignerField

    field = WignerField(grid, values, t=0.5, field_mode=True)
    csv_path, meta_path = formats.write_snapshot(tmp_path, 7, field)
    assert csv_path.name == "snapshot_0007.csv"
    rows = csv_path.read_text().strip().split("\n")
    assert rows[0] == "8,9,10,11"  # top row is the p_max slice
    assert rows[-1] == "0,1,2,3"
    meta = json.loads(meta_path.read_text())
    assert meta["n_q"] == 4 and meta["n_p"] == 3
    assert meta["t"] == 0.5 and meta["field_mode"] is True


def test_wavefunction_round_trip(tmp_path):
    grid = make_grid(64, 64, (-8, 8), (-8, 8))
    psi = gaussian_wavefunction(grid, sigma=1.2, p0=0.7)
    path = tmp_path / "psi.csv"
    formats.write_wavefunction(path, psi)
    back = formats.read_wavefunction(path)
    assert np.array_equal(back.samples, psi.samples)
    assert back.q_min == pytest.approx(psi.q_min, abs=1e-12)
    assert back.q_max == pytest.approx(psi.q_max, abs=1e-12)
    w1 = wigner_transform_pure(psi, grid)
    grid_back = make_grid(64, 64, (back.q_min, back.q_max), (-8, 8))
    w2 = wigner_transform_pure(back, grid_back)
    assert np.max(np.abs(w1.values - w2.values)) <= 1e-12


def test_read_wavefunction_rejects_irregular_axis(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("q,re,im\n0,1,0\n1,1,0\n3,1,0\n")
    with pytest.raises(ValueError, match="uniform"):
        formats.read_wavefunction(path)


def test_fmt17_round_trips_floats():
    for x in (0.25, 1 / 3, math.pi, 2**-0.5, -1.7e-18):
        assert float(formats.fmt17(x)) == x


# --- golden bytes: every writer against per-element format(x, ".17g") ----------

# Signed zeros, the smallest subnormal, the extremes, inexact decimals.
SPECIAL = [-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308,
           0.1, 1 / 3, -1 / 3, 1.0, -1.0]


def ref17(x) -> str:
    return format(float(x), ".17g")


def golden_values(shape, seed: int) -> np.ndarray:
    """Specials, long runs of one repeated value, and random floats of every scale."""
    rng = np.random.default_rng(seed)
    special = rng.choice(SPECIAL, size=shape)
    runs = np.full(shape, 0.7071067811865476)
    scaled = rng.standard_normal(shape) * 10.0 ** rng.integers(-300, 300, size=shape)
    pick = rng.integers(0, 3, size=shape)
    return np.choose(pick, [special, runs, scaled])


def golden_state(n: int, seed: int) -> np.ndarray:
    """Unit-norm amplitudes: signed zeros, subnormals, one repeated value, random ones."""
    rng = np.random.default_rng(seed)
    size = 2**n
    kind = rng.integers(0, 3, size=size)  # 0: signed zero, 1: repeated value, 2: random
    kind[:5] = 0
    re = np.where(rng.random(size) < 0.5, -0.0, 0.0)
    im = np.where(rng.random(size) < 0.5, -0.0, 0.0)
    re[kind == 1] = 0.5 * 2.0 ** (-n / 2)
    re[:5] = [0.1, 0.0, -0.0, 5e-324, -0.0]
    im[:5] = [0.0, 1 / 3, 5e-324, -0.0, -5e-324]
    budget = 1.0 - np.sum(re**2 + im**2)
    noise = rng.standard_normal((2, int(np.sum(kind == 2))))
    noise *= np.sqrt(budget / np.sum(noise**2))
    re[kind == 2], im[kind == 2] = noise
    amps = np.empty(size, dtype=np.complex128)
    amps.real, amps.imag = re, im  # bit-exact parts, signed zeros included
    return amps


def test_fmt17_matches_format_spec_on_any_bits():
    bits = np.random.default_rng(0).integers(0, 2**64, size=20000, dtype=np.uint64)
    values = [*SPECIAL, math.inf, -math.inf, math.nan, *bits.view(np.float64).tolist()]
    assert [formats.fmt17(x) for x in values] == [ref17(x) for x in values]


def test_matrix_csv_golden_bytes(tmp_path):
    rng = np.random.default_rng(5)
    mat = golden_values((700, 37), 3)
    mat[5, :4] = rng.integers(0, 2**64, size=4, dtype=np.uint64).view(np.float64)
    mat[6, :3] = [math.inf, -math.inf, math.nan]
    rows = [f"r{i}" for i in range(mat.shape[0])]
    cols = [f"c{j}" for j in range(mat.shape[1])]
    path = tmp_path / "m.csv"
    formats.write_matrix_csv(path, mat, rows, cols)
    ref = "".join(
        [",".join([""] + cols) + "\n"]
        + [",".join([r] + [ref17(x) for x in row]) + "\n" for r, row in zip(rows, mat)]
    )
    assert path.read_bytes() == ref.encode()


def test_matrix_csv_one_dimensional_and_zero_columns(tmp_path):
    path = tmp_path / "m.csv"
    formats.write_matrix_csv(path, np.array(SPECIAL), ["r"], [f"c{j}" for j in range(12)])
    header = ",".join([""] + [f"c{j}" for j in range(12)])
    assert path.read_bytes() == (header + "\nr," + ",".join(map(ref17, SPECIAL)) + "\n").encode()
    formats.write_matrix_csv(path, np.zeros((2, 0)), ["v1", "v2"], [])
    assert path.read_bytes() == b"\nv1\nv2\n"


def test_snapshot_golden_bytes(tmp_path):
    from hyperphase import WignerField

    values = golden_values((90, 130), 7)
    field = WignerField(make_grid(130, 90, (-1, 1), (-2, 2)), values, t=0.0, field_mode=True)
    csv_path, _ = formats.write_snapshot(tmp_path, 0, field)
    ref = "".join(",".join(ref17(x) for x in row) + "\n" for row in values[::-1])
    assert csv_path.read_bytes() == ref.encode()


def test_dump_state_golden_bytes():
    n = 13
    state = QubitStateVector(n, golden_state(n, 11))
    ref = "".join(
        f"{i:0{n}b} {ref17(a.real)} {ref17(a.imag)}\n" for i, a in enumerate(state.amplitudes)
    )
    assert formats.dump_state(state) == ref


def test_wavefunction_golden_bytes(tmp_path):
    n_q = 2**12
    psi = Wavefunction(0.0, float(n_q), golden_state(12, 13))  # dq = 1
    path = tmp_path / "psi.csv"
    formats.write_wavefunction(path, psi)
    q = psi.q_min + (np.arange(n_q) + 0.5) * psi.dq
    ref = "q,re,im\n" + "".join(
        f"{ref17(qi)},{ref17(a.real)},{ref17(a.imag)}\n" for qi, a in zip(q, psi.samples)
    )
    assert path.read_bytes() == ref.encode()
