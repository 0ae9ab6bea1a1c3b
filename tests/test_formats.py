import decimal
import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hyperphase import (
    Hypergraph,
    QubitStateVector,
    Wavefunction,
    WignerField,
    apply_ckz,
    encode_hypergraph,
    gaussian_wavefunction,
    make_grid,
    momentum_laplacian,
    vertex_degree_matrix,
    wigner_transform_pure,
)
from hyperphase import formats
from hyperphase.cli import main

from conftest import dump_amplitudes, float_hypergraphs, state_dump, traced_peak

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


# Refusals of hypergraph documents, as the parser and the CLI word them: each
# single fault of vertices, vertex_weights and edges, then several at once.  The
# parser checks the document's shape and Hypergraph its values, each in document
# order, so with several faults the first one in the document is named.
MESSAGES = [
    ('{not json',
     'malformed JSON: Expecting property name enclosed in double quotes: line 1 column 2 (char 1)'),
    ('[1,2]',
     'document root: expected an object, got list'),
    ('{"edges": []}',
     "document: missing required key 'vertices'"),
    ('{"vertices": 0}',
     'vertices: expected an integer in 1..16777216, got 0'),
    ('{"vertices": 2, "edges": [{"members": [1], "weight": 0}]}',
     'edges[0].weight: expected a positive number, got 0'),
    ('{"vertices": 2, "edges": [{"members": [1], "weight": -3}]}',
     'edges[0].weight: expected a positive number, got -3'),
    ('{"vertices": 2, "edges": [{"members": [1], "weight": true}]}',
     'edges[0].weight: expected a number, got True'),
    ('{"vertices": 2, "edges": [{"weight": 1}]}',
     "edges[0]: missing required key 'members'"),
    ('{"vertices": 2, "edges": [{"members": [1.5]}]}',
     'edges[0].members[0]: expected an integer, got 1.5'),
    ('{"vertices": 2, "vertex_weights": [1], "edges": []}',
     'vertex_weights: expected 2 entries, got 1'),
    ('{"vertices": 2, "vertex_weights": [1, 0], "edges": []}',
     'vertex_weights[1]: expected a positive number, got 0'),
    ('{"vertices": 1, "edges": [{"members": [1], "weight": 1e999}]}',
     'edges[0].weight: expected a finite number, got inf'),
    ('{"vertices": 1, "vertex_weights": [NaN]}',
     'vertex_weights[0]: expected a finite number, got nan'),
    ('{"vertices": 1, "vertex_weights": {"1": 2}}',
     'vertex_weights: expected a list'),
    ('{"vertices": 1, "edges": {"members": [1]}}',
     'edges: expected a list'),
    ('{"vertices": 1, "edges": [{"members": [1]}, [1]]}',
     'edges[1]: expected an object'),
    ('{"vertices": 1, "edges": [{"members": 1}]}',
     'edges[0].members: expected a list'),
    ('{"vertices": "3"}',
     "vertices: expected an integer, got '3'"),
    ('{"vertices": 2.0}',
     'vertices: expected an integer, got 2.0'),
    ('{"vertices": true}',
     'vertices: expected an integer, got True'),
    ('{"vertices": null}',
     'vertices: expected an integer, got None'),
    ('{"vertices": -1}',
     'vertices: expected an integer in 1..16777216, got -1'),
    ('{"vertices": 2, "vertex_weights": "12"}',
     'vertex_weights: expected a list'),
    ('{"vertices": 2, "vertex_weights": [1, "2"]}',
     "vertex_weights[1]: expected a number, got '2'"),
    ('{"vertices": 2, "vertex_weights": [1, true]}',
     'vertex_weights[1]: expected a number, got True'),
    ('{"vertices": 2, "vertex_weights": [1, null]}',
     'vertex_weights[1]: expected a number, got None'),
    ('{"vertices": 2, "vertex_weights": [1, -Infinity]}',
     'vertex_weights[1]: expected a finite number, got -inf'),
    ('{"vertices": 2, "vertex_weights": [-0.5, 1]}',
     'vertex_weights[0]: expected a positive number, got -0.5'),
    ('{"vertices": 2, "vertex_weights": [1, 2, 3]}',
     'vertex_weights: expected 2 entries, got 3'),
    ('{"vertices": 2, "vertex_weights": [[1], 1]}',
     'vertex_weights[0]: expected a number, got [1]'),
    ('{"vertices": 2, "edges": [{"members": [3]}]}',
     'edges[0].members[0]: expected an integer in 1..2, got 3'),
    ('{"vertices": 2, "edges": [{"members": [0]}]}',
     'edges[0].members[0]: expected an integer in 1..2, got 0'),
    ('{"vertices": 2, "edges": [{"members": [1, -2]}]}',
     'edges[0].members[1]: expected an integer in 1..2, got -2'),
    ('{"vertices": 2, "edges": [{"members": [true]}]}',
     'edges[0].members[0]: expected an integer, got True'),
    ('{"vertices": 2, "edges": [{"members": ["1"]}]}',
     "edges[0].members[0]: expected an integer, got '1'"),
    ('{"vertices": 2, "edges": [{"members": [null]}]}',
     'edges[0].members[0]: expected an integer, got None'),
    ('{"vertices": 2, "edges": [{"members": [2.0]}]}',
     'edges[0].members[0]: expected an integer, got 2.0'),
    ('{"vertices": 2, "edges": [{"members": [1], "weight": null}]}',
     'edges[0].weight: expected a number, got None'),
    ('{"vertices": 2, "edges": [{"members": [1], "weight": "2"}]}',
     "edges[0].weight: expected a number, got '2'"),
    ('{"vertices": 2, "edges": [{"members": [1], "weight": Infinity}]}',
     'edges[0].weight: expected a finite number, got inf'),
    ('{"vertices": 2, "edges": [{"members": [1], "weight": NaN}]}',
     'edges[0].weight: expected a finite number, got nan'),
    ('{"vertices": 2, "edges": [{"members": [1], "weight": [1]}]}',
     'edges[0].weight: expected a number, got [1]'),
    ('{"vertices": 2, "edges": null}',
     'edges: expected a list'),
    ('{"vertices": 2, "edges": [{"members": [1]}, {"members": [1, 2], "weight": -0.0}]}',
     'edges[1].weight: expected a positive number, got -0.0'),
    # several faults: the first in document order is named
    ('{"vertices": 0, "vertex_weights": 5}',
     'vertices: expected an integer in 1..16777216, got 0'),
    ('{"vertices": 0, "edges": 5}',
     'vertices: expected an integer in 1..16777216, got 0'),
    ('{"vertices": 2, "vertex_weights": [0, 1], "edges": 5}',
     'vertex_weights[0]: expected a positive number, got 0'),
    ('{"vertices": 2, "vertex_weights": [1], "edges": [{"members": [9]}]}',
     'vertex_weights: expected 2 entries, got 1'),
    ('{"vertices": 2, "edges": [{"members": [3], "weight": 0}]}',
     'edges[0].members[0]: expected an integer in 1..2, got 3'),
    ('{"vertices": 2, "edges": [{"members": [1], "weight": 0}, {"members": 5}]}',
     'edges[0].weight: expected a positive number, got 0'),
    ('{"vertices": 2, "edges": [{"members": [5, "x"]}]}',
     'edges[0].members[0]: expected an integer in 1..2, got 5'),
    ('{"vertices": 2, "edges": [{"members": ["x", 5]}]}',
     "edges[0].members[0]: expected an integer, got 'x'"),
    ('{"vertices": 2, "vertex_weights": [1, 1], "edges": [5, {"members": [1]}]}',
     'edges[0]: expected an object'),
]


@pytest.mark.parametrize("doc, message", MESSAGES)
def test_refusal_messages_match_the_table(doc, message, tmp_path, capsys):
    """CLI refusal messages stay byte for byte, on every platform CI runs."""
    with pytest.raises(ValueError) as info:
        formats.parse_hypergraph(doc)
    assert str(info.value) == message
    path = tmp_path / "h.json"
    path.write_text(doc)
    assert main(["info", str(path)]) == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_round_trip_identity(fig4):
    assert formats.parse_hypergraph(formats.serialize_hypergraph(fig4)) == fig4
    weighted = Hypergraph(
        3, [({1, 3}, 0.75), (set(), 2.5)], vertex_weights=[0.5, 1.25, 3.0]
    )
    assert formats.parse_hypergraph(formats.serialize_hypergraph(weighted)) == weighted


@settings(deadline=None)
@given(float_hypergraphs())
def test_property_document_round_trip(h):
    assert formats.parse_hypergraph(formats.serialize_hypergraph(h)) == h


def test_state_dump_round_trip(fig4):
    state = encode_hypergraph(fig4)
    dump = state_dump(state)
    lines = dump.decode("ascii").strip().split("\n")
    assert len(lines) == 16
    assert lines[0].split() == ["0000", "0.25", "0"]
    assert np.array_equal(dump_amplitudes(dump), state.amplitudes)


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


def test_wavefunction_file_bounds_are_within_one_ulp(tmp_path):
    # the file holds cell centers, not bounds: read_wavefunction rebuilds q_min and q_max from the
    # first spacing, and on this window 186 of the 497 sizes read a bound back off by ulp(8) or less
    path = tmp_path / "psi.csv"
    for n in range(16, 513):
        psi = gaussian_wavefunction(make_grid(n, 2, (-8, 8), (-8, 8)), sigma=1.2)
        formats.write_wavefunction(path, psi)
        back = formats.read_wavefunction(path)
        for got, bound in ((back.q_min, psi.q_min), (back.q_max, psi.q_max)):
            assert abs(got - bound) <= math.ulp(bound), (n, got, bound)


def test_wavefunction_file_keeps_signed_zeros(tmp_path):
    # each sample was read as re + 1j * im, which turned the -0 parts into 0
    text = "q,re,im\n0.5,0.5,-0\n1.5,-0,0.5\n2.5,-0.5,0\n3.5,0.5,-0\n"
    path, back = tmp_path / "psi.csv", tmp_path / "back.csv"
    path.write_text(text)
    formats.write_wavefunction(back, formats.read_wavefunction(path))
    assert back.read_text() == text


def test_read_wavefunction_rejects_irregular_axis(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("q,re,im\n0,1,0\n1,1,0\n3,1,0\n")
    with pytest.raises(ValueError, match="uniform"):
        formats.read_wavefunction(path)


@pytest.mark.parametrize("name, text, message", [
    ("h.json", '{"vertices": 1, "edges": [{"members": [1], "weight": 1e999}]}',
     "edges[0].weight: expected a finite number, got inf"),
    ("h.json", '{"vertices": 1, "vertex_weights": [NaN]}',
     "vertex_weights[0]: expected a finite number, got nan"),
    ("h.json", '{"vertices": 1, "vertex_weights": {"1": 2}}', "vertex_weights: expected a list"),
    ("h.json", '{"vertices": 1, "edges": {"members": [1]}}', "edges: expected a list"),
    ("h.json", '{"vertices": 1, "edges": [{"members": [1]}, [1]]}',
     "edges[1]: expected an object"),
    ("h.json", '{"vertices": 1, "edges": [{"members": 1}]}', "edges[0].members: expected a list"),
    ("psi.csv", "q,re,im\n0.5,1,0\n", "PATH: wavefunction file needs at least 2 samples"),
    ("psi.csv", "q,re,im\n0.5,1,0\n1.5,1\n", "PATH:3: expected 'q,re,im'"),
    ("psi.csv", "q,re,im\n\n0.5,1,0\n\n1.5,x,0\n", "PATH:5: non-numeric value"),
    ("psi.csv", "0.5,1,0\n1.5,one,0\n", "PATH:2: non-numeric value"),
])
def test_bad_input_is_named(name, text, message, tmp_path):
    path = tmp_path / name
    path.write_text(text)
    with pytest.raises(ValueError) as info:
        if name == "h.json":
            formats.parse_hypergraph(path.read_text())
        else:
            formats.read_wavefunction(path)
    assert str(info.value) == message.replace("PATH", str(path))


def test_fmt17_round_trips_floats():
    for x in (0.25, 1 / 3, math.pi, 2**-0.5, -1.7e-18):
        assert float(formats.fmt17(x)) == x


# --- golden bytes: every writer against per-element format(x, ".17g") ----------

# Signed zeros, the smallest subnormal, the extremes, inexact decimals.
SPECIAL = [-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308,
           0.1, 1 / 3, -1 / 3, 1.0, -1.0]


def ref17(x) -> str:
    return format(float(x), ".17g")


def assert_same_lines(data: bytes, ref: str) -> None:
    """data == ref.encode(), compared line by line: a failing list compare names the
    first differing line at once, where a diff of two whole texts can stall."""
    assert data.split(b"\n") == ref.encode().split(b"\n")


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
    assert_same_lines(path.read_bytes(), ref)


def test_matrix_csv_one_dimensional_and_zero_columns(tmp_path):
    path = tmp_path / "m.csv"
    formats.write_matrix_csv(path, np.array(SPECIAL), ["r"], [f"c{j}" for j in range(12)])
    header = ",".join([""] + [f"c{j}" for j in range(12)])
    assert path.read_bytes() == (header + "\nr," + ",".join(map(ref17, SPECIAL)) + "\n").encode()
    formats.write_matrix_csv(path, np.zeros((2, 0)), ["v1", "v2"], [])
    assert path.read_bytes() == b"\nv1\nv2\n"
    # no cells, so each line is its label and a newline, over two blocks of rows
    rows = [f"v{i}" for i in range(formats._BLOCK_CELLS + 5)]
    formats.write_matrix_csv(path, np.zeros((len(rows), 0)), rows, [])
    assert path.read_bytes() == ("\n" + "".join(f"{r}\n" for r in rows)).encode()


def test_snapshot_golden_bytes(tmp_path):
    values = golden_values((90, 130), 7)
    field = WignerField(make_grid(130, 90, (-1, 1), (-2, 2)), values, t=0.0, field_mode=True)
    csv_path, _ = formats.write_snapshot(tmp_path, 0, field)
    ref = "".join(",".join(ref17(x) for x in row) + "\n" for row in values[::-1])
    assert_same_lines(csv_path.read_bytes(), ref)


def test_matrix_csv_golden_bytes_with_labels_and_signed_zeros(tmp_path, monkeypatch):
    # (re, im) rows of golden amplitudes under bitstring labels: signed zeros and
    # subnormals, in blocks with enough distinct values for the batch kernel
    n = 13
    pairs = golden_state(n, 11).view(np.float64).reshape(-1, 2)
    rows = [f"{i:0{n}b}" for i in range(2**n)]
    sizes = []
    batch = formats._fmt17_batch
    monkeypatch.setattr(formats, "_fmt17_batch", lambda x: sizes.append(x.size) or batch(x))
    path = tmp_path / "pairs.csv"
    formats.write_matrix_csv(path, pairs, rows, ["re", "im"])
    assert len(sizes) == 2**n // (formats._BLOCK_CELLS // 2)  # every block took the kernel
    assert min(sizes) >= formats._BATCH_MIN_DISTINCT
    ref = ",re,im\n" + "".join(f"{r},{ref17(re)},{ref17(im)}\n" for r, (re, im) in zip(rows, pairs))
    assert_same_lines(path.read_bytes(), ref)


@st.composite
def hypergraph_documents(draw):
    """Up to 13 qubits with empty edges allowed, and whether to add the global gate."""
    n = draw(st.integers(1, 13))
    return n, draw(st.lists(st.sets(st.integers(1, n)), max_size=10)), draw(st.booleans())


def hypergraph_state(n: int, edges, global_gate: bool) -> QubitStateVector:
    state = encode_hypergraph(Hypergraph(n, [(e, 1.0) for e in edges]))
    # --with-global-gate negates |1...1>, whose imaginary part is then written '-0'
    return apply_ckz(state, range(1, n + 1)) if global_gate else state


def assert_dump_matches_reference(state: QubitStateVector) -> None:
    n = state.n_qubits
    dump = state_dump(state)
    ref = "".join(
        f"{i:0{n}b} {ref17(a.real)} {ref17(a.imag)}\n" for i, a in enumerate(state.amplitudes)
    )
    assert_same_lines(dump, ref)
    assert np.array_equal(dump_amplitudes(dump), state.amplitudes)


@settings(deadline=None, max_examples=40)
@given(hypergraph_documents())
@example((1, [], False))
@example((1, [{1}], True))
def test_dump_state_matches_per_line_reference(document):
    assert_dump_matches_reference(hypergraph_state(*document))


def test_dump_state_spans_blocks_with_global_gate():
    n = 13  # 2**13 rows: four blocks of _BLOCK_CELLS // 2 rows
    assert 2**n > formats._BLOCK_CELLS // 2
    state = hypergraph_state(n, [set(), {1, 2, 3}, {4, 13}, {7}], True)
    assert_dump_matches_reference(state)
    last = state_dump(state).decode("ascii").rsplit("\n", 2)[-2]
    assert last == f"{'1' * n} {ref17(-(2**-6.5))} -0"  # f(1...1) = 0, then the gate


def test_wavefunction_golden_bytes(tmp_path):
    n_q = 2**12
    psi = Wavefunction(0.0, float(n_q), golden_state(12, 13))  # dq = 1
    path = tmp_path / "psi.csv"
    formats.write_wavefunction(path, psi)
    q = psi.q_min + (np.arange(n_q) + 0.5) * psi.dq
    ref = "q,re,im\n" + "".join(
        f"{ref17(qi)},{ref17(a.real)},{ref17(a.imag)}\n" for qi, a in zip(q, psi.samples)
    )
    assert_same_lines(path.read_bytes(), ref)


# --- the batch kernel behind _distinct17 against format(x, ".17g") --------------

def assert_batch_exact(values) -> None:
    x = np.asarray(values, dtype=np.float64)
    table = formats._fmt17_batch(x)
    assert table.shape == (x.size, 32)
    texts = [row.tobytes().replace(b"\0", b"").decode("ascii") for row in table]
    assert texts == [ref17(v) for v in x.tolist()]


@settings(deadline=None)
@given(st.lists(st.floats(width=64), min_size=1, max_size=300))
def test_batch_matches_format_spec(values):
    assert_batch_exact(values)


def test_batch_matches_format_spec_on_any_bits():
    """The batch kernel's exactness rests on unfused IEEE double arithmetic and a log10
    estimate it corrects afterwards, so CI also runs this on arm64 and its libm.  Each text
    is built as four uint64 words declared little-endian ("<u8"), so its bytes would not
    change on a big-endian host either (no CI runner is one)."""
    bits = np.random.default_rng(1).integers(0, 2**64, size=20000, dtype=np.uint64)
    assert_batch_exact(bits.view(np.float64))


def neighbours(values, ulps: int = 2) -> np.ndarray:
    """Each value and its floats up to ``ulps`` steps below and above, both signs."""
    out = [np.asarray(values, dtype=np.float64)]
    for direction in (0.0, math.inf):
        step = out[0]
        for _ in range(ulps):
            step = np.nextafter(step, direction)
            out.append(step)
    both = np.concatenate(out)
    return np.concatenate([both, -both])


def test_batch_powers_of_ten_and_form_switch():
    # log10's estimate of the exponent is off by one just below some 10**k
    assert_batch_exact(neighbours([float(f"1e{k}") for k in range(-300, 300)]))
    # %g switches between fixed and exponent form at 1e-4 and 1e17
    assert_batch_exact(neighbours([1e-5, 1e-4, 1e16, 1e17, 9.9999999999999991e-05]))


def two_branch_scales() -> tuple[np.ndarray, ...]:
    """The kernel's scale table as first built, one branch per sign of s: hi of 10**s split
    in two halves, and lo, the rest, each correctly rounded from exact integers."""
    his, los = [], []
    for s in formats._SCALES:
        if s >= 0:
            hi = float(10**s)
            lo = float(10**s - int(hi))
        else:
            d = 10**-s
            hi = 1 / d
            num, den = hi.as_integer_ratio()
            lo = (den - num * d) / (den * d)
        his.append(hi)
        los.append(lo)
    return (*formats._veltkamp(np.array(his)), np.array(los))


def test_scale_tables_match_the_two_branch_oracle():
    """The table of scales 10**s rests on Python's correctly rounded int division, the same
    on every platform; this pins it bit for bit, on arm64 too."""
    for got, want in zip(formats._batch_tables()[:3], two_branch_scales(), strict=True):
        assert got.shape == (len(formats._SCALES),)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def layout17(x: float) -> tuple[int, int]:
    """The exponent e10 and the count of significant digits of x's "%.17g" text."""
    digits = decimal.Context(prec=17).plus(decimal.Decimal(x)).normalize()
    return digits.adjusted(), len(digits.as_tuple().digits)


def every_layout() -> list[float]:
    """For each %g form, fixed at each e10 in -4..16 or exponent with a 2- or 3-digit
    exponent of either sign, and for each count 1..17 of significant digits: a value
    of each sign whose text has that layout.  Found by drawing decimals of that many
    digits (the first and last nonzero) until the nearest float keeps them."""
    rng = np.random.default_rng(8)
    forms = [[e] for e in range(-4, 17)] + [range(-99, -4), range(17, 100),
                                            range(-279, -99), range(100, 280)]
    values = []
    for exponents in forms:
        for sig in range(1, 18):
            for _ in range(1000):
                e10 = int(rng.choice(exponents))
                digits = rng.integers(0, 10, size=sig)
                digits[[0, -1]] = rng.integers(1, 10, size=2)
                text = "".join(map(str, digits))
                x = float(f"{text[0]}.{text[1:]}e{e10}")
                if layout17(x) == (e10, sig):
                    values += [x, -x]
                    break
            else:
                raise AssertionError(f"no value with e10 in {exponents} and {sig} digits")
    return values


def test_batch_every_form_and_digit_count():
    # one value of each sign per row of the kernel's (form, significant digits) masks
    values = every_layout()
    assert len(values) == 25 * 17 * 2
    assert_batch_exact(values)


def rounding_ties() -> list[float]:
    """Floats m / 2**j whose 18-digit decimal ends in 5: each lies exactly halfway
    between two 17-digit decimals, and %g rounds it half to even."""
    ties = []
    for j in range(2, 26):
        low = -(-10**17 // 5**j) | 1
        for m in range(low, min(low + 40, 2**53), 2):
            if len(str(m * 5**j)) == 18:
                ties.append(m / 2**j)
    return ties


def test_batch_ties_go_to_the_template():
    ties = rounding_ties()
    assert 2.0**-25 in ties and len(ties) > 400
    assert_batch_exact(neighbours(ties, ulps=1))


def test_batch_large_integers_exponents_and_specials():
    assert_batch_exact(neighbours([2.0**53, 2.0**53 + 2, 2.0**60, 2.0**63, 2.0**64, 1e22, 1e23,
                                   12345678901234567890.0]))
    # three-digit exponents, and both ends of the kernel's range
    assert_batch_exact(neighbours([1e-100, 1e100, 1.5e-200, 2.5e250, 1e-280, 1e280, 1e-281,
                                   1e281]))
    # zeros, subnormals, the smallest normal, inf and nan
    assert_batch_exact(neighbours([0.0, 5e-324, 1e-310, 2.2250738585072014e-308]))
    assert_batch_exact([math.inf, -math.inf, math.nan, -0.0, 0.0, 1.7976931348623157e308])


def test_snapshot_golden_bytes_batch_path(tmp_path, monkeypatch):
    rng = np.random.default_rng(17)
    values = rng.standard_normal((64, 64)) * 10.0 ** rng.integers(-30, 30, size=(64, 64))
    values[0, :3] = [0.0, -0.0, 2.0**-25]
    sizes = []
    batch = formats._fmt17_batch
    monkeypatch.setattr(formats, "_fmt17_batch", lambda x: sizes.append(x.size) or batch(x))
    field = WignerField(make_grid(64, 64, (-1, 1), (-2, 2)), values, t=0.0, field_mode=True)
    csv_path, _ = formats.write_snapshot(tmp_path, 0, field)
    assert sizes and min(sizes) >= formats._BATCH_MIN_DISTINCT  # every block took the kernel
    ref = "".join(",".join(ref17(x) for x in row) + "\n" for row in values[::-1])
    assert_same_lines(csv_path.read_bytes(), ref)


def test_lines17_formats_repeating_blocks_once_and_others_in_place(tmp_path, monkeypatch):
    mat = np.concatenate([block_of_distinct(2048, 6), block_of_distinct(2049, 7)])
    assert [np.unique(block).size for block in np.split(mat, 2)] == [2048, 2049]
    sizes = []
    distinct17 = formats._distinct17
    monkeypatch.setattr(formats, "_distinct17", lambda bits: sizes.append(bits.size)
                        or distinct17(bits))
    rows, cols = [f"r{i}" for i in range(128)], [f"c{j}" for j in range(64)]
    formats.write_matrix_csv(tmp_path / "m.csv", mat, rows, cols)
    assert sizes == [2048, formats._BLOCK_CELLS]  # its distinct values, then every cell
    assert_same_lines((tmp_path / "m.csv").read_bytes(), matrix_csv_reference(mat, rows, cols))


def test_grown_blocks_reach_the_kernel_a_block_at_a_time(tmp_path, monkeypatch):
    """+0.0 rows grow the blocks to chunks; then a chunk of distinct values (formatted in
    place) and one of 6000 distinct values (formatted once, gathered) reach the kernel,
    in calls of at most _BLOCK_CELLS values each."""
    cols, block, chunk = 64, formats._BLOCK_CELLS, formats._CHUNK_CELLS
    zeros, distinct = np.zeros((block // cols, cols)), all_distinct((chunk // cols, cols), 31)
    values = all_distinct(6000, 32)
    repeated = np.random.default_rng(33).permutation(np.resize(values, chunk)).reshape(-1, cols)
    mat = np.concatenate([zeros, distinct, zeros, repeated, zeros, distinct[:5]])
    sizes, tables = [], []
    batch, distinct17 = formats._fmt17_batch, formats._distinct17
    monkeypatch.setattr(formats, "_fmt17_batch", lambda x: sizes.append(x.size) or batch(x))
    monkeypatch.setattr(formats, "_distinct17", lambda bits: tables.append(bits.size)
                        or distinct17(bits))
    rows, cols = [f"r{i}" for i in range(len(mat))], [f"c{j}" for j in range(cols)]
    formats.write_matrix_csv(tmp_path / "m.csv", mat, rows, cols)
    assert [size for size in tables if size > block] == [chunk, 6000]
    assert max(sizes) == block and sum(sizes) == chunk + 6000
    assert_same_lines((tmp_path / "m.csv").read_bytes(), matrix_csv_reference(mat, rows, cols))


# --- the CSV writers against a per-row ",".join(ref17) reference ----------------

TIES = rounding_ties()[::10]
LABEL_TEXT = st.text(st.characters(exclude_categories=["Cs"], exclude_characters="\0"), max_size=4)


@st.composite
def csv_matrices(draw):
    """A matrix drawn from a few floats, -0.0, subnormals and rounding ties, with a
    share of cells given their own random value: a block holds one distinct value,
    fewer than _BATCH_MIN_DISTINCT, or more.  Then a share of cells, up to nearly
    all, become 0.0 or -0.0.  Row labels may be any text but NUL."""
    rows, cols = draw(st.integers(0, 150)), draw(st.integers(0, 70))
    pool = draw(st.lists(st.floats(width=64), min_size=1, max_size=8)) + SPECIAL + TIES
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mat = rng.choice(pool, size=(rows, cols))
    own = rng.random((rows, cols)) < draw(st.sampled_from([0.0, 0.1, 1.0]))
    mat[own] = rng.standard_normal(own.sum()) * 10.0 ** rng.integers(-300, 300, own.sum())
    zero = rng.random((rows, cols)) < draw(st.sampled_from([0.0, 0.5, 0.9, 0.99]))
    mat[zero] = rng.choice([0.0, -0.0], zero.sum())  # a dominant value of either sign
    stem = draw(LABEL_TEXT)
    return mat, [f"{stem}{i}" for i in range(rows)]


def all_distinct(shape, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.standard_normal(shape) * 10.0 ** rng.integers(-30, 30, size=shape)


def block_of_distinct(k: int, seed: int) -> np.ndarray:
    """One block of _BLOCK_CELLS = 64 x 64 cells holding exactly k >= 2048 distinct values."""
    values = all_distinct(k, seed)
    cells = np.concatenate([values, values[: formats._BLOCK_CELLS - k]])
    return np.random.default_rng(seed).permutation(cells).reshape(64, 64)


def chunk_boundaries(cols: int, narrow: int, distinct: int, seed: int) -> np.ndarray:
    """``narrow`` rows of +0.0 sprinkled with -0.0 and small integers, whose short
    texts let the writer's blocks grow to chunks; if ``distinct``, the first chunk
    (after the first block) holds exactly that many distinct values.  Then rows of
    +0.0 sprinkled with subnormals, then golden_values rows."""
    rng = np.random.default_rng(seed)
    sprinkle = rng.random((narrow + 20, cols)) < 0.05
    mat = np.where(sprinkle, rng.choice([-0.0, 1.0, -2.0, 3.0], sprinkle.shape), 0.0)
    mat[narrow:] = np.where(sprinkle[narrow:], rng.choice([5e-324, -1e-320], (20, cols)), 0.0)
    if distinct:
        first = formats._BLOCK_CELLS // cols
        chunk = mat[first : first + formats._CHUNK_CELLS // cols].reshape(-1)  # a view
        zeros = np.flatnonzero(chunk.view(np.uint64) == 0)
        extra = distinct - np.unique(chunk.view(np.uint64)).size
        chunk[rng.choice(zeros[1:], extra, replace=False)] = all_distinct(extra, seed)
        assert np.unique(chunk.view(np.uint64)).size == distinct
    return np.concatenate([mat, golden_values((20, cols), seed)])


def matrix_csv_reference(mat: np.ndarray, rows, cols) -> str:
    return ",".join([""] + cols) + "\n" + "".join(
        ",".join([label] + [ref17(x) for x in row]) + "\n" for label, row in zip(rows, mat)
    )


@settings(deadline=None, max_examples=60)
@given(csv_matrices())
@example((np.zeros((0, 5)), []))
@example((np.zeros((3, 0)), ["a", "é", ""]))
@example((all_distinct((150, 64), 3), ["λ", "🙂", "", "x y"] * 37 + ["z", "z"]))  # 3 blocks
@example((block_of_distinct(2048, 4), [f"r{i}" for i in range(64)]))  # each value twice: gather
@example((block_of_distinct(2049, 5), [f"r{i}" for i in range(64)]))  # over half: in place
# blocks that grow to chunks and back, across chunk boundaries; a chunk holding one
# value fewer than _BATCH_MIN_DISTINCT, and one holding that many; chunks of no cells
@example((chunk_boundaries(37, 1300, 0, 6), [f"r{i}" for i in range(1340)]))
@example((chunk_boundaries(64, 400, formats._BATCH_MIN_DISTINCT - 1, 7), ["é"] * 440))
@example((chunk_boundaries(64, 400, formats._BATCH_MIN_DISTINCT, 8), ["é"] * 440))
@example((np.zeros((40000, 0)), [f"v{i}" for i in range(40000)]))
def test_csv_writers_match_per_row_reference(matrix):
    """The line writer finds a block's distinct values with np.sort of its cells other than
    +0.0 (and reads fewer, larger blocks where the texts are short).  numpy dispatches that
    sort to a different SIMD sort on arm64 than on x86, so CI checks the bytes on both."""
    mat, rows = matrix
    cols = [f"c{j}" for j in range(mat.shape[1])]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "m.csv"
        formats.write_matrix_csv(path, mat, rows, cols)
        assert_same_lines(path.read_bytes(), matrix_csv_reference(mat, rows, cols))
        if min(mat.shape) >= 2 and np.all(np.isfinite(mat)):
            grid = make_grid(mat.shape[1], mat.shape[0], (-1, 1), (-2, 2))
            csv_path, _ = formats.write_snapshot(Path(tmp), 0, WignerField(grid, mat))
            ref = "".join(",".join(ref17(x) for x in row) + "\n" for row in mat[::-1])
            assert_same_lines(csv_path.read_bytes(), ref)


def test_matrix_csv_refuses_nul_in_row_label_and_label_count_mismatch(tmp_path):
    path = tmp_path / "m.csv"
    with pytest.raises(ValueError, match="NUL"):
        formats.write_matrix_csv(path, np.eye(2), ["v1", "v\x002"], ["a", "b"])
    for rows in (["v1"], ["v1", "v2", "v3"]):
        with pytest.raises(ValueError, match="row labels for a matrix of 2 rows"):
            formats.write_matrix_csv(path, np.eye(2), rows, ["a", "b"])
    assert not path.exists()


# --- the writers hold one block of text, not the whole file -----------------------

def test_snapshot_writer_streams_blocks(tmp_path):
    values = all_distinct((1024, 1024), 19)
    field = WignerField(make_grid(1024, 1024, (-1, 1), (-2, 2)), values, field_mode=True)
    peak = traced_peak(lambda: formats.write_snapshot(tmp_path, 0, field))
    size = (tmp_path / "snapshot_0000.csv").stat().st_size
    assert size > 16 * 2**20 and peak < 4 * 2**20, (size, peak)  # whole text: ~40 MiB


def test_matrix_and_wavefunction_writers_peak_under_a_quarter_of_the_file(tmp_path):
    mat = all_distinct((512, 512), 23)
    rows, cols = [f"v{i}" for i in range(512)], [f"v{j}" for j in range(512)]
    psi = Wavefunction(0.0, 2.0**17, golden_state(17, 29))
    writes = {"m.csv": lambda path: formats.write_matrix_csv(path, mat, rows, cols),
              "psi.csv": lambda path: formats.write_wavefunction(path, psi)}
    for name, write in writes.items():
        path = tmp_path / name
        peak = traced_peak(lambda: write(path))
        size = path.stat().st_size
        assert size >= 4 * 2**20 and peak < size / 4, (name, size, peak)


def test_state_file_streams_its_blocks(tmp_path):
    state = hypergraph_state(18, [{1, 2}, {3, 4, 5}, {18}], False)
    path = tmp_path / "state.txt"
    peak = traced_peak(lambda: formats.write_state(path, state))
    assert peak < 2**20, peak  # 8.5 MiB of text; a dump held whole peaked at 9.30 MiB
    assert path.read_bytes() == state_dump(state)
