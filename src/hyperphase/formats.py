"""Text formats: hypergraph JSON documents, CSV matrices and snapshots, state dumps.

All numeric output uses 17 significant digits with a '.' decimal separator,
so identical inputs produce byte-identical files.  Vertex labels are 1-based
in every external format.

Every numeric writer (matrix CSVs, snapshots, state dumps, wavefunctions)
goes through one row formatter, ``_rows17``, which formats each distinct
value once per block of rows; ``fmt17`` shares its format spec for scalars.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from .hypergraph import Hypergraph
from .hyperstate import MAX_QUBITS, QubitStateVector
from .wigner import Wavefunction, WignerField

__all__ = [
    "SCHEMA_VERSION",
    "fmt17",
    "parse_hypergraph",
    "serialize_hypergraph",
    "write_matrix_csv",
    "dump_state",
    "parse_state",
    "write_state",
    "write_snapshot",
    "read_wavefunction",
    "write_wavefunction",
]

SCHEMA_VERSION = 1

_FMT17 = "%.17g"
# Cells per block of _rows17.  A block's unique pass, string table and row
# lists are alive at once, so the block size bounds the writers' extra memory:
# 2**16-cell blocks raised a 16-qubit state dump's peak RSS by ~8%, 2**12 by <2%.
_BLOCK_CELLS = 1 << 12


def fmt17(x: float) -> str:
    """Fixed 17-significant-digit decimal rendering (round-trips float64)."""
    return _FMT17 % float(x)


def _rows17(values: np.ndarray, sep: str) -> Iterator[str]:
    """Rows of a 2-D float64 array as text: each cell as fmt17, joined by sep.

    Distinct bit patterns (so -0.0 stays apart from 0.0) are formatted in
    one template call per block, then mapped back to their cells.  Rows are
    yielded block by block, so a caller that labels them holds one block of
    unlabeled rows at a time.
    """
    n_rows, n_cols = values.shape
    step = max(1, _BLOCK_CELLS // max(n_cols, 1))
    for start in range(0, n_rows, step):
        block = np.ascontiguousarray(values[start : start + step], dtype=np.float64)
        bits, inverse = np.unique(block.view(np.uint64).ravel(), return_inverse=True)
        distinct = bits.view(np.float64).tolist()
        texts = ("\n".join([_FMT17] * len(distinct)) % tuple(distinct)).split("\n")
        cells = np.array(texts, dtype=object)[inverse].reshape(block.shape)
        yield from (sep.join(row) for row in cells.tolist())


def _require_number(value, path: str, positive: bool = False) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{path}: expected a number, got {value!r}")
    v = float(value)
    if not math.isfinite(v):
        raise ValueError(f"{path}: expected a finite number, got {value!r}")
    if positive and not v > 0:
        raise ValueError(f"{path}: expected a positive number, got {value!r}")
    return v


def _require_int(value, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{path}: expected an integer, got {value!r}")
    return value


def parse_hypergraph(text: str) -> Hypergraph:
    """Parse the JSON hypergraph document into the domain type.

    Shape: {"vertices": n, "vertex_weights": [...]?, "edges":
    [{"members": [ints], "weight": number?}, ...]}.  Missing weights default
    to 1.  Errors carry the offending document path.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"malformed JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ValueError(f"document root: expected an object, got {type(doc).__name__}")
    if "vertices" not in doc:
        raise ValueError("document: missing required key 'vertices'")
    n = _require_int(doc["vertices"], "vertices")
    if n < 1:
        raise ValueError(f"vertices: must be >= 1, got {n}")

    weights = None
    if doc.get("vertex_weights") is not None:
        raw = doc["vertex_weights"]
        if not isinstance(raw, list):
            raise ValueError("vertex_weights: expected a list")
        if len(raw) != n:
            raise ValueError(f"vertex_weights: expected {n} entries, got {len(raw)}")
        weights = [
            _require_number(w, f"vertex_weights[{i}]", positive=True)
            for i, w in enumerate(raw)
        ]

    edges = []
    raw_edges = doc.get("edges", [])
    if not isinstance(raw_edges, list):
        raise ValueError("edges: expected a list")
    for j, e in enumerate(raw_edges):
        if not isinstance(e, dict):
            raise ValueError(f"edges[{j}]: expected an object")
        if "members" not in e:
            raise ValueError(f"edges[{j}]: missing required key 'members'")
        raw_members = e["members"]
        if not isinstance(raw_members, list):
            raise ValueError(f"edges[{j}].members: expected a list")
        members = []
        for i, v in enumerate(raw_members):
            v = _require_int(v, f"edges[{j}].members[{i}]")
            if not 1 <= v <= n:
                raise ValueError(
                    f"edges[{j}].members[{i}]: vertex {v} out of range 1..{n}"
                )
            members.append(v)
        weight = _require_number(e.get("weight", 1), f"edges[{j}].weight", positive=True)
        edges.append((members, weight))

    return Hypergraph(n, edges, vertex_weights=weights)


def serialize_hypergraph(h: Hypergraph) -> str:
    """Render the domain object back to its JSON document form."""
    doc = {
        "schema": SCHEMA_VERSION,
        "vertices": h.n_vertices,
        "vertex_weights": list(h.vertex_weights),
        "edges": [
            {"members": sorted(members), "weight": weight}
            for members, weight in h.hyperedges
        ],
    }
    return json.dumps(doc, indent=2) + "\n"


def write_matrix_csv(
    path: Path,
    matrix: np.ndarray,
    row_labels: Sequence[str],
    col_labels: Sequence[str],
) -> None:
    """Labeled CSV: header of column labels, one labeled row per matrix row."""
    mat = np.atleast_2d(np.asarray(matrix, dtype=np.float64))
    lines = [",".join([""] + list(col_labels))]
    prefix = "," if mat.shape[1] else ""
    lines += [label + prefix + row for label, row in zip(row_labels, _rows17(mat, ","))]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def dump_state(s: QubitStateVector) -> str:
    """One line per basis state: bitstring (qubit 1 leftmost), real part, imaginary part."""
    parts = s.amplitudes.view(np.float64).reshape(-1, 2)  # (re, im) pairs, no copy
    lines = [f"{label} {row}" for label, row in zip(s.basis_labels(), _rows17(parts, " "))]
    return "\n".join(lines) + "\n"


def parse_state(text: str) -> QubitStateVector:
    """Inverse of dump_state."""
    rows = [line.split() for line in text.splitlines() if line.strip()]
    if not rows:
        raise ValueError("state dump is empty")
    n = len(rows[0][0])
    if n > MAX_QUBITS:
        raise ValueError(f"state dump line 1: {n}-qubit bitstring, capped at {MAX_QUBITS} qubits")
    if len(rows) != 2**n:
        raise ValueError(f"state dump has {len(rows)} lines, expected {2**n}")
    for ln, row in enumerate(rows):
        if len(row) != 3:
            raise ValueError(f"state dump line {ln + 1}: expected 'bits re im'")
        bits = row[0]
        if len(bits) != n or any(c not in "01" for c in bits):
            raise ValueError(f"state dump line {ln + 1}: bad bitstring {bits!r}")
    amps = np.zeros(2**n, dtype=np.complex128)
    for bits, re, im in rows:
        amps[int(bits, 2)] = float(re) + 1j * float(im)
    return QubitStateVector(n, amps)


def write_state(path: Path, s: QubitStateVector) -> None:
    path.write_text(dump_state(s), encoding="utf-8")


def write_snapshot(directory: Path, index: int, field: WignerField) -> tuple[Path, Path]:
    """Write one snapshot as CSV plus a JSON metadata sidecar.

    CSV rows run from p_max down to p_min, one column per position cell.
    """
    csv_path = directory / f"snapshot_{index:04d}.csv"
    meta_path = directory / f"snapshot_{index:04d}.meta.json"
    lines = _rows17(field.values[::-1], ",")
    csv_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    g = field.grid
    meta = {
        "n_q": g.n_q,
        "n_p": g.n_p,
        "q_min": g.q_min,
        "q_max": g.q_max,
        "p_min": g.p_min,
        "p_max": g.p_max,
        "mass": g.mass,
        "hbar": g.hbar,
        "t": field.t,
        "field_mode": field.field_mode,
    }
    meta_path.write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return csv_path, meta_path


def write_wavefunction(path: Path, psi: Wavefunction) -> None:
    """CSV of position-basis samples: q,re,im per cell center."""
    q = psi.q_min + (np.arange(psi.n_q) + 0.5) * psi.dq
    lines = ["q,re,im", *_rows17(np.column_stack([q, psi.samples.real, psi.samples.imag]), ",")]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_wavefunction(path: Path) -> Wavefunction:
    """Inverse of write_wavefunction; the q column must be uniformly spaced."""
    lines = [ln for ln in path.read_text(encoding="utf-8").splitlines() if ln.strip()]
    if lines and lines[0].lower().replace(" ", "") == "q,re,im":
        lines = lines[1:]
    if len(lines) < 2:
        raise ValueError(f"{path}: wavefunction file needs at least 2 samples")
    qs, amps = [], []
    for ln, line in enumerate(lines):
        parts = line.split(",")
        if len(parts) != 3:
            raise ValueError(f"{path}:{ln + 1}: expected 'q,re,im'")
        try:
            qs.append(float(parts[0]))
            amps.append(float(parts[1]) + 1j * float(parts[2]))
        except ValueError:
            raise ValueError(f"{path}:{ln + 1}: non-numeric value") from None
    q = np.array(qs)
    dq = q[1] - q[0]
    if dq <= 0 or not np.allclose(np.diff(q), dq, rtol=1e-9, atol=1e-12):
        raise ValueError(f"{path}: q column is not uniformly increasing")
    return Wavefunction(float(q[0] - dq / 2), float(q[-1] + dq / 2), np.array(amps))
