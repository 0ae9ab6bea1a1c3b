"""Text formats: hypergraph JSON documents, CSV matrices and snapshots, state dumps.

All numeric output uses 17 significant digits with a '.' decimal separator,
so identical inputs produce byte-identical files.  Vertex labels are 1-based
in every external format.

Every numeric writer formats each distinct value once per block of rows,
through ``_distinct17``; ``fmt17`` shares its format spec for scalars.  A
block with many distinct values goes through ``_fmt17_batch``, which
computes the same "%.17g" text with numpy array operations.  The values it
cannot decide (zeros, subnormals, extremes, inf, nan and rounding ties) go
through the "%.17g" template, so the bytes never depend on the path taken.
``_rows17`` joins the texts into the rows of matrix CSVs, snapshots and
wavefunctions.  ``dump_state`` builds no string per line: it gathers them,
zero-padded in a uint8 table, beside each line's label bytes and drops the
padding, so each number is still exactly its "%.17g" text.
"""

from __future__ import annotations

import functools
import json
import math
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from .hypergraph import Hypergraph
from .hyperstate import MAX_QUBITS, QubitStateVector, _label_bytes
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
# Cells per block of _rows17 and dump_state.  A block's unique pass, text table
# and rows are alive at once, so the block size bounds the writers' extra memory:
# 2**16-cell blocks raised a 16-qubit state dump's peak RSS by ~8%, 2**12 by <2%.
_BLOCK_CELLS = 1 << 12


# _distinct17 formats a block's distinct values with _fmt17_batch when there
# are at least this many, else in one template call.  The kernel costs ~0.15 ms
# a call; measured against the template (2-core VM, numpy 2.4.6) it broke even
# near 200 distinct snapshot values, 400 normal deviates and 600 short ones
# (multiples of 1/8), and was 2.5-4x faster at 4096.
_BATCH_MIN_DISTINCT = 512
# The kernel formats |x| in [1e-280, 1e280].  There every scale 10**s it uses,
# s = 16 - e10 in _SCALES, and every partial product of its two-product are
# normal float64; s moves by one past [-264, 297] when e10 is corrected.
_BATCH_RANGE = (1e-280, 1e280)
_SCALES = range(-265, 299)
# A scaled value whose fraction is this close to one half is formatted by the
# template: the kernel's error (below 1e-14) cannot decide an exact tie.
_TIE_WINDOW = 1e-6
_SPLIT = 134217729.0  # 2**27 + 1, Veltkamp's splitter for a 53-bit significand


def fmt17(x: float) -> str:
    """Fixed 17-significant-digit decimal rendering (round-trips float64)."""
    return _FMT17 % float(x)


def _veltkamp(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """x = hi + lo exactly, each half with at most 26 significant bits."""
    c = _SPLIT * x
    hi = c - (c - x)
    return hi, x - hi


@functools.cache
def _batch_tables() -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Constant tables of ``_fmt17_batch``, built on its first call.

    10**s for s in _SCALES as a double-double: its hi part, split in two
    halves, and its lo part, each correctly rounded from exact integers.
    Then the four ASCII digits of each of 0..9999, packed in one uint32.
    """
    his, los = [], []
    for s in _SCALES:
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
    hi_hi, hi_lo = _veltkamp(np.array(his))
    digits4 = (np.arange(10000)[:, None] // [1000, 100, 10, 1] % 10 + 48).astype(np.uint8)
    return hi_hi, hi_lo, np.array(los), digits4.view(np.uint32).ravel()


def _scaled(a: np.ndarray, e10: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Floor and fraction of a * 10**(16 - e10), to within 1e-14 of the exact product.

    A Dekker two-product of a against the hi part of 10**s gives that product
    exactly as p + err; a times the lo part adds the rest of 10**s.
    """
    hi_hi, hi_lo, lo = _batch_tables()[:3]
    s = 16 - e10 - _SCALES.start
    bh, bl = hi_hi[s], hi_lo[s]
    ah, al = _veltkamp(a)
    p = a * (bh + bl)
    err = ((ah * bh - p) + ah * bl + al * bh) + al * bl
    whole = np.floor(p)
    rest = (p - whole) + (err + a * lo[s])
    carry = np.floor(rest)
    return whole.astype(np.int64) + carry.astype(np.int64), rest - carry


def _fmt17_batch(x: np.ndarray) -> list[str]:
    """``"%.17g" % v`` for each v of a 1-D float64 array, byte for byte.

    Each |v| becomes a 17-digit integer N = round(|v| * 10**(16 - e10)),
    where e10 = floor(log10 |v|) is estimated, then corrected by one when N
    falls outside [1e16, 1e17).  N's digits come from a 4-digit table.  Each
    text is cut from one fixed row of characters, sign | "0.000" | the
    digits with a dot | "e", exponent sign, three exponent digits | newline,
    by keeping what the %g rules keep: fixed form for -4 <= e10 < 17, else
    exponent form, with trailing zeros stripped.  Values the kernel cannot
    decide go through the template instead: |v| outside _BATCH_RANGE (so
    zeros, subnormals, inf and nan), and values within _TIE_WINDOW of a
    rounding tie.
    """
    digits4 = _batch_tables()[3]
    a = np.abs(x)
    inside = (a >= _BATCH_RANGE[0]) & (a <= _BATCH_RANGE[1])
    a = np.where(inside, a, 1.0)
    e10 = np.floor(np.log10(a)).astype(np.int64)
    n, frac = _scaled(a, e10)
    off = (n < 10**16) | (n >= 10**17)
    if off.any():
        e10[off] += np.where(n[off] < 10**16, -1, 1)
        n[off], frac[off] = _scaled(a[off], e10[off])
    n += frac > 0.5  # cannot carry to 1e17: no float64 lies that close below 10**k
    template = ~inside | (np.abs(frac - 0.5) < _TIE_WINDOW) | (n < 10**16) | (n >= 10**17)

    size = n.size
    high, low = np.divmod(n, 10**8)
    lead, mid = np.divmod(high, 10**8)
    quads = np.stack([mid // 10**4, mid % 10**4, low // 10**4, low % 10**4])
    # Work column-major (one column per value), in uint8 arithmetic: rows of
    # a few thousand bytes keep numpy's loops long.  Rows: a blank, the 17
    # digits of N, a blank.
    digits = np.zeros((19, size), dtype=np.uint8)
    digits[1] = lead + 48
    quad_digits = digits4[quads].view(np.uint8).reshape(4, size, 4)
    digits[2:18] = quad_digits.transpose(0, 2, 1).reshape(16, size)
    slot = np.arange(18, dtype=np.uint8)[:, None]
    sig = ((digits[1:18] != 48) * slot[1:]).max(axis=0)  # digits left once zeros strip
    fixed = (e10 >= -4) & (e10 < 17)
    small = fixed & (e10 < 0)  # 0.000ddd: "0." and the zeros come from the prefix
    dot = np.where(fixed, np.where(small, 17, e10 + 1), 1).astype(np.uint8)
    body = np.where(small, sig, np.maximum(sig + (sig > dot), dot))

    chars = np.empty((30, size), dtype=np.uint8)
    chars[:6] = np.frombuffer(b"-0.000", dtype=np.uint8)[:, None]
    chars[6:24] = digits[:18] + (digits[1:] - digits[:18]) * (slot < dot)
    chars[6 + dot, np.arange(size)] = ord(".")
    chars[24] = ord("e")
    chars[25] = np.where(e10 < 0, ord("-"), ord("+"))
    chars[26:29] = digits4[np.abs(e10)].view(np.uint8).reshape(size, 4)[:, 1:].T
    chars[29] = ord("\n")
    keep = np.empty((30, size), dtype=bool)
    keep[0] = np.signbit(x)
    keep[1:6] = slot[1:6] <= np.where(small, 1 - e10, 0).astype(np.uint8)
    keep[6:24] = slot < body
    keep[24:29] = ~fixed
    keep[26] &= np.abs(e10) >= 100
    keep[29] = True
    chars *= keep
    texts = chars.T.tobytes().translate(None, b"\0").decode("ascii").split("\n")[:-1]
    for i in np.flatnonzero(template):
        texts[i] = _FMT17 % x[i]
    return texts


def _distinct17(bits: np.ndarray) -> list[str]:
    """fmt17 of each of a block's distinct float64 bit patterns.

    By ``_fmt17_batch`` when there are at least _BATCH_MIN_DISTINCT, else in
    one template call.
    """
    if bits.size >= _BATCH_MIN_DISTINCT:
        return _fmt17_batch(bits.view(np.float64))
    distinct = bits.view(np.float64).tolist()
    return ("\n".join([_FMT17] * len(distinct)) % tuple(distinct)).split("\n")


def _rows17(values: np.ndarray, sep: str) -> Iterator[str]:
    """Rows of a 2-D float64 array as text: each cell as fmt17, joined by sep.

    Distinct bit patterns (so -0.0 stays apart from 0.0) are formatted once
    per block by ``_distinct17``, then mapped back to their cells.  Rows are
    yielded block by block, so a caller that labels them holds one block of
    unlabeled rows at a time.
    """
    n_rows, n_cols = values.shape
    step = max(1, _BLOCK_CELLS // max(n_cols, 1))
    for start in range(0, n_rows, step):
        block = np.ascontiguousarray(values[start : start + step], dtype=np.float64)
        bits, inverse = np.unique(block.view(np.uint64).ravel(), return_inverse=True)
        cells = np.array(_distinct17(bits), dtype=object)[inverse].reshape(block.shape)
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
    """One line per basis state: bitstring (qubit 1 leftmost), real part, imaginary part.

    Each block of rows is a uint8 array: label bytes, the real and the
    imaginary part's text, each after a space, from a zero-padded table of
    ``_distinct17`` texts, and a newline.  Dropping the padding leaves every
    text as formatted.
    """
    n = s.n_qubits
    pairs = s.amplitudes.view(np.uint64).reshape(-1, 2)  # (re, im) bit patterns, no copy
    chunks = []
    for start in range(0, 2**n, _BLOCK_CELLS // 2):
        bits, codes = np.unique(pairs[start : start + _BLOCK_CELLS // 2], return_inverse=True)
        texts = np.array([" " + t for t in _distinct17(bits)], dtype=bytes)
        cells = texts[codes.reshape(-1, 2)].view(np.uint8)  # " re im", zero-padded
        block = np.empty((len(cells), n + cells.shape[1] + 1), dtype=np.uint8)
        _label_bytes(block[:, :n], start)
        block[:, n:-1] = cells
        block[:, -1] = ord("\n")
        chunks.append(block.tobytes().translate(None, b"\0").decode("ascii"))
    return "".join(chunks)


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
    for ln, (bits, re, im) in enumerate(rows):
        try:
            amps[int(bits, 2)] = float(re) + 1j * float(im)
        except ValueError:
            raise ValueError(f"state dump line {ln + 1}: non-numeric amplitude '{re} {im}'") from None
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
