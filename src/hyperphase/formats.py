"""Text formats: hypergraph JSON documents, CSV matrices and snapshots, state dumps.

All numeric output uses 17 significant digits with a '.' decimal separator,
so identical inputs produce byte-identical files.  Vertex labels are 1-based
in every external format.

Matrix CSVs, snapshots and wavefunctions come from one line writer,
``_lines17``, with no Python string per line or number.  Per block of rows,
sorting the cells' bit patterns finds the distinct values.  ``_distinct17``
formats them once into a NUL-padded uint8 table whose rows start with the
separator, and the cells gather their rows, when at least half the cells
repeat; else it formats every cell in place.  The writer sets the cells' rows
beside each line's label bytes and a newline, then drops the NULs, so each
number is exactly its "%.17g" text.  ``fmt17`` shares that spec for scalars.
For blocks with many values to format ``_fmt17_batch`` computes the same
texts with numpy array operations; the values it cannot decide (zeros,
subnormals, extremes, inf, nan and rounding ties) go through the "%.17g"
template, so no byte depends on the path.  State dumps are written from the
sign table: ``dump_state`` gathers one of two fixed line tails per state.
"""

from __future__ import annotations

import functools
import json
import math
from pathlib import Path
from typing import Sequence

import numpy as np

from .hypergraph import Hypergraph
from .hyperstate import QubitStateVector
from .wigner import Wavefunction, WignerField

__all__ = [
    "fmt17",
    "parse_hypergraph",
    "serialize_hypergraph",
    "write_matrix_csv",
    "dump_state",
    "write_state",
    "write_snapshot",
    "read_wavefunction",
    "write_wavefunction",
]

_FMT17 = "%.17g"
# Cells per block of _lines17 (dump_state writes blocks of half as many lines).
# A block's sorted bits, text table and lines are alive at once, so this bounds
# the writers' extra memory: 2**16 raised a 16-qubit dump's peak RSS ~8%, 2**12 <2%.
_BLOCK_CELLS = 1 << 12


# _distinct17 formats its values (a block's distinct values or all its cells)
# with _fmt17_batch when there are at least this many, else in one template
# call.  The kernel costs ~0.15 ms a call; measured against the template
# (2-core VM, numpy 2.4.6) it broke even near 200 distinct snapshot values,
# 400 normal deviates and 600 short ones (multiples of 1/8), and was 2.5-4x
# faster at 4096.
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


def _fmt17_batch(x: np.ndarray) -> np.ndarray:
    """``"%.17g" % v`` for each v of a 1-D float64 array, byte for byte, as a uint8 table.

    Each |v| becomes a 17-digit integer N = round(|v| * 10**(16 - e10)),
    where e10 = floor(log10 |v|) is estimated, then corrected by one when N
    falls outside [1e16, 1e17).  N's digits come from a 4-digit table.  Each
    text is cut from one fixed row of 30 characters, a free slot | sign |
    "0.000" | the digits with a dot | "e", exponent sign, three exponent
    digits, by keeping what the %g rules keep: fixed form for -4 <= e10 < 17,
    else exponent form, with trailing zeros stripped.  Row i of the
    (size, 30) result is that row with NUL in every slot not kept, so the
    text of x[i] is the row with its NULs dropped.  Values the kernel cannot
    decide are written into their rows' slots 1.. by the template instead:
    |v| outside _BATCH_RANGE (so zeros, subnormals, inf and nan), and values
    within _TIE_WINDOW of a rounding tie.
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
    halves = np.stack([mid, low]).astype(np.uint32)  # uint32 divides faster than int64
    tops = halves // 10**4
    quads = np.stack([tops[0], halves[0] - tops[0] * 10**4, tops[1], halves[1] - tops[1] * 10**4])
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

    chars = np.zeros((30, size), dtype=np.uint8)
    chars[1:7] = np.frombuffer(b"-0.000", dtype=np.uint8)[:, None]
    chars[7:25] = digits[:18] + (digits[1:] - digits[:18]) * (slot < dot)
    chars[7 + dot, np.arange(size)] = ord(".")
    chars[25] = ord("e")
    chars[26] = np.where(e10 < 0, ord("-"), ord("+"))
    chars[27:30] = digits4[np.abs(e10)].view(np.uint8).reshape(size, 4)[:, 1:].T
    keep = np.zeros((30, size), dtype=bool)
    keep[1] = np.signbit(x)
    keep[2:7] = slot[1:6] <= np.where(small, 1 - e10, 0).astype(np.uint8)
    keep[7:25] = slot < body
    keep[25:30] = ~fixed
    keep[27] &= np.abs(e10) >= 100
    chars *= keep
    table = chars.T.copy()
    fallback = np.flatnonzero(template)
    texts = np.array([b"%.17g" % v for v in x[fallback].tolist()], dtype="S29")
    table[fallback, 1:] = texts.view(np.uint8).reshape(-1, 29)
    return table


def _distinct17(bits: np.ndarray, sep: bytes) -> np.ndarray:
    """uint8 table whose row i is sep, then fmt17 of the float64 bits[i], NUL-padded.

    By ``_fmt17_batch`` when there are at least _BATCH_MIN_DISTINCT values,
    else in one template call.
    """
    x = bits.view(np.float64)
    if x.size >= _BATCH_MIN_DISTINCT:
        table = _fmt17_batch(x)
        table[:, 0] = sep[0]
        return table
    texts = np.array((b"\n".join([sep + b"%.17g"] * x.size) % tuple(x.tolist())).split(b"\n"))
    return texts.view(np.uint8).reshape(len(texts), texts.itemsize)


def _lines17(values: np.ndarray, sep: bytes, labels: np.ndarray | None = None) -> bytes:
    """Lines of a 2-D float64 array: each cell as fmt17, sep between cells.

    ``labels``, if given, holds the NUL-padded uint8 label bytes of each row,
    and a line is its label, then sep before every cell.  Per block of
    _BLOCK_CELLS cells, a sort finds the distinct bit patterns (so -0.0 stays
    apart from 0.0); they are formatted once when at least half the cells
    repeat, else every cell is formatted.
    """
    n_rows, n_cols = values.shape
    step = max(1, _BLOCK_CELLS // max(n_cols, 1))
    chunks = []
    for start in range(0, n_rows, step):
        block = np.ascontiguousarray(values[start : start + step], dtype=np.float64)
        rows = len(block)
        flat = block.view(np.uint64).ravel()
        ordered = np.sort(flat)
        bits = np.concatenate([ordered[:1], ordered[1:][ordered[1:] != ordered[:-1]]])
        if 2 * bits.size > flat.size:
            table = _distinct17(flat, sep)
        else:
            table = np.take(_distinct17(bits, sep), np.searchsorted(bits, flat), axis=0)
        cells = table.reshape(rows, n_cols * table.shape[1])
        parts = [cells, np.full((rows, 1), ord("\n"), dtype=np.uint8)]
        if labels is None:
            cells[:, :1] = 0  # no sep before a line's first cell
        else:
            parts.insert(0, labels[start : start + rows])
        chunks.append(np.concatenate(parts, axis=1).tobytes().translate(None, b"\0"))
    return b"".join(chunks)


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
        "schema": 1,
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
    """Labeled CSV: header of column labels, one labeled row per matrix row (no NUL in a label)."""
    mat = np.atleast_2d(np.asarray(matrix, dtype=np.float64))
    if len(row_labels) != len(mat):
        raise ValueError(f"{len(row_labels)} row labels for a matrix of {len(mat)} rows")
    if any("\0" in label for label in row_labels):
        raise ValueError("row labels may not contain a NUL character")
    labels = np.array([label.encode("utf-8") for label in row_labels], dtype=bytes)
    labels = labels.view(np.uint8).reshape(len(labels), labels.itemsize)
    header = ",".join([""] + list(col_labels)).encode("utf-8") + b"\n"
    path.write_bytes(header + _lines17(mat, b",", labels))


def dump_state(s: QubitStateVector) -> bytes:
    """One ASCII line per basis state: bitstring (qubit 1 leftmost), real part, imaginary part."""
    n = s.n_qubits
    c = 2.0 ** (-n / 2.0)
    # the sign table picks each line's tail: (c, 0) where f = 0, (-c, -0) where f = 1
    tails = np.array([b" %.17g %.17g\n" % (c, 0.0), b" %.17g %.17g\n" % (-c, -0.0)])
    tails = tails.view(np.uint8).reshape(2, tails.itemsize)  # NUL-padded
    width, step = -(-n // 8), _BLOCK_CELLS // 2
    chunks = []
    for start in range(0, 2**n, step):
        # labels: the index's big-endian bits, less the leading bits beyond n
        index = np.arange(start, min(start + step, 2**n), dtype=">u4").view(np.uint8)
        bits = np.unpackbits(index.reshape(-1, 4)[:, 4 - width :], axis=1)[:, 8 * width - n :]
        lines = [bits + np.uint8(ord("0")), np.take(tails, s.signs[start : start + step], axis=0)]
        chunks.append(np.concatenate(lines, axis=1).tobytes().translate(None, b"\0"))
    return b"".join(chunks)


def write_state(path: Path, s: QubitStateVector) -> None:
    path.write_bytes(dump_state(s))


def write_snapshot(directory: Path, index: int, field: WignerField) -> tuple[Path, Path]:
    """Write one snapshot as CSV plus a JSON metadata sidecar.

    CSV rows run from p_max down to p_min, one column per position cell.
    """
    csv_path = directory / f"snapshot_{index:04d}.csv"
    meta_path = directory / f"snapshot_{index:04d}.meta.json"
    csv_path.write_bytes(_lines17(field.values[::-1], b","))
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
    samples = np.column_stack([q, psi.samples.real, psi.samples.imag])
    path.write_bytes(b"q,re,im\n" + _lines17(samples, b","))


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
