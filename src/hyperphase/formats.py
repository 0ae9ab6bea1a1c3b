"""Text formats: hypergraph JSON documents, CSV matrices and snapshots, state dumps.

All numeric output uses 17 significant digits with a '.' decimal separator,
so identical inputs produce byte-identical files.  Vertex labels are 1-based
in every external format.

``_write_csv`` writes matrix CSVs, snapshots and wavefunctions: the header,
then each block of rows from the line writer ``_lines17`` as soon as it is
made, so no file's text is held whole.  Per block, sorting the bit patterns of
its cells but +0.0 finds the distinct values; narrow texts allow larger blocks.
``_distinct17`` formats them once into a uint8 table whose rows hold the text,
NUL-padded, and a comma last, and the cells gather their rows, when at least
half the cells repeat; else it formats every cell in place.  A line's cells
are then its bytes once its last comma is a newline, and dropping the NULs
leaves each number exactly its "%.17g" text.  ``fmt17`` shares that spec for
scalars.  For many values ``_fmt17_batch`` computes the same texts as uint64
words with numpy array operations, at most _BLOCK_CELLS a call in 32-byte rows
(a grown block's table may reach 512 KiB); the values it cannot decide
(subnormals, extremes, inf, nan and rounding ties) go through the "%.17g"
template, so no byte depends on the path.  ``dump_state`` writes a state dump
from the sign table to a binary stream the same way, each block when made.
"""

from __future__ import annotations

import functools
import json
from pathlib import Path
from typing import BinaryIO, Callable, Iterator, Sequence

import numpy as np

from .hypergraph import _STR_DIGITS, Hypergraph
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
# Cells per block of _lines17 (dump_state writes blocks of half as many lines) and
# most values per _fmt17_batch call.  A block's sorted bits, text table and lines
# are alive at once, and no writer holds more than one block.
_BLOCK_CELLS = 1 << 12
# Most cells per block of _lines17 while its rows are narrow.  The kernel keeps
# 2**12: it formatted the 8 evolve-snapshots fields in 43 ms so, 62 ms in 2**14.
_CHUNK_CELLS = 1 << 14


# _distinct17 formats its values (a block's distinct values or all its cells)
# with _fmt17_batch when there are at least this many, else in one template
# call.  The kernel costs ~0.13 ms a call; measured against the template
# (2-core VM, numpy 2.4.6) it broke even near 130 distinct snapshot values,
# 200 normal deviates and 300 short ones (multiples of 1/8), and was 3.4-7x
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
_SNAPSHOT_NAME, _MAX_SNAPSHOTS = "snapshot_{:04d}", 9999  # four digits keep this many snapshots in order


def fmt17(x: float) -> str:
    """Fixed 17-significant-digit decimal rendering (round-trips float64)."""
    return _FMT17 % float(x)


def _veltkamp(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """x = hi + lo exactly, each half with at most 26 significant bits."""
    c = _SPLIT * x
    hi = c - (c - x)
    return hi, x - hi


@functools.cache
def _batch_tables() -> tuple[np.ndarray, ...]:
    """Constant tables of ``_fmt17_batch``, built on its first call.

    10**s for s in _SCALES as a double-double by one rule: with 10**s = p/q in integers,
    hi = p/q = num/den and lo = (p*den - num*q)/(q*den), each correctly rounded by int
    division; hi is split in two halves.  Then the layout tables of ``_fmt17_batch``.
    """
    his, los = [], []
    for s in _SCALES:
        p, q = 10 ** max(s, 0), 10 ** max(-s, 0)
        hi = p / q
        num, den = hi.as_integer_ratio()
        his.append(hi)
        los.append((p * den - num * q) / (q * den))
    hi_hi, hi_lo = _veltkamp(np.array(his))
    # q = 0..9999 as four ASCII digits, the first in the low byte; for each
    # quad of D1-D16, 1 + the count of those digits up to q's last nonzero one
    ten = np.arange(10, dtype=np.uint8)
    quad = functools.reduce(np.add.outer, [(ten + 48).astype(np.uint64) << 8 * i for i in range(4)])
    last = functools.reduce(np.maximum.outer, [(ten > 0).view(np.uint8) * i for i in range(1, 5)])
    sig = np.where(last.ravel() > 0, last.ravel() + np.arange(1, 17, 4, dtype=np.uint8)[:, None], 1)
    # Per form f (fixed for e10 = f - 4 <= 16, then exponent) and count 1..17
    # of significant digits, masks of the 17 slots after D0: D1-D16 before the
    # dot (words 1, 2), D1-D16 shifted up one slot after it (1-3), the dot (1, 2).
    form = np.arange(22)[:, None]
    before = np.where(form < 4, 18, np.where(form < 21, form - 3, 1))  # 18: "0." is in the prefix
    kept = np.maximum(np.arange(1, 18), before * (form >= 4))
    dot, slot, at = kept > before, np.arange(1, 25), before[..., None]
    masks = np.stack([slot < np.where(dot, before, kept)[..., None],
                      (slot > at) & (slot <= kept[..., None]) & dot[..., None],
                      (slot == at) & dot[..., None]]).view(np.uint8)
    masks = (masks * np.array([255, 255, ord(".")], np.uint8)[:, None, None, None]).view("<u8")
    masks = masks.reshape(3, -1, 3).transpose(0, 2, 1).reshape(9, -1)[[0, 1, 3, 4, 5, 6, 7]]
    # Per scale: its form's row before the first, word 0's "0.000" prefix after
    # the sign slot, and word 3's exponent bytes "e±[d]dd" after its digit slot.
    e10 = 16 - np.arange(_SCALES.start, _SCALES.stop)
    fixed, a = (e10 >= -4) & (e10 <= 16), np.abs(e10)
    words = np.zeros((2, e10.size, 8), dtype=np.uint8)
    prefix = (np.arange(5) <= a[:, None]) & (fixed & (e10 < 0))[:, None]
    words[0, :, 1:6] = np.frombuffer(b"0.000", np.uint8) * prefix
    words[1, :, 1:6] = np.stack([ord("e") + 0 * a, np.where(e10 < 0, ord("-"), ord("+")),
                                 (a // 100 + 48) * (a >= 100), a // 10 % 10 + 48, a % 10 + 48],
                                axis=1) * ~fixed[:, None]
    return (hi_hi, hi_lo, np.array(los), quad.ravel(), quad.ravel() << 32,
            (ten + 48).astype(np.uint64) << 56, sig, masks.astype(np.uint64),
            np.where(fixed, e10 + 4, 21) * 17 - 1, *words.view("<u8")[..., 0].astype(np.uint64))


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
    digits D0-D16, where e10 = floor(log10 |v|) is estimated, then corrected
    by one when N falls outside [1e16, 1e17); a zero is N = 0 with e10 = 0.
    Row i of the (size, 32) result is the text of x[i] as four little-endian
    uint64 words, NUL in every byte not kept.  Word 0 is the sign slot, a
    "0.000" prefix and D0; words 1 and 2 are D1-D8 and D9-D16, from a 4-digit
    table.  The %g form (fixed for -4 <= e10 < 17, else exponent) depends on
    e10 alone, so masks picked by form and count of significant digits merge
    each word with the digits shifted up one byte, put the dot and cut the
    trailing zeros.  Word 3 takes the digit shifted out, the "e±[d]dd"
    exponent and, last, a NUL for the caller's separator.  The template writes
    the rest: nonzero |v| outside _BATCH_RANGE and ties within _TIE_WINDOW.
    """
    quad, quad_high, lead_byte, sig4, masks, form, word0, word3 = _batch_tables()[3:]
    a = np.abs(x)
    inside = (a >= _BATCH_RANGE[0]) & (a <= _BATCH_RANGE[1])
    a = np.where(inside, a, 1.0)  # a zero's N is 1e16 here, 0 below
    e10 = np.floor(np.log10(a)).astype(np.int64)
    n, frac = _scaled(a, e10)
    off = (n < 10**16) | (n >= 10**17)
    if off.any():
        e10[off] += np.where(n[off] < 10**16, -1, 1)
        n[off], frac[off] = _scaled(a[off], e10[off])
    n += frac > 0.5  # cannot carry to 1e17: no float64 lies that close below 10**k
    zero = x == 0
    template = ~(inside | zero) | (np.abs(frac - 0.5) < _TIE_WINDOW) | (n < 10**16) | (n >= 10**17)
    n[template | zero] = 0  # keeps every gather below in range

    # int64 // and multiply-subtract beat divmod, and int64 indices beat uint64 ones
    s, high = (16 - _SCALES.start) - e10, n // 10**8
    lead = high // 10**8
    table = np.empty((n.size, 4), dtype="<u8")
    table[:, 0] = word0.take(s) | lead_byte.take(lead) | np.signbit(x) * np.uint64(ord("-"))
    quads = []
    for half in (high - lead * 10**8, n - high * 10**8):  # D1-D8, D9-D16
        top = half // 10**4
        quads += [top, half - top * 10**4]
    sig = np.maximum(np.maximum(sig4[0].take(quads[0]), sig4[1].take(quads[1])),
                     np.maximum(sig4[2].take(quads[2]), sig4[3].take(quads[3])))
    row, carry = form.take(s) + sig, np.uint64(0)
    for i in range(2):  # each word's masks are gathered as it is laid out: fewer live arrays
        word = quad.take(quads[2 * i]) | quad_high.take(quads[2 * i + 1])
        table[:, i + 1] = (word & masks[i].take(row)) | masks[5 + i].take(row) | (
            ((word << 8) | carry) & masks[2 + i].take(row))
        carry = word >> 56
    table[:, 3] = (carry & masks[4].take(row)) | word3.take(s)
    fallback = np.flatnonzero(template)
    texts = np.array([b"%.17g" % v for v in x[fallback].tolist()], dtype="S32")
    table[fallback] = texts.view("<u8").reshape(-1, 4)
    return table.view(np.uint8)


def _distinct17(bits: np.ndarray) -> np.ndarray:
    """uint8 table whose row i is fmt17 of the float64 bits[i], NUL-padded, then a comma.

    By ``_fmt17_batch`` (32-byte rows, at most _BLOCK_CELLS a call) when there are at least
    _BATCH_MIN_DISTINCT values, else in one template call (rows a byte past the longest text).
    """
    x = bits.view(np.float64)
    if x.size >= _BATCH_MIN_DISTINCT:
        table = np.concatenate([_fmt17_batch(x[i : i + _BLOCK_CELLS])
                                for i in range(0, x.size, _BLOCK_CELLS)])
    else:
        texts = np.array((b"\n".join([b"%.17g"] * x.size) % tuple(x.tolist())).split(b"\n"))
        table = np.zeros((len(texts), texts.itemsize + 1), dtype=np.uint8)
        table[:, :-1] = texts.view(np.uint8).reshape(len(texts), texts.itemsize)
    table[:, -1] = ord(",")
    return table


def _lines17(shape: tuple[int, int], rows: Callable[[slice], np.ndarray],
             labels: np.ndarray | None = None) -> Iterator[bytes]:
    """Yield the lines of a 2-D float64 array, one block of rows at a time: each cell
    as fmt17, then a comma (a line's last, a newline).

    ``rows`` returns the array's rows in a slice, so no caller needs the whole
    array.  ``labels``, if given, holds the NUL-padded uint8 bytes that start
    each line: its label and a comma, or a newline when there are no cells.
    A sort of a block's bit patterns, less its +0.0 cells (code 0, so -0.0 stays
    apart), finds the distinct values: formatted once when at least half the
    cells repeat, else every cell is.  A block holds _BLOCK_CELLS cells, and
    after a table of rows no wider than 8 bytes (few short texts, by the template)
    16 // width times as many, up to _CHUNK_CELLS.
    """
    n_rows, n_cols = shape
    start, cells = 0, _BLOCK_CELLS
    while start < n_rows:
        stop = min(start + max(1, cells // max(n_cols, 1)), n_rows)
        block = np.ascontiguousarray(rows(slice(start, stop)), dtype=np.float64)
        flat = block.view(np.uint64).ravel()
        nonzero = np.flatnonzero(flat != 0)
        ordered = np.sort(flat[nonzero])
        zero = np.zeros(min(1, flat.size - nonzero.size), np.uint64)  # +0.0 if a cell is
        bits = np.concatenate([zero, ordered[:1], ordered[1:][ordered[1:] != ordered[:-1]]])
        del ordered  # freed before the table's temporaries are made
        if 2 * bits.size > flat.size:
            table = _distinct17(flat)
        else:
            codes = np.zeros(flat.size, dtype=np.intp)
            codes[nonzero] = np.searchsorted(bits, flat[nonzero])
            table = np.take(_distinct17(bits), codes, axis=0)
        cells = min(_CHUNK_CELLS, _BLOCK_CELLS * max(1, 16 // table.shape[1]))
        lines = table.reshape(len(block), n_cols * table.shape[1])
        lines[:, -1:] = ord("\n")
        if labels is not None:
            lines = np.concatenate([labels[start:stop], lines], axis=1)
        yield lines.tobytes().translate(None, b"\0")
        start = stop


def _write_csv(path: Path, header: bytes, shape: tuple[int, int],
               rows: Callable[[slice], np.ndarray], labels: np.ndarray | None = None) -> None:
    """Write ``header``, then each block of ``_lines17`` as soon as it is made."""
    with open(path, "wb") as f:
        f.write(header)
        f.writelines(_lines17(shape, rows, labels))


def _list(value, path: str) -> Iterator:
    """Yield a JSON list's items; any other value is refused when the first item is asked for."""
    if not isinstance(value, list):
        raise ValueError(f"{path}: expected a list")
    yield from value


def _edges(raw) -> Iterator[tuple[Iterator, object]]:
    """Yield each edge's members and weight, its shape checked when the reader reaches it."""
    for j, e in enumerate(_list(raw, "edges")):
        if not isinstance(e, dict):
            raise ValueError(f"edges[{j}]: expected an object")
        if "members" not in e:
            raise ValueError(f"edges[{j}]: missing required key 'members'")
        yield _list(e["members"], f"edges[{j}].members"), e.get("weight", 1)


def _json_int(text: str) -> int:
    """An optional sign and ASCII digits (a JSON integer, or a CLI partition member) as an int;
    past _STR_DIGITS significant digits, where int() refuses, the signed power of ten with as
    many, so the check of its value refuses it by that count."""
    if len(text) <= _STR_DIGITS:
        return int(text)
    digits = text.lstrip("+-").lstrip("0")  # int() counts leading zeros against its limit too
    value = int(digits or "0") if len(digits) <= _STR_DIGITS else 10 ** (len(digits) - 1)
    return -value if text[0] == "-" else value


def parse_hypergraph(text: str) -> Hypergraph:
    """Parse the JSON hypergraph document into the domain type.

    Shape: {"vertices": n, "vertex_weights": [...]?, "edges":
    [{"members": [ints], "weight": number?}, ...]}.  Missing weights default
    to 1.  This checks the document's shape, lazily; ``Hypergraph`` checks the
    values, so errors come in document order and carry the document path.
    """
    try:
        doc = json.loads(text, parse_int=_json_int)
    except json.JSONDecodeError as exc:
        raise ValueError(f"malformed JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ValueError(f"document root: expected an object, got {type(doc).__name__}")
    if "vertices" not in doc:
        raise ValueError("document: missing required key 'vertices'")
    weights = doc.get("vertex_weights")
    return Hypergraph(doc["vertices"], _edges(doc.get("edges", [])),
                      None if weights is None else _list(weights, "vertex_weights"))


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


def write_matrix_csv(path: Path, matrix: np.ndarray, row_labels: Sequence[str],
                     col_labels: Sequence[str]) -> None:
    """Labeled CSV: header of column labels, one labeled row per matrix row (no NUL in a label)."""
    mat = np.atleast_2d(np.asarray(matrix, dtype=np.float64))
    if len(row_labels) != len(mat):
        raise ValueError(f"{len(row_labels)} row labels for a matrix of {len(mat)} rows")
    if any("\0" in label for label in row_labels):
        raise ValueError("row labels may not contain a NUL character")
    end = "," if mat.shape[1] else "\n"
    labels = np.array([(label + end).encode("utf-8") for label in row_labels], dtype=bytes)
    labels = labels.view(np.uint8).reshape(len(labels), labels.itemsize)
    header = ",".join([""] + list(col_labels)).encode("utf-8") + b"\n"
    _write_csv(path, header, mat.shape, mat.__getitem__, labels)


def dump_state(s: QubitStateVector, out: BinaryIO) -> None:
    """Write one ASCII line per basis state to the binary stream ``out``: bitstring (qubit 1
    leftmost), real part, imaginary part.  Each block of lines is written as soon as it is made."""
    n = s.n_qubits
    c = 2.0 ** (-n / 2.0)
    # the sign table picks each line's tail: (c, 0) where f = 0, (-c, -0) where f = 1
    tails = np.array([b" %.17g %.17g\n" % (c, 0.0), b" %.17g %.17g\n" % (-c, -0.0)])
    tails = tails.view(np.uint8).reshape(2, tails.itemsize)  # NUL-padded
    width, step = -(-n // 8), _BLOCK_CELLS // 2
    for start in range(0, 2**n, step):
        # labels: the index's big-endian bits, less the leading bits beyond n
        index = np.arange(start, min(start + step, 2**n), dtype=">u4").view(np.uint8)
        bits = np.unpackbits(index.reshape(-1, 4)[:, 4 - width :], axis=1)[:, 8 * width - n :]
        lines = [bits + np.uint8(ord("0")), np.take(tails, s.signs[start : start + step], axis=0)]
        out.write(np.concatenate(lines, axis=1).tobytes().translate(None, b"\0"))


def write_state(path: Path, s: QubitStateVector) -> None:
    with open(path, "wb") as f:
        dump_state(s, f)


def write_snapshot(directory: Path, index: int, field: WignerField) -> tuple[Path, Path]:
    """Write one snapshot as CSV plus a JSON metadata sidecar.

    CSV rows run from p_max down to p_min, one column per position cell.
    """
    csv_path, meta_path = (directory / (_SNAPSHOT_NAME.format(index) + ext) for ext in (".csv", ".meta.json"))
    values = field.values[::-1]
    _write_csv(csv_path, b"", values.shape, values.__getitem__)
    meta = {name: getattr(field.grid, name) for name in field.grid.__slots__}  # keys sorted below
    meta.update(t=field.t, field_mode=field.field_mode)
    _write_json(meta_path, meta)
    return csv_path, meta_path


def _write_json(path: Path, obj: dict) -> None:
    """The package's JSON output file: indent 2, sorted keys, a trailing newline, UTF-8."""
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def write_wavefunction(path: Path, psi: Wavefunction) -> None:
    """CSV of position-basis samples: q,re,im per cell center."""
    pairs = psi.samples.view(np.float64).reshape(-1, 2)  # (re, im) without a copy

    def rows(s: slice) -> np.ndarray:
        return np.column_stack([psi.q_min + (np.arange(s.start, s.stop) + 0.5) * psi.dq, pairs[s]])

    _write_csv(path, b"q,re,im\n", (psi.n_q, 3), rows)


def read_wavefunction(path: Path) -> Wavefunction:
    """Inverse of write_wavefunction; the q column must be uniformly spaced."""
    every = path.read_text(encoding="utf-8").splitlines()
    lines = [(k, ln) for k, ln in enumerate(every, 1) if ln.strip()]  # errors name line k
    if lines and lines[0][1].lower().replace(" ", "") == "q,re,im":
        lines = lines[1:]
    if len(lines) < 2:
        raise ValueError(f"{path}: wavefunction file needs at least 2 samples")
    qs, amps = [], []
    for k, line in lines:
        parts = line.split(",")
        if len(parts) != 3:
            raise ValueError(f"{path}:{k}: expected 'q,re,im'")
        try:
            qs.append(float(parts[0]))
            amps.append(complex(float(parts[1]), float(parts[2])))  # keeps the sign of a zero
        except ValueError:
            raise ValueError(f"{path}:{k}: non-numeric value") from None
    q = np.array(qs)
    dq = q[1] - q[0]
    if dq <= 0 or not np.allclose(np.diff(q), dq, rtol=1e-9, atol=1e-12):
        raise ValueError(f"{path}: q column is not uniformly increasing")
    try:
        return Wavefunction(float(q[0] - dq / 2), float(q[-1] + dq / 2), np.array(amps))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
