"""Seeded workloads: input generators, CLI argument lists and output oracles.

A workload turns a random generator into input files, the argument list of
one ``hyperphase`` command, and an oracle for that command's output
directory.  The program only ever sees the generated files and arguments.
Every oracle is computed here, independently of the package: truth tables by
the binary Moebius transform, matrices in exact integer arithmetic, Wigner
fields from their closed forms.  ``small=True`` shrinks every size, for the
self-tests.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

# Tolerance of the floating-point oracles (relative to the field's amplitude).
# Today's errors are at most ~1e-11, so this trips on a real error, never on a
# change of rounding.
FIELD_TOL = 1e-9


@dataclass
class Check:
    """Outcome of one oracle: largest deviation and the reasons it failed."""

    err: float
    problems: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.problems


@dataclass
class Case:
    """One generated input: the command (without ``--out``) and its oracle."""

    argv: list[str]
    check: Callable[[Path], Check]
    cells: int = 0  # phase-space cells per free-streaming step, for the trace


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    make: Callable[[np.random.Generator, Path, bool], Case]


def _random_edges(rng, n, m, size_lo, size_hi, w_hi):
    edges = []
    for _ in range(m):
        size = int(rng.integers(size_lo, size_hi + 1))
        members = sorted(int(v) for v in rng.choice(np.arange(1, n + 1), size=size, replace=False))
        edges.append((members, int(rng.integers(1, w_hi + 1))))
    return edges


def _write_doc(path: Path, n: int, edges, vertex_weights=None) -> str:
    doc: dict = {"vertices": n, "edges": [{"members": mem, "weight": w} for mem, w in edges]}
    if vertex_weights is not None:
        doc["vertex_weights"] = vertex_weights
    path.write_text(json.dumps(doc) + "\n", encoding="utf-8")
    return str(path)


def _expect_files(out: Path, names: set[str]) -> list[str]:
    found = {p.name for p in out.iterdir()} if out.is_dir() else set()
    if found != names:
        return [f"output files {sorted(found)} != expected {sorted(names)}"]
    return []


def _read_snapshot(out: Path, index: int) -> tuple[np.ndarray, dict]:
    """Snapshot values with row 0 at p_min (the CSV runs p_max downwards)."""
    values = np.loadtxt(out / f"snapshot_{index:04d}.csv", delimiter=",", ndmin=2)
    meta = json.loads((out / f"snapshot_{index:04d}.meta.json").read_text(encoding="utf-8"))
    return values[::-1], meta


def _centers(lo: float, hi: float, count: int) -> np.ndarray:
    return lo + (np.arange(count) + 0.5) * ((hi - lo) / count)


# --- evolve-stream ----------------------------------------------------------

def make_evolve_stream(rng: np.random.Generator, work: Path, small: bool) -> Case:
    """Hypergraph-driven plane waves free-streamed for many steps, one snapshot.

    The wavenumber is a harmonic 2*pi*j/L_q of the document's q window, so the
    spectral shear is exact and each momentum row must equal
    c_r * cos(K (q - p_r t)), with c_r the number of hyperedges mapped to row r.
    """
    n, m, max_size, n_cells, steps = (5, 8, 3, 32, 10) if small else (12, 40, 5, 256, 100)
    dt, margin = 0.01, 0.25
    edges = _random_edges(rng, n, m, 1, max_size, 9)
    doc = _write_doc(work / "evolve_stream.json", n, edges)

    degree = np.zeros(n, dtype=np.int64)
    for members, w in edges:
        degree[np.array(members) - 1] += w
    q_hi = (1.0 + margin) * float(degree.max())
    p_hi = (1.0 + margin) * float(max(w for _, w in edges))
    k = 2.0 * math.pi * int(rng.integers(1, 5 if small else 9)) / q_hi
    q = _centers(0.0, q_hi, n_cells)
    p = _centers(0.0, p_hi, n_cells)
    counts = np.zeros(n_cells)
    for _, w in edges:
        counts[int(np.argmin(np.abs(p - w)))] += 1.0

    argv = ["evolve", doc, "--nq", str(n_cells), "--np", str(n_cells), "--dt", repr(dt),
            "--steps", str(steps), "--snapshot-every", "0", "--k-default", repr(k)]

    def check(out: Path) -> Check:
        problems = _expect_files(out, {"snapshot_0001.csv", "snapshot_0001.meta.json", "run.json"})
        if problems:
            return Check(math.inf, problems)
        values, meta = _read_snapshot(out, 1)
        t = meta["t"]
        if abs(t - steps * dt) > 1e-9:
            problems.append(f"snapshot t={t}, expected {steps * dt}")
        if values.shape != (n_cells, n_cells) or not np.isfinite(values).all():
            return Check(math.inf, problems + [f"snapshot shape {values.shape} or non-finite"])
        expected = counts[:, None] * np.cos(k * (q[None, :] - p[:, None] * t))
        err = float(np.max(np.abs(values - expected)))
        if not err <= FIELD_TOL * max(1.0, counts.max()):
            problems.append(f"snapshot deviates from the analytic shear by {err:.3e}")
        return Check(err, problems)

    return Case(argv, check, cells=n_cells * n_cells)


# --- evolve-snapshots -------------------------------------------------------

def make_evolve_snapshots(rng: np.random.Generator, work: Path, small: bool) -> Case:
    """A Gaussian Wigner function sheared in a few steps with a snapshot after each.

    Snapshot i must equal the analytic free-streamed Gaussian
    exp(-(q - p t)^2 / sigma^2 - (sigma p)^2) / pi at t = i / steps.
    """
    n_q, n_p, steps = (256, 32, 2) if small else (512, 64, 8)
    extent = 8.0
    sigma = float(rng.uniform(0.8, 1.2))
    argv = ["evolve", "--physical", "gaussian", "--sigma", repr(sigma), "--t", "1",
            "--steps", str(steps), "--nq", str(n_q), "--np", str(n_p), "--snapshot-every", "1"]
    q = _centers(-extent, extent, n_q)[None, :]
    p = _centers(-extent, extent, n_p)[:, None]

    def check(out: Path) -> Check:
        names = {"run.json"}
        for i in range(1, steps + 1):
            names |= {f"snapshot_{i:04d}.csv", f"snapshot_{i:04d}.meta.json"}
        problems = _expect_files(out, names)
        if problems:
            return Check(math.inf, problems)
        err = 0.0
        for i in range(1, steps + 1):
            values, meta = _read_snapshot(out, i)
            t = meta["t"]
            if abs(t - i / steps) > 1e-12:
                problems.append(f"snapshot {i}: t={t}, expected {i / steps}")
            if values.shape != (n_p, n_q) or not np.isfinite(values).all():
                return Check(math.inf, problems + [f"snapshot {i}: shape {values.shape} or non-finite"])
            analytic = np.exp(-((q - p * t) ** 2) / sigma**2 - (sigma * p) ** 2) / math.pi
            err = max(err, float(np.max(np.abs(values - analytic))))
        if not err <= FIELD_TOL:
            problems.append(f"snapshots deviate from the analytic Gaussian by {err:.3e}")
        reported = json.loads((out / "run.json").read_text(encoding="utf-8"))["max_error_vs_analytic"]
        if not reported <= FIELD_TOL:
            problems.append(f"run.json reports max_error_vs_analytic {reported:.3e}")
        return Check(err, problems)

    return Case(argv, check, cells=n_q * n_p)


# --- encode-partitioned -----------------------------------------------------

def truth_table(n: int, edges) -> np.ndarray:
    """f(x) = XOR over edges of AND over members, qubit 1 as the index MSB.

    Built as the binary Moebius transform of the algebraic normal form, whose
    monomials are the edges (an algorithm the package does not use).
    """
    table = np.zeros(2**n, dtype=np.uint8)
    for members in edges:
        table[sum(1 << (n - v) for v in members)] ^= 1
    for bit in range(n):
        view = table.reshape(-1, 2, 1 << bit)
        view[:, 1, :] ^= view[:, 0, :]
    return table


def sign_mismatches(path: Path, n: int, table: np.ndarray) -> int:
    """Lines of a state dump that are not (-1)^f(x) * 2^(-n/2) + 0i, or missing."""
    rows = [line.split() for line in path.read_text(encoding="utf-8").splitlines()]
    if len(rows) != 2**n or any(len(r) != 3 for r in rows):
        return 2**n
    labels = [r[0] for r in rows]
    amps = np.array([r[1:] for r in rows], dtype=np.float64)
    expected = (1.0 - 2.0 * table.astype(np.float64)) * 2.0 ** (-n / 2.0)
    bad = (amps[:, 0] != expected) | (amps[:, 1] != 0.0)
    bad |= np.array(labels) != np.array([format(i, f"0{n}b") for i in range(2**n)])
    return int(bad.sum())


def make_encode_partitioned(rng: np.random.Generator, work: Path, small: bool) -> Case:
    """Hypergraph state of a document cut in two, with per-part and combined states.

    Oracle: every sign of state.txt against the full truth table, of
    part_k.txt and combined.txt against the tables of the uncut edges, and
    report.json's cut_cost against sum(|e| - 1) over edges spanning both parts.
    """
    n, m, max_size, split = (6, 10, 3, 3) if small else (16, 48, 6, 9)
    parts = [list(range(1, split + 1)), list(range(split + 1, n + 1))]
    owner = {v: k for k, part in enumerate(parts) for v in part}
    while True:
        edges = _random_edges(rng, n, m, 1, max_size, 9)
        cut = [len({owner[v] for v in mem}) > 1 for mem, _ in edges]
        if any(cut) and not all(cut):
            break
    doc = _write_doc(work / "encode_partitioned.json", n, edges)
    spec = "|".join(",".join(str(v) for v in part) for part in parts)
    argv = ["encode", doc, "--partition", spec, "--delta", "0.2"]

    members = [mem for mem, _ in edges]
    uncut = [mem for mem, c in zip(members, cut) if not c]
    part_tables = []
    for part in parts:
        local = {v: i + 1 for i, v in enumerate(part)}
        inside = [[local[v] for v in mem] for mem in uncut if owner[mem[0]] == owner[part[0]]]
        part_tables.append((len(part), truth_table(len(part), inside)))
    expected_cut = float(sum(len(mem) - 1 for mem, c in zip(members, cut) if c))

    def check(out: Path) -> Check:
        names = {"state.txt", "combined.txt", "report.json"}
        names |= {f"part_{k + 1}.txt" for k in range(len(parts))}
        problems = _expect_files(out, names)
        if problems:
            return Check(math.inf, problems)
        bad = {
            "state.txt": sign_mismatches(out / "state.txt", n, truth_table(n, members)),
            "combined.txt": sign_mismatches(out / "combined.txt", n, truth_table(n, uncut)),
        }
        for k, (size, table) in enumerate(part_tables):
            bad[f"part_{k + 1}.txt"] = sign_mismatches(out / f"part_{k + 1}.txt", size, table)
        report = json.loads((out / "report.json").read_text(encoding="utf-8"))
        bad["cut_cost"] = int(report["partition"]["cut_cost"] != expected_cut)
        problems = [f"{name}: {count} mismatches" for name, count in bad.items() if count]
        return Check(float(sum(bad.values())), problems)

    return Case(argv, check)


# --- matrices ---------------------------------------------------------------

def _read_labeled(path: Path, rows: list[str], cols: list[str]) -> tuple[np.ndarray, list[str]]:
    lines = path.read_text(encoding="utf-8").splitlines()
    problems = []
    if lines[0].split(",") != [""] + cols:
        problems.append(f"{path.name}: wrong column labels")
    if [line.split(",", 1)[0] for line in lines[1:]] != rows:
        problems.append(f"{path.name}: wrong row labels")
    values = np.loadtxt(lines[1:], delimiter=",", usecols=range(1, len(cols) + 1), ndmin=2)
    return values, problems


def make_matrices(rng: np.random.Generator, work: Path, small: bool) -> Case:
    """All seven matrix CSVs of an integer-weighted document.

    Oracle: each matrix against its own exact integer computation, the
    identities L = D_v - A and L_pos = 2 D_v - H f_w H^T on the parsed CSVs,
    and every entry's distance from an integer.
    """
    n, m = (12, 20) if small else (250, 500)
    edges = _random_edges(rng, n, m, 2, 8, 9)
    vw = [int(x) for x in rng.integers(1, 6, size=n)]
    doc = _write_doc(work / "matrices.json", n, edges, vertex_weights=vw)
    argv = ["matrices", doc]

    inc = np.zeros((n, m), dtype=np.int64)
    for j, (mem, _) in enumerate(edges):
        inc[np.array(mem) - 1, j] = 1
    w = np.array([w for _, w in edges], dtype=np.int64)
    dv = np.diag(inc @ w)
    f_w = np.array(vw, dtype=np.int64) @ inc
    gram_w = (inc * w) @ inc.T
    adjacency = gram_w - dv
    np.fill_diagonal(adjacency, 0)
    expected = {
        "incidence.csv": inc,
        "vertex_degree.csv": dv,
        "edge_degree.csv": np.diag(inc.sum(axis=0)),
        "edge_weight_sum.csv": np.diag(f_w),
        "adjacency.csv": adjacency,
        "laplacian.csv": 2 * dv - gram_w,
        "position_laplacian.csv": 2 * dv - (inc * f_w) @ inc.T,
    }
    vl = [f"v{i + 1}" for i in range(n)]
    el = [f"e{j + 1}" for j in range(m)]
    labels = {"incidence.csv": (vl, el), "edge_degree.csv": (el, el), "edge_weight_sum.csv": (el, el)}

    def check(out: Path) -> Check:
        problems = _expect_files(out, set(expected))
        if problems:
            return Check(math.inf, problems)
        got = {}
        err = 0.0
        for name, want in expected.items():
            values, label_problems = _read_labeled(out / name, *labels.get(name, (vl, vl)))
            problems += label_problems
            if values.shape != want.shape or not np.isfinite(values).all():
                return Check(math.inf, problems + [f"{name}: shape {values.shape} or non-finite"])
            got[name] = values
            err = max(err, float(np.max(np.abs(values - want))),
                      float(np.max(np.abs(values - np.round(values)))))
        dv_got, h_got = got["vertex_degree.csv"], got["incidence.csv"]
        f_got = np.diag(got["edge_weight_sum.csv"])
        err = max(err,
                  float(np.max(np.abs(got["laplacian.csv"] - (dv_got - got["adjacency.csv"])))),
                  float(np.max(np.abs(got["position_laplacian.csv"]
                                      - (2 * dv_got - (h_got * f_got) @ h_got.T)))))
        if err != 0.0:
            problems.append(f"matrices deviate from the exact integer oracle by {err:.3e}")
        return Check(err, problems)

    return Case(argv, check)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "evolve-stream",
            "100 spectral free-streaming steps on a 256x256 hypergraph field, one snapshot: "
            "wigner.free_stream_step dominates",
            make_evolve_stream,
        ),
        Workload(
            "evolve-snapshots",
            "Gaussian Wigner transform on a 512x64 grid, 8 steps with a text snapshot after each: "
            "formats.write_snapshot dominates",
            make_evolve_snapshots,
        ),
        Workload(
            "encode-partitioned",
            "16-qubit hypergraph state cut in two parts, four state dumps: "
            "formats.write_state and the hyperstate encoder dominate",
            make_encode_partitioned,
        ),
        Workload(
            "matrices",
            "seven labeled CSVs of a 250-vertex, 500-edge document: "
            "formats.write_matrix_csv dominates, hypergraph algebra at scale",
            make_matrices,
        ),
    )
}
