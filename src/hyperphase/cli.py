"""Command-line surface: info, matrices, encode, evolve, wigner-transform.

Exit codes: 0 success, 1 validation error, 2 I/O error.  Output lands in
--out, falling back to the WHN_OUTPUT_DIR environment variable, then the
current directory.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import formats
from .hypergraph import (
    Hypergraph,
    PartitionEnsemble,
    adjacency_matrix,
    cut_cost,
    edge_degree_matrix,
    edge_weight_sum_matrix,
    incidence_matrix,
    is_balanced,
    momentum_laplacian,
    position_laplacian,
    vertex_degree_matrix,
)
from .hyperstate import (
    boolean_function,
    encode_hypergraph,
    encode_partitioned,
    is_real_equally_weighted,
)
from .phasemap import build_phase_map, grid_from_boundary, initial_field_from_hypergraph
from .wigner import (
    evolve,
    gaussian_wavefunction,
    make_grid,
    total_mass,
    wigner_transform_pure,
)

OUTPUT_DIR_ENV = "WHN_OUTPUT_DIR"


def _load_hypergraph(path: str) -> Hypergraph:
    return formats.parse_hypergraph(Path(path).read_text(encoding="utf-8"))


def _output_dir(args: argparse.Namespace) -> Path:
    out = args.out or os.environ.get(OUTPUT_DIR_ENV) or "."
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _vertex_labels(n: int) -> list[str]:
    return [f"v{i + 1}" for i in range(n)]


def _edge_labels(m: int) -> list[str]:
    return [f"e{j + 1}" for j in range(m)]


def _parse_partition_spec(spec: str, n: int) -> list[list[int]]:
    parts = []
    for k, group in enumerate(spec.split("|")):
        members = []
        for token in group.split(","):
            token = token.strip()
            if not token:
                raise ValueError(f"partition part {k + 1}: empty member in {group!r}")
            try:
                v = int(token)
            except ValueError:
                raise ValueError(f"partition part {k + 1}: {token!r} is not an integer") from None
            if not 1 <= v <= n:
                raise ValueError(f"partition part {k + 1}: vertex {v} out of range 1..{n}")
            members.append(v)
        parts.append(members)
    return parts


def cmd_info(args: argparse.Namespace) -> int:
    h = _load_hypergraph(args.hypergraph)
    dv = np.diag(vertex_degree_matrix(h))
    de = np.diag(edge_degree_matrix(h))
    print(f"vertices: {h.n_vertices}")
    print("vertex weights: " + ", ".join(formats.fmt17(w) for w in h.vertex_weights))
    print(f"hyperedges: {h.n_edges}")
    for j, (members, w) in enumerate(h.hyperedges):
        body = "{" + ",".join(str(v) for v in sorted(members)) + "}"
        print(f"  e{j + 1}: {body} weight {formats.fmt17(w)}")
    print("vertex degrees: " + ", ".join(formats.fmt17(d) for d in dv))
    print("edge degrees: " + ", ".join(formats.fmt17(d) for d in de))
    if h.n_edges:
        print(f"boundary: max edge weight {formats.fmt17(max(h.edge_weights()))}, "
              f"max vertex degree {formats.fmt17(float(dv.max()) if dv.size else 0.0)}")
    return 0


def cmd_matrices(args: argparse.Namespace) -> int:
    h = _load_hypergraph(args.hypergraph)
    out = _output_dir(args)
    vl, el = _vertex_labels(h.n_vertices), _edge_labels(h.n_edges)
    files = {
        "incidence.csv": (incidence_matrix(h), vl, el),
        "vertex_degree.csv": (vertex_degree_matrix(h), vl, vl),
        "edge_degree.csv": (edge_degree_matrix(h), el, el),
        "edge_weight_sum.csv": (edge_weight_sum_matrix(h), el, el),
        "adjacency.csv": (adjacency_matrix(h), vl, vl),
        "laplacian.csv": (momentum_laplacian(h), vl, vl),
        "position_laplacian.csv": (position_laplacian(h), vl, vl),
    }
    for name, (matrix, rows, cols) in files.items():
        formats.write_matrix_csv(out / name, matrix, rows, cols)
        print(f"wrote {out / name}")
    return 0


def cmd_encode(args: argparse.Namespace) -> int:
    h = _load_hypergraph(args.hypergraph)
    out = _output_dir(args)
    state = encode_hypergraph(h, global_gate=args.with_global_gate)
    formats.write_state(out / "state.txt", state)
    table = boolean_function(h)
    ones = int(sum(table.values))
    report: dict = {
        "n_qubits": h.n_vertices,
        "n_edges": h.n_edges,
        "empty_edges": sum(1 for m, _ in h.hyperedges if not m),
        "global_gate": bool(args.with_global_gate),
        "real_equally_weighted": is_real_equally_weighted(state),
        "f_table_ones": ones,
        "f_table_size": len(table.values),
    }

    if args.partition:
        parts = _parse_partition_spec(args.partition, h.n_vertices)
        ensemble = PartitionEnsemble(h, parts, args.delta)
        balance = is_balanced(ensemble)
        states, combined = encode_partitioned(h, ensemble)
        for k, s in enumerate(states):
            formats.write_state(out / f"part_{k + 1}.txt", s)
        formats.write_state(out / "combined.txt", combined)
        report["partition"] = {
            "parts": [sorted(p) for p in ensemble.parts],
            "delta": ensemble.delta,
            "part_weights": list(balance.part_weights),
            "mean_weight": balance.mean_weight,
            "bound": balance.bound,
            "per_part_ok": list(balance.per_part_ok),
            "balanced": balance.balanced,
            "cut_cost": cut_cost(ensemble),
        }

    (out / "report.json").write_text(
        json.dumps(report, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(f"encoded {h.n_vertices}-qubit state ({2 ** h.n_vertices} amplitudes) -> {out / 'state.txt'}")
    print(f"real equally weighted: {report['real_equally_weighted']}")
    if args.partition:
        print(f"cut cost: {formats.fmt17(report['partition']['cut_cost'])}, "
              f"balanced: {report['partition']['balanced']}")
    return 0


def _write_series(out: Path, snapshots) -> list[float]:
    masses = []
    for i, snap in enumerate(snapshots, start=1):
        formats.write_snapshot(out, i, snap)
        masses.append(total_mass(snap))
    return masses


def cmd_evolve(args: argparse.Namespace) -> int:
    out = _output_dir(args)
    if args.steps < 1:
        raise ValueError(f"steps must be >= 1, got {args.steps}")

    if args.physical is not None:
        if args.physical != "gaussian":
            raise ValueError(f"unknown physical state {args.physical!r} (expected 'gaussian')")
        if args.t is not None:
            dt = args.t / args.steps
        elif args.dt is not None:
            dt = args.dt
        else:
            raise ValueError("physical mode needs --t (total time) or --dt")
        ext = args.extent
        grid = make_grid(args.nq, args.np, (-ext, ext), (-ext, ext), args.mass, args.hbar)
        psi = gaussian_wavefunction(grid, sigma=args.sigma)
        initial = wigner_transform_pure(psi, grid)
        snapshots = evolve(initial, dt, args.steps, args.snapshot_every)
        final = snapshots[-1]
        q = grid.q_centers()[None, :]
        p = grid.p_centers()[:, None]
        sheared = (q - p * final.t / grid.mass) ** 2 / args.sigma**2
        analytic = np.exp(-sheared - (args.sigma * p / grid.hbar) ** 2) / (math.pi * grid.hbar)
        max_err = float(np.max(np.abs(final.values - analytic)))
        run: dict = {"mode": "physical", "sigma": args.sigma, "max_error_vs_analytic": max_err}
    else:
        if args.hypergraph is None:
            raise ValueError("evolve needs a hypergraph document (or --physical gaussian)")
        if args.dt is None:
            raise ValueError("hypergraph mode needs --dt")
        dt = args.dt
        h = _load_hypergraph(args.hypergraph)
        grid = grid_from_boundary(h, args.nq, args.np, args.margin, args.mass, args.hbar)
        pmap = build_phase_map(h, grid)
        initial = initial_field_from_hypergraph(h, grid, args.k_default)
        snapshots = evolve(initial, dt, args.steps, args.snapshot_every)
        run = {
            "mode": "hypergraph",
            "k_default": args.k_default,
            "margin": args.margin,
            "degree_source": pmap.degree_source,
            "momentum_rows": {str(k): v for k, v in pmap.momentum_rows.items()},
        }

    masses = _write_series(out, snapshots)
    m0 = total_mass(initial)
    drift_abs = max(abs(mi - m0) for mi in masses)
    # relative to the L1 mass: a plane-wave field's signed mass is rounding noise
    l1_mass = float(np.abs(initial.values).sum() * grid.dq * grid.dp)
    drift_rel = drift_abs / max(l1_mass, 1e-30)
    run.update(
        {
            "n_q": grid.n_q,
            "n_p": grid.n_p,
            "dt": dt,
            "steps": args.steps,
            "snapshot_every": args.snapshot_every,
            "snapshots": len(snapshots),
            "mass_initial": m0,
            "mass_drift_abs": drift_abs,
            "mass_drift_rel": drift_rel,
        }
    )
    (out / "run.json").write_text(json.dumps(run, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(snapshots)} snapshots to {out}")
    print(f"mass drift: {drift_rel:.3e} (relative), {drift_abs:.3e} (absolute)")
    if "max_error_vs_analytic" in run:
        print(f"max error vs analytic shear: {run['max_error_vs_analytic']:.3e}")
    return 0


def cmd_wigner_transform(args: argparse.Namespace) -> int:
    out = _output_dir(args)
    psi = formats.read_wavefunction(Path(args.state))
    n_p = args.np if args.np is not None else psi.n_q
    p_min = args.pmin if args.pmin is not None else psi.q_min
    p_max = args.pmax if args.pmax is not None else psi.q_max
    grid = make_grid(psi.n_q, n_p, (psi.q_min, psi.q_max), (p_min, p_max), args.mass, args.hbar)
    field = wigner_transform_pure(psi, grid)
    csv_path, _ = formats.write_snapshot(out, 0, field)
    print(f"wrote {csv_path}")
    print(f"total mass: {formats.fmt17(total_mass(field))}")
    print(f"min value: {formats.fmt17(float(field.values.min()))}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hyperphase",
        description="Hypergraph matrix algebra, phase-space Wigner evolution, "
        "and n-qubit hypergraph-state encoding.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_out(p: argparse.ArgumentParser) -> None:
        p.add_argument("--out", default=None, help=f"output directory (default: ${OUTPUT_DIR_ENV} or .)")

    p_info = sub.add_parser("info", help="summarize a hypergraph document")
    p_info.add_argument("hypergraph", help="path to the JSON hypergraph document")
    p_info.set_defaults(func=cmd_info)

    p_mat = sub.add_parser("matrices", help="write incidence, degree, adjacency, and Laplacian CSVs")
    p_mat.add_argument("hypergraph")
    add_out(p_mat)
    p_mat.set_defaults(func=cmd_matrices)

    p_enc = sub.add_parser("encode", help="encode the hypergraph into an n-qubit state")
    p_enc.add_argument("hypergraph")
    p_enc.add_argument("--partition", default=None, metavar="SPEC",
                       help="vertex groups like '1,4|2,3' for per-part encodings")
    p_enc.add_argument("--delta", type=float, default=0.1, help="balance factor in (0,1)")
    p_enc.add_argument("--with-global-gate", action="store_true",
                       help="additionally apply the all-qubits gate")
    add_out(p_enc)
    p_enc.set_defaults(func=cmd_encode)

    p_ev = sub.add_parser("evolve", help="free-stream a field and write CSV snapshots")
    p_ev.add_argument("hypergraph", nargs="?", default=None)
    p_ev.add_argument("--nq", type=int, default=64)
    p_ev.add_argument("--np", type=int, default=64)
    p_ev.add_argument("--dt", type=float, default=None)
    p_ev.add_argument("--steps", type=int, default=100)
    p_ev.add_argument("--snapshot-every", type=int, default=1)
    p_ev.add_argument("--margin", type=float, default=0.25)
    p_ev.add_argument("--k-default", type=float, default=0.0)
    p_ev.add_argument("--mass", type=float, default=1.0)
    p_ev.add_argument("--hbar", type=float, default=1.0)
    p_ev.add_argument("--physical", default=None, metavar="STATE",
                      help="evolve a physical test state instead (only 'gaussian')")
    p_ev.add_argument("--sigma", type=float, default=1.0, help="gaussian width (physical mode)")
    p_ev.add_argument("--t", type=float, default=None, help="total time (physical mode)")
    p_ev.add_argument("--extent", type=float, default=8.0,
                      help="half-extent of the symmetric grid (physical mode)")
    add_out(p_ev)
    p_ev.set_defaults(func=cmd_evolve)

    p_wt = sub.add_parser("wigner-transform", help="Wigner-transform a position-basis state")
    p_wt.add_argument("--state", required=True, help="wavefunction CSV (q,re,im)")
    p_wt.add_argument("--np", type=int, default=None, help="momentum cells (default: n_q)")
    p_wt.add_argument("--pmin", type=float, default=None)
    p_wt.add_argument("--pmax", type=float, default=None)
    p_wt.add_argument("--mass", type=float, default=1.0)
    p_wt.add_argument("--hbar", type=float, default=1.0)
    add_out(p_wt)
    p_wt.set_defaults(func=cmd_wigner_transform)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
