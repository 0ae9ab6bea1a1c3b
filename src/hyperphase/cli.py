"""Command-line surface: info, matrices, encode, evolve, wigner-transform.

Exit codes: 0 success, 1 validation error, 2 I/O error or a command line that
argparse refuses.  Output lands in --out, falling back to the WHN_OUTPUT_DIR
environment variable, then the current directory.
"""

from __future__ import annotations

import argparse
import gc
import os
import re
import sys
from pathlib import Path

import numpy as np

from . import formats
from .hypergraph import (
    Hypergraph,
    PartitionEnsemble,
    _echo,
    _edge_degrees,
    _require_cells,
    _require_int,
    _require_number,
    _require_real,
    _vertex_degrees,
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
    apply_ckz,
    boolean_function,
    encode_hypergraph,
    encode_partitioned,
    is_real_equally_weighted,
)
from .phasemap import _boundary, build_phase_map, grid_from_boundary, initial_field_from_hypergraph
from .wigner import (
    MAX_CELLS,
    _gaussian_wigner,
    _mass,
    _stretches,
    evolve,
    gaussian_wavefunction,
    make_grid,
    total_mass,
    wigner_transform_pure,
)

OUTPUT_DIR_ENV = "WHN_OUTPUT_DIR"
# evolve's cap of steps * max(n_q * n_p, 2**12) cell-steps: about a minute on a 2-core x86-64 VM
_MAX_STEP_WORK = 2**36


def _load_hypergraph(path: str) -> Hypergraph:
    return formats.parse_hypergraph(Path(path).read_text(encoding="utf-8"))


def _output_dir(args: argparse.Namespace) -> Path:
    out = args.out or os.environ.get(OUTPUT_DIR_ENV) or "."
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _parse_partition_spec(spec: str) -> list[list[int]]:
    """Vertex groups from '1,4|2,3': each member an optional sign and ASCII digits, read as a
    JSON integer is, so a run past 4300 digits reaches PartitionEnsemble by its digit count."""
    parts = []
    for k, group in enumerate(spec.split("|")):
        members = []
        for token in group.split(","):
            token = token.strip()
            if not token:
                raise ValueError(f"partition part {k + 1}: empty member in {_echo(group)}")
            if not re.fullmatch(r"[+-]?[0-9]+", token):
                raise ValueError(f"partition part {k + 1}: {_echo(token)} is not an integer")
            members.append(formats._json_int(token))
        parts.append(members)
    return parts


def cmd_info(args: argparse.Namespace) -> int:
    h = _load_hypergraph(args.hypergraph)
    dv, de = _vertex_degrees(h), _edge_degrees(h)  # vectors: no n x n or m x m diagonal
    print(f"vertices: {h.n_vertices}")
    print("vertex weights: " + ", ".join(formats.fmt17(w) for w in h.vertex_weights))
    print(f"hyperedges: {h.n_edges}")
    for j, (members, w) in enumerate(h.hyperedges):
        body = "{" + ",".join(str(v) for v in sorted(members)) + "}"
        print(f"  e{j + 1}: {body} weight {formats.fmt17(w)}")
    print("vertex degrees: " + ", ".join(formats.fmt17(d) for d in dv))
    print("edge degrees: " + ", ".join(formats.fmt17(d) for d in de))
    if h.n_edges:  # the extents grid_from_boundary takes, by its rule
        print("boundary:", ", ".join(f"max {name} {formats.fmt17(v)}" for name, v in _boundary(h).items()))
    return 0


def cmd_matrices(args: argparse.Namespace) -> int:
    h = _load_hypergraph(args.hypergraph)
    n, m = h.n_vertices, h.n_edges
    _require_cells("largest matrix", max(n, m), max(n, m))  # before the first file is written
    out = _output_dir(args)
    vl, el = [f"v{i + 1}" for i in range(n)], [f"e{j + 1}" for j in range(m)]
    files = (  # each matrix is built as it is written, so one is alive at a time
        ("incidence.csv", incidence_matrix, vl, el),
        ("vertex_degree.csv", vertex_degree_matrix, vl, vl),
        ("edge_degree.csv", edge_degree_matrix, el, el),
        ("edge_weight_sum.csv", edge_weight_sum_matrix, el, el),
        ("adjacency.csv", adjacency_matrix, vl, vl),
        ("laplacian.csv", momentum_laplacian, vl, vl),
        ("position_laplacian.csv", position_laplacian, vl, vl),
    )
    for name, build, rows, cols in files:
        formats.write_matrix_csv(out / name, build(h), rows, cols)
        print(f"wrote {out / name}")
    return 0


def cmd_encode(args: argparse.Namespace) -> int:
    h = _load_hypergraph(args.hypergraph)
    plain = encode_hypergraph(h)
    table = boolean_function(plain)
    state = apply_ckz(plain, range(1, h.n_vertices + 1)) if args.with_global_gate else plain
    report: dict = {
        "n_qubits": h.n_vertices,
        "n_edges": h.n_edges,
        "empty_edges": sum(1 for m, _ in h.hyperedges if not m),
        "global_gate": bool(args.with_global_gate),
        "real_equally_weighted": is_real_equally_weighted(state),
        "f_table_ones": int(table.sum()),
        "f_table_size": table.size,
    }
    files = {"state.txt": state}
    if args.partition:  # every refusal comes before the first file is written
        ensemble = PartitionEnsemble(h, _parse_partition_spec(args.partition), args.delta)
        balance = is_balanced(ensemble)
        states, combined = encode_partitioned(h, ensemble)
        files.update((f"part_{k + 1}.txt", s) for k, s in enumerate(states))
        files["combined.txt"] = combined
        report["partition"] = {name: getattr(balance, name) for name in balance.__slots__}
        report["partition"].update(parts=[sorted(p) for p in ensemble.parts], cut_cost=cut_cost(ensemble))

    out = _output_dir(args)
    for name, s in files.items():
        formats.write_state(out / name, s)
    formats._write_json(out / "report.json", report)  # the report's tuples become lists
    print(f"encoded {h.n_vertices}-qubit state ({2 ** h.n_vertices} amplitudes) -> {out / 'state.txt'}")
    print(f"real equally weighted: {report['real_equally_weighted']}")
    if args.partition:
        print(f"cut cost: {formats.fmt17(report['partition']['cut_cost'])}, "
              f"balanced: {report['partition']['balanced']}")
    return 0


def cmd_evolve(args: argparse.Namespace) -> int:
    stretches = _stretches(args.steps, args.snapshot_every)  # checks both counts before the caps
    # n_q * n_p is clipped to MAX_CELLS: a larger grid is refused with its own message
    _require_int(args.steps * max(min(args.nq * args.np, MAX_CELLS), 2**12), f"steps * max(n_q * n_p, 4096) "
                 f"for steps={args.steps} on an n_q={args.nq} x n_p={args.np} grid", high=_MAX_STEP_WORK)
    if args.snapshot_every and args.steps > formats._MAX_SNAPSHOTS * args.snapshot_every:
        raise ValueError(f"steps={args.steps} with snapshot_every={args.snapshot_every} writes "
                         f"more than {formats._MAX_SNAPSHOTS} snapshots")
    if (args.t is None) == (args.dt is None):
        raise ValueError("evolve needs exactly one of --t (total time) or --dt (time step)")
    dt = args.dt if args.t is None else _require_real(args.t, "t") / args.steps
    if args.t and not dt:  # a nonzero t too small to split: every step would leave the field as it is
        raise ValueError(f"t / steps for t={args.t}, steps={args.steps} underflows to 0.0")

    if args.physical is not None:
        if args.physical != "gaussian":
            raise ValueError(f"unknown physical state {_echo(args.physical)} (expected 'gaussian')")
        ext = _require_number(args.extent, "extent")
        grid = make_grid(args.nq, args.np, (-ext, ext), (-ext, ext), args.mass, args.hbar)
        w = wigner_transform_pure(gaussian_wavefunction(grid, sigma=args.sigma), grid)
        run: dict = {"mode": "physical", "sigma": args.sigma}
    else:
        if args.hypergraph is None:
            raise ValueError("evolve needs a hypergraph document (or --physical gaussian)")
        h = _load_hypergraph(args.hypergraph)
        grid = grid_from_boundary(h, args.nq, args.np, args.margin, args.mass, args.hbar)
        pmap = build_phase_map(h, grid)
        w = initial_field_from_hypergraph(h, grid, args.k_default)
        run = {"mode": "hypergraph", "k_default": args.k_default, "margin": args.margin,
               "degree_source": pmap.degree_source,
               "momentum_rows": {str(k): v for k, v in pmap.momentum_rows.items()}}

    # The first field's masses are taken before the first stretch, and rebinding w frees each
    # field once the next is made.  --out is made once the first stretch and its mass have passed
    # their checks, so a refused step leaves it as it was; a later stretch can still be refused
    # (only t or its mass overflowing float64 does that), before its snapshot is written.
    m0, l1_mass = total_mass(w), _mass(np.abs(w.values), grid)
    out, masses = None, []
    for i, stretch in enumerate(stretches, start=1):
        w = evolve(w, dt, stretch)[0]
        masses.append(total_mass(w))
        out = out or _output_dir(args)
        formats.write_snapshot(out, i, w)
    if args.physical is not None:
        err = _gaussian_wigner(grid, args.sigma, w.t)  # the analytic field, then its error
        run["max_error_vs_analytic"] = float(np.max(np.abs(np.subtract(w.values, err, out=err), out=err)))
    drift = max(abs(mi - m0) for mi in masses)
    # relative to the L1 mass: a plane-wave field's signed mass is rounding noise
    run.update(snapshots=len(masses), mass_initial=m0, mass_drift_abs=drift,
               mass_drift_rel=drift / max(l1_mass, 1e-30), n_q=grid.n_q, n_p=grid.n_p, dt=dt,
               steps=args.steps, snapshot_every=args.snapshot_every)
    formats._write_json(out / "run.json", run)
    print(f"wrote {run['snapshots']} snapshots to {out}")
    print(f"mass drift: {run['mass_drift_rel']:.3e} (relative), {run['mass_drift_abs']:.3e} (absolute)")
    if "max_error_vs_analytic" in run:
        print(f"max error vs analytic shear: {run['max_error_vs_analytic']:.3e}")
    return 0


def cmd_wigner_transform(args: argparse.Namespace) -> int:
    psi = formats.read_wavefunction(Path(args.state))
    n_p = args.np if args.np is not None else psi.n_q
    p_min = args.pmin if args.pmin is not None else psi.q_min
    p_max = args.pmax if args.pmax is not None else psi.q_max
    grid = make_grid(psi.n_q, n_p, (psi.q_min, psi.q_max), (p_min, p_max), args.mass, args.hbar)
    field = wigner_transform_pure(psi, grid)
    mass, low = total_mass(field), float(field.values.min())  # a refused mass leaves --out as it was
    csv_path, _ = formats.write_snapshot(_output_dir(args), 0, field)
    print(f"wrote {csv_path}")
    print(f"total mass: {formats.fmt17(mass)}")
    print(f"min value: {formats.fmt17(low)}")
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
    p_ev.add_argument("--t", type=float, default=None, help="total time, stepped as t / steps (or --dt)")
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
    # All that is alive here is numpy's and hyperphase's import-time state, kept until exit:
    # frozen, no collection traverses it again, in the run or at shutdown (~30 ms a run).
    gc.freeze()
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
