"""Self-tests of the benchmark, run from the repository root:

    python3 bench/selftest.py

Checks that the oracles accept the program's real output and reject
deliberately corrupted output, that a small-size run of every workload
through fresh processes fails nothing, that the tracer sees nested calls,
that BENCHMARK.json lists exactly the metrics run.py prints, and that the
benchmark refuses to run without the package.  Exits 1 on the first failure.
"""

from __future__ import annotations

import itertools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
from workloads import WORKLOADS, truth_table  # noqa: E402

WORK = run.WORK / "selftest"


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"FAIL: {message}")


def small_case(name: str, seed: int = 7):
    directory = WORK / name
    (directory / "inputs").mkdir(parents=True)
    case = WORKLOADS[name].make(np.random.default_rng(seed), directory / "inputs", True)
    return case, directory / "out", directory / "report.json"


def test_truth_table() -> None:
    rng = np.random.default_rng(3)
    for _ in range(50):
        n = int(rng.integers(1, 7))
        edges = [sorted(rng.choice(np.arange(1, n + 1), size=int(rng.integers(0, n + 1)),
                                   replace=False).tolist()) for _ in range(int(rng.integers(0, 6)))]
        for x, bits in enumerate(itertools.product((0, 1), repeat=n)):
            want = sum(all(bits[v - 1] for v in e) for e in edges) % 2
            expect(truth_table(n, edges)[x] == want, f"truth table n={n} edges={edges} x={x}")


def test_tail() -> None:
    walls = [float(i) for i in range(25)]
    expect(run.tail(walls) == (14.0, 60), f"tail of 25 samples: {run.tail(walls)}")
    expect(run.tail(walls[:11]) == (0.0, 9), "tail of 11 samples")


def corrupt(out: Path, name: str) -> None:
    """Damage one output in the way the workload's oracle must catch."""
    if name == "encode-partitioned":
        lines = (out / "state.txt").read_text().splitlines()
        bits, re, im = lines[5].split()
        lines[5] = f"{bits} {re[1:] if re.startswith('-') else '-' + re} {im}"
        (out / "state.txt").write_text("\n".join(lines) + "\n")
    elif name == "matrices":
        lines = (out / "laplacian.csv").read_text().splitlines()
        cells = lines[2].split(",")
        cells[3] = str(float(cells[3]) + 1.0)
        lines[2] = ",".join(cells)
        (out / "laplacian.csv").write_text("\n".join(lines) + "\n")
    else:
        path = out / "snapshot_0001.csv"
        rows = [line.split(",") for line in path.read_text().splitlines()]
        path.write_text("\n".join(",".join(r[-1:] + r[:-1]) for r in rows) + "\n")


# Calls the tracer must see inside their caller, not only at the cli level.
NESTED = {
    "evolve-stream": [("wigner.free_stream_step", "wigner.evolve")],
    "evolve-snapshots": [("wigner.wigner_transform", "wigner.wigner_transform_pure")],
    "encode-partitioned": [("hyperstate.apply_ckz", "hyperstate.encode_hypergraph")],
    "matrices": [("hypergraph.incidence_matrix", "hypergraph.momentum_laplacian")],
}


def test_workloads() -> None:
    """Small run of every workload: fresh processes, oracle, byte identity, trace, corruption."""
    for name in WORKLOADS:
        case, out, report = small_case(name)
        first = run.invoke(case, out, report, probe=True)
        expect(first.code == 0, f"{name}: exit {first.code}")
        check = case.check(out)
        expect(check.ok, f"{name}: oracle rejects the real output: {check.problems}")
        reference = run.digests(out)
        for _ in range(2):
            expect(run.invoke(case, out, report).code == 0 and run.digests(out) == reference,
                   f"{name}: repeated invocation differs from the first")

        traced = run.invoke(case, out, report, trace=True)
        expect(traced.code == 0 and run.digests(out) == reference, f"{name}: tracing changed the output")
        totals = run.layer_totals(traced.spans)
        for function, _ in run.PER_LAYER[name]:
            expect(totals[function]["calls"] > 0, f"{name}: no span for {function}")
        expect("formats.fmt17" not in totals, "fmt17 must not be wrapped")
        expect(traced.spans[0][0] == "cli.main" and traced.spans[0][3] == -1, "cli.main is not the root")
        for inner, outer in NESTED.get(name, ()):
            expect(any(s[0] == inner and traced.spans[s[3]][0] == outer for s in traced.spans),
                   f"{name}: {inner} not seen inside {outer}")

        corrupt(out, name)
        expect(not case.check(out).ok, f"{name}: oracle accepts corrupted output")
        expect(run.digests(out) != reference, f"{name}: digests miss the corruption")
        print(f"ok {name}: oracle err {check.err:.3g}, spans {len(traced.spans)}")


def test_benchmark_json() -> None:
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    expect({w["name"]: w["why"] for w in spec["workloads"]}
           == {w.name: w.why for w in WORKLOADS.values()}, "BENCHMARK.json workloads != workloads.py")
    expect({(m["name"], m["unit"]) for m in spec["per_layer"]} == set(run.per_layer_names()),
           "BENCHMARK.json per_layer != run.PER_LAYER")
    printed = {(m["name"], m["unit"]) for m in spec["end_to_end"]}
    expect(printed == set(run.END_TO_END), "BENCHMARK.json end_to_end != run.END_TO_END")


def test_refuses_without_package() -> None:
    """In a directory holding only BENCHMARK.json and bench/, run.py fails without a result."""
    bare = WORK / "bare"
    shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", bare)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "matrices", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=bare, capture_output=True,
                          text=True, timeout=120)
    expect(proc.returncode != 0 and '"correct"' not in proc.stdout,
           f"bare directory: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}")


def main() -> int:
    shutil.rmtree(WORK, ignore_errors=True)
    try:
        for test in (test_truth_table, test_tail, test_benchmark_json, test_workloads,
                     test_refuses_without_package):
            test()
            print(f"ok {test.__name__}")
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
