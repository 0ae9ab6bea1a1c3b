"""hyperphase benchmark: fresh-process CLI workloads and a traced per-layer breakdown.

Usage, from the repository root:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every sample is a new interpreter running ``bench/child.py``, which imports
``hyperphase.cli`` from ``src/`` and calls ``main(argv)``, so each sample pays
import, run and teardown as a CLI user does.  One child runs at a time (a
closed loop with one client), with BLAS fixed at one thread.  Inputs come
from ``bench/workloads.py`` and depend only on the workload and the seed.

``--trace 0`` runs the named workload: one untimed warm-up invocation whose
output the workload's oracle checks in full and whose bytes become the
reference, then timed invocations for S seconds (and at least MIN_SAMPLES, so
the tail percentile has ten samples beyond it), each right after a run of
``bench/calibrate.py`` (see CAL_REF_S).  A timed invocation fails on a
non-zero exit or on output bytes that differ from the reference.  Reports
wall_s_p50, wall_s_tail, setup_s (seconds importing hyperphase.cli) and
peak_rss_mb.

``--trace 1`` runs every workload, so each per-layer metric is measured in
every traced run: a checked reference invocation each, then for S seconds
rounds of one untraced and one traced invocation per workload.  It reports,
as "<workload>.<layer>.<function>.<field>", per-function self time (span
minus child spans), calls and bytes written, then per workload the tracing
overhead (traced minus untraced median wall seconds) and the oracle's
largest deviation.  The spans are written to ``.bench_work/spans-seed<N>.json``.

Lines starting with '#' are for people; the last line is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

from workloads import WORKLOADS, Case  # noqa: E402

ROOT = BENCH.parent
WORK = ROOT / ".bench_work"
DEFAULT_SEED = 1
MIN_SAMPLES = 11  # the tail percentile needs ten samples beyond it
MIN_ROUNDS = 2  # traced and untraced samples per workload in a traced run
DEADLINE_S = 90.0  # never start an invocation after this much measuring
CHILD_TIMEOUT_S = 30.0
BLAS_THREADS = 1
# Times are reported in reference-speed seconds: each sample's wall time is
# scaled by CAL_REF_S over the wall time of bench/calibrate.py, run just
# before it.  The shared machine's speed drifts by +-20% over minutes, which
# raw medians carry from run to run; the ratio to an adjacent fixed run does
# not.  Raw seconds are printed on the '#' lines.
CAL_REF_S = 0.25

# Per-layer metrics: for each workload, the traced functions and the
# quantities reported for them, named "<workload>.<layer>.<function>.<field>".
PER_LAYER = {
    "evolve-stream": [
        ("wigner.free_stream_step", ("self_s", "calls", "cells_per_s")),
        ("wigner.evolve", ("self_s",)),
        ("phasemap.grid_from_boundary", ("self_s",)),
        ("phasemap.build_phase_map", ("self_s",)),
        ("phasemap.initial_field_from_hypergraph", ("self_s",)),
        ("formats.write_snapshot", ("self_s", "calls", "bytes")),
        ("cli.cmd_evolve", ("self_s",)),
    ],
    "evolve-snapshots": [
        ("wigner.wigner_transform_pure", ("self_s",)),
        ("wigner.wigner_transform", ("self_s",)),
        ("wigner.gaussian_wavefunction", ("self_s",)),
        ("wigner.free_stream_step", ("self_s", "calls", "cells_per_s")),
        ("formats.write_snapshot", ("self_s", "calls", "bytes")),
        ("cli.cmd_evolve", ("self_s",)),
    ],
    "encode-partitioned": [
        ("formats.write_state", ("self_s", "calls", "bytes")),
        ("formats.dump_state", ("self_s",)),
        ("hyperstate.encode_hypergraph", ("self_s",)),
        ("hyperstate.apply_ckz", ("self_s", "calls")),
        ("hyperstate.boolean_function", ("self_s",)),
        ("hyperstate.encode_partitioned", ("self_s",)),
        ("hyperstate.is_real_equally_weighted", ("self_s",)),
        ("hypergraph.cut_cost", ("self_s",)),
        ("cli.cmd_encode", ("self_s",)),
    ],
    "matrices": [
        ("formats.write_matrix_csv", ("self_s", "calls", "bytes")),
        ("formats.parse_hypergraph", ("self_s",)),
        ("hypergraph.incidence_matrix", ("self_s", "calls")),
        ("hypergraph.vertex_degree_matrix", ("calls",)),
        ("hypergraph.momentum_laplacian", ("self_s",)),
        ("hypergraph.position_laplacian", ("self_s",)),
        ("hypergraph.adjacency_matrix", ("self_s",)),
        ("hypergraph.edge_weight_sum_matrix", ("self_s",)),
        ("cli.cmd_matrices", ("self_s",)),
    ],
}
END_TO_END = [
    ("wall_s_p50", "s"),
    ("wall_s_tail", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
]
# The oracle's largest deviation: absolute for fields and matrices, a count of
# mismatched signs and cut costs for the encoder.
ORACLE_UNITS = {"encode-partitioned": "count"}
UNITS = {"self_s": "s", "calls": "count", "bytes": "B", "cells_per_s": "1/s"}


def per_layer_names() -> list[tuple[str, str]]:
    """Every per-layer metric as (name, unit), in a fixed order."""
    names = []
    for workload, functions in PER_LAYER.items():
        for function, fields in functions:
            names += [(f"{workload}.{function}.{f}", UNITS[f]) for f in fields]
        names.append((f"{workload}.trace_overhead_s", "s"))
        names.append((f"{workload}.oracle_err", ORACLE_UNITS.get(workload, "abs")))
    return names


@dataclass
class Sample:
    wall_s: float
    code: int
    import_s: float = math.nan
    peak_rss_mb: float = math.nan
    spans: list | None = None
    report: dict | None = None
    calib_s: float = math.nan


def child_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def invoke(case: Case, out: Path, report: Path, trace: bool = False, probe: bool = False) -> Sample:
    """Run the case's command once in a fresh interpreter, timed from spawn to exit."""
    shutil.rmtree(out, ignore_errors=True)
    report.unlink(missing_ok=True)
    cmd = [sys.executable, str(BENCH / "child.py"), str(report), str(int(trace)),
           str(int(probe)), "--", *case.argv, "--out", str(out)]
    start = time.perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return Sample(time.perf_counter() - start, -1)
    wall = time.perf_counter() - start
    if proc.returncode != 0 or not report.is_file():
        print(f"# invocation failed (exit {proc.returncode}): "
              f"{proc.stderr.decode(errors='replace').strip()[-300:]}")
        return Sample(wall, proc.returncode or -1)
    data = json.loads(report.read_text(encoding="utf-8"))
    return Sample(wall, data["code"], data["import_s"], data["peak_rss_mb"], data.get("spans"), data)


def calibrate() -> float:
    """Wall seconds of one run of the fixed calibration child."""
    start = time.perf_counter()
    subprocess.run([sys.executable, str(BENCH / "calibrate.py")], cwd=ROOT, env=child_env(),
                   check=True, timeout=CHILD_TIMEOUT_S)
    return time.perf_counter() - start


def digests(out: Path) -> dict[str, str]:
    return {p.name: hashlib.blake2b(p.read_bytes()).hexdigest() for p in sorted(out.iterdir())}


def git_commit() -> str | None:
    """HEAD of the checkout's own .git, read directly; None outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance(probe: dict) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": probe.get("numpy"),
        "blas": probe.get("blas"),
        "blas_threads": probe.get("blas_threads"),
        "blas_threads_env": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "git_commit": git_commit(),
        "isolation": "none: no CPU pinning, governor change or cache drop; one child at a time",
    }


class NoResult(Exception):
    """Nothing could be measured, so no result line is printed."""


class Bench:
    """Inputs, reference output and samples of one workload in a run."""

    def __init__(self, name: str, seed: int, work: Path) -> None:
        self.name = name
        self.dir = work / name
        (self.dir / "inputs").mkdir(parents=True)
        rng = np.random.default_rng([seed, list(WORKLOADS).index(name)])
        self.case = WORKLOADS[name].make(rng, self.dir / "inputs", False)
        self.out, self.report = self.dir / "out", self.dir / "report.json"
        self.attempted = self.failed = 0
        self.oracle = None
        self.ref_digests: dict | None = None
        self.samples: list[Sample] = []
        self.traced: list[Sample] = []

    def reference(self) -> dict:
        """Untimed first invocation: full oracle check, reference bytes, BLAS probe."""
        sample = invoke(self.case, self.out, self.report, probe=True)
        self.attempted += 1
        if sample.code != 0:
            self.failed += 1
            print(f"# {self.name}: reference invocation exited with {sample.code}")
            return sample.report or {}
        self.ref_digests = digests(self.out)
        self.oracle = self.case.check(self.out)
        if not self.oracle.ok:
            self.failed += 1
            print(f"# {self.name}: reference output fails its oracle: {'; '.join(self.oracle.problems)}")
        return sample.report or {}

    @property
    def oracle_err(self) -> float:
        return self.oracle.err if self.oracle is not None else math.inf

    def passed(self, traced: bool = False) -> list[Sample]:
        """Samples of invocations that succeeded; NoResult when there are none."""
        ok = [s for s in (self.traced if traced else self.samples) if s.code == 0]
        if not ok:
            raise NoResult(f"{self.name}: every {'traced ' if traced else ''}invocation failed")
        return ok

    def run(self, trace: bool = False) -> Sample:
        sample = invoke(self.case, self.out, self.report, trace=trace)
        self.attempted += 1
        if sample.code != 0 or self.ref_digests is None or digests(self.out) != self.ref_digests:
            self.failed += 1
            sample.code = sample.code or -2
        (self.traced if trace else self.samples).append(sample)
        return sample


def tail(walls: list[float]) -> tuple[float, int]:
    """Highest percentile with at least ten samples beyond it, and that percentile;
    the maximum when there are no more than ten samples."""
    ordered = sorted(walls)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100
    return ordered[n - 11], round(100 * (n - 10) / n)


def end_to_end(bench: Bench) -> dict:
    samples = bench.passed()
    walls = [s.wall_s for s in samples]
    scaled = [s.wall_s * CAL_REF_S / s.calib_s for s in samples]
    tail_s, pct = tail(scaled)
    n = len(samples)
    print(f"# raw wall seconds: p50 {statistics.median(walls):.4f}, tail {tail(walls)[0]:.4f}; "
          f"calibration p50 {statistics.median(s.calib_s for s in samples):.4f} s (n={n})")
    print(f"# wall_s_p50 {statistics.median(scaled):.4f} s at reference speed (n={n})")
    print(f"# wall_s_tail {tail_s:.4f} s at reference speed (p{pct}, n={n})")
    print(f"# fail_ratio {bench.failed / bench.attempted:.4g} ({bench.failed}/{bench.attempted})")
    print(f"# oracle_err {bench.oracle_err:.6g}")
    values = {
        "wall_s_p50": statistics.median(scaled),
        "wall_s_tail": tail_s,
        "setup_s": statistics.median(s.import_s * CAL_REF_S / s.calib_s for s in samples),
        "peak_rss_mb": statistics.median(s.peak_rss_mb for s in samples),
    }
    return {name: (values[name], unit) for name, unit in END_TO_END}


def layer_totals(spans: list) -> dict[str, dict[str, float]]:
    """Per-function self time, calls, span time and bytes of one traced invocation."""
    covered = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    totals: dict[str, dict[str, float]] = defaultdict(Counter)
    for i, (name, start, end, _, nbytes) in enumerate(spans):
        t = totals[name]
        t["self_s"] += (end - start) - covered[i]
        t["span_s"] += end - start
        t["calls"] += 1
        t["bytes"] += nbytes
    return totals


def per_layer(benches: dict[str, Bench]) -> dict:
    metrics = {}
    for name, bench in benches.items():
        runs = [layer_totals(s.spans) for s in bench.passed(traced=True)]
        for function, fields in PER_LAYER[name]:
            for f in fields:
                if f == "cells_per_s":
                    values = [r[function]["calls"] * bench.case.cells / r[function]["span_s"] for r in runs]
                else:
                    values = [r[function][f] for r in runs]
                metrics[f"{name}.{function}.{f}"] = (statistics.median(values), UNITS[f])
        overhead = (statistics.median(s.wall_s for s in bench.passed(traced=True))
                    - statistics.median(s.wall_s for s in bench.passed()))
        metrics[f"{name}.trace_overhead_s"] = (overhead, "s")
        metrics[f"{name}.oracle_err"] = (min(bench.oracle_err, sys.float_info.max),
                                         ORACLE_UNITS.get(name, "abs"))
        self_times = Counter()
        for r in runs:
            for function, t in r.items():
                self_times[function] += t["self_s"] / len(runs)
        top = ", ".join(f"{f} {t:.4f} s" for f, t in self_times.most_common(3))
        print(f"# {name}: largest self time per invocation: {top}")
        print(f"# {name}: tracing overhead {overhead:+.4f} s "
              f"(traced n={len(bench.traced)}, untraced n={len(bench.samples)})")
    return metrics


def measure(args: argparse.Namespace, work: Path) -> tuple[dict, list[Bench]]:
    names = list(WORKLOADS) if args.trace else [args.workload]
    benches = {name: Bench(name, args.seed, work) for name in names}
    probe = {}
    for bench in benches.values():
        probe = bench.reference() or probe
    print("# provenance " + json.dumps(provenance(probe), sort_keys=True))
    if not args.trace:
        calibrate()  # warm-up

    start = time.perf_counter()
    rounds, last = 0, 0.0
    while True:
        elapsed = time.perf_counter() - start
        enough = (rounds >= MIN_ROUNDS if args.trace
                  else len(benches[args.workload].samples) >= MIN_SAMPLES)
        # stop before a round that would overrun the window, once there are enough samples
        if (enough and elapsed + last > args.seconds) or elapsed >= DEADLINE_S:
            break
        for bench in benches.values():
            if args.trace:
                # alternate which side goes first so drift hits both alike
                order = (False, True) if rounds % 2 == 0 else (True, False)
                for traced in order:
                    bench.run(trace=traced)
            else:
                calib_s = calibrate()
                bench.run().calib_s = calib_s
        rounds += 1
        last = time.perf_counter() - start - elapsed

    if args.trace:
        metrics = per_layer(benches)
        spans = [
            {"workload": b.name, "invocation": k, "name": s[0], "start": s[1], "end": s[2],
             "parent": s[3], "bytes": s[4]}
            for b in benches.values() for k, sample in enumerate(b.passed(traced=True)) for s in sample.spans
        ]
        WORK.mkdir(exist_ok=True)
        (WORK / f"spans-seed{args.seed}.json").write_text(json.dumps(spans), encoding="utf-8")
    else:
        metrics = end_to_end(benches[args.workload])
    return metrics, list(benches.values())


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "hyperphase" / "cli.py").is_file():
        print(f"error: {ROOT / 'src' / 'hyperphase'} is missing; run from a hyperphase checkout",
              file=sys.stderr)
        return 2
    work = WORK / f"run-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        metrics, benches = measure(args, work)
    except NoResult as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = sum(b.attempted for b in benches)
    failed = sum(b.failed for b in benches)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
