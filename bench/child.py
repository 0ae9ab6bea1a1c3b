"""One CLI invocation as a user pays for it: a fresh interpreter that imports
``hyperphase.cli`` and calls ``main(argv)``.

Usage: python3 bench/child.py REPORT TRACE PROBE -- ARGV...

Writes REPORT as JSON: the exit code, the seconds spent importing
``hyperphase.cli``, the peak resident set size, the spans when TRACE is 1,
and the BLAS build and thread count when PROBE is 1.  Exits with main's code.
"""

import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def blas_info() -> dict:
    """BLAS name and the thread count the loaded OpenBLAS actually uses."""
    import ctypes
    import glob

    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for lib in glob.glob(str(libs / "*openblas*")):
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(lib), symbol, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                threads = fn()
                break
    return {"blas": f"{blas.get('name')} {blas.get('version')}", "blas_threads": threads,
            "numpy": np.__version__}


def main() -> int:
    report_path, trace, probe, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: child.py REPORT TRACE PROBE -- ARGV...")
    sys.path.insert(0, str(ROOT / "src"))
    start = time.perf_counter()
    import hyperphase.cli as cli
    import_s = time.perf_counter() - start

    tracer = None
    if trace == "1":
        sys.path.insert(0, str(ROOT / "bench"))
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    code = cli.main(argv)
    report = {
        "code": code,
        "import_s": import_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        report["spans"] = tracer.spans
    if probe == "1":
        report.update(blas_info())
    Path(report_path).write_text(json.dumps(report), encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main())
