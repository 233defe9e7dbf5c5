"""One pass of a workload in a fresh interpreter.

Started by run.py with PYTHONPATH pointing at the checkout's ``src``:

    python3 perfbench/worker.py --params P.json --out R.json --trace 0|1 \
        --workers N --tmp DIR [--spans S.json.gz]

The first thing it does is import ``toalab.cli``; that import time is one
``setup_s`` sample.  It writes its measurements to ``--out``.
"""

import time

_t0 = time.perf_counter()
import toalab.cli  # noqa: E402  (timed: what every CLI invocation pays)
IMPORT_S = time.perf_counter() - _t0

import argparse  # noqa: E402
import ctypes  # noqa: E402
import glob  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import tempfile  # noqa: E402

import mpmath  # noqa: E402
import numpy as np  # noqa: E402
import scipy  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402


def _blas_threads():
    """Thread count numpy's OpenBLAS will use, or None if not found."""
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir,
                          "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def libraries() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "scipy": scipy.__version__,
            "mpmath": mpmath.__version__, "toalab": toalab.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": _blas_threads()}


def _cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--params", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--workers", type=int, required=True)
    ap.add_argument("--tmp", required=True)
    ap.add_argument("--spans", default=None)
    args = ap.parse_args()
    with open(args.params) as fh:
        params = json.load(fh)

    recorder = None
    if args.trace:
        recorder = spans.Recorder()
        recorder.install()
    out_dir = tempfile.mkdtemp(dir=args.tmp)
    try:
        cpu0 = _cpu_s()
        wall, results = workloads.run_pass(params, out_dir, args.workers,
                                           recorder)
        cpu = _cpu_s() - cpu0
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    record = {"import_s": IMPORT_S, "wall_s": wall, "cpu_s": cpu,
              "peak_rss_mib": peak_rss_mib, "tasks": results,
              "libraries": libraries()}
    if recorder is not None:
        record["layers"] = recorder.layer_metrics()
        record["spans"] = len(recorder.spans)
        if args.spans:
            recorder.dump(args.spans)
    with open(args.out, "w") as fh:
        json.dump(record, fh)


if __name__ == "__main__":
    main()
