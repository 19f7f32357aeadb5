"""One pass of a benchmark workload, run in a fresh interpreter by run.py.

The parent passes the CLOCK_MONOTONIC time at which it spawned this process;
set-up time is the span from there until ``hardyops`` and every submodule
(with their numpy/scipy imports) are loaded.  The pass then runs the
workload's ops once, with the hardyops caches cold as in a CLI invocation,
checks every op against the reference and prints one JSON line.
"""

import sys
import time

import hardyops
import hardyops.cli
import hardyops.coupling
import hardyops.discrete
import hardyops.kernels
import hardyops.specfun
import hardyops.verify

READY_NS = time.clock_gettime_ns(time.CLOCK_MONOTONIC)

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import tracer as tr  # noqa: E402
import workloads as wl  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))

_BLAS_GET = ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
             "openblas_get_num_threads64_", "openblas_get_num_threads")
_BLAS_SET = ("scipy_openblas_set_num_threads64_", "scipy_openblas_set_num_threads",
             "openblas_set_num_threads64_", "openblas_set_num_threads")
_BLAS_CONFIG = ("scipy_openblas_get_config64_", "scipy_openblas_get_config",
                "openblas_get_config64_", "openblas_get_config")


def _symbol(lib, names):
    for name in names:
        fn = getattr(lib, name, None)
        if fn is not None:
            return fn
    return None


def blas_info(nproc: int) -> list[dict]:
    """Every OpenBLAS loaded (numpy and scipy each bundle one), capped at nproc threads."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()
                        and line.split()[-1].startswith("/")})
    info = []
    for path in paths:
        lib = ctypes.CDLL(path)
        get, put, conf = (_symbol(lib, n) for n in (_BLAS_GET, _BLAS_SET, _BLAS_CONFIG))
        entry = {"library": os.path.basename(path)}
        if conf is not None:
            conf.restype = ctypes.c_char_p
            entry["config"] = conf().decode()
        if get is not None:
            entry["default_threads"] = threads = int(get())
            if threads > nproc and put is not None:
                put.argtypes = [ctypes.c_int]
                put(nproc)
                threads = int(get())
            entry["threads"] = threads
        info.append(entry)
    return info


def run_ops(ops, tracer=None) -> list:
    results = []
    for op in ops:
        try:
            out = tracer.span(f"op.{op.key}", op.run) if tracer else op.run()
            results.append((op, out, None))
        except Exception:  # an op that raises counts as failed; the pass goes on
            results.append((op, None, traceback.format_exc(limit=3)))
    return results


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--spawn-ns", type=int, required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--small", action="store_true")
    args = ap.parse_args()
    record = {"setup_s": (READY_NS - args.spawn_ns) / 1e9,
              "hardyops_file": os.path.abspath(hardyops.__file__)}
    if args.setup_only:
        print(json.dumps(record))
        return 0

    nproc = len(os.sched_getaffinity(0))
    record["provenance"] = {
        "hardyops_version": hardyops.__version__, "python": platform.python_version(),
        "numpy": np.__version__, "scipy": scipy.__version__,
        "blas": blas_info(nproc), "nproc": nproc}
    inputs = wl.draw_inputs(args.seed)
    inputs["workdir"] = args.workdir
    ops = wl.build_ops(args.workload, inputs, small=args.small)
    record["inputs"] = {k: v for k, v in inputs.items() if k != "workdir"}
    check_names = [fn.__name__ for fn in hardyops.verify.CHECKS.values()]

    tracer = tr.Tracer() if args.trace else None
    if tracer:
        tracer.install()
    try:
        usage0 = resource.getrusage(resource.RUSAGE_SELF)
        t0 = time.perf_counter()
        results = run_ops(ops, tracer)
        wall = time.perf_counter() - t0
        usage1 = resource.getrusage(resource.RUSAGE_SELF)
    finally:
        if tracer:
            tracer.restore()
    record.update(
        wall_s=wall,
        cpu_s=(usage1.ru_utime - usage0.ru_utime) + (usage1.ru_stime - usage0.ru_stime),
        peak_rss_mb=usage1.ru_maxrss / 1024.0)  # ru_maxrss is in KiB on Linux
    if tracer:
        record["layers"] = tr.layer_metrics(tracer, check_names)
        record["leftover_wrappers"] = tr.leftover_wrappers()
        spans_path = os.path.join(args.workdir, f"spans-{args.workload}-{args.seed}.json")
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump({"stats": tracer.stats, "spans": tracer.spans}, fh)

    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
        reference = json.load(fh)
    failures = []
    for op, out, error in results:
        bad = [error] if error else wl.compare(out, reference.get(op.key), op.subset)
        if bad:
            failures.append({"op": op.key, "why": bad[:5]})
    record.update(attempted=len(results), failed=len(failures), failures=failures)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
