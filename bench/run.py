"""hardyops benchmark: entry point.

    python3 bench/run.py --workload {quadrature,spectral,assembly} --seed N \
        --seconds S --trace {0,1} [--small]

Run from the root of a source checkout: the workload imports ``hardyops``
from ``src/`` of that checkout and from nowhere else.  Every pass of the
workload runs in a fresh interpreter (bench/child.py), one at a time, so the
package's in-process caches start cold as they do for every CLI invocation,
and peak RSS is that pass's own.  Passes repeat while the next one is
expected to end within --seconds (at least two passes per run).  Three
import-only interpreters add set-up samples.

--trace 0 reports the end-to-end metrics (medians over passes):
    wall_s        first op call to last op return, interpreter warm
    cpu_s         user+sys CPU of the pass process over the same interval
    setup_s       spawn until hardyops and its numpy/scipy imports are ready
    peak_rss_mb   ru_maxrss of the pass process
    success_rate  ops matching the reference / ops attempted
--trace 1 alternates untraced and traced passes and reports the per-layer
metrics of the traced passes (counts must repeat exactly; self times are
medians) and trace.overhead_s, traced minus untraced median wall time.

The last stdout line is the result object; the line before it is the full
record with per-pass samples, quartiles and the provenance stamp, which is
also written to .bench_work/ in the checkout.  --small runs the reduced op
subset the self-check uses.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CHILD = os.path.join(HERE, "child.py")
WORKLOADS = ("quadrature", "spectral", "assembly")
MIN_PASSES = 2
SETUP_PROBES = 3
PASS_TIMEOUT_S = 170

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "setup_s": "s",
                    "peak_rss_mb": "MB", "success_rate": "ratio"}
# Per-layer metrics that are computed from array sizes, not measured.
SIZE_DERIVED = ("discrete.eigh.n3", "discrete.assemble.bytes_computed")


class HarnessError(RuntimeError):
    pass


def spawn(args, workdir: str, *flags: str) -> dict:
    """Run one child interpreter and return its JSON record."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    cmd = [sys.executable, CHILD, "--workload", args.workload, "--seed", str(args.seed),
           "--workdir", workdir, *flags]
    spawn_ns = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
    proc = subprocess.run(cmd + ["--spawn-ns", str(spawn_ns)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=PASS_TIMEOUT_S)
    if proc.returncode != 0:
        raise HarnessError(f"pass process exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    if not record["hardyops_file"].startswith(SRC + os.sep):
        raise HarnessError(f"imported hardyops from {record['hardyops_file']}, not {SRC}")
    return record


def summary(values: list[float]) -> dict:
    """Median, quartiles, extremes and sample count of one metric."""
    out = {"median": statistics.median(values), "n": len(values),
           "min": min(values), "max": max(values)}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out.update(q1=q1, q3=q3)
    return out


def git_commit() -> str | None:
    """Commit of the checkout, read from .git without running git (None if absent)."""
    head = os.path.join(ROOT, ".git", "HEAD")
    if not os.path.isfile(head):
        return None
    with open(head, encoding="utf-8") as fh:
        ref = fh.read().strip()
    if not ref.startswith("ref: "):
        return ref
    path = os.path.join(ROOT, ".git", *ref[5:].split("/"))
    if os.path.isfile(path):
        with open(path, encoding="utf-8") as fh:
            return fh.read().strip()
    packed = os.path.join(ROOT, ".git", "packed-refs")
    if os.path.isfile(packed):
        with open(packed, encoding="utf-8") as fh:
            for line in fh:
                if line.strip().endswith(" " + ref[5:]):
                    return line.split()[0]
    return None


def run(args) -> tuple[dict, dict]:
    if not os.path.isfile(os.path.join(SRC, "hardyops", "__init__.py")):
        raise HarnessError(f"no hardyops sources under {SRC}")
    workdir = os.path.join(ROOT, ".bench_work")
    os.makedirs(workdir, exist_ok=True)
    spawn(args, workdir, "--setup-only")  # warm-up: byte-compiles src, fills caches
    extra = ["--small"] if args.small else []
    modes = ["plain", "traced"] if args.trace else ["plain"]
    passes: dict[str, list] = {m: [] for m in modes}
    start = time.monotonic()
    costs = []
    while True:
        mode = modes[sum(len(v) for v in passes.values()) % len(modes)]
        t0 = time.monotonic()
        passes[mode].append(spawn(args, workdir, *extra,
                                  *(["--trace"] if mode == "traced" else [])))
        costs.append(time.monotonic() - t0)
        done = sum(len(v) for v in passes.values())
        if done >= MIN_PASSES and (time.monotonic() - start
                                   + statistics.fmean(costs) > args.seconds):
            break
    setups = [spawn(args, workdir, "--setup-only")["setup_s"] for _ in range(SETUP_PROBES)]
    every = [p for v in passes.values() for p in v]
    setups += [p["setup_s"] for p in every]
    attempted = sum(p["attempted"] for p in every)
    failed = sum(p["failed"] for p in every)
    plain = passes["plain"]
    samples = {"wall_s": [p["wall_s"] for p in plain],
               "cpu_s": [p["cpu_s"] for p in plain],
               "setup_s": setups,
               "peak_rss_mb": [p["peak_rss_mb"] for p in plain],
               "success_rate": [(p["attempted"] - p["failed"]) / p["attempted"]
                                for p in plain]}
    stats = {k: summary(v) for k, v in samples.items()}
    if args.trace:
        traced = passes["traced"]
        layers = {}
        for name in traced[0]["layers"]:
            values = [p["layers"][name] for p in traced]
            layers[name] = summary(values)
            if name.endswith(".calls") or name in SIZE_DERIVED:
                layers[name]["repeats_exactly"] = len(set(values)) == 1
        overhead = (statistics.median(p["wall_s"] for p in traced)
                    - stats["wall_s"]["median"])
        layers["trace.overhead_s"] = {"median": overhead, "n": 1}
        leftovers = sorted({w for p in traced for w in p["leftover_wrappers"]})
        if leftovers:
            raise HarnessError(f"tracing left wrappers installed: {leftovers}")
        metrics = {name: {"value": s["median"], "unit": layer_unit(name)}
                   for name, s in layers.items()}
    else:
        layers = None
        metrics = {name: {"value": stats[name]["median"], "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": int(args.trace), "small": args.small,
        "provenance": dict(every[0]["provenance"], git_commit=git_commit()),
        "inputs": every[0]["inputs"], "ops_per_pass": every[0]["attempted"],
        "passes": {m: len(v) for m, v in passes.items()},
        "end_to_end": stats, "samples": samples, "per_layer": layers,
        "per_layer_note": "discrete.eigh.n3 and discrete.assemble.bytes_computed are "
                          "computed from array sizes, not measured",
        "failures": [f for p in every for f in p["failures"]][:20],
        "result": result}
    name = f"result-{args.workload}-{args.seed}-{'trace' if args.trace else 'plain'}.json"
    with open(os.path.join(workdir, name), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    return record, result


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("bytes_computed"):
        return "bytes"
    if name.endswith("hit_ratio"):
        return "ratio"
    return "count"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="hardyops benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--small", action="store_true",
                    help="reduced op subset (harness self-check)")
    args = ap.parse_args(argv)
    try:
        record, result = run(args)
    except (HarnessError, subprocess.TimeoutExpired, OSError, ValueError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
