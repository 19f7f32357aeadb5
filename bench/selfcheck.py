"""Self-check of the benchmark harness, at reduced size.

    python3 bench/selfcheck.py

From the repository root.  For every workload it runs bench/run.py on the
reduced op subset (--small) once untraced, twice traced with one seed and
once traced with another, and confirms that

* every end-to-end and per-layer metric named in BENCHMARK.json is emitted
  with its unit, and no op fails (error rate 0);
* every count repeats exactly across the two traced runs and the two seeds;
* installing the tracer wraps the layers and restoring it puts back every
  original binding (checked in process; run.py also refuses a traced pass
  that left a wrapper behind).

Exits 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

EXACT_COUNTS = ("discrete.eigh.n3", "discrete.assemble.bytes_computed")


def bench(workload: str, seed: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--small"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"run.py {workload} failed:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def other_seed(seed: int) -> int:
    """A seed whose pool picks all differ from those of ``seed``."""
    sys.path.insert(0, HERE)
    import workloads as wl
    base = wl.draw_inputs(seed)
    for cand in range(seed + 1, seed + 1000):
        picks = wl.draw_inputs(cand)
        if picks["lemma_n1"] != base["lemma_n1"] and picks["tables"] != base["tables"]:
            return cand
    raise RuntimeError("no seed with different picks")


def check_metrics(result: dict, spec: list[dict], label: str) -> list[str]:
    problems = []
    if not result["correct"] or result["failed"]:
        problems.append(f"{label}: {result['failed']} of {result['attempted']} ops failed")
    metrics = result["metrics"]
    for m in spec:
        got = metrics.get(m["name"])
        if got is None:
            problems.append(f"{label}: metric {m['name']} missing")
        elif got["unit"] != m["unit"] or not isinstance(got["value"], (int, float)):
            problems.append(f"{label}: metric {m['name']} emitted as {got}")
    extra = set(metrics) - {m["name"] for m in spec}
    if extra:
        problems.append(f"{label}: unlisted metrics {sorted(extra)}")
    return problems


def is_count(name: str) -> bool:
    return name.endswith(".calls") or name in EXACT_COUNTS


def check_restore() -> list[str]:
    """Install and restore the tracer in process; every binding must come back."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)
    import tracer as tr

    import hardyops.cli  # noqa: F401
    import hardyops.verify as V

    def snapshot():
        snap = {}
        for name, mod in sys.modules.items():
            if name.startswith("hardyops") and mod is not None:
                for key, value in vars(mod).items():
                    snap[(name, key)] = value
                    if isinstance(value, dict):
                        snap.update({(name, key, k): v for k, v in value.items()})
        return snap

    before = snapshot()
    t = tr.Tracer()
    t.install()
    installed = len(t._installed)
    wrapped_quad = hasattr(V.quad, "__bench_traced__")
    wrapped_check = hasattr(V.CHECKS["equivalence"], "__bench_traced__")
    t.restore()
    after = snapshot()
    problems = []
    if not (installed and wrapped_quad and wrapped_check):
        problems.append("tracer did not wrap verify.quad and the CHECKS table")
    changed = [k for k in before if after.get(k) is not before[k]]
    if changed or tr.leftover_wrappers():
        problems.append(f"tracer left bindings changed: {changed[:10]}")
    return problems


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    seed_a = 1
    seed_b = other_seed(seed_a)
    problems = check_restore()
    for workload in [w["name"] for w in spec["workloads"]]:
        plain = bench(workload, seed_a, 0)
        problems += check_metrics(plain, spec["end_to_end"], f"{workload} untraced")
        traced = [bench(workload, seed_a, 1), bench(workload, seed_a, 1),
                  bench(workload, seed_b, 1)]
        for i, res in enumerate(traced):
            problems += check_metrics(res, spec["per_layer"], f"{workload} traced #{i}")
        first, again, other = (r["metrics"] for r in traced)
        for name in filter(is_count, first):
            if again[name]["value"] != first[name]["value"]:
                problems.append(f"{workload}: {name} differs between runs "
                                f"({first[name]['value']} vs {again[name]['value']})")
            if other[name]["value"] != first[name]["value"]:
                problems.append(f"{workload}: {name} differs between seeds "
                                f"{seed_a} and {seed_b}")
        print(f"{workload}: checked", file=sys.stderr, flush=True)
    for p in problems:
        print(f"FAIL {p}")
    print("selfcheck: " + ("ok" if not problems else f"{len(problems)} problems"))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
