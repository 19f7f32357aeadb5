"""The benchmark's pinned outputs, held in the test suite.

Every op of the ``assembly`` workload in bench/workloads.py (the criterion-6
Hardy-minimum sweep, its verdict and ``discretize --hardy-min`` at N=4000)
must match bench/reference.json by the op's own comparison rules, the ones a
benchmark run applies.  The ``spectral`` workload is not held here yet: its
recorded criterion-13 verdicts at alpha = 2 await a re-record.
"""

import importlib.util
import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _load_workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", BENCH / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules while the file executes
    sys.modules[spec.name] = workloads
    try:
        spec.loader.exec_module(workloads)
    finally:
        del sys.modules[spec.name]
    return workloads


def test_assembly_ops_match_reference():
    wl = _load_workloads()
    reference = json.loads((BENCH / "reference.json").read_text(encoding="utf-8"))
    # in order: the verdict op reads the values the sweep ops recorded
    mismatches = {op.key: bad for op in wl.assembly_ops(wl.draw_inputs(1))
                  if (bad := wl.compare(op.run(), reference.get(op.key), op.subset))}
    assert mismatches == {}
