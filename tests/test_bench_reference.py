"""The benchmark's pinned outputs, held in the test suite.

Every op of the three workloads in bench/workloads.py must match
bench/reference.json by the op's own comparison rules, the ones a benchmark
run applies: ``assembly`` (the criterion-6 Hardy-minimum sweep, its verdict
and ``discretize --hardy-min`` at N=4000), ``spectral`` (criteria 9, 10 and
13, reversed_hardy and the low eigenvalues, at N=2000) and ``quadrature``
(the default campaign, criteria 1, 3, 4, 5, 7, 8, 11 and 12 and the
``hardyops kernel`` tables over every pool point, with the N=1 lemma op at
every recorded check seed).  The one exception is the ``verdict`` of the two
``criterion_13.a2.*`` ops: the reference records 'fail' there, built against
the fractional rate, and awaits a re-record.
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


def _reference() -> dict:
    return json.loads((BENCH / "reference.json").read_text(encoding="utf-8"))


def test_assembly_ops_match_reference():
    wl = _load_workloads()
    reference = _reference()
    # in order: the verdict op reads the values the sweep ops recorded
    mismatches = {op.key: bad for op in wl.assembly_ops(wl.draw_inputs(1))
                  if (bad := wl.compare(op.run(), reference.get(op.key), op.subset))}
    assert mismatches == {}


def test_spectral_ops_match_reference(tmp_path):
    wl = _load_workloads()
    reference = _reference()
    unpinned = {"criterion_13.a2.lam0", "criterion_13.a2.lam1"}
    mismatches = {}
    for op in wl.spectral_ops(dict(wl.draw_inputs(1), workdir=str(tmp_path))):
        result, ref = op.run(), reference.get(op.key)
        if op.key in unpinned:
            result.pop("verdict")
            ref = {k: v for k, v in ref.items() if k != "verdict"}
        if bad := wl.compare(result, ref, op.subset):
            mismatches[op.key] = bad
    assert mismatches == {}


def test_quadrature_ops_match_reference():
    wl = _load_workloads()
    reference = _reference()
    inputs = dict(wl.draw_inputs(1), tables=wl.full_pool_tables())
    ops = wl.quadrature_ops(inputs)
    # the N=1 lemma sample points of every recorded check seed
    ops += [wl.Op(f"criterion_12.lemma_n1@{seed}",
                  lambda seed=seed: wl.op_criterion_12_lemma(1, 150, seed))
            for seed in wl.CHECK_SEEDS if seed != inputs["lemma_n1"]]
    mismatches = {op.key: bad for op in ops
                  if (bad := wl.compare(op.run(), reference.get(op.key), op.subset))}
    assert mismatches == {}
