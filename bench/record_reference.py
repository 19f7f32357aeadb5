"""Record bench/reference.json: the outputs every benchmark op must reproduce.

Run from the repository root at the commit whose outputs are the reference:

    PYTHONPATH=src python3 bench/record_reference.py

The seed-drawn lemma op is recorded once per pool seed (workloads.CHECK_SEEDS)
and the kernel tables over their whole point pools, so every input a
benchmark seed can draw has a reference value.
"""

import json
import os
import sys
import tempfile

import workloads as wl

HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> int:
    reference: dict = {}
    with tempfile.TemporaryDirectory(dir=HERE) as workdir:
        for workload in wl.WORKLOADS:
            for k in wl.CHECK_SEEDS:
                inputs = {"lemma_n1": k, "tables": wl.full_pool_tables(),
                          "workdir": workdir}
                for op in wl.build_ops(workload, inputs):
                    if op.key in reference:
                        continue
                    reference[op.key] = {q: v for q, (v, _) in op.run().items()}
                    print(f"recorded {op.key}", file=sys.stderr, flush=True)
    with open(os.path.join(HERE, "reference.json"), "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=0, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
