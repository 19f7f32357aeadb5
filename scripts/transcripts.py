"""Regenerate the checked-in transcripts ``acceptance_report.txt`` and
``test_output.txt`` at the repository root.

Each file is a platform stamp line (OS, machine, Python, numpy, scipy)
followed by the output of
``PYTHONPATH=src python -m pytest -p no:cacheprovider -v --no-header``:
on ``tests/test_acceptance.py -s`` for the acceptance report, on the whole
suite for the test log.  Run it with the interpreter whose numpy and scipy
the transcripts should record:

    python scripts/transcripts.py

It prints each file's pytest summary line and exits with the larger pytest
exit code.
"""

from __future__ import annotations

import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy
import scipy

ROOT = Path(__file__).resolve().parent.parent
RUNS = {"acceptance_report.txt": ["tests/test_acceptance.py", "-s"],
        "test_output.txt": []}


def stamp() -> str:
    return (f"# {platform.system()} {platform.machine()}, "
            f"Python {platform.python_version()}, numpy {numpy.__version__}, "
            f"scipy {scipy.__version__}\n")


def main() -> int:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"),
                                                    env.get("PYTHONPATH")) if p)
    code = 0
    for name, args in RUNS.items():
        proc = subprocess.run([sys.executable, "-m", "pytest", "-p", "no:cacheprovider",
                               "-v", "--no-header", *args],
                              cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        (ROOT / name).write_text(stamp() + proc.stdout, encoding="utf-8")
        print(f"{name}: {proc.stdout.strip().splitlines()[-1]}")
        code = max(code, proc.returncode)
    return code


if __name__ == "__main__":
    sys.exit(main())
