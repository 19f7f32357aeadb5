"""Regenerate the checked-in transcript ``acceptance_report.txt`` at the
repository root.

The file is a platform stamp line (OS, machine, Python, numpy, scipy)
followed by the output of
``PYTHONPATH=src python -m pytest -p no:cacheprovider -v --no-header
tests/test_acceptance.py -s``.  Run it with the interpreter whose numpy and
scipy the transcript should record:

    python scripts/transcripts.py

It prints the pytest summary line and exits with the pytest exit code.
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
REPORT = "acceptance_report.txt"


def stamp() -> str:
    return (f"# {platform.system()} {platform.machine()}, "
            f"Python {platform.python_version()}, numpy {numpy.__version__}, "
            f"scipy {scipy.__version__}\n")


def main() -> int:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"),
                                                    env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-m", "pytest", "-p", "no:cacheprovider",
                           "-v", "--no-header", "tests/test_acceptance.py", "-s"],
                          cwd=ROOT, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True)
    (ROOT / REPORT).write_text(stamp() + proc.stdout, encoding="utf-8")
    print(f"{REPORT}: {proc.stdout.strip().splitlines()[-1]}")
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
