#!/usr/bin/env python3
"""Run the package tests under ``tests/`` with ``src`` on the import path.

The benchmark's own tests, ``perfbench/tests``, run as part of them:
``tests/test_benchmark_suite.py`` starts them in a pytest session of their
own, because the two suites' ``conftest`` modules clash when collected
together. Exits non-zero if any test fails. Extra arguments go to pytest:

    python3 tools/check.py
    python3 tools/check.py -x
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(extra: list[str]) -> int:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        part for part in (str(ROOT / "src"), env.get("PYTHONPATH")) if part
    )
    # tests/, the pyproject testpaths
    command = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors", *extra]
    print("$", " ".join(command[2:]), flush=True)
    return subprocess.run(command, cwd=ROOT, env=env).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
