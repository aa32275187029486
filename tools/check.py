#!/usr/bin/env python3
"""Run both test suites: the package tests under ``tests/`` and the
benchmark's own tests under ``perfbench/tests``.

The two suites run as separate pytest sessions, because their ``conftest``
modules clash when collected together. Exits non-zero if either fails.
Extra arguments go to both sessions:

    python3 tools/check.py
    python3 tools/check.py -x
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SESSIONS = (
    ["--continue-on-collection-errors"],  # tests/, the pyproject testpaths
    ["perfbench/tests"],
)


def main(extra: list[str]) -> int:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        part for part in (str(ROOT / "src"), env.get("PYTHONPATH")) if part
    )
    failed = 0
    for args in SESSIONS:
        command = [sys.executable, "-m", "pytest", "-q", *args, *extra]
        print("$", " ".join(command[2:]), flush=True)
        if subprocess.run(command, cwd=ROOT, env=env).returncode != 0:
            failed += 1
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
