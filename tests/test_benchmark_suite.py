"""The benchmark's own tests, run from this suite.

``perfbench`` imports names from the package (``embed_corpus`` and
``pruned_union`` among them) and wraps others as module globals. A change
that deletes or moves one of them passes the package tests but breaks the
benchmark at import, so this suite also runs ``perfbench/tests``. They run in
a separate pytest session, because the two suites' ``conftest`` modules clash
when collected together.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_tests_pass():
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "perfbench/tests"],
        cwd=ROOT,
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stdout[-4000:] + result.stderr[-4000:]
