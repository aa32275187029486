"""Locate the checkout the benchmark runs in and import `mve` from its sources.

The benchmark never uses an installed copy of `mve`: it puts the checkout's
`src/` (the engine) and `tests/` (the planted-corpus generator) first on
`sys.path` and refuses to run if `mve` then resolves anywhere else.
"""

from __future__ import annotations

import importlib
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TESTS = ROOT / "tests"
OUT = ROOT / "perfbench" / "out"

# The same single-thread BLAS pins that `mve.cli` applies, but forced rather
# than defaulted so that every measurement runs on one BLAS thread.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}


class CheckoutError(RuntimeError):
    """The checkout lacks the engine sources or the corpus generator."""


def pin_blas() -> None:
    """Pin BLAS to one thread; call before numpy is first imported."""
    os.environ.update(BLAS_ENV)


def use_checkout_sources() -> None:
    """Import `mve` and `synthdata` from this checkout, or raise CheckoutError."""
    for path in (TESTS, SRC):
        if not path.is_dir():
            raise CheckoutError(f"missing {path.name}/ next to perfbench/ in {ROOT}")
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))
    for name, home in (("mve", SRC), ("synthdata", TESTS)):
        try:
            module = importlib.import_module(name)
        except ImportError as exc:
            raise CheckoutError(f"cannot import {name} from {home}: {exc}") from exc
        if home not in Path(module.__file__).resolve().parents:
            raise CheckoutError(f"{name} resolved to {module.__file__}, outside {home}")


def child_env() -> dict[str, str]:
    """Environment for `mve` subprocesses: checkout sources and BLAS pins."""
    env = dict(os.environ)
    env.update(BLAS_ENV)
    env["PYTHONPATH"] = str(SRC)
    return env
