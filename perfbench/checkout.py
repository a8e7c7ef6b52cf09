"""Locate the grwlab checkout the benchmark measures and pin its threads."""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


def use_checkout() -> None:
    """Import grwlab from this checkout's ``src/``, never an installed copy.

    Must run before numpy is imported, so that every numerical library
    starts single-threaded.  Exits with an error when the checkout holds no
    grwlab source tree or sample configs.
    """
    for var in THREAD_VARS:
        os.environ[var] = "1"
    src = ROOT / "src"
    if not (src / "grwlab" / "__init__.py").is_file() or not (ROOT / "configs").is_dir():
        sys.exit(f"perfbench: {ROOT} holds no grwlab source tree (src/grwlab and configs/)")
    sys.path.insert(0, str(src))
    import grwlab

    if Path(grwlab.__file__).resolve().parent != src / "grwlab":
        sys.exit(f"perfbench: imported grwlab from {grwlab.__file__}, not from {src}")
