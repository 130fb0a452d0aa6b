"""Process set-up shared by the benchmark's entry points.

Call ``prepare()`` before anything imports numpy: it pins BLAS to one
thread, so every workload runs single-threaded, and puts the checkout's
``src`` first on ``sys.path``, so the library under test is the one built
from this checkout's sources.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def prepare() -> None:
    for var in _THREAD_VARS:
        os.environ[var] = "1"
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def library_is_local() -> bool:
    """Import neutraldde and confirm it comes from this checkout's ``src``."""
    try:
        import neutraldde
    except ImportError:
        return False
    return Path(neutraldde.__file__).resolve().is_relative_to(SRC)
