"""Process set-up shared by the benchmark's entry scripts.

Imports nothing heavy: ``bootstrap`` must run before numpy is imported, so
that the BLAS and OpenMP pools start with one thread and the ``bandcert``
package comes from the ``src/`` tree of the checkout this file sits in.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

THREADS = 1
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"


def bootstrap() -> None:
    """Pin thread pools and put the checkout's sources first on the path.

    Exits with code 2 when the checkout holds no ``src/bandcert``: without
    the program there is nothing to measure.
    """
    if "numpy" in sys.modules:
        raise RuntimeError("bootstrap() must run before numpy is imported")
    for var in THREAD_VARS:
        os.environ[var] = str(THREADS)
    if not (SRC / "bandcert" / "__init__.py").is_file():
        print(f"error: no bandcert sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
