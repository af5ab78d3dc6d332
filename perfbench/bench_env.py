"""Process environment of the benchmark: thread pinning, package location,
and the environment block printed with every result.

``prepare`` must run before numpy is imported: BLAS and OpenMP read their
thread counts once, at load time.
"""

from __future__ import annotations

import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# One thread per pool keeps each run a single busy process, so the timings
# measure the code and not how the BLAS shares the cores.  The process is
# also pinned to one CPU: on a shared 2-core VM the two vCPUs ran a fixed
# loop at speeds 8% apart, so a run that landed on (or moved to) the other
# one read differently.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def prepare() -> None:
    """Pin thread pools and the CPU, and import ``rtt`` from this checkout's
    ``src``."""
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    if not (SRC / "rtt" / "__init__.py").is_file():
        sys.exit(f"error: no rtt package at {SRC / 'rtt'}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import rtt

    if Path(rtt.__file__).resolve().parent != (SRC / "rtt").resolve():
        sys.exit(f"error: rtt was imported from {rtt.__file__}, not from {SRC}")


def _blas_name() -> str:
    import numpy as np

    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        return f"{deps['blas']['name']} {deps['blas'].get('version', '')}".strip()
    except (TypeError, KeyError):
        return "unknown"


def env_block() -> dict:
    import numpy as np
    import scipy

    pinned = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": _blas_name(),
        "nproc": os.cpu_count(),
        "cpus_used": pinned,
        "machine": platform.machine(),
        "threads": {var: os.environ.get(var, "") for var in THREAD_VARS},
    }
