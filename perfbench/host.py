"""Host record carried by every result, and comparison of two records.

BLAS threading is recorded, never pinned: the benchmark measures the
program as users run it.
"""

from __future__ import annotations

import ctypes
import glob
import os
import platform
import subprocess
from typing import List, Optional

import numpy as np

from . import ROOT


def _blas_info() -> dict:
    try:
        config = np.show_config(mode="dicts")
    except TypeError:  # numpy < 1.25 prints instead of returning
        return {}
    blas = config.get("Build Dependencies", {}).get("blas", {})
    return {
        "name": blas.get("name", "unknown"),
        "version": blas.get("version", "unknown"),
    }


def _blas_threads() -> Optional[int]:
    """Thread count of numpy's bundled OpenBLAS, if it can be asked."""
    libdirs = [
        os.path.join(os.path.dirname(np.__file__), "..", "numpy.libs"),
        os.path.join(os.path.dirname(np.__file__), ".libs"),
    ]
    symbols = (
        "scipy_openblas_get_num_threads64_",
        "scipy_openblas_get_num_threads",
        "openblas_get_num_threads64_",
        "openblas_get_num_threads",
    )
    for libdir in libdirs:
        for path in glob.glob(os.path.join(libdir, "*openblas*")):
            try:
                lib = ctypes.CDLL(path)
            except OSError:
                continue
            for symbol in symbols:
                func = getattr(lib, symbol, None)
                if func is not None:
                    func.restype = ctypes.c_int
                    func.argtypes = []
                    return int(func())
    return None


def git_commit() -> str:
    """Commit of the checkout, or ``"unknown"`` outside a git repository."""
    try:
        out = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, check=False,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def host_record(workload: str, seed: int, dtype: str) -> dict:
    """Everything a result needs to be compared with another one."""
    blas = _blas_info()
    return {
        "usable_cores": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": _blas_threads(),
        "blas_env": {
            key: os.environ[key]
            for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                        "MKL_NUM_THREADS")
            if key in os.environ
        },
        "numpy": np.__version__,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "workload": workload,
        "dtype": dtype,
        "seed": seed,
        "commit": git_commit(),
    }


def compare_hosts(first: dict, second: dict) -> List[str]:
    """Lines naming every difference between two results' host records."""
    return [
        f"host differs: {key} {first.get(key)!r} vs {second.get(key)!r}"
        for key in sorted(set(first) | set(second))
        if first.get(key) != second.get(key)
    ]
