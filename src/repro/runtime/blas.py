"""Ask and set the thread count of numpy's bundled OpenBLAS.

Forked worker processes inherit the parent's BLAS thread pool size: two
workers each running a 2-thread OpenBLAS on a 2-core host oversubscribe
the cores, and the data-parallel step ends up slower than the serial one.
:class:`~repro.parallel.pool.WorkerPool` therefore gives each child its
share (:func:`worker_blas_threads`) before the child's message loop starts.

The library is reached with stdlib :mod:`ctypes` through the OpenBLAS
bundled in numpy's wheel, which numpy has already loaded — it exports
``scipy_openblas_{get,set}_num_threads64_`` (ILP64), older wheels the
non-64 or plain ``openblas_*`` names.  When no such library is found (an
MKL, Accelerate or system-BLAS numpy) :func:`blas_threads` returns
``None`` and :func:`set_blas_threads` does nothing.
"""

from __future__ import annotations

import ctypes
import functools
import glob
import os
from typing import List, Optional

import numpy as np

__all__ = [
    "blas_threads",
    "set_blas_threads",
    "usable_cores",
    "worker_blas_threads",
]

_PREFIXES = ("scipy_openblas", "openblas")
_SUFFIXES = ("64_", "")


def _candidate_paths() -> List[str]:
    """The OpenBLAS images bundled with numpy's wheel.

    Only numpy's own copy counts: scipy's wheel bundles a second OpenBLAS
    with the same function names, and setting that one leaves numpy's
    GEMMs on the inherited thread count.
    """
    root = os.path.dirname(os.path.realpath(np.__file__))
    paths: List[str] = []
    for libdir in (os.path.join(os.path.dirname(root), "numpy.libs"),
                   os.path.join(root, ".dylibs"),
                   os.path.join(root, ".libs")):
        paths.extend(sorted(glob.glob(os.path.join(libdir, "*openblas*"))))
    return paths


@functools.lru_cache(maxsize=None)
def _library() -> tuple:
    """The library's ``(get, set)`` thread-count functions, or ``()``."""
    for path in _candidate_paths():
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix in _PREFIXES:
            for suffix in _SUFFIXES:
                getter = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                setter = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
                if getter is None or setter is None:
                    continue
                getter.restype = ctypes.c_int
                getter.argtypes = []
                setter.restype = None
                setter.argtypes = [ctypes.c_int]
                return getter, setter
    return ()


def blas_threads() -> Optional[int]:
    """This process's OpenBLAS thread count, or ``None`` if it can't be asked."""
    funcs = _library()
    return int(funcs[0]()) if funcs else None


def set_blas_threads(n: int) -> None:
    """Set this process's OpenBLAS thread count (no-op without OpenBLAS)."""
    funcs = _library()
    if funcs:
        funcs[1](max(1, int(n)))


def usable_cores() -> int:
    """Cores this process may run on (affinity mask where available)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not Linux
        return os.cpu_count() or 1


def worker_blas_threads(num_workers: int) -> Optional[int]:
    """Each of ``num_workers`` forked workers' share of the BLAS threads.

    ``max(1, min(inherited, usable_cores // num_workers))``: never more
    than the inherited count, so a user's own ``OPENBLAS_NUM_THREADS`` cap
    still holds.  A single worker always keeps the inherited count, even
    one above the usable cores, so its GEMM results stay bit-for-bit the
    parent's.  ``None`` without OpenBLAS.
    """
    inherited = blas_threads()
    if inherited is None or num_workers == 1:
        return inherited
    return max(1, min(inherited, usable_cores() // num_workers))
