"""Optional process-level parallelism for chains, folds and replicates.

Concurrency is opt-in: the HETGIBBS_THREADS environment variable caps the
number of worker processes (default 1, i.e. serial).  Every job carries its
own seed, so results are identical whether or not a pool is used.

Inside a chain, BLAS runs on one thread (``single_blas_thread``): the
matrices of one conditional update are too small to gain from threads.  On
the reference model (n=1000, r1=r2=150) the eta1 update inside a chain took
19 ms per iteration at 2 OpenBLAS threads on 2 cores and 2.4 ms at one.
"""

from __future__ import annotations

import contextlib
import ctypes
import multiprocessing
import os

__all__ = ["thread_cap", "parallel_map", "single_blas_thread"]

# (get, set) thread-count symbols: numpy's and scipy's bundled 64-bit and
# 32-bit-integer builds, then a plain system build of either width
_OPENBLAS_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


def thread_cap() -> int:
    raw = os.environ.get("HETGIBBS_THREADS", "1")
    try:
        cap = int(raw)
    except ValueError:
        raise ValueError(f"HETGIBBS_THREADS must be an integer, got {raw!r}")
    return max(cap, 1)


def parallel_map(fn, jobs: list) -> list:
    """Map ``fn`` over picklable jobs, preserving order."""
    workers = min(thread_cap(), len(jobs))
    if workers <= 1 or len(jobs) <= 1 or multiprocessing.current_process().daemon:
        return [fn(j) for j in jobs]
    ctx = multiprocessing.get_context("fork")
    with ctx.Pool(processes=workers) as pool:
        return pool.map(fn, jobs)


def _openblas_controls() -> list:
    """(get, set) thread-count functions of every OpenBLAS mapped into this process.

    numpy and scipy wheels each bundle their own OpenBLAS, so there may be
    several.  Reads the process's memory map, so finds none off Linux.
    """
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({
                fields[5] for fields in (line.rstrip("\n").split(None, 5) for line in fh)
                if len(fields) == 6 and "openblas" in os.path.basename(fields[5]).lower()
            })
    except OSError:
        return []
    controls = []
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for get_name, set_name in _OPENBLAS_SYMBOLS:
            get = getattr(lib, get_name, None)
            set_ = getattr(lib, set_name, None)
            if get is not None and set_ is not None:
                get.restype, get.argtypes = ctypes.c_int, []
                set_.restype, set_.argtypes = None, [ctypes.c_int]
                controls.append((get, set_))
                break
    return controls


@contextlib.contextmanager
def single_blas_thread():
    """Run the body with every loaded OpenBLAS at one thread, then restore.

    The thread count is process-wide state; a process that runs chains on
    several Python threads at once would see one chain's restore undo
    another's pin.  Does nothing where no OpenBLAS is loaded.
    """
    controls = _openblas_controls()
    saved = [(set_, get()) for get, set_ in controls]
    try:
        for set_, _ in saved:
            set_(1)
        yield
    finally:
        for set_, count in saved:
            set_(count)
