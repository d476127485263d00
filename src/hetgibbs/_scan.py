"""The compiled cMLG coordinate scan: build, cache and call ``_scan.c``.

The kernel is compiled on the first scan, never at import, with the C
compiler named by ``CC`` (``cc`` when unset) and the fixed flags ``FLAGS``:
``-ffp-contract=off``, no ``-march=native`` and no ``-ffast-math``, so sums
keep their order and every operation rounds as written.  The kernel's own
exponential (``hg_exp``, made of adds, multiplies and selects) runs in a loop
built once per vector width and chosen when the library loads; every width
gives the same bits, so the draws depend neither on the CPU nor on the
libm's ``exp``.  The shared library goes to a
cache outside the package (``$XDG_CACHE_HOME/hetgibbs``, else
``~/.cache/hetgibbs``, else a per-user directory under the system's
temporary directory), named by a hash of the source, the command and the
machine type.  It is written under a temporary name and published with
``os.replace``, so processes that build at the same time never load a
partial file.  Without a compiler the first scan raises ``KernelBuildError``.
"""

from __future__ import annotations

import ctypes
import hashlib
import math
import os
import platform
import shlex
import subprocess
import tempfile
from pathlib import Path

import numpy as np

from .logconcave import LogConcaveError

__all__ = ["FLAGS", "KernelBuildError", "cache_dirs", "load", "scan_cmlg"]

SOURCE = Path(__file__).with_name("_scan.c")
# -fno-trapping-math lets the exp loop's clamps become selects; it changes no result
FLAGS = ("-O3", "-fPIC", "-shared", "-ffp-contract=off", "-fno-trapping-math")

# LogConcaveError messages of logconcave.sample_logconcave, by kernel status
_MESSAGES = {
    1: "could not locate a finite region of the density",
    2: "no tangent sloping back toward the mode found on the left",
    3: "no tangent sloping back toward the mode found on the right",
    4: "no usable tangent points",
    5: "unbounded envelope on the left tail",
    6: "unbounded envelope on the right tail",
    7: "empty envelope",
    8: "could not anchor the envelope near an underflowed region",
    9: "rejection loop exceeded 200 iterations; target may not be log-concave",
    10: "out of memory in the scan kernel",
}

_lib = None


class KernelBuildError(RuntimeError):
    """The scan kernel could not be compiled."""


def cache_dirs() -> list:
    """Directories tried in turn for the compiled kernel."""
    xdg = os.environ.get("XDG_CACHE_HOME")
    dirs = [Path(xdg) / "hetgibbs"] if xdg else []
    try:
        dirs.append(Path.home() / ".cache" / "hetgibbs")
    except RuntimeError:  # no home directory can be determined
        pass
    dirs.append(Path(tempfile.gettempdir()) / f"hetgibbs-{os.getuid()}")
    return dirs


def _command() -> list:
    return shlex.split(os.environ.get("CC") or "cc") + list(FLAGS)


def _compile(command: list, out: Path) -> None:
    cmd = command + ["-o", str(out), str(SOURCE), "-lm"]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
    except OSError as exc:
        raise KernelBuildError(
            f"`{shlex.join(cmd)}` could not run ({exc}); hetgibbs compiles its "
            "coordinate scan on first use and needs a C compiler (cc, or the one named by CC)"
        ) from exc
    if proc.returncode != 0:
        raise KernelBuildError(
            f"`{shlex.join(cmd)}` failed with exit code {proc.returncode}; hetgibbs "
            f"compiles its coordinate scan on first use and needs a working C compiler:\n"
            f"{proc.stderr.strip()}"
        )


def _build() -> Path:
    command = _command()
    key = hashlib.sha256(
        SOURCE.read_bytes() + "\0".join(command + [platform.machine()]).encode()
    ).hexdigest()[:16]
    name = f"_scan-{key}.so"
    for d in cache_dirs():
        path = d / name
        if path.is_file():
            return path
        try:
            d.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(prefix=f".{name}.", dir=d)
        except OSError:
            continue
        os.close(fd)
        try:
            _compile(command, Path(tmp))
            os.replace(tmp, path)
        finally:
            if os.path.exists(tmp):
                os.remove(tmp)
        return path
    raise KernelBuildError(f"no writable cache directory for the scan kernel among {cache_dirs()}")


def load():
    """The loaded kernel library, compiled first if no cached build exists."""
    global _lib
    if _lib is None:
        lib = ctypes.CDLL(str(_build()))
        fn = lib.hg_scan_cmlg
        fn.restype = ctypes.c_int
        fn.argtypes = [ctypes.c_long, ctypes.c_long] + [ctypes.c_void_p] * 4 + [
            ctypes.c_double, ctypes.c_void_p, ctypes.c_void_p]
        exp_array = lib.hg_exp_array
        exp_array.restype = None
        exp_array.argtypes = [ctypes.c_long, ctypes.c_void_p, ctypes.c_void_p]
        _lib = lib
    return _lib


def scan_cmlg(rng: np.random.Generator, params, x0, lower: float = -math.inf,
              counters=None) -> np.ndarray:
    """One systematic scan of exact coordinate draws; returns the new ``x``.

    ``params`` is a ``gibbs.CmlgParams`` ``(HT, alpha, kappa)``: ``HT`` is
    ``H'``, ``k x m``, and ``alpha`` and ``kappa`` have ``m`` entries.  Each
    coordinate's conditional is proportional to exp(c_j t - sum_i u_i
    exp(H_ij t)), log-concave, and is drawn by adaptive rejection sampling
    warm-started at the current value, whose log density, slope and
    curvature come from one pass over the rows; the kernel squares ``HT``
    itself for the curvature.  Uniforms are taken from ``rng``'s bit
    generator exactly as ``rng.random()`` would take them.  ``counters``,
    when given, gains the draws, evaluations and envelope proposals made.
    ``oracle.scan_cmlg_reference`` is the same scan in Python.
    """
    fn = load().hg_scan_cmlg
    arrays = [np.ascontiguousarray(a, dtype=np.float64)
              for a in (params.HT, params.alpha, params.kappa)]
    x = np.array(x0, dtype=np.float64).reshape(-1)
    k, m = arrays[0].shape
    if arrays[1].shape != (m,) or arrays[2].shape != (m,) or x.shape != (k,):
        raise ValueError("scan inputs have mismatched shapes")
    info = np.zeros(4, dtype=np.int64)
    # the arrays stay referenced here until the call returns
    pointers = [a.__array_interface__["data"][0] for a in (*arrays, x, info)]
    bitgen = rng.bit_generator
    with bitgen.lock:
        status = fn(k, m, *pointers[:4], lower, bitgen.ctypes.bit_generator.value, pointers[4])
    if counters is not None:
        counters.scan_draws += int(info[1])
        counters.scan_evals += int(info[2])
        counters.scan_proposals += int(info[3])
    if status:
        message = _MESSAGES.get(status, f"scan kernel status {status}")
        raise LogConcaveError(f"{message} (coordinate {int(info[0])})")
    return x
