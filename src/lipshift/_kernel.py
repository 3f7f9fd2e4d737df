"""The C kernels of ``_sweep.c``, built and loaded once for every module.

``lipfit`` (the LSE sweep, PAVA), ``spread`` (the t_n solve, the
empirical spread) and ``densities`` (the designs' unit CDFs, the
tabulated design's inverse CDF) call the one library `KERNEL` that this
module loads at import.  The kernel is built once per source and flags,
with the system C compiler ``cc``, into a file next to the source, and
each import that loads it removes the builds of other sources there.
Where it cannot be built or loaded, the import raises
`KernelUnavailableError`.

The kernels read and write raw memory, so every array reaches them through
`address`, which hands over the address of its data only when it has the
shape and dtype the kernel reads and is C-contiguous.
"""

from __future__ import annotations

import ctypes
import os
import zlib

import numpy as np

from .errors import KernelUnavailableError

# fixed, so that every add, multiply and divide rounds as Python's do; libm
# last, after the source, for the solve's cbrt and the power designs' pow
_CFLAGS = ("-O2", "-std=c99", "-ffp-contract=off", "-fPIC", "-shared", "-lm")


def _remove_stale_builds(path):
    """Remove the builds of other sources or flags, ``_sweep-<8 hex digits>.so``,
    beside the build at path; a concurrent builder's ``_sweep-<key>-<pid>.so``
    does not match, and a file that cannot be removed stays."""
    folder, keep = os.path.split(path)
    for name in os.listdir(folder):
        key = name[len("_sweep-"):-len(".so")]
        if (name != keep and name.startswith("_sweep-") and name.endswith(".so")
                and len(key) == 8 and all(ch in "0123456789abcdef" for ch in key)):
            try:
                os.remove(os.path.join(folder, name))
            except OSError:
                pass


def _load_kernel():
    """The C kernels ``_sweep.c`` as a ctypes library, built with the system C
    compiler into a file keyed by the source and flags when no such file is
    there yet; once it loads, it replaces the builds of other keys.  Raises
    `KernelUnavailableError`, naming the reason, when it cannot be built or
    loaded."""
    source = os.path.join(os.path.dirname(os.path.abspath(__file__)), "_sweep.c")
    try:
        with open(source, "rb") as fh:
            key = zlib.crc32(" ".join(_CFLAGS).encode(), zlib.crc32(fh.read()))
        path = f"{source[:-2]}-{key:08x}.so"
        if not os.path.exists(path):
            import subprocess
            tmp = f"{source[:-2]}-{key:08x}-{os.getpid()}.so"
            try:
                proc = subprocess.run(["cc", "-o", tmp, source, *_CFLAGS],
                                      capture_output=True, text=True)
                if proc.returncode:
                    raise OSError(f"cc exited {proc.returncode}: {proc.stderr.strip()}")
                os.replace(tmp, path)
            finally:
                if os.path.exists(tmp):
                    os.remove(tmp)
        lib = ctypes.CDLL(path)
        _remove_stale_builds(path)
    except OSError as exc:
        raise KernelUnavailableError(
            f"lipshift needs its C kernels, built on first import by the C compiler cc "
            f"on PATH into the package directory: {exc}") from exc
    ptr, i64 = ctypes.c_void_p, ctypes.c_int64
    lib.lse_roots.argtypes = [ptr, ptr, ptr, i64, ptr, ptr]
    lib.lse_clip.argtypes = [ptr, ptr, i64]
    lib.iso_fit.argtypes = [ptr, i64, ptr, ptr, ptr]
    lib.emp_spread.argtypes = [ptr, i64, ctypes.c_double, ptr, i64, ptr]
    lib.tn_solve.argtypes = [ptr]
    lib.unit_cdf.argtypes = [ptr, ptr, i64]
    lib.tab_ppf.argtypes = [ptr, i64, ptr, i64, ptr]
    lib.lse_roots.restype = lib.lse_clip.restype = lib.iso_fit.restype = None
    lib.emp_spread.restype = lib.unit_cdf.restype = lib.tab_ppf.restype = None
    lib.tn_solve.restype = i64
    return lib


KERNEL = _load_kernel()


def address(a, shape, dtype=np.float64):
    """The address of a's data, for a kernel that reads it as a C-contiguous
    array of that shape and dtype; raises ValueError unless a is one.  The
    address comes from the array interface: ``a.ctypes.data`` leaves objects
    in reference cycles, held until the next garbage collection."""
    if not (a.shape == shape and a.dtype == dtype and a.flags.c_contiguous):
        raise ValueError(f"a C kernel reads a C-contiguous {np.dtype(dtype)} array of shape "
                         f"{shape}, got a {a.dtype} array of shape {a.shape}")
    return a.__array_interface__["data"][0]
