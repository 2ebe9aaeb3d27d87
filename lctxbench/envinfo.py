"""BLAS thread pinning that takes effect, and the environment a run records.

OpenBLAS sizes its thread pool when it is loaded, so the thread variables
must be set before numpy is first imported. The effective count is then read
back from the loaded library, which is the only proof the pin held.
"""

from __future__ import annotations

import ctypes
import glob
import hashlib
import os
import platform
import sys
from pathlib import Path

BLAS_THREADS = 1
_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def pin_blas_threads() -> None:
    if "numpy" in sys.modules:
        raise RuntimeError("numpy was imported before the BLAS thread pin")
    for var in _THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)


def _openblas():
    """numpy's bundled scipy-openblas (64-bit integer build), or None."""
    import numpy as np

    for path in sorted(glob.glob(os.path.join(os.path.dirname(np.__file__) + ".libs",
                                              "libscipy_openblas*"))):
        try:
            return ctypes.CDLL(path)
        except OSError:
            continue
    return None


def _blas_call(lib, name: str, restype):
    fn = getattr(lib, f"scipy_openblas_{name}64_", None)
    if fn is None:
        return None
    fn.argtypes = []
    fn.restype = restype
    return fn()


def blas_threads() -> int | None:
    """Effective thread count of the loaded OpenBLAS; None where the library
    or the symbol cannot be found."""
    lib = _openblas()
    return None if lib is None else _blas_call(lib, "get_num_threads", ctypes.c_int)


def blas_config() -> str | None:
    lib = _openblas()
    config = None if lib is None else _blas_call(lib, "get_config", ctypes.c_char_p)
    return config.decode() if config else None


def _git_sha(root: Path) -> str | None:
    """HEAD of the checkout when it is a git work tree, read without git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest(src: Path) -> str:
    """sha256 over the package sources, which identifies the code measured
    even where the checkout carries no git metadata."""
    h = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        h.update(str(path.relative_to(src)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def environment(root: Path) -> dict:
    import numpy as np

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_config(),
        "blas_threads": blas_threads(),
        "blas_threads_requested": BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "git_sha": _git_sha(root),
        "source_sha256": source_digest(root / "src" / "lctx"),
    }
