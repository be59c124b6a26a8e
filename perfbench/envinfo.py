"""Environment block attached to every benchmark result."""

from __future__ import annotations

import ctypes
import glob
import os
import platform
import subprocess
import sys
from pathlib import Path

_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _git_sha(root: Path) -> str:
    # a checkout without .git (as the benchmark is run from an export) has no
    # sha; never let git search the directories above the checkout
    if not (root / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True,
            timeout=10, env={**os.environ, "GIT_DIR": str(root / ".git")},
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _openblas_threads(np_module):
    """Runtime thread count of the OpenBLAS that numpy loaded, if any."""
    libdir = Path(np_module.__file__).parent.parent / "numpy.libs"
    for path in glob.glob(str(libdir / "*openblas*")):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _blas(config_module, np_module=None):
    deps = config_module.CONFIG.get("Build Dependencies", {})
    blas = deps.get("blas", {})
    info = {"name": blas.get("name"), "version": blas.get("version")}
    if np_module is not None:
        info["runtime_threads"] = _openblas_threads(np_module)
    return info


def src_line_count(root: Path) -> int:
    return sum(
        len(p.read_text(encoding="utf-8").splitlines())
        for p in sorted((root / "src" / "nnlif").rglob("*.py"))
    )


def environment(root: Path) -> dict:
    import numpy
    import scipy

    return {
        "git_sha": _git_sha(root),
        "python": platform.python_version(),
        "implementation": sys.implementation.name,
        "platform": platform.platform(),
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "nproc_affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": _blas(numpy.__config__, numpy),
        "scipy_blas": _blas(scipy.__config__),
        "blas_thread_env": {k: os.environ.get(k) for k in _THREAD_VARS},
        "src_nnlif_lines": src_line_count(root),  # informational, not a gated metric
    }
