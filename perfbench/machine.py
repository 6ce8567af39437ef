"""What a run ran on, and a fixed kernel timed beside it.

The reference kernel's time drifts with the machine's other load; keeping
it next to the results lets a slow machine be told apart from a slow
commit.
"""

from __future__ import annotations

import os
import platform
import time
from pathlib import Path

import numpy as np
import scipy

THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')} ({blas.get('openblas configuration', '')})".strip()
    except (KeyError, TypeError):
        return "unknown"


def _git_commit(root: Path) -> str:
    """HEAD of the repository at `root`, read from `.git` without leaving
    the checkout; "unknown" in an exported checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def describe(root: Path) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": _blas(),
        **{name: os.environ.get(name) for name in THREAD_VARIABLES},
        "git_commit": _git_commit(root),
    }


def reference_seconds(repeats: int = 3) -> float:
    """Median time of a fixed matmul-and-sort kernel (about 0.1 s)."""
    rng = np.random.default_rng(0)
    a = rng.random((300, 300))
    x = rng.random(400_000)
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(20):
            a @ a
        np.sort(x, kind="stable")
        times.append(time.perf_counter() - start)
    return sorted(times)[len(times) // 2]

