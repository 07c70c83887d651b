"""Run-environment pinning and description.

``pin`` must run before numpy is imported: BLAS reads its thread count
once, at load time.  ``POGPLAN_THREADS`` is read each time trials are
mapped, so ``set_threads`` may change it between batteries.
"""

from __future__ import annotations

import os
import platform
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PINNED = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1"}
THREADS_ENV = "POGPLAN_THREADS"  # mirrors pogplan.experiments.THREADS_ENV


def pin():
    """Pin BLAS to one thread and make the checkout's ``src`` importable."""
    if "numpy" in sys.modules:
        raise RuntimeError("pin() must run before numpy is imported")
    os.environ.update(PINNED)
    src = os.path.join(ROOT, "src")
    if src not in sys.path:
        sys.path.insert(0, src)


def set_threads(threads):
    """Processes the trial pool may use (``POGPLAN_THREADS``)."""
    os.environ[THREADS_ENV] = str(threads)


def _git_sha():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10, check=False)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def describe():
    """Everything a result must carry to be compared later."""
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name', '?')} {blas.get('version', '?')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "git_sha": _git_sha(),
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        **{k: os.environ.get(k) for k in (*PINNED, THREADS_ENV)},
    }
