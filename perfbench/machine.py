"""Facts about the machine and the code a result was measured on."""

from __future__ import annotations

import hashlib
import os
import platform
from pathlib import Path

THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
                    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def git_sha(root: Path) -> str | None:
    """Commit of HEAD read from .git without running git; None when the
    tree is not a git checkout."""
    git = root / ".git"
    if git.is_file():  # a worktree: "gitdir: <path>"
        git = Path(git.read_text().split(":", 1)[1].strip())
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return None
    if not head.startswith("ref:"):
        return head
    ref = head.split(":", 1)[1].strip()
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_sha256(package: Path) -> str:
    """Digest of the package sources, which names the code measured even
    where no git metadata exists."""
    digest = hashlib.sha256()
    for path in sorted(package.rglob("*.py")):
        digest.update(path.relative_to(package).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fp:
            for line in fp:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _threads() -> int | None:
    try:
        with open("/proc/self/status", encoding="utf-8") as fp:
            for line in fp:
                if line.startswith("Threads:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return None


def _blas(np) -> dict:
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
    except (TypeError, KeyError):
        return {"name": "unknown"}
    blas = deps.get("blas", {})
    return {"name": blas.get("name"), "version": blas.get("version"),
            "configuration": blas.get("openblas configuration")}


def facts(root: Path, package: Path) -> dict:
    import numpy as np

    return {
        "git_sha": git_sha(root),
        "source_sha256": source_sha256(package),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0))
        if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": _cpu_model(),
        "platform": platform.platform(),
        "blas": _blas(np),
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARIABLES},
        "process_threads": _threads(),
        "cpu_s_note": "cpu_s is user+sys time of every thread of the "
                      "process, BLAS worker threads included",
    }
