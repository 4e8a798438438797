import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[1] / "src")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


@pytest.fixture
def python():
    """python(*args, cwd=None, **env) runs a fresh interpreter on args with src/
    first on PYTHONPATH, none of the BLAS thread variables set, and then env."""
    def run(*args, cwd=None, **env):
        base = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
        base["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, base.get("PYTHONPATH")) if p)
        return subprocess.run([sys.executable, *args], cwd=cwd, env={**base, **env},
                              capture_output=True, text=True, timeout=300)
    return run


# Spawns argv[1:] with stdout discarded and prints its exit code and wait4's ru_maxrss.
# Linux counts the spawning process's high-water RSS in the child's ru_maxrss,
# so the child is started from this bare interpreter and not from pytest.
_PEAK_LAUNCHER = (
    "import os, sys\n"
    "pid = os.posix_spawn(sys.executable, [sys.executable, *sys.argv[1:]], os.environ,\n"
    "                     file_actions=[(os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0)])\n"
    "_, status, usage = os.wait4(pid, 0)\n"
    "print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)\n"
)


@pytest.fixture
def peak_rss(python):
    """peak_rss(*args, cwd=None) runs a fresh interpreter on args as `python`
    does, from a bare launcher, and returns (exit code, peak RSS in KiB)."""
    if not sys.platform.startswith("linux"):
        pytest.skip("ru_maxrss is in KiB only on Linux")

    def run(*args, cwd=None):
        proc = python("-c", _PEAK_LAUNCHER, *args, cwd=cwd)
        assert proc.returncode == 0, proc.stderr
        code, kib = map(int, proc.stdout.split())
        return code, kib
    return run
