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
