"""Test-session settings shared by every test module."""

import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import settings

import bnls

# Fixed example sequence and a bounded example count: property tests stay
# deterministic and their run time stays bounded.
settings.register_profile("bnls", derandomize=True, database=None, max_examples=100, deadline=None)
settings.load_profile("bnls")


def _run_with_one_blas_thread(code: str) -> None:
    # row invariance of the batched kernels holds with one BLAS thread only:
    # with two, OpenBLAS splits blocks of 100 or more rows at n_grid 32
    # differently.  A subprocess pins the thread count; the test process
    # keeps its own.
    src = str(Path(bnls.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=path)
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr


@pytest.fixture
def run_with_one_blas_thread():
    """Runs a Python source string in a fresh interpreter whose OpenBLAS has one thread."""
    return _run_with_one_blas_thread
