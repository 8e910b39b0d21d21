"""The package's public surface and the test session's environment."""

import ctypes
import os
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

import vibrosim


def test_all_names_resolve():
    missing = [name for name in vibrosim.__all__
               if not hasattr(vibrosim, name)]
    assert not missing
    assert len(set(vibrosim.__all__)) == len(vibrosim.__all__)


@pytest.mark.skipif(not Path("/proc/self/maps").is_file(),
                    reason="reads the loaded libraries from /proc")
def test_blas_threads_in_effect():
    """Every OpenBLAS loaded by numpy and scipy runs the thread count set
    in the environment (by ``conftest.py`` unless the caller set one)."""
    scipy.linalg.expm(np.eye(2))
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line})
    counts = {}
    for path in libs:
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_",
                     "scipy_openblas_get_num_threads",
                     "openblas_get_num_threads"):
            if hasattr(lib, name):
                counts[Path(path).name] = getattr(lib, name)()
                break
    assert counts
    want = int(os.environ["OPENBLAS_NUM_THREADS"])
    assert set(counts.values()) == {want}, counts
