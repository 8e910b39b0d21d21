"""Test-session set-up: single-threaded BLAS.

The engine's products are tiny (a 2x2 gate against a (2, N) slab, a 2x2
Pade approximant); multi-threaded OpenBLAS runs them several times slower
than one thread on a few cores.  The variables are read when numpy loads,
so they are set here, before any test module imports it.  A value already
in the environment is kept.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
