"""Run the test suite at one BLAS/OpenMP thread, as bench/run.py does.

This runs before anything imports numpy; a caller's own setting is kept.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS"):
    os.environ.setdefault(_var, "1")
