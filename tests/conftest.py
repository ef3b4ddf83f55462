"""Test-session set-up: one BLAS thread unless the caller chose otherwise.

Pytest imports this file before any test module, so numpy has not loaded
OpenBLAS yet when these variables are read. On a 2-CPU machine OpenBLAS with
its default thread count runs the suite several times slower; an explicit
setting in the environment still wins.
"""

import os

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")
