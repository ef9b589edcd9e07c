"""One BLAS thread per test process, as perfbench runs the package.

The pool's forked workers inherit the BLAS thread count, and on a small
host their threads oversubscribe the cores: criterion 11's kernel products
of 33 columns ran several times slower with two workers than serially.  This
file is loaded before any test module imports numpy, which reads the
variables once; a value already set in the environment is kept.
"""

import os

for _name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ.setdefault(_name, "1")
