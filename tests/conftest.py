"""Pin BLAS to one thread before numpy is imported, as perfbench/run.py and
the scripts do: on a few cores, OpenBLAS's default thread count makes the
small and mid-size dense algebra of the tests slower, and its timings noisy."""

import os

os.environ.update({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"})
