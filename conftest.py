"""Settings of every pytest run from this repository (tests/ and perfbench/).

One BLAS thread unless the caller chose otherwise, set here, before any
test module loads numpy: the suite's many small products run slower on a
thread pool (a 512 x 125 by 125 x 6 complex product took ~60 times longer
with OpenBLAS's default threads on a 2-CPU host).
"""

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")
