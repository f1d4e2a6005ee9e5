"""Reduced-order models of parameter-dependent systems near Hopf bifurcations.

Builds invariant-manifold ROMs of follower-force benchmarks (Ziegler
pendulums) and of polynomial second-order models, with the bifurcation
parameter carried as a trivial extra state, and uses them to predict
bifurcation points and post-critical limit-cycle amplitudes.

Its linear algebra is many small matrices, which a BLAS thread pool slows
down.  Set OPENBLAS_NUM_THREADS=1 (and OMP_NUM_THREADS=1) in the
environment before numpy is first imported: with OpenBLAS's default
threads on a 2-CPU host, the order-5 build of a 32-link Ziegler chain ROM
(recast, master spectrum and build) took 234-250 ms against 88-107 ms with
one thread.  The test suite (conftest.py) and perfbench/run.py pin one
thread themselves.
"""

import logging

__version__ = "0.1.0"

# silent unless the application configures logging; once, however often the
# package is imported again
_log = logging.getLogger("flutterrom")
if not any(isinstance(h, logging.NullHandler) for h in _log.handlers):
    _log.addHandler(logging.NullHandler())
