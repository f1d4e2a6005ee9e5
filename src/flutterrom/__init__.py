"""Reduced-order models of parameter-dependent systems near Hopf bifurcations.

Builds invariant-manifold ROMs of follower-force benchmarks (Ziegler
pendulums) and of polynomial second-order models, with the bifurcation
parameter carried as a trivial extra state, and uses them to predict
bifurcation points and post-critical limit-cycle amplitudes.
"""

import logging

__version__ = "0.1.0"

# silent unless the application configures logging; once, however often the
# package is imported again
_log = logging.getLogger("flutterrom")
if not any(isinstance(h, logging.NullHandler) for h in _log.handlers):
    _log.addHandler(logging.NullHandler())
