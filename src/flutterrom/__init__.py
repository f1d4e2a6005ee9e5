"""Reduced-order models of parameter-dependent systems near Hopf bifurcations.

Builds invariant-manifold ROMs of follower-force benchmarks (Ziegler
pendulums) and of polynomial second-order models, with the bifurcation
parameter carried as a trivial extra state, and uses them to predict
bifurcation points and post-critical limit-cycle amplitudes.
"""

__version__ = "0.1.0"
