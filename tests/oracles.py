"""Oracles of the library's periodic-orbit solvers.

The library finds a system's limit cycles by collocation and a ROM's as
rotating waves.  The time-integration oracles integrate instead: a settle
loop that runs a trajectory until its per-period amplitude stops changing,
and the first return to a flow-orthogonal section, which gives the period
of a settled orbit.  The ROM oracle, CollocatedROM, hands a ROM's realified
system to continuation as a system, so that its cycles are collocated.
contract_left and contract_right are the sparse matrices of a bilinear
form with one slot filled, the oracle of FirstOrderDAE.tangent_matrix.
orbit_error compares two sampled orbits as point sets, with no phase
alignment.
"""

import numpy as np
import scipy.sparse as sp
from scipy.integrate import DOP853, solve_ivp
from scipy.spatial import cKDTree

from flutterrom.romdyn import RealizedReducedSystem


class BlowUpError(RuntimeError):
    """A settle run failed a step or left its escape radius."""


class CollocatedROM:
    """A ROM's RealizedReducedSystem presented as a system: continuation
    collocates its cycles, as it does the full-order model's.

    It has the realified system's interface (settable mu, rhs, linearize,
    jacobian, map_batch, m), the ROM's linear_block and meta, which
    find_hopf scans, and its own linear-analysis memo (_analysis), apart
    from the ROM's.  continue_periodic(CollocatedROM(rom), options) is the
    ROM's branch by collocation, and continuation._cycle_at(
    CollocatedROM(rom), mu, mu, rom.dim) its limit cycle at load mu.
    """

    def __init__(self, rom, mu=0.0):
        self.sysr = RealizedReducedSystem(rom, mu)
        self.linear_block, self.meta = rom.linear_block, rom.meta
        self._analysis = {}

    def __getattr__(self, name):
        return getattr(self.sysr, name)

    @property
    def mu(self):
        return self.sysr.mu

    @mu.setter
    def mu(self, value):
        self.sysr.mu = value


def contract_left(Q, u):
    """CSR matrix Q(u, .) of a SparseBilinearForm: rows p, columns the
    second slot."""
    return sp.coo_matrix((Q.val * u[Q.i], (Q.p, Q.j)), shape=(Q.dim_out, Q.dim_in2)).tocsr()


def contract_right(Q, v):
    """CSR matrix Q(., v): rows p, columns the first slot."""
    return sp.coo_matrix((Q.val * v[Q.j], (Q.p, Q.i)), shape=(Q.dim_out, Q.dim_in1)).tocsr()


def orbit_error(rom_orbit, fom_orbit):
    """Symmetric Hausdorff distance between two sampled orbits, one state
    per row, over the FOM orbit's largest state norm.

    Each set's nearest neighbours in the other come from a k-d tree, so the
    samples need no common phase or count.  Sampling alone leaves a floor:
    a point of a circle lies up to 2 sin(pi / 2n) of its radius from the
    nearest of n uniform samples of it.
    """
    a, b = np.asarray(rom_orbit, dtype=float), np.asarray(fom_orbit, dtype=float)
    far = max(cKDTree(b).query(a)[0].max(), cKDTree(a).query(b)[0].max())
    return float(far / np.linalg.norm(b, axis=1).max())


def return_time(rhs, anchor, T0, rtol, atol):
    """First return to the flow-orthogonal section through the anchor.

    The section function vanishes at the start, so the event search keeps
    all upward crossings and takes the first one past a fifth of the
    nominal period.
    """
    nvec = rhs(0.0, anchor)
    nvec = nvec / np.linalg.norm(nvec)

    def section(t, x):
        return nvec @ (x - anchor)

    section.direction = 1.0
    sol = solve_ivp(rhs, (0.0, 3.0 * T0), anchor, method="DOP853", rtol=rtol,
                    atol=atol, events=section)
    hits = [t for t in sol.t_events[0] if t > 0.2 * T0]
    return float(hits[0]) if hits else T0


def measure_settled_cycle(rhs, x0, T0, observe, settle_rtol, max_periods, rtol, atol,
                          escape_radius=np.inf):
    """Settle loop: one DOP853 stepper sampled once per period until stationary.

    Period k is sampled at k*T0 + linspace(0, T0, 65) from the dense output
    of the steps that cover those times, and observe(samples) gives its
    amplitude.  The cycle has settled when, from the fifth period on, the
    amplitude changes by at most settle_rtol relative; it has decayed when
    the largest state norm over a period's samples falls below 1e-3 |x0|.
    A period end outside the escape radius, or a failed step, raises
    BlowUpError.  Settling can fire early where the Floquet multipliers
    are close to 1 or a complex pair: an accurate oracle needs a tight
    settle_rtol or a fixed, long run.

    Returns (status, periods, state at the last period end).
    """
    solver = DOP853(rhs, 0.0, x0, np.inf, rtol=rtol, atol=atol)
    grid = np.linspace(0.0, T0, 65)
    floor = 1e-3 * np.linalg.norm(x0)
    X = np.empty((len(grid), len(x0)))
    X[-1] = x0
    dense = prev = None
    for k in range(max_periods):
        ts = k * T0 + grid
        X[0] = X[-1]
        done = 1
        while done < len(ts):
            while solver.t < ts[done]:
                message = solver.step()
                dense = None
                if solver.status == "failed":
                    raise BlowUpError(f"integration failed at t = {solver.t:.6g}: {message}")
            upto = np.searchsorted(ts, solver.t, side="right")
            if dense is None:
                dense = solver.dense_output()
            X[done:upto] = dense(ts[done:upto]).T
            done = upto
        if np.linalg.norm(X[-1]) > escape_radius:
            raise BlowUpError(f"trajectory left the escape radius at t = {ts[-1]:.6g}")
        if np.linalg.norm(X, axis=1).max() < floor:
            return "decayed", k + 1, X[-1].copy()
        amp = observe(X)
        if k >= 4 and abs(amp - prev) <= settle_rtol * max(amp, 1e-30):
            return "settled", k + 1, X[-1].copy()
        prev = amp
    return "no-convergence", max_periods, X[-1].copy()
