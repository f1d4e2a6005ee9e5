"""Time-integration oracles of the collocation periodic-orbit solver.

The library finds limit cycles by collocation only.  These integrate
instead: a settle loop that runs a trajectory until its per-period
amplitude stops changing, and the first return to a flow-orthogonal
section, which gives the period of a settled orbit.
"""

import numpy as np
from scipy.integrate import DOP853, solve_ivp

from flutterrom.romdyn import BlowUpError


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
                    raise BlowUpError(f"integration failed at t = {solver.t:.6g}: {message}",
                                      solver.t)
            upto = np.searchsorted(ts, solver.t, side="right")
            if dense is None:
                dense = solver.dense_output()
            X[done:upto] = dense(ts[done:upto]).T
            done = upto
        if np.linalg.norm(X[-1]) > escape_radius:
            raise BlowUpError("trajectory left the escape radius", ts[-1])
        if np.linalg.norm(X, axis=1).max() < floor:
            return "decayed", k + 1, X[-1].copy()
        amp = observe(X)
        if k >= 4 and abs(amp - prev) <= settle_rtol * max(amp, 1e-30):
            return "settled", k + 1, X[-1].copy()
        prev = amp
    return "no-convergence", max_periods, X[-1].copy()
