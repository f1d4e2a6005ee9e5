"""Using built ROMs: realified reduced integration, limit-cycle amplitude
measurement, unstable-manifold tracing, and full-order reference runs.

The reduced complex coordinates come in conjugate pairs; the realified
state stacks (Re z, Im z) per representative coordinate with the parameter
increment held constant during a run.  Physical outputs go through the
polynomial mapping and are real up to round-off for real models.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import DOP853, solve_ivp

from .polytensor import polynomial_eval


class BlowUpError(RuntimeError):
    def __init__(self, message, t_blowup=None, nfev=0):
        super().__init__(message)
        self.t_blowup = t_blowup
        self.nfev = nfev


@dataclass
class LimitCycleMeasurement:
    mu: float
    amplitude: np.ndarray
    period: float
    converged: bool
    transient_periods: int
    reason: str = ""
    nfev: int = 0   # rhs evaluations: settling, return-time solve and final period

    def amp(self, coord):
        return float(self.amplitude[coord])


def periodic_peak(Y):
    """Largest |Y| per column over one period sampled at uniform times whose
    last sample repeats the first.

    Each column's top sample is polished by the parabola through it and its
    periodic neighbours, so the result does not depend on where the samples
    fall on the orbit (the raw sample maximum reads up to 1 - cos(pi / n)
    low on a sinusoid of n distinct samples).
    """
    A = np.abs(Y[:-1])
    n = len(A)
    k = np.argmax(A, axis=0)
    cols = np.arange(A.shape[1])
    top, before, after = A[k, cols], A[(k - 1) % n, cols], A[(k + 1) % n, cols]
    # the top sample is no lower than its neighbours, so the curvature is
    # at most zero and the vertex lies within half a sample of it
    curv = before - 2.0 * top + after
    return top - 0.125 * (after - before) ** 2 / np.minimum(curv, -1e-300)


class RealizedReducedSystem:
    """Real 2m-dimensional form of the reduced dynamics at fixed mu.

    The reduced field is compiled once into the nonzero representative
    rows of f, grouped by z-exponent; assigning mu substitutes it and sums
    each group's mu powers into one coefficient per distinct z-monomial
    (and one for d/dmu).  Every evaluation then builds the table of powers
    u**k, k = 0..order, of u = (z_reps, conj z_reps) (numpy computes integer
    powers by repeated multiplication) and contracts that one table, for
    one state or a block of states.  complex_field and map_to_physical keep
    the direct polynomial evaluation as the oracle.
    """

    def __init__(self, rom, mu):
        if rom.conj_map is None:
            raise ValueError("ROM lacks conjugate-pair structure")
        self.rom = rom
        self.reps = [s for s in range(rom.d) if rom.conj_map[s] > s]
        self.m = m = len(self.reps)
        self.nv = rom.table.nvars
        if 2 * m != rom.d:
            raise ValueError("every master coordinate needs a distinct conjugate partner")
        # position of each master coordinate in u
        self._upos = np.empty(rom.d, dtype=np.int64)
        self._upos[self.reps] = np.arange(m)
        self._upos[rom.conj_map[self.reps]] = m + np.arange(m)
        self._exponents = np.arange(rom.order + 1, dtype=complex)  # no cast in u ** k
        self._f_support = self._support(rom.f[:, self.reps])
        zexp = self._f_support[0]
        # power-table gathers: row 0 evaluates the monomials, row 1 + p their
        # derivatives by u_p (that variable's exponent lowered)
        lowered = np.repeat(zexp[None], rom.d + 1, axis=0)
        factors = np.ones((rom.d + 1, len(zexp)))
        for s in range(rom.d):
            p = 1 + self._upos[s]
            lowered[p, :, s] = np.maximum(zexp[:, s] - 1, 0)
            factors[p] = zexp[:, s]
        self._f_index = self._power_index(lowered)
        # row 0 again, contiguous: gathering through the strided view
        # self._f_index[:, 0] made rhs ~10% slower
        self._f_index0 = self._power_index(zexp)
        self._f_factors = factors
        self._W_support = None
        self.mu = mu

    @property
    def mu(self):
        return self._mu

    @mu.setter
    def mu(self, value):
        self._mu = float(value)
        kmu, rows = self._f_support[2:]
        dpowers = kmu * self._mu ** np.maximum(kmu - 1, 0)
        self._f_rhs = self._collapse(self._f_support, rows * (self._mu ** kmu)[:, None])
        self._f_dmu = self._collapse(self._f_support, rows * dpowers[:, None])
        self._W_coef = None

    def _support(self, coeffs):
        """Nonzero rows of a coefficient table grouped by z-exponent.

        Returns (distinct z-exponents, group of each row, mu exponent of
        each row, the rows).
        """
        exps = self.rom.table.exponents
        keep = np.flatnonzero(np.any(coeffs != 0, axis=1))
        zexp, group = np.unique(exps[keep, :-1], axis=0, return_inverse=True)
        return zexp, group.ravel(), exps[keep, -1], coeffs[keep]

    @staticmethod
    def _collapse(support, weighted_rows):
        """Sum rows into one row per distinct z-monomial."""
        zexp, group = support[:2]
        out = np.zeros((len(zexp), weighted_rows.shape[1]), dtype=complex)
        np.add.at(out, group, weighted_rows)
        return out

    def _power_index(self, zexp):
        """Flat positions of u^e in the power table for (..., ngroups, d)
        exponents, with the variable axis moved first: (d, ..., ngroups)."""
        return np.ascontiguousarray(np.moveaxis(zexp * self.rom.d + self._upos, -1, 0))

    def _powers(self, X):
        """Flat power table at one realified state or at each row of X.

        Each state becomes u = (z_reps, conj z_reps) through a complex view
        of its (Re, Im) pairs (X may be a list or strided); u_s^k sits at
        k*d + s, with the states on a trailing axis.
        """
        Z = np.ascontiguousarray(X, dtype=float).view(complex).T
        U = np.concatenate((Z, Z.conj()))
        P = U ** self._exponents.reshape((-1,) + (1,) * U.ndim)
        return P.reshape((-1,) + Z.shape[1:])

    def _monomials(self, X, index):
        """Monomials gathered by index, (..., ngroups) plus the states' axis."""
        return np.multiply.reduce(self._powers(X)[index], axis=0)

    def complex_state(self, x):
        z = np.zeros(self.nv, dtype=complex)
        for kk, s in enumerate(self.reps):
            z[s] = x[2 * kk] + 1j * x[2 * kk + 1]
            z[self.rom.conj_map[s]] = np.conj(z[s])
        z[-1] = self.mu
        return z

    def real_state(self, z_reps):
        x = np.zeros(2 * self.m)
        for kk, zv in enumerate(np.atleast_1d(z_reps)):
            x[2 * kk] = np.real(zv)
            x[2 * kk + 1] = np.imag(zv)
        return x

    def complex_field(self, z):
        return polynomial_eval(self.rom.table, self.rom.f, z)

    def rhs(self, t, x):
        return self._monomials(x, self._f_index0).T.dot(self._f_rhs).view(float)

    def linearize(self, X):
        """(rhs, jacobian, dfdmu) from one power table, at one realified state
        or stacked over the rows of a block of states.

        Every state goes through the same products, so a row of a block
        gives the bits of the single-state call.  With u = (z, conj z),
        d/d(Re z) = d/dz + d/dconj(z) and d/d(Im z) = i (d/dz - d/dconj(z)).
        """
        mono = self._monomials(X, self._f_index)
        if mono.ndim == 3:
            mono = np.moveaxis(mono, -1, 0)
        mono = (mono * self._f_factors).reshape(-1, mono.shape[-1])
        m, rows = self.m, len(self._f_factors)
        out = (mono @ self._f_rhs).reshape(-1, rows, m)
        dz, dzbar = out[:, 1:m + 1], out[:, m + 1:]
        Jc = np.empty((len(out), 2 * m, m), dtype=complex)
        Jc[:, 0::2] = dz + dzbar
        Jc[:, 1::2] = (dz - dzbar) * 1j
        f = out[:, 0].view(float)
        J = Jc.view(float).transpose(0, 2, 1)
        g = (mono @ self._f_dmu)[::rows].view(float)
        return (f[0], J[0], g[0]) if np.ndim(X) == 1 else (f, J, g)

    def jacobian(self, x):
        return self.linearize(x)[1]

    def dfdmu(self, x):
        return self._monomials(x, self._f_index0).T.dot(self._f_dmu).view(float)

    def map_to_physical(self, x, check_real=True):
        z = self.complex_state(x)
        y = self.rom.evaluate_mapping(z)
        if check_real:
            scale = max(np.abs(y).max(), 1e-30)
            if np.abs(y.imag).max() > 1e-8 * scale:
                raise RuntimeError("mapped state has a non-negligible imaginary part")
        return y.real

    def map_batch(self, X):
        """Real parts of the mapping at each row of X, shape (npoints, dim)."""
        if self._W_support is None:
            self._W_support = self._support(self.rom.W)
            self._W_index = self._power_index(self._W_support[0])
        if self._W_coef is None:
            kmu, rows = self._W_support[2:]
            self._W_coef = self._collapse(self._W_support, rows * (self._mu ** kmu)[:, None])
        return (self._monomials(X, self._W_index).T @ self._W_coef).real


def integrate_reduced(rom, mu, z0, t_end, rtol=1e-10, atol=1e-12,
                      escape_radius=None, t_eval=None, dense_output=False):
    """Adaptive integration of the realified reduced dynamics.

    z0 is one complex amplitude per representative coordinate (or an
    already-realified state vector).  Raises BlowUpError when the reduced
    state leaves the escape radius.
    """
    sysr = RealizedReducedSystem(rom, mu)
    x0 = z0 if (np.ndim(z0) == 1 and len(z0) == 2 * sysr.m and not np.iscomplexobj(z0)) \
        else sysr.real_state(z0)
    if escape_radius is None:
        escape_radius = 1e3 * max(np.linalg.norm(x0), 1e-2)

    def escape(t, x):
        return np.linalg.norm(x) - escape_radius

    escape.terminal = True
    sol = solve_ivp(sysr.rhs, (0.0, t_end), x0, method="DOP853", rtol=rtol, atol=atol,
                    events=escape, t_eval=t_eval, dense_output=dense_output)
    if sol.status == 1:
        raise BlowUpError(f"reduced trajectory left the escape radius at t = "
                          f"{sol.t_events[0][0]:.6g}", t_blowup=float(sol.t_events[0][0]))
    sol.system = sysr
    return sol


def _return_time(rhs, anchor, T0, rtol, atol):
    """First return to the flow-orthogonal section through the anchor.

    The section function vanishes at the start, so the event search keeps
    all upward crossings and takes the first one past a fifth of the
    nominal period.  Returns (return time, rhs evaluations).
    """
    nvec = rhs(0.0, anchor)
    nvec = nvec / np.linalg.norm(nvec)

    def section(t, x):
        return nvec @ (x - anchor)

    section.direction = 1.0
    sol = solve_ivp(rhs, (0.0, 3.0 * T0), anchor, method="DOP853", rtol=rtol,
                    atol=atol, events=section)
    hits = [t for t in sol.t_events[0] if t > 0.2 * T0]
    return (float(hits[0]) if hits else T0), 1 + sol.nfev


def _measure_settled_cycle(rhs, x0, T0, observe, settle_rtol, max_periods, rtol, atol,
                           escape_radius=np.inf):
    """Settle loop: one DOP853 stepper sampled once per period until stationary.

    Period k is sampled at k*T0 + linspace(0, T0, 65) from the dense output
    of the steps that cover those times, and observe(samples) gives its
    amplitude.  The cycle has settled when, from the fifth period on, the
    amplitude changes by at most settle_rtol relative; it has decayed when
    the largest state norm over a period's samples falls below 1e-3 |x0|
    (reduced units for a ROM, physical ones for the FOM).  A period end
    outside the escape radius, or a failed step, raises BlowUpError.

    Returns (status, periods, state at the last period end, rhs evaluations).
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
                                      solver.t, solver.nfev)
            upto = np.searchsorted(ts, solver.t, side="right")
            if dense is None:
                dense = solver.dense_output()
            X[done:upto] = dense(ts[done:upto]).T
            done = upto
        if np.linalg.norm(X[-1]) > escape_radius:
            raise BlowUpError("trajectory left the escape radius", ts[-1], solver.nfev)
        if np.linalg.norm(X, axis=1).max() < floor:
            return "decayed", k + 1, X[-1].copy(), solver.nfev
        amp = observe(X)
        if k >= 4 and abs(amp - prev) <= settle_rtol * max(amp, 1e-30):
            return "settled", k + 1, X[-1].copy(), solver.nfev
        prev = amp
    return "no-convergence", max_periods, X[-1].copy(), solver.nfev


def _limit_cycle(rhs, x0, T0, physical, dim, param, coord, settle_rtol, max_periods,
                 rtol, atol, n_sample, escape_radius=np.inf):
    """Settle from x0 on the amplitude of physical coordinate `coord`, then
    take max |physical(x)| per coordinate over one final period, refined by
    a flow-orthogonal return-time solve.  Decay reports zero amplitude."""
    zero = np.zeros(dim)
    try:
        status, periods, anchor, nfev = _measure_settled_cycle(
            rhs, x0, T0, lambda X: float(np.max(np.abs(physical(X)[:, coord]))),
            settle_rtol, max_periods, rtol, atol, escape_radius)
    except BlowUpError as exc:
        return LimitCycleMeasurement(param, zero, 0.0, False, 0, "blow-up", exc.nfev)
    if status != "settled":
        decayed = status == "decayed"
        reason = "decayed to the fixed point" if decayed else "settling tolerance not reached"
        return LimitCycleMeasurement(param, zero, 0.0, decayed, periods, reason, nfev)
    T, nfev_return = _return_time(rhs, anchor, T0, rtol, atol)
    sol = solve_ivp(rhs, (0.0, T), anchor, method="DOP853", rtol=rtol, atol=atol,
                    dense_output=True)
    amplitude = periodic_peak(physical(sol.sol(np.linspace(0.0, T, n_sample)).T))
    return LimitCycleMeasurement(param, amplitude, T, True, periods, "",
                                 nfev + nfev_return + sol.nfev)


def measure_limit_cycle(rom, mu, coord=0, amp0=1e-4, settle_rtol=1e-4,
                        max_periods=2000, rtol=1e-9, atol=1e-12, n_sample=1024):
    """Amplitude of the settled limit cycle in physical coordinates.

    Integrates from a small perturbation along the leading master
    coordinate, detects settling from the per-period amplitude of the
    monitored coordinate, then measures max |coordinate| per physical
    coordinate over one final period (refined by a flow-orthogonal
    return-time solve).  Decay to the fixed point reports zero amplitude.
    """
    sysr = RealizedReducedSystem(rom, mu)
    x0 = sysr.real_state([amp0] + [0.0] * (sysr.m - 1))
    return _limit_cycle(sysr.rhs, x0, 2 * np.pi / abs(rom.lam[0].imag), sysr.map_batch,
                        rom.dim, mu, coord, settle_rtol, max_periods, rtol, atol, n_sample,
                        escape_radius=1e3 * max(amp0, 1e-2))


def trace_unstable_manifold(rom, mu, n_radial=4, n_angle=12, r_scale=1e-3,
                            t_end=None, n_samples=400, rtol=1e-9, atol=1e-12):
    """Family of trajectories spanned by the leading master coordinate.

    Returns a list of (trajectory id, times, physical coordinates) tuples;
    blow-ups are flagged per trajectory instead of aborting the family.
    """
    sysr = RealizedReducedSystem(rom, mu)
    T0 = 2 * np.pi / abs(rom.lam[0].imag)
    if t_end is None:
        growth = max(rom.lam[0].real, 1e-3)
        t_end = min(12.0 / growth, 200.0 * T0)
    out = []
    tid = 0
    for ir in range(1, n_radial + 1):
        r = r_scale * ir / n_radial
        for ia in range(n_angle):
            phi = 2 * np.pi * ia / n_angle
            z0 = [r * np.exp(1j * phi)] + [0.0] * (sysr.m - 1)
            ts = np.linspace(0.0, t_end, n_samples)
            try:
                sol = integrate_reduced(rom, mu, z0, t_end, rtol=rtol, atol=atol,
                                        t_eval=ts)
                Y = sysr.map_batch(sol.y.T)
                out.append((tid, ts, Y, ""))
            except BlowUpError as exc:
                out.append((tid, ts, None, f"blow-up at t = {exc.t_blowup:.4g}"))
            tid += 1
    return out


# -- full-order references ----------------------------------------------------

def _leading_mode(model, p, scale):
    """Leading oscillatory eigenvalue at load p, and the state with `scale`
    times the real part of its normalised eigenvector as displacements."""
    from .spectral import _pencil_eigs_at

    w, vr = _pencil_eigs_at(model, p)
    scale_w = max(np.max(np.abs(w)), 1.0)
    osc = np.where(w.imag > 1e-9 * scale_w)[0]
    lead = osc[np.argmax(w[osc].real)]
    n = vr.shape[0] // 2
    v = vr[:n, lead]
    v = v / np.linalg.norm(v)
    x = np.zeros(2 * n)
    x[:n] = scale * v.real
    return w[lead], x


def leading_mode_ic(model, p, scale=1e-4):
    """Initial condition along the real part of the leading eigenvector."""
    return _leading_mode(model, p, scale)[1]


def integrate_fom(model, p, x0=None, t_end=100.0, rtol=1e-10, atol=1e-12,
                  t_eval=None):
    """Direct integration of the full equations of motion (ODE models)."""
    if x0 is None:
        x0 = leading_mode_ic(model, p)
    rhs = model.fom_rhs(p)
    sol = solve_ivp(rhs, (0.0, t_end), x0, method="DOP853", rtol=rtol, atol=atol,
                    t_eval=t_eval, dense_output=True)
    return sol


def measure_limit_cycle_fom(model, p, coord=0, amp0=1e-4, settle_rtol=1e-4,
                            max_periods=2000, rtol=1e-10, atol=1e-12,
                            omega_ref=None, n_sample=1024):
    """FOM limit-cycle amplitude by direct time integration (ODE models)."""
    lam, x0 = _leading_mode(model, p, amp0)
    omega = omega_ref or abs(lam.imag)
    return _limit_cycle(model.fom_rhs(p), x0, 2 * np.pi / omega, lambda X: X, len(x0), p,
                        coord, settle_rtol, max_periods, rtol, atol, n_sample)
