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
from scipy.integrate import solve_ivp

from .polytensor import polynomial_eval


class BlowUpError(RuntimeError):
    def __init__(self, message, t_blowup=None):
        super().__init__(message)
        self.t_blowup = t_blowup


@dataclass
class LimitCycleMeasurement:
    mu: float
    amplitude: np.ndarray
    period: float
    converged: bool
    transient_periods: int
    reason: str = ""

    def amp(self, coord):
        return float(self.amplitude[coord])


class RealizedReducedSystem:
    """Real 2m-dimensional form of the reduced dynamics at fixed mu.

    The reduced field is compiled once into the nonzero representative
    rows of f, grouped by z-exponent; assigning mu substitutes it and sums
    each group's mu powers into one coefficient per distinct z-monomial
    (and one for d/dmu).  Every evaluation then builds the powers of
    u = (z_reps, conj z_reps) by cumulative products and contracts that
    one table.  complex_field and map_to_physical keep the direct
    polynomial evaluation as the oracle.
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
        # position of each master coordinate in u, and du/dx (rows x, columns u)
        self._upos = np.empty(rom.d, dtype=np.int64)
        self._upos[self.reps] = np.arange(m)
        self._upos[rom.conj_map[self.reps]] = m + np.arange(m)
        self._dudx = np.zeros((2 * m, 2 * m), dtype=complex)
        for k in range(m):
            self._dudx[2 * k, [k, m + k]] = 1.0
            self._dudx[2 * k + 1, [k, m + k]] = 1j, -1j
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
        self._f_coef = self._collapse(self._f_support, np.hstack(
            [rows * (self._mu ** kmu)[:, None], rows * dpowers[:, None]]))
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
        exponents, transposed to (..., d, ngroups)."""
        return np.swapaxes(zexp * self.rom.d + self._upos, -1, -2)

    def _monomials(self, X, index):
        """Monomials gathered by index at each realified state of X."""
        U = (np.asarray(X, dtype=float) @ self._dudx.view(float)).view(complex)
        P = np.ones(U.shape[:-1] + (self.rom.order + 1, self.rom.d), dtype=complex)
        P[..., 1:, :] = U[..., None, :]
        np.multiply.accumulate(P, axis=-2, out=P)
        P = P.reshape(U.shape[:-1] + (-1,))
        return np.multiply.reduce(P[..., index], axis=-2)

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
        return (self._monomials(x, self._f_index[0]) @ self._f_coef[:, :self.m]).view(float)

    def linearize(self, x):
        """(rhs, jacobian, dfdmu) at x from one power table."""
        m = self.m
        out = (self._monomials(x, self._f_index) * self._f_factors) @ self._f_coef
        J = (self._dudx @ out[1:, :m]).view(float).T
        return out[0, :m].view(float), J, out[0, m:].view(float)

    def jacobian(self, x):
        return self.linearize(x)[1]

    def dfdmu(self, x):
        return (self._monomials(x, self._f_index[0]) @ self._f_coef[:, self.m:]).view(float)

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
        return (self._monomials(X, self._W_index) @ self._W_coef).real


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


def _measure_settled_cycle(step_period, map_coord, T0, settle_rtol, max_periods,
                           amp_floor):
    """Shared settling loop: per-period amplitudes until stationary."""
    amps = []
    for k in range(max_periods):
        amp = step_period()
        amps.append(amp)
        if amp < amp_floor:
            return "decayed", k + 1, amps
        if k >= 4:
            prev = amps[-2]
            if abs(amp - prev) <= settle_rtol * max(amp, 1e-30):
                return "settled", k + 1, amps
    return "no-convergence", max_periods, amps


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
    T0 = 2 * np.pi / abs(rom.lam[0].imag)
    x = sysr.real_state([amp0] + [0.0] * (sysr.m - 1))
    escape_radius = 1e3 * max(amp0, 1e-2)

    state = {"x": x}

    def step_period():
        sol = solve_ivp(sysr.rhs, (0.0, T0), state["x"], method="DOP853",
                        rtol=rtol, atol=atol, dense_output=True)
        ts = np.linspace(0.0, T0, 65)
        X = sol.sol(ts).T
        if np.linalg.norm(X[-1]) > escape_radius:
            raise BlowUpError("reduced trajectory left the escape radius")
        state["x"] = X[-1]
        Y = sysr.map_batch(X)
        return float(np.max(np.abs(Y[:, coord])))

    try:
        status, n_periods, amps = _measure_settled_cycle(
            step_period, coord, T0, settle_rtol, max_periods, amp_floor=1e-3 * amp0)
    except BlowUpError:
        return LimitCycleMeasurement(mu, np.zeros(rom.dim), 0.0, False, 0, "blow-up")

    if status == "decayed":
        return LimitCycleMeasurement(mu, np.zeros(rom.dim), 0.0, True, n_periods,
                                     "decayed to the fixed point")
    if status == "no-convergence":
        return LimitCycleMeasurement(mu, np.zeros(rom.dim), 0.0, False, n_periods,
                                     "settling tolerance not reached")

    # refine the period with a return-time solve on a flow-orthogonal section
    anchor = state["x"]
    T = _return_time(sysr.rhs, anchor, T0, rtol, atol)
    sol = solve_ivp(sysr.rhs, (0.0, T), anchor, method="DOP853", rtol=rtol,
                    atol=atol, dense_output=True)
    ts = np.linspace(0.0, T, n_sample)
    Y = sysr.map_batch(sol.sol(ts).T)
    amplitude = np.max(np.abs(Y), axis=0)
    return LimitCycleMeasurement(mu, amplitude, T, True, n_periods)


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

def leading_mode_ic(model, p, scale=1e-4):
    """Initial condition along the real part of the leading eigenvector."""
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
    return x


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
    from .spectral import _pencil_eigs_at

    w, _ = _pencil_eigs_at(model, p)
    scale_w = max(np.max(np.abs(w)), 1.0)
    osc = np.where(w.imag > 1e-9 * scale_w)[0]
    lead = osc[np.argmax(w[osc].real)]
    omega = omega_ref or abs(w[lead].imag)
    T0 = 2 * np.pi / omega
    x0 = leading_mode_ic(model, p, amp0)
    rhs = model.fom_rhs(p)
    n = len(x0) // 2
    state = {"x": x0}

    def step_period():
        sol = solve_ivp(rhs, (0.0, T0), state["x"], method="DOP853", rtol=rtol,
                        atol=atol, dense_output=True)
        ts = np.linspace(0.0, T0, 65)
        X = sol.sol(ts).T
        state["x"] = X[-1]
        return float(np.max(np.abs(X[:, coord])))

    status, n_periods, amps = _measure_settled_cycle(
        step_period, coord, T0, settle_rtol, max_periods, amp_floor=1e-3 * amp0)
    if status == "decayed":
        return LimitCycleMeasurement(p, np.zeros(2 * n), 0.0, True, n_periods,
                                     "decayed to equilibrium")
    if status == "no-convergence":
        return LimitCycleMeasurement(p, np.zeros(2 * n), 0.0, False, n_periods,
                                     "settling tolerance not reached")

    anchor = state["x"]
    T = _return_time(rhs, anchor, T0, rtol, atol)
    sol = solve_ivp(rhs, (0.0, T), anchor, method="DOP853", rtol=rtol, atol=atol,
                    dense_output=True)
    ts = np.linspace(0.0, T, n_sample)
    X = sol.sol(ts).T
    amplitude = np.max(np.abs(X), axis=0)
    return LimitCycleMeasurement(p, amplitude, T, True, n_periods)
