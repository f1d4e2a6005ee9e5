"""Using built ROMs: realified reduced integration, limit cycles at a
load, and unstable-manifold tracing.

The reduced complex coordinates come in conjugate pairs; the realified
state stacks (Re z, Im z) per representative coordinate with the parameter
increment held constant during a run.  Physical outputs go through the
polynomial mapping and are real up to round-off for real models.  A limit
cycle at a load, of a ROM or of the full-order model, comes from
continuation's collocation: the branch that starts at that load, or where
that landing is refused, the branch continued from the Hopf point up to it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import solve_ivp

from .polytensor import polynomial_eval


# the tolerances of trace_unstable_manifold's integrations
_ROM_RTOL, _ATOL = 1e-9, 1e-12


class BlowUpError(RuntimeError):
    def __init__(self, message, t_blowup=None):
        super().__init__(message)
        self.t_blowup = t_blowup


@dataclass
class LimitCycleMeasurement:
    """The limit cycle at one load, and newton, every Newton correction the
    measurement made: the landing's (the branch that starts at the load)
    plus, where that was refused, the branch walked up to it.  With no
    cycle the amplitude is zero, reason says why and converged whether the
    fixed point is stable there.  transient_periods is always 0 (nothing
    settles); it stays for callers.
    """

    mu: float
    amplitude: np.ndarray
    period: float
    converged: bool
    reason: str = ""
    floquet: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=complex))
    stable: bool | None = None
    newton: int = 0
    transient_periods: int = 0

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

    def map_to_physical(self, x):
        """The mapping at one realified state; raises when its imaginary
        part exceeds 1e-8 of its size (W breaks conjugate symmetry)."""
        y = self.rom.evaluate_mapping(self.complex_state(x))
        if np.abs(y.imag).max() > 1e-8 * max(np.abs(y).max(), 1e-30):
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


def integrate_reduced(rom, mu, z0, t_end, rtol=1e-10, atol=1e-12, t_eval=None,
                      dense_output=False):
    """Adaptive integration of the realified reduced dynamics.

    z0 is one complex amplitude per representative coordinate.  Raises
    BlowUpError when the reduced state leaves the escape radius
    1e3 max(|x0|, 1e-2).
    """
    sysr = RealizedReducedSystem(rom, mu)
    x0 = sysr.real_state(z0)
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


def measure_limit_cycle(rom, mu, coord=0):
    """The ROM's limit cycle at load increment mu, with max |coordinate| per
    physical coordinate (continuation._cycle_at).  coord selects nothing
    and stays for callers."""
    from .continuation import _cycle_at
    return _cycle_at(rom, mu, mu, rom.dim)


def trace_unstable_manifold(rom, mu, n_radial=4, n_angle=12, r_scale=1e-3,
                            t_end=None, n_samples=400):
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
                sol = integrate_reduced(rom, mu, z0, t_end, rtol=_ROM_RTOL, atol=_ATOL,
                                        t_eval=ts)
                Y = sysr.map_batch(sol.y.T)
                out.append((tid, ts, Y, ""))
            except BlowUpError as exc:
                out.append((tid, ts, None, f"blow-up at t = {exc.t_blowup:.4g}"))
            tid += 1
    return out


def measure_limit_cycle_fom(model, p, coord=0):
    """The full-order model's limit cycle at load p (see measure_limit_cycle)."""
    from .continuation import _cycle_at
    return _cycle_at(model.first_order(p), 0.0, p, 2 * model.n)
