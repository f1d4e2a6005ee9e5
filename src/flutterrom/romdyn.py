"""Using built ROMs: the realified reduced system and limit cycles at a
load.

The reduced complex coordinates come in conjugate pairs; the realified
state stacks (Re z, Im z) per representative coordinate at a fixed
parameter increment.  Physical outputs go through the polynomial mapping
and are real up to round-off for real models.  A limit cycle at a load
comes from continuation: the branch that starts at that load, or where
that landing is refused, the branch continued from the Hopf point up to
it.  A ROM's cycles are rotating waves of its realified system,
solved as algebraic equations; the full-order model's are collocated on
the one first-order system a ZieglerModel holds (ZieglerModel.system).
Each ROM and system keeps its linear analysis (stability scan, Hopf
cycles) in its own memo, _analysis (see continuation).  Built ROMs and
systems are values, with read-only arrays, so that memo needs no key and
cannot go stale.  A ROM keeps there its realified plan too, the
mu-independent part of every RealizedReducedSystem built on it
(_realified_plan), in which W's rows are grouped by z exponent and ordered
by charge.  So a load costs a system only the mu scaling, and a rotating
wave's mapped harmonics are W's terms at its anchor summed by charge
(RealizedReducedSystem.harmonics), with no phase sampled: for a block of
anchors at once, each at its own load.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .polytensor import polynomial_eval, power_index, power_values


@dataclass
class LimitCycleMeasurement:
    """The limit cycle at one load, and newton, every Newton correction the
    measurement made: the Hopf cycle's, the landing's (the branch that
    starts at the load) and, where that was refused, the branch walked up
    to it.  The Hopf cycle's count even where an earlier measurement of the
    same ROM corrected it and this one reused it, so newton does not
    depend on what was measured before.  With no cycle the amplitude is zero, reason says why and
    converged whether the fixed point is stable there.  transient_periods
    is always 0 (nothing settles); it stays for callers.
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


def _realified_plan(rom):
    """The mu-independent part of a ROM's RealizedReducedSystem, as the
    attributes it sets; a ROM keeps it in its memo (_analysis).

    The nonzero representative rows of f get power_index gathers over u =
    (z_reps, conj z_reps), their mu exponents and derivative factors.  The
    nonzero rows of W are grouped by their z exponent (the rows of one
    group differ only in their power of mu), and the groups are ordered by
    charge (a representative coordinate counts +1, its conjugate -1): one
    power_index gather per group, the integer charge of each group, and
    where each group and each charge starts.  Its arrays are read-only.
    """
    if rom.conj_map is None:
        raise ValueError("ROM lacks conjugate-pair structure")
    reps = [s for s in range(rom.d) if rom.conj_map[s] > s]
    m = len(reps)
    if 2 * m != rom.d:
        raise ValueError("every master coordinate needs a distinct conjugate partner")
    exps = rom.table.exponents[:, np.r_[reps, rom.conj_map[reps], rom.d]]
    f = rom.f[:, reps]
    keep = np.flatnonzero(np.any(f != 0, axis=1))
    zexp, kmu = exps[keep, :-1], exps[keep, -1]
    plan = {
        "reps": reps, "m": m, "nv": rom.table.nvars,
        "_f_rows": f[keep], "_f_kmu": kmu, "_f_kdown": np.maximum(kmu - 1, 0),
        # row 0 evaluates the monomials (rhs, dfdmu), row 1 + p their
        # derivatives by u_p (linearize)
        "_f_index": power_index(zexp, lowered=True),
        "_f_factors": np.vstack((np.ones(len(keep)), zexp.T)),
    }
    keep = np.flatnonzero(np.any(rom.W != 0, axis=1))
    zexp = exps[keep, :-1]
    charge = zexp[:, :m].sum(axis=1) - zexp[:, m:].sum(axis=1)
    rows = np.lexsort((*zexp.T[::-1], charge))   # by charge, then z exponent
    zexp, charge = zexp[rows], charge[rows]
    first = np.flatnonzero(np.r_[True, np.any(zexp[1:] != zexp[:-1], axis=1)])
    charges, at = np.unique(charge[first], return_index=True)
    plan.update({
        "_W_rows": rom.W[keep[rows]], "_W_kmu": exps[keep[rows], -1], "_W_groups": first,
        "_W_index": power_index(zexp[first]), "_W_charges": charges, "_W_charge_starts": at,
    })
    for a in plan.values():
        if isinstance(a, np.ndarray):
            a.flags.writeable = False
    return plan


class RealizedReducedSystem:
    """Real 2m-dimensional form of the reduced dynamics at fixed mu.

    Its mu-independent part, the gathers of f's and W's rows, is the ROM's
    one realified plan (_realified_plan), so a system built at another load
    costs only the mu scaling.  Assigning mu scales f's rows by their power
    of mu (and by the mu derivative) and drops W's group coefficients, each
    group's rows summed with their powers of mu, which the mapping folds
    again when it needs them; assigning the value mu already has does
    nothing.  Every evaluation is one power_values call at one state or a
    block of states, contracted with those rows.  map_to_physical
    (polynomial_eval) is the oracle of map_batch and harmonics.  A realified
    state is the (Re, Im) pairs of z_reps, read as complex through a view.
    """

    def __init__(self, rom, mu):
        memo = rom._analysis
        if "plan" not in memo:
            memo["plan"] = _realified_plan(rom)
        vars(self).update(memo["plan"])
        self.rom = rom
        self._mu = None
        self.mu = mu

    @property
    def mu(self):
        return self._mu

    @mu.setter
    def mu(self, value):
        value = float(value)
        if value == self._mu:
            return
        self._mu = value
        powers = value ** np.arange(self.rom.order + 1)
        self._mu_powers = powers
        self._f_rhs = self._f_rows * powers[self._f_kmu][:, None]
        self._f_dmu = self._f_rows * (self._f_kmu * powers[self._f_kdown])[:, None]
        self._W_coef = None   # _mapping folds W's groups when it needs them

    def _monomials(self, X, index):
        """power_values at one realified state or at each row of X (which
        may be a list or strided), as u = (z_reps, conj z_reps)."""
        Z = np.ascontiguousarray(X, dtype=float).view(complex)
        return power_values(np.concatenate((Z, Z.conj()), axis=-1), index, self.rom.order)

    def complex_state(self, x):
        z = np.zeros(self.nv, dtype=complex)
        z[self.reps] = np.ascontiguousarray(x, dtype=float).view(complex)
        z[self.rom.conj_map[self.reps]] = z[self.reps].conj()
        z[-1] = self.mu
        return z

    def rhs(self, t, x):
        return self._monomials(x, self._f_index[:, 0]).dot(self._f_rhs).view(float)

    def linearize(self, X):
        """(rhs, jacobian, dfdmu) from one power table, at one realified state
        or stacked over the rows of a block of states.

        Every state goes through the same products, so a row of a block
        gives the bits of the single-state call.  With u = (z, conj z),
        d/d(Re z) = d/dz + d/dconj(z) and d/d(Im z) = i (d/dz - d/dconj(z)).
        """
        mono = self._monomials(X, self._f_index)
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
        return self._monomials(x, self._f_index[:, 0]).dot(self._f_dmu).view(float)

    def map_to_physical(self, x):
        """The mapping at one realified state; raises when its imaginary
        part exceeds 1e-8 of its size (W breaks conjugate symmetry)."""
        y = polynomial_eval(self.rom.table, self.rom.W, self.complex_state(x))
        if np.abs(y.imag).max() > 1e-8 * max(np.abs(y).max(), 1e-30):
            raise RuntimeError("mapped state has a non-negligible imaginary part")
        return y.real

    def _coefficients(self, powers):
        """W's group coefficients at each load whose powers of mu, 0 .. the
        order, are a column of powers: each group's rows times their powers
        of mu, summed; shape (groups, loads, dim)."""
        return np.add.reduceat(self._W_rows[:, None] * powers[self._W_kmu, :, None],
                               self._W_groups)

    def _mapping(self):
        """W's group coefficients at mu."""
        if self._W_coef is None:
            self._W_coef = self._coefficients(self._mu_powers[:, None])[:, 0]
        return self._W_coef

    def map_batch(self, X):
        """Real parts of the mapping at each row of X, shape (npoints, dim)."""
        return (self._monomials(X, self._W_index) @ self._mapping()).real

    def harmonics(self, X, mus):
        """The mapped rotating wave W(e^{i theta} z*, mu) of each anchor x
        of the block X (rows) at its load, the entry of mus, as the real
        trigonometric polynomial Re sum_k c_k e^{i k theta}: c, shape
        (len(X), order + 1, dim).

        A monomial of W turns with e^{i q theta}, q its charge, so the
        charge-q sum C_q of the terms at the anchor is the orbit's q-th
        harmonic, |q| <= order; then c_k = C_k + conj(C_-k) and c_0 = Re C_0.
        Each row takes W's group coefficients at its own load, and gets the
        bits of a system at that load alone.
        """
        o = self.rom.order
        powers = np.asarray(mus, dtype=float) ** np.arange(o + 1)[:, None]
        # groups, then charges, along the first axis: each sum adds whole
        # (anchor, coordinate) planes, in the order of a single anchor's
        terms = self._monomials(X, self._W_index).T[..., None] * self._coefficients(powers)
        C = np.zeros((2 * o + 1,) + terms.shape[1:], dtype=complex)
        C[o + self._W_charges] = np.add.reduceat(terms, self._W_charge_starts)
        c = C[o:] + C[o::-1].conj()
        c[0] = C[o].real
        return np.ascontiguousarray(c.transpose(1, 0, 2))


def measure_limit_cycle(rom, mu, coord=0):
    """The ROM's limit cycle at load increment mu, a rotating wave, with max
    |coordinate| per physical coordinate (continuation._cycle_at).  coord
    selects nothing and stays for callers."""
    from .continuation import _cycle_at
    return _cycle_at(rom, mu, mu, rom.dim)


def measure_limit_cycle_fom(model, p, coord=0):
    """The full-order model's limit cycle at load p (see measure_limit_cycle),
    collocated on the one first-order system the model holds
    (model.system), whose mu is the load P.  That system keeps its
    stability scan per tile of the load axis (continuation._tiles) and its
    Hopf cycles, so later loads skip both where they were computed; the
    tiles do not move with the loads measured, so the result does not
    depend on what the model measured before, bit for bit.  Reasons name
    loads P.

    Past some loads the model is bistable: at p = 3.3 (Ziegler-2, xi_m =
    0.2) this reports the Hopf branch's cycle (theta2 1.78206), not the
    larger one (theta2 2.97) that DOP853 settles on from near the fixed point.
    """
    from .continuation import _cycle_at
    return _cycle_at(model.system, float(p), p, 2 * model.n)
