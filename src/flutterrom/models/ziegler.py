"""Ziegler pendulums: n-link follower-force chains, with the 2-DOF and
3-DOF benchmarks as special cases.

Equations of motion up to third order,

    M th'' + C th' + (K + Kg(P)) th = F_nl(P, th),

with Kg = -P * Ru and cubic forces proportional to the load.  Because the
cubic scales with P, these models go through the quadratic recast and the
generic first-order engine rather than the second-order one.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ..polytensor import SparseBilinearForm, _rebuilt
from .dae import FirstOrderDAE


@dataclass(frozen=True)
class ZieglerModel:
    """Second-order Ziegler model with load-scaled cubic forces.

    cubic_terms entries (row, a, b, coeff) put +coeff * P * (th_a - th_b)^3
    on the left-hand side of row `row`.

    A built model is a value: its fields cannot be assigned, it keeps
    read-only float copies of M, K, C and Ru and its cubic terms as a tuple
    of tuples, so the first-order system it holds (system), with that
    system's linear analysis, cannot go stale.  dataclasses.replace gives a
    changed model, which starts without a system, and so does copy.deepcopy
    or a pickle.  A singular mass matrix is refused (ValueError).  The number of
    angles n is M's size.
    """

    M: np.ndarray
    K: np.ndarray
    C: np.ndarray
    Ru: np.ndarray
    cubic_terms: tuple[tuple[int, int, int, float], ...] = ()

    def __post_init__(self):
        for name in ("M", "K", "C", "Ru"):
            a = np.array(getattr(self, name), dtype=float)
            a.flags.writeable = False
            object.__setattr__(self, name, a)
        object.__setattr__(self, "cubic_terms", tuple(map(tuple, self.cubic_terms)))
        try:
            np.linalg.inv(self.M)
        except np.linalg.LinAlgError as exc:
            raise ValueError("singular mass matrix: the first-order form needs M^-1") from exc

    __reduce__ = _rebuilt

    @property
    def n(self):
        return len(self.M)

    @cached_property
    def system(self):
        """The model's one first-order system, first_order(0.0), whose mu is
        the load P: the eigen sweep reads its state matrices, and
        romdyn.measure_limit_cycle_fom collocates on it, so its linear
        analysis is kept for every later load."""
        return self.first_order(0.0)

    def linear_pencil(self, P):
        """(M, C, K_eff) of the linearization about the upright equilibrium."""
        return self.M, self.C, self.K - P * self.Ru

    def first_order(self, P0):
        """The first-order system on x = [theta, thetadot] about load P0."""
        return ZieglerFirstOrder(self, P0)

    def fom_rhs(self, P):
        """First-order RHS rhs(t, x) at load P, for direct integration."""
        return self.first_order(P).rhs


class ZieglerFirstOrder:
    """First-order form x' = (A0 + P A1) x + P S1 (D x)**3 on
    x = [theta, thetadot] of a ZieglerModel at load P = P0 + mu, with the
    interface of romdyn.RealizedReducedSystem (settable mu, batched rhs and
    linearize, map_batch, linear_block, meta["mu0"]); meta["load"] = "P"
    makes continuation's reasons name absolute loads P0 + mu.

    M^-1 is folded into A0, A1 and S1; D takes the angle difference of each
    cubic term and S1 scatters -M^-1 coeff times its cube onto the
    accelerations.  Each state goes through its own matrix-vector products,
    so a row of a block of states gives the bits of the single-state call.

    A system is a value: A0, A1, D and S1 are read-only, and only mu, the
    evaluation point, is set.  So it keeps its own linear analysis
    (_analysis, continuation's memo of stability scans and Hopf cycles).
    """

    def __init__(self, model, P0):
        n = self.m = model.n   # half the state dimension
        Minv, Z = np.linalg.inv(model.M), np.zeros((n, n))
        self.A0 = np.block([[Z, np.eye(n)], [-Minv @ model.K, -Minv @ model.C]])
        self.A1 = np.block([[Z, Z], [Minv @ model.Ru, Z]])
        self.D = np.zeros((len(model.cubic_terms), 2 * n))
        self.S1 = np.zeros((2 * n, len(model.cubic_terms)))
        for t, (row, a, b, coeff) in enumerate(model.cubic_terms):
            self.D[t, a] += 1.0
            self.D[t, b] -= 1.0
            self.S1[n:, t] = -coeff * Minv[:, row]
        for a in (self.A0, self.A1, self.D, self.S1):
            a.flags.writeable = False
        self.meta = {"mu0": float(P0), "load": "P"}
        self._analysis = {}
        self.mu = 0.0

    @property
    def mu(self):
        return self._mu

    @mu.setter
    def mu(self, value):
        self._mu = float(value)
        P = self.meta["mu0"] + self._mu
        self._A = self.A0 + P * self.A1
        self._S = P * self.S1

    def linear_block(self, mu):
        """A(P0 + mu); a 1-D array of increments gives one matrix per load."""
        return self.A0 + np.multiply.outer(self.meta["mu0"] + np.asarray(mu), self.A1)

    def rhs(self, t, x):
        x = np.asarray(x, dtype=float)[..., None]
        return (self._A @ x + self._S @ (self.D @ x) ** 3)[..., 0]

    def linearize(self, X):
        """(rhs, jacobian, d rhs / dP) at one state or at each row of X.

        The Jacobian is A + 3 P S1 diag((D x)**2) D.
        """
        x = np.asarray(X, dtype=float)[..., None]
        w = self.D @ x
        cube = w ** 3
        f = (self._A @ x + self._S @ cube)[..., 0]
        J = self._A + (self._S * (3.0 * w ** 2).swapaxes(-1, -2)) @ self.D
        g = (self.A1 @ x + self.S1 @ cube)[..., 0]
        return f, J, g

    def jacobian(self, x):
        return self.linearize(x)[1]

    def map_batch(self, X):
        """The physical states are the states themselves."""
        return np.asarray(X, dtype=float)


def _check_positive(**params):
    for name, value in params.items():
        if value <= 0:
            raise ValueError(f"{name} must be positive, got {value}")


def _rayleigh(K, M, xi_m, xi_k):
    if xi_m < 0 or xi_k < 0:
        raise ValueError("damping ratios must be non-negative")
    return 2.0 * (xi_k * K + xi_m * M)


def build_ziegler(masses, stiffnesses, L, xi_m=0.0, xi_k=0.0):
    """Ziegler chain of n rigid links of length L: point mass m_i at the tip
    of link i, rotational spring k_i at its base, follower load at the free
    end.

    Angles are absolute, so M = L^2 * tail_sum[max(i, j)] with
    tail_sum[k] = m_k + m_{k+1} + ..., K is tridiagonal, the follower load
    gives Ru = L (I - 1 e_n^T) (its last row is zero) and each of the first
    n - 1 rows gets the cubic term (i, i, n - 1, L/6).
    """
    _check_positive(**{f"m{i + 1}": v for i, v in enumerate(masses)},
                    **{f"k{i + 1}": v for i, v in enumerate(stiffnesses)}, L=L)
    m = np.asarray(masses, dtype=float)
    k = np.asarray(stiffnesses, dtype=float)
    n = len(m)
    # each tail sum added front to back, as the 2- and 3-link closed forms did
    tail = np.array([np.cumsum(m[i:])[-1] for i in range(n)])
    M = L**2 * tail[np.maximum.outer(np.arange(n), np.arange(n))]
    K = np.diag(k + np.append(k[1:], 0.0)) - np.diag(k[1:], 1) - np.diag(k[1:], -1)
    Ru = np.eye(n)
    Ru[:, -1] -= 1.0
    return ZieglerModel(M, K, _rayleigh(K, M, xi_m, xi_k), L * Ru,
                        cubic_terms=[(i, i, n - 1, L / 6.0) for i in range(n - 1)])


def build_ziegler2(m1, m2, k1, k2, L, xi_m=0.0, xi_k=0.0):
    return build_ziegler([m1, m2], [k1, k2], L, xi_m, xi_k)


def build_ziegler3(m1, m2, m3, k1, k2, k3, L, xi_m=0.0, xi_k=0.0):
    return build_ziegler([m1, m2, m3], [k1, k2, k3], L, xi_m, xi_k)


def recast_to_dae(model: ZieglerModel, mu0: float) -> FirstOrderDAE:
    """Quadratic recast of a Ziegler model expanded at load mu0.

    Each cubic term coeff*P*(th_a - th_b)^3 gets two auxiliary states,

        w_sq  = (th_a - th_b)^2,
        w_lin = P (th_a - th_b),

    so every nonlinearity in the first-order system is quadratic.  States
    are ordered [theta, thetadot, auxiliaries]; the engine appends mu.
    """
    n = model.n
    nc = len(model.cubic_terms)
    D = 2 * n + 2 * nc

    B = np.zeros((D, D))
    A = np.zeros((D, D))
    Q2m = np.zeros((D, D))
    q1_entries = []

    B[:n, :n] = np.eye(n)
    A[:n, n:2 * n] = np.eye(n)

    B[n:2 * n, n:2 * n] = model.M
    A[n:2 * n, :n] = -model.K
    A[n:2 * n, n:2 * n] = -model.C
    Q2m[n:2 * n, :n] = model.Ru

    for t, (row, a, b, coeff) in enumerate(model.cubic_terms):
        i_sq = 2 * n + 2 * t
        i_lin = 2 * n + 2 * t + 1
        # force row: -coeff * w_sq * w_lin (symmetrized split)
        q1_entries.append((n + row, i_sq, i_lin, -0.5 * coeff))
        q1_entries.append((n + row, i_lin, i_sq, -0.5 * coeff))
        # 0 = w_sq - (th_a - th_b)^2
        A[i_sq, i_sq] = 1.0
        q1_entries.extend([
            (i_sq, a, a, -1.0),
            (i_sq, a, b, 1.0),
            (i_sq, b, a, 1.0),
            (i_sq, b, b, -1.0),
        ])
        # 0 = w_lin - P (th_a - th_b)
        A[i_lin, i_lin] = 1.0
        Q2m[i_lin, a] = -1.0
        Q2m[i_lin, b] = 1.0

    Q1 = SparseBilinearForm.from_entries(D, D, D, q1_entries)
    return FirstOrderDAE(B, A, Q1, Q2m, q3=np.zeros(D), y0=np.zeros(D), mu0=float(mu0),
                         displacement_indices=np.arange(n))
