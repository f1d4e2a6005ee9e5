"""Ziegler pendulums: 2-DOF and 3-DOF follower-force benchmarks.

Equations of motion up to third order,

    M th'' + C th' + (K + Kg(P)) th = F_nl(P, th),

with Kg = -P * Ru and cubic forces proportional to the load.  Because the
cubic scales with P, these models go through the quadratic recast and the
generic first-order engine rather than the second-order one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product

import numpy as np

from ..polytensor import SparseBilinearForm, SparseTrilinearForm
from .dae import FirstOrderDAE


@dataclass
class ZieglerModel:
    """Second-order Ziegler model with load-scaled cubic forces.

    cubic_terms entries (row, a, b, coeff) put +coeff * P * (th_a - th_b)^3
    on the left-hand side of row `row`.
    """

    n: int
    M: np.ndarray
    K: np.ndarray
    C: np.ndarray
    Ru: np.ndarray
    L: float
    cubic_terms: list[tuple[int, int, int, float]] = field(default_factory=list)
    cubic_scales_with_load: bool = True

    @property
    def ndof(self):
        return self.n

    def kg_matrix(self, P):
        return -P * self.Ru

    def linear_pencil(self, P):
        """(M, C, K_eff) of the linearization about the upright equilibrium."""
        return self.M, self.C, self.K - P * self.Ru

    def equilibrium(self, P):
        # the upright position solves the truncated equations for any load
        return np.zeros(self.n)

    def cubic_force(self, P, theta):
        """LHS cubic force vector at load P."""
        f = np.zeros(self.n, dtype=np.result_type(float, theta.dtype))
        for row, a, b, coeff in self.cubic_terms:
            f[row] += coeff * P * (theta[a] - theta[b]) ** 3
        return f

    def cubic_form(self):
        """Load-normalized cubic as an explicit trilinear form (P = 1 shape)."""
        entries = []
        for row, a, b, coeff in self.cubic_terms:
            for i, j, k in product((a, b), repeat=3):
                sign = (-1) ** ((i == b) + (j == b) + (k == b))
                entries.append((row, i, j, k, sign * coeff))
        return SparseTrilinearForm.from_entries(self.n, self.n, entries)

    def fom_rhs(self, P):
        """First-order RHS on x = [theta, thetadot] for direct integration.

        rhs(t, x) = A x + S (D x)**3: A is the linear part with M^-1 folded
        in, D takes the angle difference of each cubic term and S scatters
        -M^-1 coeff P times its cube onto the accelerations.
        """
        n = self.n
        Minv = np.linalg.inv(self.M)
        A = np.zeros((2 * n, 2 * n))
        A[:n, n:] = np.eye(n)
        A[n:, :n] = -Minv @ (self.K - P * self.Ru)
        A[n:, n:] = -Minv @ self.C
        D = np.zeros((len(self.cubic_terms), 2 * n))
        S = np.zeros((2 * n, len(self.cubic_terms)))
        for t, (row, a, b, coeff) in enumerate(self.cubic_terms):
            D[t, a] += 1.0
            D[t, b] -= 1.0
            S[n:, t] = -coeff * P * Minv[:, row]

        def rhs(t, x):
            return A.dot(x) + S.dot(D.dot(x) ** 3)

        return rhs

    def energy(self, x):
        """Mechanical energy of the conservative truncation (valid at P = 0)."""
        th, v = x[:self.n], x[self.n:]
        return 0.5 * v @ self.M @ v + 0.5 * th @ self.K @ th

    # protocol hooks for the shared static solver
    def residual(self, U, p):
        return (self.K - p * self.Ru) @ U + self.cubic_force(p, U)

    def tangent(self, U, p):
        Kt = self.K - p * self.Ru
        for row, a, b, coeff in self.cubic_terms:
            d = 3.0 * coeff * p * (U[a] - U[b]) ** 2
            Kt = Kt.copy()
            Kt[row, a] += d
            Kt[row, b] -= d
        return Kt

    def load_vector(self, p):
        return np.zeros(self.n)


def _check_positive(**params):
    for name, value in params.items():
        if value <= 0:
            raise ValueError(f"{name} must be positive, got {value}")


def _rayleigh(K, M, xi_m, xi_k):
    if xi_m < 0 or xi_k < 0:
        raise ValueError("damping ratios must be non-negative")
    return 2.0 * (xi_k * K + xi_m * M)


def build_ziegler2(m1, m2, k1, k2, L, xi_m=0.0, xi_k=0.0):
    _check_positive(m1=m1, m2=m2, k1=k1, k2=k2, L=L)
    M = L**2 * np.array([[m1 + m2, m2], [m2, m2]], dtype=float)
    K = np.array([[k1 + k2, -k2], [-k2, k2]], dtype=float)
    Ru = L * np.array([[1.0, -1.0], [0.0, 0.0]])
    C = _rayleigh(K, M, xi_m, xi_k)
    return ZieglerModel(2, M, K, C, Ru, L, cubic_terms=[(0, 0, 1, L / 6.0)])


def build_ziegler3(m1, m2, m3, k1, k2, k3, L, xi_m=0.0, xi_k=0.0):
    _check_positive(m1=m1, m2=m2, m3=m3, k1=k1, k2=k2, k3=k3, L=L)
    M = L**2 * np.array([
        [m1 + m2 + m3, m2 + m3, m3],
        [m2 + m3, m2 + m3, m3],
        [m3, m3, m3],
    ])
    K = np.array([
        [k1 + k2, -k2, 0.0],
        [-k2, k2 + k3, -k3],
        [0.0, -k3, k3],
    ])
    Ru = L * np.array([
        [1.0, 0.0, -1.0],
        [0.0, 1.0, -1.0],
        [0.0, 0.0, 0.0],
    ])
    C = _rayleigh(K, M, xi_m, xi_k)
    return ZieglerModel(3, M, K, C, Ru, L,
                        cubic_terms=[(0, 0, 2, L / 6.0), (1, 1, 2, L / 6.0)])


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
    labels = ([f"theta{i+1}" for i in range(n)] + [f"thetadot{i+1}" for i in range(n)]
              + [s for t in range(nc) for s in (f"w_sq{t+1}", f"w_lin{t+1}")])
    return FirstOrderDAE(B, A, Q1, Q2m, q3=np.zeros(D), y0=np.zeros(D), mu0=float(mu0),
                         labels=labels, displacement_indices=np.arange(n))
