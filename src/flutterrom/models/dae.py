"""First-order quadratic DAE with the control parameter as an extra state.

The system is

    B ydot = A (y0 + y) + Q1(y0+y, y0+y) + Q2m (y0+y) (mu0+mu) + q3 (mu0+mu)^2,
    mudot = 0,

with A full rank and B possibly rank-deficient (zero rows mark algebraic
constraints).  Q2m is the matrix of the mixed state/parameter quadratic
form and q3 the coefficient vector of the parameter-only quadratic.
displacement_indices names the states that hold displacements, on whose
block the master eigenvectors are normalised.  Every field must fit the D
states of A: B and Q2m D x D, q3 and y0 of length D, Q1 from two D-vectors
to a D-vector and the displacement indices in range(D) (ValueError naming
the field otherwise).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..polytensor import SparseBilinearForm


@dataclass
class FirstOrderDAE:
    B: np.ndarray
    A: np.ndarray
    Q1: SparseBilinearForm
    Q2m: np.ndarray
    q3: np.ndarray
    y0: np.ndarray
    mu0: float
    displacement_indices: np.ndarray

    def __post_init__(self):
        self.B = np.asarray(self.B, dtype=float)
        self.A = np.asarray(self.A, dtype=float)
        self.Q2m = np.asarray(self.Q2m, dtype=float)
        self.q3 = np.asarray(self.q3, dtype=float)
        self.y0 = np.asarray(self.y0, dtype=float)
        self.displacement_indices = np.asarray(self.displacement_indices, dtype=np.int64)
        D = self.A.shape[0]
        if self.B.shape != (D, D) or self.Q2m.shape != (D, D):
            raise ValueError("B, A, Q2m must be square with matching size")
        fits = {"q3": self.q3.shape == (D,), "y0": self.y0.shape == (D,),
                "Q1": (self.Q1.dim_out, self.Q1.dim_in1, self.Q1.dim_in2) == (D, D, D),
                "displacement_indices": np.all((0 <= self.displacement_indices)
                                               & (self.displacement_indices < D))}
        for name, ok in fits.items():
            if not ok:
                raise ValueError(f"{name} does not fit the {D} states of A")
        if np.linalg.matrix_rank(self.A) < D:
            raise ValueError("A must have full rank")

    @property
    def dim(self):
        return self.A.shape[0]

    def tangent_matrix(self):
        """A_t = A + Q1(y0, I) + Q1(I, y0) + Q2(I, mu0), assembled dense: each
        contraction of Q1 sums its entries into its matrix in entry order."""
        Q, y0 = self.Q1, self.y0
        left, right = np.zeros((2, self.dim, self.dim), dtype=np.result_type(Q.val, y0))
        np.add.at(left, (Q.p, Q.j), Q.val * y0[Q.i])
        np.add.at(right, (Q.p, Q.i), Q.val * y0[Q.j])
        return self.A + left + right + self.mu0 * self.Q2m

    def parameter_column(self):
        """A_0 = Q2(y0, 1) + Q3(mu0, 1) + Q3(1, mu0)."""
        return self.Q2m @ self.y0 + 2.0 * self.mu0 * self.q3
