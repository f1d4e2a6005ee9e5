"""Generic second-order model with explicit quadratic/cubic force tensors.

Covers desk-scale mechanical systems of the form

    M U'' + C U' + Kt U + Gt(U, U) + H(U, U, U) - p Rt - p Ru U = 0

with parameter-independent nonlinear forces, the shape handled by the
halved second-order reduction engine, and the system of the dual-engine
cross-check (second- against first-order engine).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..polytensor import SparseBilinearForm, SparseTrilinearForm


@dataclass
class PolynomialSecondOrderModel:
    n: int
    M: np.ndarray
    C: np.ndarray
    Kt: np.ndarray
    Rt: np.ndarray
    Ru: np.ndarray
    Gt: SparseBilinearForm | None = None
    H: SparseTrilinearForm | None = None
    p0: float = 0.0

    @property
    def ndof(self):
        return self.n

    def mass(self):
        return self.M

    def damping(self):
        return self.C

    def tangent_stiffness(self):
        return self.Kt

    def rt(self):
        return self.Rt

    def ru(self):
        return self.Ru

    def nonlinear_force(self, U):
        """LHS nonlinear force Gt(U,U) + H(U,U,U); U may carry leading batch axes."""
        f = np.zeros(U.shape, dtype=np.result_type(float, U.dtype))
        if self.Gt is not None:
            f = f + self.Gt.apply(U, U)
        if self.H is not None:
            f = f + self.H.apply(U, U, U)
        return f

    def nl_rhs_series(self, table, U, p):
        """Order-p monomial coefficients of the nonlinear RHS force.

        With the equations written M U'' + C U' + Kt U = p Rt + p Ru U + F,
        F = -Gt(U,U) - H(U,U,U); returns one row per order-p monomial, in
        table order, assembled from the displacement mapping coefficients
        U (one row per table monomial; rows of order p and above are not
        read).  Each order pair or triple is one product-table contraction.
        """
        n_p = table.count_of_order(p)
        out = np.zeros((n_p, self.n), dtype=complex)
        if self.Gt is not None:
            for p1 in range(1, p):
                out -= self.Gt.apply_outer(U[table.ids_of_order(p1)], U[table.ids_of_order(p - p1)],
                                           table.product_ids(p1, p - p1), n_p)
        if self.H is not None:
            for p1 in range(1, p - 1):
                for p2 in range(1, p - p1):
                    p3 = p - p1 - p2
                    out -= self.H.apply_outer(U[table.ids_of_order(p1)], U[table.ids_of_order(p2)],
                                              U[table.ids_of_order(p3)],
                                              table.product_ids(p1, p2, p3), n_p)
        return out
