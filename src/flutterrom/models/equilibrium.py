"""Static equilibrium by Newton iteration with load stepping."""

from __future__ import annotations

import numpy as np


class EquilibriumError(RuntimeError):
    def __init__(self, message, last_residual=None):
        super().__init__(message)
        self.last_residual = last_residual


def static_equilibrium(model, p_target, n_steps=4, max_iter=30, rtol=1e-10, U_init=None):
    """Solve residual(U, p) = load_vector(p) by Newton with load stepping.

    The residual tolerance is relative to the applied load norm, with an
    absolute fallback of 1e-12 when the load vanishes.
    """
    U = np.zeros(model.ndof) if U_init is None else np.array(U_init, dtype=float)
    load_full = model.load_vector(p_target)
    scale = np.linalg.norm(load_full)
    tol = rtol * scale if scale > 0 else 1e-12

    for step in range(1, n_steps + 1):
        p = p_target * step / n_steps
        load = model.load_vector(p)
        res = model.residual(U, p) - load
        for _ in range(max_iter):
            if np.linalg.norm(res) <= tol:
                break
            Kt = model.tangent(U, p)
            try:
                dU = np.linalg.solve(Kt, res)
            except Exception as exc:
                raise EquilibriumError(
                    f"singular tangent at p = {p:.6g} (near divergence load?): {exc}",
                    last_residual=float(np.linalg.norm(res))) from exc
            U = U - dU
            if not np.all(np.isfinite(U)):
                raise EquilibriumError(f"Newton diverged at p = {p:.6g}",
                                       last_residual=float(np.linalg.norm(res)))
            res = model.residual(U, p) - load
        else:
            raise EquilibriumError(
                f"no convergence at p = {p:.6g} after {max_iter} iterations",
                last_residual=float(np.linalg.norm(res)))
    return U
