"""Periodic-orbit continuation on reduced models.

Single-interval shooting with a flow-orthogonal phase condition and
pseudo-arclength stepping in (anchor state, period, parameter increment);
Floquet multipliers come from the variational integration used for the
shooting Jacobian, and fold / Neimark-Sacker events are located from their
test functions along the branch.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla
from scipy.integrate import solve_ivp

from .romdyn import RealizedReducedSystem


class ContinuationError(RuntimeError):
    pass


@dataclass
class BranchPoint:
    mu: float
    anchor: np.ndarray
    period: float
    amplitude: np.ndarray
    floquet: np.ndarray
    stable: bool | None
    event: str = ""


@dataclass
class BifurcationDiagram:
    points: list
    meta: dict = field(default_factory=dict)

    def mu(self):
        return np.array([pt.mu for pt in self.points])

    def absolute_parameter(self):
        return self.meta.get("mu0", 0.0) + self.mu()

    def amplitude(self, coord):
        return np.array([pt.amplitude[coord] for pt in self.points])

    def periods(self):
        return np.array([pt.period for pt in self.points])

    def events(self):
        return [(pt.mu, pt.event) for pt in self.points if pt.event]


def find_hopf(rom, window=None, n_scan=201, tol=1e-12):
    """Parameter increment where the mu-dressed linear part changes stability.

    Bisects the maximum real part of the reduced Jacobian at the fixed
    point; raises when no sign change exists in the scanned window (the
    expected failure of pre-bifurcation one-mode reductions).
    """
    if window is None:
        ref = max(abs(rom.meta.get("mu0", 0.0)), 1.0)
        window = (-0.35 * ref, 0.35 * ref)

    def max_re(mu):
        return float(np.max(np.linalg.eigvals(rom.linear_block(mu)).real))

    mus = np.linspace(window[0], window[1], n_scan)
    vals = np.array([max_re(mu) for mu in mus])
    bracket = None
    for i in range(len(mus) - 1):
        if vals[i] < 0 <= vals[i + 1]:
            bracket = (mus[i], mus[i + 1])
            break
    if bracket is None:
        raise ContinuationError(
            f"no sign change of the reduced growth rate in window {window}; "
            "the reduction cannot locate the bifurcation from this expansion")
    a, b = bracket
    fa = max_re(a)
    for _ in range(200):
        m = 0.5 * (a + b)
        fm = max_re(m)
        if fa * fm <= 0:
            b = m
        else:
            a, fa = m, fm
        if b - a < tol:
            break
    return 0.5 * (a + b)


@dataclass
class ContinuationOptions:
    mu_start: float | None = None
    mu_max: float = 1.0
    ds0: float = 0.02
    ds_min: float = 1e-5
    ds_max: float = 0.1
    max_points: int = 400
    target_newton: int = 3
    max_newton: int = 10
    newton_tol: float = 1e-9
    amp_cap: float | None = None
    rtol: float = 1e-9
    atol: float = 1e-12
    weight_T: float = 1.0
    weight_mu: float = 1.0
    n_sample: int = 512
    seed_amp: float = 1e-3
    seed_settle_periods: int = 600


def _flow_with_variations(sysr, x0, T, mu, rtol, atol, sensitivity=True):
    """phi_T(x0), monodromy, and the mu-sensitivity of the flow."""
    m2 = 2 * sysr.m
    sysr.mu = mu

    def rhs(t, y):
        x = y[:m2]
        Phi = y[m2:m2 + m2 * m2].reshape(m2, m2)
        f, J, g = sysr.linearize(x)
        out = np.empty_like(y)
        out[:m2] = f
        out[m2:m2 + m2 * m2] = (J @ Phi).ravel()
        if sensitivity:
            s = y[m2 + m2 * m2:]
            out[m2 + m2 * m2:] = J @ s + g
        return out

    y0 = np.concatenate([x0, np.eye(m2).ravel(),
                         np.zeros(m2 if sensitivity else 0)])
    sol = solve_ivp(rhs, (0.0, T), y0, method="DOP853", rtol=rtol, atol=atol,
                    dense_output=True)
    yT = sol.y[:, -1]
    xT = yT[:m2]
    Mono = yT[m2:m2 + m2 * m2].reshape(m2, m2)
    smu = yT[m2 + m2 * m2:] if sensitivity else None
    return xT, Mono, smu, sol


def _initial_cycle(rom, mu, opts):
    """Seed anchor/period from a settled integration at fixed mu."""
    sysr = RealizedReducedSystem(rom, mu)
    T0 = 2 * np.pi / abs(rom.lam[0].imag)
    x = sysr.real_state([opts.seed_amp] + [0.0] * (sysr.m - 1))
    amp_prev = None
    for k in range(opts.seed_settle_periods):
        sol = solve_ivp(sysr.rhs, (0.0, T0), x, method="DOP853",
                        rtol=opts.rtol, atol=opts.atol, dense_output=True)
        x = sol.y[:, -1]
        amp = np.max(np.abs(sol.sol(np.linspace(0, T0, 33))))
        if amp < 1e-6 * opts.seed_amp:
            raise ContinuationError(f"trajectory decays at mu = {mu}: no cycle to seed")
        if amp_prev is not None and abs(amp - amp_prev) < 3e-4 * amp:
            break
        amp_prev = amp
    from .romdyn import _return_time

    T = _return_time(sysr.rhs, x, T0, opts.rtol, opts.atol)
    return x, T


def _newton_fixed_mu(sysr, rom, x, T, mu, opts):
    """Polish (anchor, period) at fixed parameter by shooting Newton."""
    m2 = 2 * sysr.m
    for _ in range(opts.max_newton):
        nvec = sysr.rhs(0.0, x)
        nvec /= np.linalg.norm(nvec)
        xT, Mono, _, _ = _flow_with_variations(sysr, x, T, mu, opts.rtol, opts.atol,
                                               sensitivity=False)
        F = np.concatenate([xT - x, [0.0]])
        if np.linalg.norm(F) < opts.newton_tol * max(1.0, np.linalg.norm(x)):
            return x, T, Mono
        fT = sysr.rhs(0.0, xT)
        J = np.zeros((m2 + 1, m2 + 1))
        J[:m2, :m2] = Mono - np.eye(m2)
        J[:m2, m2] = fT
        J[m2, :m2] = nvec
        dq = sla.solve(J, -F)
        x = x + dq[:m2]
        T = T + dq[m2]
    raise ContinuationError("seed shooting Newton failed")


def _floquet_and_stability(Mono):
    mult = np.linalg.eigvals(Mono)
    trivial = int(np.argmin(np.abs(mult - 1.0)))
    others = np.delete(mult, trivial)
    stable = bool(np.all(np.abs(others) < 1.0))
    return mult, others, stable


def _fold_test(others):
    """Signed distance of the real multiplier nearest +1 (the fold test)."""
    if len(others) == 0:
        return -1.0
    cand = min(others, key=lambda m: abs(m - 1.0))
    return float(cand.real - 1.0 + abs(cand.imag))


def _ns_test(others):
    """max |complex pair| - 1; positive after a Neimark-Sacker crossing."""
    cplx = [m for m in others if abs(m.imag) > 1e-8 * (1 + abs(m))]
    if not cplx:
        return -1.0
    return float(max(abs(m) for m in cplx) - 1.0)


def continue_periodic(rom, mu_start=None, options=None):
    """Pseudo-arclength continuation of the post-bifurcation cycle branch.

    Starts just past the reduced Hopf point (from time integration), then
    follows the branch in (anchor, period, mu) with adaptive steps; each
    accepted point records physical amplitudes (all mapped coordinates),
    the period, Floquet multipliers, stability, and any event marker.
    """
    opts = options or ContinuationOptions()
    if mu_start is None:
        mu_H = find_hopf(rom)
        mu_start = mu_H + max(4 * opts.ds0, 0.01 * max(abs(mu_H), 1.0))
    sysr = RealizedReducedSystem(rom, mu_start)
    m2 = 2 * sysr.m

    x, T = _initial_cycle(rom, mu_start, opts)
    x, T, Mono = _newton_fixed_mu(sysr, rom, x, T, mu_start, opts)

    if opts.amp_cap is None:
        amp_cap = 40.0 * max(np.linalg.norm(x), 0.05)
    else:
        amp_cap = opts.amp_cap

    points = []
    meta = {"mu0": rom.meta.get("mu0", 0.0), "order": rom.order,
            "masters": rom.d // 2, "engine": rom.meta.get("engine", "")}

    def record(x, T, mu, Mono, event=""):
        mult, others, stable = _floquet_and_stability(Mono)
        ts = np.linspace(0.0, T, opts.n_sample)
        sysr.mu = mu
        sol = solve_ivp(sysr.rhs, (0.0, T), x, method="DOP853", rtol=opts.rtol,
                        atol=opts.atol, dense_output=True)
        Y = sysr.map_batch(sol.sol(ts).T)
        amp = np.max(np.abs(Y), axis=0)
        points.append(BranchPoint(mu, x.copy(), T, amp, mult, stable, event))
        return others

    others = record(x, T, mu_start, Mono)
    fold_prev = _fold_test(others)
    ns_prev = _ns_test(others)

    q = np.concatenate([x, [T, mu_start]])
    tangent = np.zeros(m2 + 2)
    tangent[-1] = 1.0
    ds = opts.ds0
    truncated_reason = ""

    while len(points) < opts.max_points:
        q_pred = q + ds * tangent
        qn = q_pred.copy()
        converged = False
        for it in range(opts.max_newton):
            x_n, T_n, mu_n = qn[:m2], qn[m2], qn[m2 + 1]
            nvec = sysr.rhs(0.0, q[:m2])
            nvec /= np.linalg.norm(nvec)
            xT, Mono, smu, _ = _flow_with_variations(sysr, x_n, T_n, mu_n,
                                                     opts.rtol, opts.atol)
            F = np.concatenate([xT - x_n,
                                [nvec @ (x_n - q[:m2])],
                                [tangent @ (qn - q) - ds]])
            if np.linalg.norm(F) < opts.newton_tol * max(1.0, np.linalg.norm(qn)):
                converged = True
                break
            fT = sysr.rhs(0.0, xT)
            J = np.zeros((m2 + 2, m2 + 2))
            J[:m2, :m2] = Mono - np.eye(m2)
            J[:m2, m2] = fT
            J[:m2, m2 + 1] = smu
            J[m2, :m2] = nvec
            J[m2 + 1] = tangent
            dq = sla.solve(J, -F)
            qn = qn + dq
        if not converged:
            if ds > opts.ds_min:
                ds = max(ds / 2.0, opts.ds_min)
                continue
            truncated_reason = "shooting Newton stalled at the minimum step"
            break

        x_n, T_n, mu_n = qn[:m2], qn[m2], qn[m2 + 1]
        if np.linalg.norm(x_n) > amp_cap:
            truncated_reason = "branch left the reduced-coordinate trust region"
            break
        if T_n <= 0:
            truncated_reason = "period collapsed"
            break

        others = record(x_n, T_n, mu_n, Mono)
        fold_now = _fold_test(others)
        ns_now = _ns_test(others)
        if fold_prev is not None and fold_prev * fold_now < 0 and abs(fold_prev) < 0.5:
            points[-1].event = "fold"
        elif ns_prev is not None and ns_prev * ns_now < 0 and ns_now > 0:
            points[-1].event = "neimark-sacker"
        fold_prev, ns_prev = fold_now, ns_now

        new_tangent = qn - q
        nrm = np.linalg.norm(new_tangent)
        if nrm > 0:
            tangent = new_tangent / nrm
        q = qn
        if mu_n > opts.mu_max:
            break
        if it + 1 <= opts.target_newton:
            ds = min(ds * 1.4, opts.ds_max)
        elif it + 1 >= opts.max_newton - 2:
            ds = max(ds / 1.5, opts.ds_min)

    meta["truncated"] = truncated_reason
    return BifurcationDiagram(points, meta)


def diagram_from_measurements(measurements, mu0=0.0, meta=None):
    """Wrap a list of LimitCycleMeasurement into a diagram (FOM references)."""
    pts = []
    for m in measurements:
        pts.append(BranchPoint(m.mu, np.zeros(0), m.period, m.amplitude,
                               np.zeros(0, dtype=complex), None,
                               "" if m.converged else "unconverged"))
    md = {"mu0": mu0, "source": "time-integration"}
    md.update(meta or {})
    return BifurcationDiagram(pts, md)


@dataclass
class DiagramComparison:
    P: np.ndarray
    rel_error: np.ndarray
    threshold: float
    P_valid: float

    def validity_span(self, P_H):
        return self.P_valid - P_H


def diagram_compare(diag_a, diag_b, coord_a, coord_b=None, threshold=0.05):
    """Interpolated amplitude comparison; diag_b is the reference.

    P_valid is the largest parameter value up to which the relative error
    stays within the threshold (first-exceedance rule).
    """
    coord_b = coord_a if coord_b is None else coord_b
    Pa = diag_a.absolute_parameter()
    Pb = diag_b.absolute_parameter()
    lo = max(Pa.min(), Pb.min())
    hi = min(Pa.max(), Pb.max())
    if lo >= hi:
        raise ValueError("parameter ranges do not overlap")
    mask = (Pb >= lo - 1e-12) & (Pb <= hi + 1e-12)
    P = Pb[mask]
    order_a = np.argsort(Pa)
    amp_a = np.interp(P, Pa[order_a], diag_a.amplitude(coord_a)[order_a])
    amp_b = diag_b.amplitude(coord_b)[mask]
    scale = np.maximum(np.abs(amp_b), 1e-12)
    rel = np.abs(amp_a - amp_b) / scale
    P_valid = P[0]
    for pv, rv in zip(P, rel):
        if rv > threshold:
            break
        P_valid = pv
    return DiagramComparison(P, rel, threshold, float(P_valid))
