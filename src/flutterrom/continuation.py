"""Periodic-orbit continuation on reduced and full-order models.

Gauss-Legendre collocation (degree 4, uniform mesh over the scaled period)
with a flow-orthogonal phase condition and pseudo-arclength stepping in
(anchor state, period, parameter increment), on a ROM's realified system
or on a full-order system with its interface (ZieglerFirstOrder).  Each
Newton iterate evaluates the field and its derivatives at all collocation
points in one batched call and condenses the stage values interval by
interval; the product of the interval transfer matrices is the discrete
monodromy, whose eigenvalues are the Floquet multipliers.  Fold /
Neimark-Sacker events are located from their test functions along the
branch, and a branch that shrinks back onto the fixed point ends at a Hopf
point.  The branch starts there too: the Hopf seed is the critical
eigenvector's ellipse scaled by the normal-form amplitude law, so nothing
integrates.  It ends at exactly mu_max: romdyn's limit cycles are its last
points.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .dpim import ParametrisationROM
from .romdyn import RealizedReducedSystem, periodic_peak
from .spectral import _first_root


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


def find_hopf(model):
    """Parameter increment where the mu-dressed linear part of a ROM or
    system changes stability.

    Scans the maximum real part of the Jacobian at the fixed point on 201
    loads over mu in +-0.35 max(|mu0|, 1) (one stacked eigenvalue solve),
    then bisects the first sign change to 1e-12 max(|mu|, 1) with
    eigenvalue-only solves; raises when there is none (the expected failure
    of pre-bifurcation one-mode reductions).
    """
    def growth(mu):
        return np.max(np.linalg.eigvals(model.linear_block(mu)).real, axis=-1)

    ref = max(abs(model.meta.get("mu0", 0.0)), 1.0)
    mus = np.linspace(-0.35 * ref, 0.35 * ref, 201)
    mu_H = _first_root(mus, growth(mus), growth, 1e-12)
    if mu_H is None:
        raise ContinuationError(
            f"no sign change of the reduced growth rate in window {(mus[0], mus[-1])}; "
            "the reduction cannot locate the bifurcation from this expansion")
    return mu_H


@dataclass
class ContinuationOptions:
    """Where the branch stops: the branch ends exactly at mu_max, or after
    max_points points.

    The step control, corrector and sampling settings are the module
    constants _DS0 ... _SEED_AMP below.
    """

    mu_max: float = 1.0
    max_points: int = 400

    def __post_init__(self):
        if not np.isfinite(self.mu_max):
            raise ValueError(f"mu_max must be finite, got {self.mu_max}")
        if self.max_points < 1:
            raise ValueError(f"max_points must be at least 1, got {self.max_points}")


# first, smallest and largest arclength step; a step that converged within
# _TARGET_NEWTON corrections grows, one that took _MAX_NEWTON - 2 or more shrinks
_DS0, _DS_MIN, _DS_MAX = 0.02, 1e-5, 0.1
_TARGET_NEWTON, _MAX_NEWTON, _NEWTON_TOL = 3, 10, 1e-9
# mesh error target, samples of a recorded orbit, and the anchor norm under
# which a cycle has shrunk onto the fixed point
_RTOL, _N_SAMPLE, _SEED_AMP = 1e-9, 512, 1e-3


# the four Gauss-Legendre points on [0, 1]; column k of _LAGRANGE holds the
# power coefficients of the Lagrange polynomial that is 1 at point k
_NODES = 0.5 + 0.5 * np.array([-1.0, -1.0, 1.0, 1.0]) * np.sqrt(
    3.0 / 7.0 + np.array([2.0, -2.0, -2.0, 2.0]) / 7.0 * np.sqrt(1.2))
_LAGRANGE = np.linalg.inv(np.vander(_NODES, increasing=True))
# intervals of the seed mesh, the most any orbit gets, and the amplitude of
# the Hopf seed's ellipse (its first residual is O(eps^3): at 1e-3 already
# under _NEWTON_TOL, so the correction would leave mu at mu_H)
_MESH0, _MESH_MAX, _HOPF_EPS = 16, 512, 1e-2


def _basis(t, integrated=False):
    """Lagrange basis of the collocation points at local times t (rows), or
    its integral from 0 to t."""
    p = np.arange(len(_NODES))
    powers = t[:, None] ** (p + 1) / (p + 1) if integrated else t[:, None] ** p
    return powers @ _LAGRANGE


_A = _basis(_NODES, True)           # stage weights of the equivalent Gauss
_B = _basis(np.ones(1), True)[0]    # Runge-Kutta step over one interval
_ENDS = _basis(np.array([0.0, 1.0]))
# max over [0, 1] of |int_0^t p| / |p(0)| for p = prod_i (t - c_i); the
# extremes of the integral sit at the roots of p
_RHO = np.abs(np.polyval(np.polyint(np.poly(_NODES)), _NODES)).max() / np.prod(_NODES)


def _stage_times(N):
    """Scaled times of the collocation points of a uniform N-interval mesh."""
    return ((np.arange(N)[:, None] + _NODES) / N).ravel()


class _Collocation(NamedTuple):
    """Collocation equations at one iterate, linearised and condensed.

    On interval j of the scaled period the orbit is the degree-4 polynomial
    u(tau_j + h t) = x_j + h T sum_i (int_0^t l_i) f(K_ji), which satisfies
    the ODE at the Gauss points (the stage values K_ji); x_{j+1} is its end
    value.  G holds the stage residuals K - u(nodes).  Solving the stage
    rows of every interval at once leaves dK_j = Z_j (dx_j, dT, dmu, 1) and
    dx_j = Psi_j (dx_0, dT, dmu, 1), so Psi_N carries the discrete
    monodromy and the T-, mu- and residual columns.
    """
    X: np.ndarray     # mesh values x_0 .. x_N, (N + 1, n)
    F: np.ndarray     # f at the stage values, (N, 4, n)
    G: np.ndarray     # stage residuals, (N, 4, n)
    Z: np.ndarray     # (N, 4, n, n + 3)
    Psi: np.ndarray   # (N + 1, n, n + 3)


def _collocate(sysr, x0, K, T, mu):
    """_Collocation of the anchor x0, stage values K (N, 4, n), T and mu."""
    N, s, n = K.shape
    h = 1.0 / N
    sysr.mu = mu
    F, J, g = sysr.linearize(K.reshape(-1, n))
    F, J, g = F.reshape(N, s, n), J.reshape(N, s, n, n), g.reshape(N, s, n)
    X = np.empty((N + 1, n))
    X[0] = x0
    X[1:] = x0 + np.cumsum(h * T * (_B @ F), axis=0)
    G = K - X[:-1, None] - h * T * (_A @ F)
    # stage rows: dK_i - h T sum_k a_ik (J_k dK_k + g_k dmu) - h dT sum_k a_ik F_k
    #             = dx_j - G_i
    M = (-h * T * _A[:, None, :, None]) * J.transpose(0, 2, 1, 3)[:, None]
    M = M.reshape(N, s * n, s * n) + np.eye(s * n)
    R = np.empty((N, s, n, n + 3))
    R[..., :n] = np.eye(n)
    R[..., n] = h * (_A @ F)
    R[..., n + 1] = h * T * (_A @ g)
    R[..., n + 2] = -G
    Z = np.linalg.solve(M, R.reshape(N, s * n, n + 3)).reshape(N, s, n, n + 3)
    # end rows: dx_{j+1} = dx_j + h T sum_i b_i (J_i dK_i + g_i dmu) + h dT sum_i b_i F_i,
    # i.e. Gam_j (dx_j, dT, dmu, 1)
    BJ = (h * T * _B[:, None, None] * J).transpose(0, 2, 1, 3).reshape(N, n, s * n)
    # Psi_{j+1} = Gam_j Psi_j on (dx, dT, dmu, 1): prefix products by doubling
    Psi = np.zeros((N + 1, n + 3, n + 3))
    Psi[:, n:, n:] = np.eye(3)
    Psi[0, :n, :n] = np.eye(n)
    Psi[1:, :n] = BJ @ Z.reshape(N, s * n, n + 3)
    Psi[1:, :n, :n] += np.eye(n)
    Psi[1:, :n, n] += h * (_B @ F)
    Psi[1:, :n, n + 1] += h * T * (_B @ g)
    step = 1
    while step <= N:
        Psi[step:] = Psi[step:] @ Psi[:-step]
        step *= 2
    return _Collocation(X, F, G, Z, Psi[:, :n])


def _sample(col, T, t):
    """The collocation polynomial at scaled times t in [0, 1], (len(t), n)."""
    N = len(col.F)
    j = np.minimum((t * N).astype(int), N - 1)
    w = _basis(t * N - j, True)
    return col.X[j] + (T / N) * np.einsum("ti,tin->tn", w, col.F[j])


def _mesh_size(sysr, col, T, rtol):
    """Number of mesh intervals the orbit needs: its own, unless the error
    estimate exceeds rtol (sysr.mu must be the orbit's mu).

    Between the collocation points the defect d = u' - T f(u) has the shape
    of prod_i (t - c_i), so from its values at both ends of an interval the
    local error h int_0^t d is at most h _RHO |d(end)|, relative here to the
    orbit's size.  It falls like h^5, which sets the refined mesh (aiming at
    rtol / 2).
    """
    N = len(col.F)
    du = T * (_ENDS @ col.F)
    fx = T * sysr.rhs(0.0, col.X)
    defect = max(np.abs(du[:, 0] - fx[:-1]).max(), np.abs(du[:, 1] - fx[1:]).max())
    err = _RHO * defect / N / max(np.abs(col.X).max(), 1e-30)
    if err <= rtol:
        return N
    return min(int(np.ceil(N * (2.0 * err / rtol) ** (1.0 / (len(_NODES) + 1)))), _MESH_MAX)


def _tangent(sysr, q, col):
    """Unit tangent (dx_0, dT, dmu) of the branch at the corrected orbit q,
    oriented to increasing mu: the null vector of its periodicity and phase
    rows (sysr.mu must be q's mu)."""
    n = len(q) - 2
    A = np.vstack([col.Psi[-1, :, :n + 2] - np.eye(n, n + 2),
                   np.append(sysr.rhs(0.0, q[:n]), [0.0, 0.0])])
    t = np.linalg.svd(A)[2][-1]
    return np.copysign(1.0, t[-1]) * t


def _correct(sysr, q, K, tangent, ds, qn, Kn, radius, T_range):
    """Newton on the collocation equations, the phase row and the last row
    tangent . (qn - q) = ds, from the guess (qn, Kn).

    The phase normal is f at q's anchor, taken at the top of each iterate.
    The residual norm covers those rows, periodicity x_N = x_0 and the
    stage residuals.  An iterate whose mu or anchor moves more than `radius` from q, or whose
    period leaves T_range, is rejected.  Returns (qn, Kn, collocation at
    qn, corrections, residual norm, reason); reason is "" on convergence.
    """
    n = len(q) - 2
    res = np.inf
    for it in range(_MAX_NEWTON):
        x_n, T_n, mu_n = qn[:n], qn[n], qn[n + 1]
        nvec = sysr.rhs(0.0, q[:n])
        nvec /= np.linalg.norm(nvec)
        col = _collocate(sysr, x_n, Kn, T_n, mu_n)
        F = np.concatenate([col.X[-1] - x_n, [nvec @ (x_n - q[:n])],
                            [tangent @ (qn - q) - ds]])
        res = float(np.sqrt(F @ F + np.sum(col.G ** 2)))
        if res < _NEWTON_TOL * max(1.0, np.linalg.norm(qn)):
            return qn, Kn, col, it, res, ""
        end = col.Psi[-1]
        Jb = np.zeros((n + 2, n + 2))
        Jb[:n, :n + 2] = end[:, :n + 2]
        Jb[:n, :n] -= np.eye(n)
        Jb[n, :n] = nvec
        Jb[n + 1] = tangent
        rhs = -F
        rhs[:n] -= end[:, n + 2]
        try:
            dq = np.linalg.solve(Jb, rhs)
        except np.linalg.LinAlgError:
            return qn, Kn, col, it, res, "singular corrector matrix"
        w = np.append(dq, 1.0)
        dX = col.Psi[:-1] @ w
        W = np.concatenate([dX, np.broadcast_to(w[n:], (len(dX), 3))], axis=1)
        qn = qn + dq
        Kn = Kn + np.einsum("jsac,jc->jsa", col.Z, W)
        if abs(qn[n + 1] - q[n + 1]) > radius or np.linalg.norm(qn[:n] - q[:n]) > radius:
            return qn, Kn, col, it + 1, res, "iterate left the trust region"
        if not T_range[0] <= qn[n] <= T_range[1]:
            return qn, Kn, col, it + 1, res, "iterate period left [T0/4, 4 T0]"
    return qn, Kn, col, _MAX_NEWTON, res, "no convergence"


def _hopf_seed(sysr, mu_H, mu_start):
    """(anchor, stage values, period, record) of a cycle guess at mu_start,
    built at the Hopf point mu_H of the system without integrating.

    The critical eigenpair (i omega, v) of the Jacobian at the fixed point
    spans the ellipse eps Re(v e^{2 pi i tau}) of period 2 pi / omega.
    Corrected with its amplitude along Re v fixed and mu free, it sits at
    mu_eps, and r^2 ~ mu - mu_H scales it to mu_start.
    """
    n = 2 * sysr.m
    sysr.mu = mu_H
    w, V = np.linalg.eig(sysr.jacobian(np.zeros(n)))
    osc = np.flatnonzero(w.imag > 0)
    if not osc.size:
        raise ContinuationError(
            f"no oscillatory eigenvalue pair at the Hopf point mu = {mu_H:.6g}: the growth "
            "rate changes sign through a real eigenvalue, so no cycle branches off")
    k = osc[np.argmax(w.real[osc])]
    v = V[:, k]   # LAPACK makes its largest component real: Re v, Im v independent
    T = 2 * np.pi / w[k].imag
    phase = np.exp(2j * np.pi * _stage_times(_MESH0))
    K = _HOPF_EPS * (phase[:, None] * v).real.reshape(_MESH0, len(_NODES), n)
    q = np.concatenate([_HOPF_EPS * v.real, [T, mu_H]])
    tangent = np.concatenate([v.real / np.linalg.norm(v.real), [0.0, 0.0]])
    q, K, _, it, res, reason = _correct(sysr, q, K, tangent, 0.0, q, K, np.inf,
                                        (T / 4.0, 4.0 * T))
    if reason:
        raise ContinuationError(f"Hopf seed corrector at mu = {mu_H:.6g}: {reason}")
    shift = q[n + 1] - mu_H
    if abs(shift) <= _NEWTON_TOL * max(1.0, abs(mu_H)):
        raise ContinuationError(f"degenerate Hopf point at mu = {mu_H:.6g}: mu does not move "
                                "with the cycle amplitude")
    if (mu_start - mu_H) * shift <= 0:
        raise ContinuationError(
            f"trajectory {'decays' if mu_start <= mu_H else 'grows'} at mu = {mu_start:.6g}: "
            f"the cycles of the Hopf point mu = {mu_H:.6g} lie "
            f"{'above' if shift > 0 else 'below'} it")
    scale = float(np.sqrt((mu_start - mu_H) / shift))
    record = {"mu_H": float(mu_H), "newton": it, "residual": res, "scale": scale}
    return scale * q[:n], scale * K, q[n], record


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


def continue_periodic(model, options=None):
    """Pseudo-arclength continuation of the post-bifurcation cycle branch.

    model is a ROM (wrapped once in a RealizedReducedSystem) or a system
    with that interface.  The Hopf seed at the model's Hopf point mu_H
    (find_hopf) is corrected with mu fixed at min(mu_max, mu_H +
    max(4 _DS0, 0.01 max(|mu_H|, 1))); the first step leaves it along the
    branch's tangent (near mu_H, the amplitude law x ~ sqrt(mu - mu_H)),
    then the branch is followed in (anchor, period, mu) with adaptive steps.
    Each accepted point records physical amplitudes (all mapped
    coordinates), the period, Floquet multipliers, stability, and any
    event marker.  The mesh grows whenever the error estimate of a
    corrected orbit exceeds _RTOL.  A step past mu_max is corrected again
    with mu fixed at mu_max, from the secant through the last point; that
    point, whose mu is mu_max exactly, ends the branch.  The branch ends
    with a "hopf" event on its last point when the cycle shrinks back onto
    the fixed point (its anchor turns back or falls below _SEED_AMP).

    meta["seed"] is the Hopf seed's record {mu_H, newton, residual, scale};
    meta["trace"] holds one record per attempted correction (ds, Newton
    corrections, residual norm, mesh intervals, accepted, reason, wall
    time); the fixed-mu corrections have ds = 0.  meta["truncated"] names
    why the branch stopped short of mu_max ("" when it did not).  Raises
    ContinuationError when no cycle lies on the seed's side of mu_H.
    """
    opts = options or ContinuationOptions()
    mu_H = find_hopf(model)
    sysr = RealizedReducedSystem(model, mu_H) if isinstance(model, ParametrisationROM) else model
    m2 = 2 * sysr.m
    mu_start = min(opts.mu_max, mu_H + max(4 * _DS0, 0.01 * max(abs(mu_H), 1.0)))

    x, K, T, seed = _hopf_seed(sysr, mu_H, mu_start)
    points, trace = [], []
    meta = {"mu0": model.meta.get("mu0", 0.0), "seed": seed, "trace": trace}
    T_range = (T / 4.0, 4.0 * T)

    def attempt(q, K, tangent, ds, tK, radius):
        """Correct from the predictor; grow the mesh when the orbit needs it."""
        t0 = time.perf_counter()
        qn, Kn, col, it, res, reason = _correct(sysr, q, K, tangent, ds, q + ds * tangent,
                                                K + ds * tK, radius, T_range)
        N = len(Kn) if reason else _mesh_size(sysr, col, qn[m2], _RTOL)
        if N > len(Kn):
            reason = f"mesh refined to {N} intervals"
        rec = {"ds": ds, "newton": it, "residual": res, "mesh": len(Kn), "accepted": not reason,
               "reason": reason, "wall_s": time.perf_counter() - t0}
        trace.append(rec)
        return qn, Kn, col, it, rec, N

    def refine(col, T, N):
        return _sample(col, T, _stage_times(N)).reshape(N, len(_NODES), m2)

    def fixed_mu(q, K):
        """Correct at q's mu with mu fixed (the arclength row becomes
        mu = q's mu), growing the mesh until the orbit meets _RTOL."""
        e_mu, mu = np.eye(m2 + 2)[-1], q[m2 + 1]
        while True:
            q, K, col, _, rec, N = attempt(q, K, e_mu, 0.0, np.zeros_like(K), np.inf)
            q[m2 + 1] = mu
            if N == len(K):
                return q, K, col, rec
            K = refine(col, q[m2], N)

    def record(q, col):
        mult, others, stable = _floquet_and_stability(col.Psi[-1, :, :m2])
        sysr.mu = q[m2 + 1]
        Y = sysr.map_batch(_sample(col, q[m2], np.linspace(0.0, 1.0, _N_SAMPLE)))
        points.append(BranchPoint(q[m2 + 1], q[:m2].copy(), q[m2], periodic_peak(Y), mult,
                                  stable))
        return others

    q, K, q_col, rec = fixed_mu(np.concatenate([x, [T, mu_start]]), K)
    if rec["reason"]:
        meta["truncated"] = f"seed corrector: {rec['reason']}"
        return BifurcationDiagram(points, meta)
    amp_cap = 40.0 * max(np.linalg.norm(q[:m2]), 0.05)
    others = record(q, q_col)
    fold_prev = _fold_test(others)
    ns_prev = _ns_test(others)
    tangent, tK = _tangent(sysr, q, q_col), np.zeros_like(K)

    ds = _DS0
    truncated_reason = ""
    while q[m2 + 1] < opts.mu_max:
        if len(points) == opts.max_points:
            truncated_reason = f"max_points = {opts.max_points} reached"
            break
        qn, Kn, col, it, rec, N = attempt(q, K, tangent, ds, tK, 4.0 * ds)
        if N > len(Kn):
            K = refine(q_col, q[m2], N)
            tK = np.zeros_like(K)
            continue
        if rec["reason"]:
            if ds > _DS_MIN:
                ds = max(ds / 2.0, _DS_MIN)
                continue
            truncated_reason = f"corrector failed at the minimum step: {rec['reason']}"
            break
        x_n = qn[:m2]
        if x_n @ q[:m2] <= 0 or np.linalg.norm(x_n) < _SEED_AMP:
            rec.update(accepted=False, reason="cycle shrank onto the fixed point")
            points[-1].event = "hopf"
            truncated_reason = f"branch ended at a Hopf point near mu = {q[m2 + 1]:.6g}"
            break
        if np.linalg.norm(x_n) > amp_cap:
            truncated_reason = "branch left the reduced-coordinate trust region"
            rec.update(accepted=False, reason=truncated_reason)
            break
        if qn[m2 + 1] > opts.mu_max:
            # from the secant between the last point and the step, at mu_max
            rec.update(accepted=False, reason="stepped past mu_max")
            s = (opts.mu_max - q[m2 + 1]) / (qn[m2 + 1] - q[m2 + 1])
            qn, Kn = q + s * (qn - q), K + s * (Kn - K)
            qn[m2 + 1] = opts.mu_max
            qn, Kn, col, rec = fixed_mu(qn, Kn)
            if rec["reason"]:
                truncated_reason = f"corrector failed at mu_max: {rec['reason']}"
                break

        others = record(qn, col)
        fold_now = _fold_test(others)
        ns_now = _ns_test(others)
        if fold_prev * fold_now < 0 and abs(fold_prev) < 0.5:
            points[-1].event = "fold"
        elif ns_prev * ns_now < 0 and ns_now > 0:
            points[-1].event = "neimark-sacker"
        fold_prev, ns_prev = fold_now, ns_now
        if qn[m2 + 1] == opts.mu_max:
            break

        # an accepted step has tangent . (qn - q) = ds >= ds_min > 0
        step = qn - q
        nrm = np.linalg.norm(step)
        tangent, tK = step / nrm, (Kn - K) / nrm
        q, K, q_col = qn, Kn, col
        if it + 1 <= _TARGET_NEWTON:
            ds = min(ds * 1.4, _DS_MAX)
        elif it + 1 >= _MAX_NEWTON - 2:
            ds = max(ds / 1.5, _DS_MIN)

    meta["truncated"] = truncated_reason
    return BifurcationDiagram(points, meta)


# the limit-cycle measurements' handle on continue_periodic, bound at import:
# the benchmark's tracer wraps the public name and counts its calls as branches
_branch = continue_periodic


@dataclass
class DiagramComparison:
    P: np.ndarray
    rel_error: np.ndarray
    threshold: float
    P_valid: float


def diagram_compare(diag_a, diag_b, coord, threshold=0.05):
    """Interpolated amplitude comparison of one coordinate; diag_b is the
    reference.

    P_valid is the largest reference parameter, in ascending order, up to
    which the relative error stays within the threshold (first-exceedance
    rule); nan when the first compared point already exceeds it.
    """
    Pa = diag_a.absolute_parameter()
    Pb = diag_b.absolute_parameter()
    lo = max(Pa.min(), Pb.min())
    hi = min(Pa.max(), Pb.max())
    if lo >= hi:
        raise ValueError("parameter ranges do not overlap")
    order_b = np.argsort(Pb)
    Pb, amp_b = Pb[order_b], diag_b.amplitude(coord)[order_b]
    keep = (Pb >= lo - 1e-12) & (Pb <= hi + 1e-12)
    P, amp_b = Pb[keep], amp_b[keep]
    order_a = np.argsort(Pa)
    amp_a = np.interp(P, Pa[order_a], diag_a.amplitude(coord)[order_a])
    scale = np.maximum(np.abs(amp_b), 1e-12)
    rel = np.abs(amp_a - amp_b) / scale
    over = np.flatnonzero(rel > threshold)
    n_valid = over[0] if over.size else len(P)
    P_valid = P[n_valid - 1] if n_valid else np.nan
    return DiagramComparison(P, rel, threshold, float(P_valid))
