"""Periodic-orbit continuation on reduced and full-order models.

Gauss-Legendre collocation (seven points per interval, degree 7, uniform
mesh over the scaled period) with a flow-orthogonal phase condition and
pseudo-arclength stepping in (anchor state, period, parameter increment),
on a ROM's realified system or on a full-order system with its interface
(ZieglerFirstOrder).  Each Newton iterate evaluates the field and its
derivatives at all collocation points in one batched call and condenses
the stage values interval by interval; the product of the interval
transfer matrices is the discrete monodromy, whose eigenvalues are the
Floquet multipliers.  The corrector is Newton's method on fixed equations,
quadratically convergent.  Fold / Neimark-Sacker events are located from
their test functions along the branch, and a branch that shrinks back onto
the fixed point ends at a Hopf point.  The branch starts there too: the
corrected Hopf cycle (the critical eigenvector's ellipse) scaled by the
normal-form amplitude law, so nothing integrates.  It ends at exactly
mu_max.  romdyn's limit cycle at a load is the branch that starts at that
load (_cycle_at), or the end of the one walked up to it where that is refused.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .dpim import ParametrisationROM
from .romdyn import LimitCycleMeasurement, RealizedReducedSystem, periodic_peak
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
    then refines the first sign change to 1e-12 max(|mu|, 1) with
    eigenvalue-only solves (_first_root); raises when there is none (the
    expected failure of pre-bifurcation one-mode reductions).
    """
    def growth(mu):
        return np.max(np.linalg.eigvals(model.linear_block(mu)).real, axis=-1)

    mu0 = model.meta.get("mu0", 0.0)
    ref = max(abs(mu0), 1.0)
    mus = np.linspace(-0.35 * ref, 0.35 * ref, 201)
    mu_H = _first_root(mus, growth(mus), growth, 1e-12)
    if mu_H is None:
        raise ContinuationError(
            "no sign change of the growth rate at the fixed point over the scanned "
            f"loads [{mu0 + mus[0]:.6g}, {mu0 + mus[-1]:.6g}]")
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


# first and smallest arclength step; a step that converged within
# _TARGET_NEWTON corrections grows, to _DS0 at most (callers interpolate
# between the points), one that took _MAX_NEWTON - 2 or more shrinks
_DS0, _DS_MIN = 0.02, 1e-5
_TARGET_NEWTON, _MAX_NEWTON, _NEWTON_TOL = 3, 10, 1e-9
# mesh error target, samples of a recorded orbit, and the anchor norm under
# which a cycle has shrunk onto the fixed point
_RTOL, _N_SAMPLE, _SEED_AMP = 1e-9, 512, 1e-3


# the seven Gauss-Legendre points on [0, 1]; column k of _LAGRANGE holds the
# power coefficients of the Lagrange polynomial that is 1 at point k
_NODES = 0.5 + 0.5 * np.polynomial.legendre.leggauss(7)[0]
_LAGRANGE = np.linalg.inv(np.vander(_NODES, increasing=True))
# intervals of the seed mesh, the most any orbit gets (a budget of 2048
# collocation points, which bounds the (N, s, n, n + 3) stage tensor), and
# the amplitude of the Hopf seed's ellipse (its first residual is O(eps^3):
# at 1e-3 already under _NEWTON_TOL, so the correction would leave mu at mu_H)
_MESH0, _MESH_MAX, _HOPF_EPS = 6, 2048 // len(_NODES), 1e-2


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

    On interval j of the scaled period the orbit is the degree-7 polynomial
    u(tau_j + h t) = x_j + h T sum_i (int_0^t l_i) f(K_ji), which satisfies
    the ODE at the Gauss points (the stage values K_ji); x_{j+1} is its end
    value.  G holds the stage residuals K - u(nodes).  Solving the stage
    rows of every interval at once leaves dK_j = Z_j (dx_j, dT, dmu, 1) and
    dx_j = Psi_j (dx_0, dT, dmu, 1), so Psi_N carries the discrete
    monodromy and the T-, mu- and residual columns.
    """
    X: np.ndarray     # mesh values x_0 .. x_N, (N + 1, n)
    F: np.ndarray     # f at the stage values, (N, s, n), s = len(_NODES)
    G: np.ndarray     # stage residuals, (N, s, n)
    Z: np.ndarray     # (N, s, n, n + 3)
    Psi: np.ndarray   # (N + 1, n, n + 3)


def _collocate(sysr, x0, K, T, mu):
    """_Collocation of the anchor x0, stage values K (N, s, n), T and mu."""
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


def _mesh_error(sysr, col, T):
    """Estimate of the orbit's interior error, relative to its size (sysr.mu
    must be the orbit's mu).

    Between the collocation points the defect d = u' - T f(u) has the shape
    of prod_i (t - c_i), so from its values at both ends of an interval the
    local error h int_0^t d is at most h _RHO |d(end)|.
    """
    N = len(col.F)
    du = T * (_ENDS @ col.F)
    fx = T * sysr.rhs(0.0, col.X)
    defect = max(np.abs(du[:, 0] - fx[:-1]).max(), np.abs(du[:, 1] - fx[1:]).max())
    return _RHO * defect / N / max(np.abs(col.X).max(), 1e-30)


def _mesh_size(sysr, col, T, rtol):
    """Number of mesh intervals the orbit needs: its own, unless _mesh_error
    exceeds rtol.  With s collocation points the error falls like h^(s+1),
    which sets the refined mesh (aiming at rtol / 2).  The count is not
    capped: callers refuse an orbit that needs more than _MESH_MAX.
    """
    N, err = len(col.F), _mesh_error(sysr, col, T)
    if err <= rtol:
        return N
    return int(np.ceil(N * (2.0 * err / rtol) ** (1.0 / (len(_NODES) + 1))))


def _stage_change(col, w):
    """Stage values' change dK_j = Z_j (Psi_j w, w_T, w_mu, w_1) for the
    update w = (dx_0, dT, dmu, weight of the residual column)."""
    n = col.X.shape[1]
    dX = col.Psi[:-1] @ w
    W = np.concatenate([dX, np.broadcast_to(w[n:], (len(dX), 3))], axis=1)
    return np.einsum("jsac,jc->jsa", col.Z, W)


def _tangent(sysr, q, col):
    """Unit tangent (dx_0, dT, dmu) of the branch at the corrected orbit q,
    oriented to increasing mu: the null vector of its periodicity and phase
    rows (sysr.mu must be q's mu); and the stage values' part of it, the
    linearised collocation's response with the residual column weighted 0."""
    n = len(q) - 2
    A = np.vstack([col.Psi[-1, :, :n + 2] - np.eye(n, n + 2),
                   np.append(sysr.rhs(0.0, q[:n]), [0.0, 0.0])])
    t = np.linalg.svd(A)[2][-1]
    t = np.copysign(1.0, t[-1]) * t
    return t, _stage_change(col, np.append(t, 0.0))


# a diverging iterate overflows; its residual is not finite, which ends the
# correction with a reason instead of a numpy warning
@np.errstate(over="ignore", invalid="ignore")
def _correct(sysr, q, K, tangent, ds, qn, Kn, radius, T_range):
    """Newton on the collocation equations, the phase row and the last row
    tangent . (qn - q) = ds, from the guess (qn, Kn).

    The phase normal is f at q's anchor and mu, fixed for all iterates, so
    the Newton matrix is exact.  The residual norm covers those rows,
    periodicity x_N = x_0 and the stage residuals.  An iterate whose mu or
    anchor moves more than `radius` from q, whose period leaves T_range, or
    whose residual is not finite, is rejected.  Returns (qn, Kn, collocation
    at qn, corrections, residual norm of each iterate evaluated, reason);
    reason is "" on convergence.
    """
    n = len(q) - 2
    sysr.mu = q[n + 1]
    nvec = sysr.rhs(0.0, q[:n])
    nvec /= np.linalg.norm(nvec)
    residuals = []
    for it in range(_MAX_NEWTON):
        x_n, T_n, mu_n = qn[:n], qn[n], qn[n + 1]
        col = _collocate(sysr, x_n, Kn, T_n, mu_n)
        F = np.concatenate([col.X[-1] - x_n, [nvec @ (x_n - q[:n])],
                            [tangent @ (qn - q) - ds]])
        residuals.append(float(np.sqrt(F @ F + np.sum(col.G ** 2))))
        if not np.isfinite(residuals[-1]):
            return qn, Kn, col, it, residuals, "iterate not finite"
        if residuals[-1] < _NEWTON_TOL * max(1.0, np.linalg.norm(qn)):
            return qn, Kn, col, it, residuals, ""
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
            return qn, Kn, col, it, residuals, "singular corrector matrix"
        qn = qn + dq
        Kn = Kn + _stage_change(col, np.append(dq, 1.0))
        if abs(qn[n + 1] - q[n + 1]) > radius or np.linalg.norm(qn[:n] - q[:n]) > radius:
            return qn, Kn, col, it + 1, residuals, "iterate left the trust region"
        if not T_range[0] <= qn[n] <= T_range[1]:
            return qn, Kn, col, it + 1, residuals, "iterate period left [T0/4, 4 T0]"
    return qn, Kn, col, _MAX_NEWTON, residuals, "no convergence"


class _HopfCycle(NamedTuple):
    """The small cycle at a model's Hopf point mu_H, corrected at mu_eps."""
    sysr: object        # the model, or a ROM's RealizedReducedSystem
    q: np.ndarray       # (anchor, period, mu_eps)
    K: np.ndarray       # stage values
    record: dict        # {mu_H, newton, residual}


def _hopf_cycle(model):
    """_HopfCycle at the model's Hopf point mu_H (find_hopf), without
    integrating.

    The critical eigenpair (i omega, v) of the Jacobian at the fixed point
    spans the ellipse eps Re(v e^{2 pi i tau}) of period 2 pi / omega,
    corrected with its amplitude along Re v fixed and mu free.
    """
    mu_H = find_hopf(model)
    sysr = RealizedReducedSystem(model, mu_H) if isinstance(model, ParametrisationROM) else model
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
    if abs(q[n + 1] - mu_H) <= _NEWTON_TOL * max(1.0, abs(mu_H)):
        raise ContinuationError(f"degenerate Hopf point at mu = {mu_H:.6g}: mu does not move "
                                "with the cycle amplitude")
    return _HopfCycle(sysr, q, K, {"mu_H": float(mu_H), "newton": it, "residual": res[-1]})


def _hopf_seed(hopf, mu):
    """(anchor, stage values, period, record) of a cycle guess at load mu:
    the Hopf cycle at mu_eps scaled by the amplitude law r^2 ~ mu - mu_H."""
    q, K, record = hopf.q, hopf.K, hopf.record
    n, mu_H = len(q) - 2, record["mu_H"]
    shift = q[n + 1] - mu_H
    if (mu - mu_H) * shift <= 0:
        raise ContinuationError(
            f"trajectory {'decays' if mu <= mu_H else 'grows'} at mu = {mu:.6g}: "
            f"the cycles of the Hopf point mu = {mu_H:.6g} lie "
            f"{'above' if shift > 0 else 'below'} it")
    scale = float(np.sqrt((mu - mu_H) / shift))
    return scale * q[:n], scale * K, q[n], dict(record, scale=scale)


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


def _attempt(sysr, trace, T_range, q, K, tangent, ds, tK, radius):
    """Correct from the predictor (q + ds tangent, K + ds tK) and append the
    attempt's record to trace.  Returns _correct's (qn, Kn, collocation,
    corrections), the record, and the number of mesh intervals the orbit
    needs: its own unless the error estimate exceeds _RTOL.  An orbit that
    needs more than _MESH_MAX intervals is refused, and the record's reason
    says so."""
    t0 = time.perf_counter()
    qn, Kn, col, it, res, reason = _correct(sysr, q, K, tangent, ds, q + ds * tangent,
                                            K + ds * tK, radius, T_range)
    N = len(Kn) if reason else _mesh_size(sysr, col, qn[-2], _RTOL)
    if N > _MESH_MAX:
        reason = f"orbit needs {N} mesh intervals, more than {_MESH_MAX}"
    elif N > len(Kn):
        reason = f"mesh refined to {N} intervals"
    rec = {"ds": ds, "newton": it, "residuals": res, "mesh": len(Kn),
           "accepted": not reason, "reason": reason, "wall_s": time.perf_counter() - t0}
    trace.append(rec)
    return qn, Kn, col, it, rec, N


def _refine(col, T, N):
    """Stage values of the collocated orbit on a uniform N-interval mesh."""
    return _sample(col, T, _stage_times(N)).reshape(N, len(_NODES), col.X.shape[1])


def _fixed_mu(sysr, trace, T_range, q, K):
    """Correct at q's mu with mu fixed (the arclength row becomes mu = q's
    mu), growing the mesh until the orbit meets _RTOL.  Returns (q, K,
    collocation, record of the last attempt); the record's reason is "" on
    convergence, and names the mesh an orbit would need past _MESH_MAX."""
    m2 = len(q) - 2
    e_mu, mu = np.eye(m2 + 2)[-1], q[m2 + 1]
    while True:
        q, K, col, _, rec, N = _attempt(sysr, trace, T_range, q, K, e_mu, 0.0,
                                        np.zeros_like(K), np.inf)
        q[m2 + 1] = mu
        if N == len(K) or N > _MESH_MAX:
            return q, K, col, rec
        K = _refine(col, q[m2], N)


def _branch_point(sysr, q, col):
    """BranchPoint of the corrected orbit q, and its Floquet multipliers
    other than the trivial one."""
    m2 = len(q) - 2
    mult, others, stable = _floquet_and_stability(col.Psi[-1, :, :m2])
    sysr.mu = q[m2 + 1]
    Y = sysr.map_batch(_sample(col, q[m2], np.linspace(0.0, 1.0, _N_SAMPLE)))
    return BranchPoint(q[m2 + 1], q[:m2].copy(), q[m2], periodic_peak(Y), mult, stable), others


def continue_periodic(model, options=None):
    """Pseudo-arclength continuation of the post-bifurcation cycle branch.

    model is a ROM (wrapped once in a RealizedReducedSystem) or a system
    with that interface.  The Hopf seed at the model's Hopf point mu_H
    (find_hopf) is corrected with mu fixed at min(mu_max, mu_H +
    max(4 _DS0, 0.01 max(|mu_H|, 1))); the first step leaves it along the
    branch's tangent (near mu_H, the amplitude law x ~ sqrt(mu - mu_H)),
    then the branch is followed in (anchor, period, mu) with arclength
    steps of at most _DS0.  Each accepted point records physical amplitudes
    (all mapped coordinates), the period, Floquet multipliers, stability,
    and any event marker.  The mesh grows whenever the error estimate of a
    corrected orbit exceeds _RTOL; an orbit that would need more than
    _MESH_MAX intervals ends the branch.  A step past mu_max is corrected
    again with mu fixed at mu_max, from the secant through the last point;
    that point, whose mu is mu_max exactly, ends the branch.  The branch ends
    with a "hopf" event on its last point when the cycle shrinks back onto
    the fixed point (its anchor turns back or falls below _SEED_AMP).

    meta["seed"] is the Hopf seed's record {mu_H, newton, residual, scale};
    meta["trace"] holds one record per attempted correction (ds, Newton
    corrections, residual norms of the iterates, mesh intervals, accepted,
    reason, wall time); the fixed-mu corrections have ds = 0.
    meta["truncated"] names why the branch stopped short of mu_max ("" when
    it did not).  Raises
    ContinuationError when no cycle lies on the seed's side of mu_H.
    """
    opts = options or ContinuationOptions()
    hopf = _hopf_cycle(model)
    return _walk(model, hopf, _first_load(hopf, opts.mu_max), opts)


def _first_load(hopf, mu_max):
    # continue_periodic's first load
    mu_H = hopf.record["mu_H"]
    return min(mu_max, mu_H + max(4 * _DS0, 0.01 * max(abs(mu_H), 1.0)))


def _walk(model, hopf, mu_start, opts):
    """continue_periodic's branch from the _HopfCycle hopf, its first
    point corrected at mu_start; a branch that starts at mu_max takes no tangent."""
    sysr = hopf.sysr
    m2 = 2 * sysr.m
    x, K, T, seed = _hopf_seed(hopf, mu_start)
    points, trace = [], []
    meta = {"mu0": model.meta.get("mu0", 0.0), "seed": seed, "trace": trace}
    T_range = (T / 4.0, 4.0 * T)

    q, K, q_col, rec = _fixed_mu(sysr, trace, T_range, np.concatenate([x, [T, mu_start]]), K)
    if rec["reason"]:
        meta["truncated"] = f"seed corrector: {rec['reason']}"
        return BifurcationDiagram(points, meta)
    amp_cap = 40.0 * max(np.linalg.norm(q[:m2]), 0.05)
    pt, others = _branch_point(sysr, q, q_col)
    points.append(pt)
    fold_prev = _fold_test(others)
    ns_prev = _ns_test(others)
    if q[m2 + 1] < opts.mu_max:
        tangent, tK = _tangent(sysr, q, q_col)

    ds = _DS0
    truncated_reason = ""
    while q[m2 + 1] < opts.mu_max:
        if len(points) == opts.max_points:
            truncated_reason = f"max_points = {opts.max_points} reached"
            break
        qn, Kn, col, it, rec, N = _attempt(sysr, trace, T_range, q, K, tangent, ds, tK,
                                           4.0 * ds)
        if N > _MESH_MAX:
            truncated_reason = rec["reason"]
            break
        if N > len(Kn):
            K = _refine(q_col, q[m2], N)
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
            qn, Kn, col, rec = _fixed_mu(sysr, trace, T_range, qn, Kn)
            if rec["reason"]:
                truncated_reason = f"corrector failed at mu_max: {rec['reason']}"
                break

        pt, others = _branch_point(sysr, qn, col)
        points.append(pt)
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
        if it <= _TARGET_NEWTON:
            ds = min(ds * 1.4, _DS0)
        elif it >= _MAX_NEWTON - 2:
            ds = max(ds / 1.5, _DS_MIN)

    meta["truncated"] = truncated_reason
    return BifurcationDiagram(points, meta)


def _cycle_at(model, mu, param, dim):
    """LimitCycleMeasurement at load increment mu of a ROM or system; param
    is the load it reports.

    The landing, the branch that starts at mu, is refused when its
    correction failed, its anchor is below _SEED_AMP (the fixed point), or
    its stability equals the fixed point's at mu (near its Hopf point a
    branch pairs a stable cycle with an unstable fixed point or the
    reverse, so this rejects a landing past a fold).  Then continue_periodic's
    branch up to mu gives the cycle or the reason it stops short.  A seed
    error is final: both seeds lie on the same side of mu_H.
    """
    opts = ContinuationOptions(mu_max=mu)
    stable = np.linalg.eigvals(model.linear_block(mu)).real.max() < 0
    walks = []
    try:
        hopf = _hopf_cycle(model)
        walks.append(_walk(model, hopf, mu, opts))
        land = walks[0].points
        if not land or np.linalg.norm(land[0].anchor) < _SEED_AMP or land[0].stable == stable:
            walks.append(_walk(model, hopf, _first_load(hopf, mu), opts))
        # a branch ends at mu_max exactly unless it names why not
        reason = walks[-1].meta["truncated"]
    except ContinuationError as exc:
        reason = str(exc)
    newton = sum(rec["newton"] for diag in walks for rec in diag.meta["trace"])
    if reason:
        return LimitCycleMeasurement(param, np.zeros(dim), 0.0, bool(stable), reason,
                                     newton=newton)
    pt = walks[-1].points[-1]
    return LimitCycleMeasurement(param, pt.amplitude, pt.period, True, "", pt.floquet,
                                 pt.stable, newton)


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
