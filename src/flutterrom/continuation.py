"""Periodic-orbit continuation on reduced and full-order models.

Pseudo-arclength stepping in (anchor state, period, parameter increment)
with a flow-orthogonal phase condition, and one of two correctors:

- A ROM (ParametrisationROM) keeps in f only the monomials of charge
  |alpha| - |beta| = 1, so f(e^{i theta} z, mu) = e^{i theta} f(z, mu) and
  each of its cycles is a rotating wave z(t) = e^{2 pi i t / T} z*: the
  algebraic equations f(x, mu) = (2 pi / T) R x on its realified state,
  where R turns each (Re, Im) pair by 90 degrees.  A correction is one
  single-state linearize, whose periodicity rows are written into one
  array, and one (2m + 2)-square solve; the Floquet multipliers are
  exp(T eig(J(x*) - (2 pi / T) R)) from the rows of the last iterate, and
  the amplitudes come from the orbit's harmonics, W's terms at the anchor
  summed by charge, which reach only the mapping's order.  No amplitude
  steers a walk, so a branch of rotating waves evaluates the amplitudes of
  all its points once, after the walk: one block of harmonics, each point
  at its own load (_wave_peak).  A ROM whose f has a monomial of another
  charge is refused (ValueError).
- A system with RealizedReducedSystem's interface (the full-order
  ZieglerFirstOrder) is collocated: Gauss-Legendre collocation (seven
  points per interval, degree 7, uniform mesh over the scaled period).
  Each Newton iterate evaluates the field and its derivatives at all
  collocation points in one batched call and condenses the stage values
  interval by interval; the product of the interval transfer matrices is
  the discrete monodromy, whose eigenvalues are the Floquet multipliers.

Either corrector is Newton's method on fixed equations, quadratically
convergent, and one walk (_walk) drives both.  Fold / Neimark-Sacker
events are located from their test functions along the branch; a branch
ends at the first point past a fold, where it turns back, and at a Hopf
point where it shrinks back onto the fixed point.  The branch starts at a
Hopf point too: the corrected Hopf cycle (the critical eigenvector's
ellipse, or circle for a ROM) scaled by the normal-form amplitude law, so
nothing integrates.  It ends at exactly mu_max.

The Hopf points are the crossings of the fixed point's stability
intervals (_stability_scan); find_hopf is the lowest one where it turns
unstable, the start of continue_periodic's branch.  romdyn's limit cycle
at a load (_cycle_at) comes from the last crossing at or below the load:
past a return to stability that crossing's cycles lie below it, which
alone shows there is no cycle.  Otherwise it is the branch that starts at
that load, or the end of the one walked up to it where that is refused.

A model's linear analysis is a property of the model, not of a load, and
every ROM and system keeps its own in the memo model._analysis: ("scan",
mu0), the crossings of each tile of the load axis _stability_scan has
scanned about the expansion load mu0, by tile index; for a ROM "sysr", its
realified system, and "plan", the mu-independent part of every
RealizedReducedSystem built on it (romdyn._realified_plan); and ("hopf",
mu_H, rising), each _HopfCycle.  A built ROM and a ZieglerFirstOrder are
values, their arrays read-only (a system sets only mu, where it is
evaluated), so that memo cannot go stale; dataclasses.replace gives a
changed ROM with an empty one.  The tiles are fixed by meta["mu0"] alone
(_tiles), which stays mutable and keys the scan, and a reused Hopf
cycle's correction still counts in every measurement's newton and
branch's meta["seed"], so no result depends on that memo or on what was
measured before.  romdyn.measure_limit_cycle_fom measures on the one
system a ZieglerModel holds (ZieglerModel.system), so its analysis serves
every load the model is measured at.  Each measurement logs one DEBUG
record (load, newton, reason) to the "flutterrom" logger.
"""

from __future__ import annotations

import functools
import logging
import time
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .dpim import ParametrisationROM
from .polytensor import _read_only
from .romdyn import LimitCycleMeasurement, RealizedReducedSystem, periodic_peak
from .spectral import _root_in

_log = logging.getLogger(__name__)


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

    def amplitude(self, coord):
        return np.array([pt.amplitude[coord] for pt in self.points])

    def periods(self):
        return np.array([pt.period for pt in self.points])

    def events(self):
        return [(pt.mu, pt.event) for pt in self.points if pt.event]


def find_hopf(model):
    """Parameter increment where the mu-dressed linear part of a ROM or
    system first turns unstable: the lowest rising crossing of
    _stability_scan in tile 0, or where tile 0 has none, in the tiles below
    it; raises when there is none (the expected failure of pre-bifurcation
    one-mode reductions).
    """
    return next(c for c, rising in _stability_scan(model) if rising)


def _window(mu0):
    """Half-width of tile 0 (_tiles), the load increments within
    +-_window(mu0) of the load mu0."""
    return 0.35 * max(abs(mu0), 1.0)


def _tiles(mu0, mu):
    """(k, lo, hi) of the tile of the load-increment axis that holds mu
    (tile 0 when mu is not finite), then of each tile below it.

    Tile 0 is +-_window(mu0); tile k != 0 shares its inner edge e, the one
    towards tile 0, with its neighbour there and spans 2 _window(mu0 + e)
    beyond it.  So the tiles cover the axis and mu0 alone fixes them.  Tile
    0 holds both its edges, every other tile only its outer one.
    """
    mu = mu if np.isfinite(mu) else 0.0
    edges = [-_window(mu0), _window(mu0)]   # tile k >= 0 is edges[k:k + 2]
    while mu > edges[-1]:
        edges.append(edges[-1] + 2.0 * _window(mu0 + edges[-1]))
    k, hi = len(edges) - 2, edges[-1]
    while True:
        lo = edges[k] if k >= 0 else hi - 2.0 * _window(mu0 + hi)
        if lo <= mu:
            yield k, lo, hi
        k, hi = k - 1, lo


def _growth(mus, model):
    """Largest real part of the fixed point's spectrum at each load of mus."""
    return np.max(np.linalg.eigvals(model.linear_block(mus)).real, axis=-1)


def _stability_scan(model, mu=np.inf):
    """The stability intervals of the fixed point: every load increment
    where the growth rate (the largest real part of the Jacobian's
    eigenvalues) changes sign, ascending, as (crossing, rising).

    Scans the 201 loads of mu's tile (_tiles; one stacked eigenvalue solve),
    then those of each tile below it, until a rising crossing lies at or
    below mu or a tile below mu's reaches down to the load mu0 + mu = 0;
    each sign change is refined to 1e-12 max(|mu|, 1) with eigenvalue-only
    solves (spectral._root_in).  A model scans each tile once (its
    _analysis).  Raises when no crossing rises.
    """
    mu0 = model.meta.get("mu0", 0.0)
    tiles = model._analysis.setdefault(("scan", mu0), {})
    crossings = []
    for n, (k, lo, hi) in enumerate(_tiles(mu0, mu)):
        if k not in tiles:
            mus = np.linspace(lo, hi, 201)
            neg = _growth(mus, model) < 0
            tiles[k] = tuple((_root_in(_growth, mus[i], mus[i + 1], 1e-12, (model,)),
                              bool(neg[i]))
                             for i in np.flatnonzero(neg[:-1] != neg[1:]))
        # each tile lies below the one before
        crossings = list(tiles[k]) + crossings
        if any(rising and c <= mu for c, rising in crossings) or (n and mu0 + lo <= 0.0):
            break
    if not any(rising for _, rising in crossings):
        raise ContinuationError(
            "no sign change of the growth rate at the fixed point over the scanned "
            f"loads [{mu0 + lo:.6g}, {mu0 + next(_tiles(mu0, mu))[2]:.6g}]")
    return crossings


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
# mesh error target, samples of a recorded collocated orbit, and the anchor
# norm under which a cycle has shrunk onto the fixed point
_RTOL, _N_SAMPLE, _SEED_AMP = 1e-9, 512, 1e-3
# phases that locate a rotating wave's peaks, the Newton steps that polish
# them (from a phase within pi / _N_COARSE of the peak) at most, and the
# phase step that ends the polish: Newton converges quadratically there, so
# the step after it would be at round-off
_N_COARSE, _PEAK_NEWTON, _PEAK_STEP_TOL = 64, 5, np.sqrt(np.finfo(float).eps)
_GRID = 2 * np.pi * np.arange(_N_COARSE) / _N_COARSE


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


def _rotating(sysr):
    """Whether sysr's cycles are rotating waves: a ROM's realified system."""
    return isinstance(sysr, RealizedReducedSystem)


def _load(sysr, mu):
    """The load mu as a reason names it: "mu = mu", or for a system whose
    meta names its absolute load (ZieglerFirstOrder's "P"), "P = mu0 + mu",
    which does not depend on the load mu0 the system is anchored at."""
    meta = getattr(sysr, "meta", {})
    return f"{meta['load']} = {meta['mu0'] + mu:.6g}" if "load" in meta else f"mu = {mu:.6g}"


@functools.cache
def _turn(n):
    """2 pi R on n realified coordinates, where R is i on each (Re z, Im z)
    pair: -2 pi at (2j, 2j + 1), 2 pi at (2j + 1, 2j); read-only."""
    R = np.zeros((n, n))
    R[0::2, 1::2] = -np.eye(n // 2)
    R[1::2, 0::2] = np.eye(n // 2)
    return _read_only(2.0 * np.pi * R)


def _linearize(sysr, q, K):
    """The orbit q = (x, T, mu) with stage values K, linearised: its
    collocation, or for a rotating wave f at (x, mu) and its periodicity
    rows (T J - 2 pi R, f, T dfdmu), written into one array."""
    n = len(q) - 2
    if _rotating(sysr):
        sysr.mu = q[n + 1]
        f, J, g = sysr.linearize(q[:n])
        rows = np.empty((n, n + 2))
        np.subtract(q[n] * J, _turn(n), out=rows[:, :n])
        rows[:, n] = f
        np.multiply(q[n], g, out=rows[:, n + 1])
        return f, rows
    return _collocate(sysr, q[:n], K, q[n], q[n + 1])


def _periodicity(sysr, q, col):
    """The periodicity rows of the orbit q from its linearisation col:
    (residual, derivative by (x, T, mu), residual column, sum of the
    squared stage residuals).

    A collocated orbit's rows are x_N - x_0; its residual column is the
    condensed stage residuals' share of x_N.  A rotating wave's rows are
    T f - 2 pi R x, where R is i on each (Re z, Im z) pair: scaled by T,
    they are the drift of the anchor over one period (to first order),
    measured as the collocation's are.  Its linearisation holds their
    derivative (_linearize).
    """
    n = len(q) - 2
    if _rotating(sysr):
        f, rows = col
        turned = (q[:n].view(complex) * 1j).view(float)   # R x
        return q[n] * f - 2.0 * np.pi * turned, rows, 0.0, 0.0
    end = col.Psi[-1]
    return col.X[-1] - q[:n], end[:, :n + 2] - np.eye(n, n + 2), end[:, n + 2], np.sum(col.G ** 2)


def _tangent(sysr, q, col):
    """Unit tangent (dx_0, dT, dmu) of the branch at the corrected orbit q,
    oriented to increasing mu: the null vector of its periodicity and phase
    rows; and the stage values' part of it, the linearised collocation's
    response with the residual column weighted 0 (none for a rotating
    wave)."""
    n = len(q) - 2
    sysr.mu = q[n + 1]
    rows = _periodicity(sysr, q, col)[1]
    t = np.linalg.svd(np.vstack([rows, np.append(sysr.rhs(0.0, q[:n]), [0.0, 0.0])]))[2][-1]
    t = np.copysign(1.0, t[-1]) * t
    return t, np.zeros(0) if _rotating(sysr) else _stage_change(col, np.append(t, 0.0))


# a diverging iterate overflows; its residual is not finite, which ends the
# correction with a reason instead of a numpy warning
@np.errstate(over="ignore", invalid="ignore")
def _correct(sysr, q, K, tangent, ds, qn, Kn, radius):
    """Newton on the periodicity rows (_periodicity) of the collocation
    equations or of a rotating wave, the phase row and the last row
    tangent . (qn - q) = ds, from the guess (qn, Kn).

    The phase normal is f at q's anchor and mu, fixed for all iterates, so
    the Newton matrix is exact; for a rotating wave f(x) is (2 pi / T) R x,
    so the row fixes the anchor's phase against q's.  The residual norm
    covers those rows and the stage residuals.  An iterate whose mu or
    anchor moves more than `radius` from q, whose period leaves [T0/4,
    4 T0] about the period T0 of q, the point the correction starts from,
    or whose residual is not finite, is rejected.  The iteration stops below
    _NEWTON_TOL max(1, |(anchor, period)|), which does not depend on where
    mu = 0 lies.  Returns (qn, Kn, _linearize at qn, corrections, residual
    norm of each iterate evaluated, reason); reason is "" on convergence.  A
    rotating wave has no stage values: its Kn passes through.
    """
    n = len(q) - 2
    T0 = q[n]
    sysr.mu = q[n + 1]
    nvec = sysr.rhs(0.0, q[:n])
    nvec /= np.linalg.norm(nvec)
    residuals = []
    for it in range(_MAX_NEWTON):
        col = _linearize(sysr, qn, Kn)
        periodic, rows, column, stages = _periodicity(sysr, qn, col)
        F = np.concatenate([periodic, [nvec @ (qn[:n] - q[:n])], [tangent @ (qn - q) - ds]])
        residuals.append(float(np.sqrt(F @ F + stages)))
        if not np.isfinite(residuals[-1]):
            return qn, Kn, col, it, residuals, "iterate not finite"
        if residuals[-1] < _NEWTON_TOL * max(1.0, np.linalg.norm(qn[:n + 1])):
            return qn, Kn, col, it, residuals, ""
        rhs = -F
        rhs[:n] -= column
        try:
            dq = np.linalg.solve(np.vstack([rows, np.append(nvec, [0.0, 0.0]), tangent]), rhs)
        except np.linalg.LinAlgError:
            return qn, Kn, col, it, residuals, "singular corrector matrix"
        qn = qn + dq
        if not _rotating(sysr):
            Kn = Kn + _stage_change(col, np.append(dq, 1.0))
        if abs(qn[n + 1] - q[n + 1]) > radius or np.linalg.norm(qn[:n] - q[:n]) > radius:
            return qn, Kn, col, it + 1, residuals, "iterate left the trust region"
        if not T0 / 4.0 <= qn[n] <= 4.0 * T0:
            return qn, Kn, col, it + 1, residuals, "iterate period left [T0/4, 4 T0]"
    return qn, Kn, col, _MAX_NEWTON, residuals, "no convergence"


def _realize(rom, mu):
    """The ROM's RealizedReducedSystem at mu, once every monomial of its
    reduced field is checked to have charge 1 (a representative coordinate
    counts +1, its conjugate -1, mu 0), so that its cycles are rotating
    waves; raises ValueError naming the first monomial that is not."""
    sysr = RealizedReducedSystem(rom, mu)
    charge = np.zeros(rom.d, dtype=int)
    charge[sysr.reps] = 1
    charge[rom.conj_map[sysr.reps]] = -1
    exps = rom.table.exponents
    off = (exps[:, :rom.d] @ charge != 1)[:, None] & (rom.f[:, sysr.reps] != 0)
    if off.any():
        k, r = np.argwhere(off)[0]
        raise ValueError(
            f"f of coordinate {sysr.reps[r]} has the monomial {tuple(exps[k].tolist())} of "
            f"charge {exps[k, :rom.d] @ charge}: the reduced field is not S1-equivariant, "
            "so its cycles are not rotating waves")
    return sysr


class _HopfCycle(NamedTuple):
    """The small cycle at a model's Hopf point mu_H, corrected at mu_eps."""
    sysr: object        # the model, or a ROM's RealizedReducedSystem
    q: np.ndarray       # (anchor, period, mu_eps)
    K: np.ndarray       # stage values, empty for a rotating wave
    record: dict        # {mu_H, newton, residual}
    rising: bool        # whether the fixed point turns unstable as mu passes mu_H


def _hopf_cycle(model, mu_H, rising=True):
    """_HopfCycle at the model's Hopf point mu_H, a crossing of
    _stability_scan that rises (find_hopf's) or not, without integrating.

    The critical eigenpair (i omega, v) of the Jacobian at the fixed point
    spans the ellipse eps Re(v e^{2 pi i tau}) of period 2 pi / omega,
    corrected with its amplitude along Re v fixed and mu free; for a ROM
    (checked by _realize) its anchor eps Re v is the rotating wave's.  A
    ROM realifies itself once, and a model corrects each Hopf cycle once
    (its _analysis); the cycle's q and K are read-only.  The Hopf point is
    degenerate when mu moves by no more than _correct's stopping tolerance.
    """
    memo = model._analysis
    if ("hopf", mu_H, rising) in memo:
        return memo["hopf", mu_H, rising]
    sysr = model
    if isinstance(model, ParametrisationROM):
        sysr = memo["sysr"] = memo.get("sysr") or _realize(model, 0.0)
    n = 2 * sysr.m
    sysr.mu = mu_H
    w, V = np.linalg.eig(sysr.jacobian(np.zeros(n)))
    osc = np.flatnonzero(w.imag > 0)
    if not osc.size:
        raise ContinuationError(
            f"no oscillatory eigenvalue pair at the Hopf point {_load(sysr, mu_H)}: the growth "
            "rate changes sign through a real eigenvalue, so no cycle branches off")
    k = osc[np.argmax(w.real[osc])]
    v = V[:, k]   # LAPACK makes its largest component real: Re v, Im v independent
    T = 2 * np.pi / w[k].imag
    if _rotating(sysr):
        K = np.zeros(0)
    else:
        phase = np.exp(2j * np.pi * _stage_times(_MESH0))
        K = _HOPF_EPS * (phase[:, None] * v).real.reshape(_MESH0, len(_NODES), n)
    q = np.concatenate([_HOPF_EPS * v.real, [T, mu_H]])
    tangent = np.concatenate([v.real / np.linalg.norm(v.real), [0.0, 0.0]])
    q, K, _, it, res, reason = _correct(sysr, q, K, tangent, 0.0, q, K, np.inf)
    if reason:
        raise ContinuationError(f"Hopf seed corrector at {_load(sysr, mu_H)}: {reason}")
    if abs(q[n + 1] - mu_H) <= _NEWTON_TOL * max(1.0, np.linalg.norm(q[:n + 1])):
        raise ContinuationError(f"degenerate Hopf point at {_load(sysr, mu_H)}: mu does not "
                                "move with the cycle amplitude")
    memo["hopf", mu_H, rising] = hopf = _HopfCycle(
        sysr, _read_only(q), _read_only(K),
        {"mu_H": float(mu_H), "newton": it, "residual": res[-1]}, rising)
    return hopf


def _hopf_seed(hopf, mu):
    """(anchor, stage values, period, record) of a cycle guess at load mu:
    the Hopf cycle at mu_eps scaled by the amplitude law r^2 ~ mu - mu_H.
    Raises when mu and the Hopf point's cycles lie on opposite sides of
    mu_H."""
    q, K, record = hopf.q, hopf.K, hopf.record
    n, mu_H = len(q) - 2, record["mu_H"]
    shift = q[n + 1] - mu_H
    if (mu - mu_H) * shift <= 0:
        # the fixed point is stable below a rising crossing, above a falling one
        fate = "decays" if (mu <= mu_H) == hopf.rising else "grows"
        raise ContinuationError(
            f"trajectory {fate} at {_load(hopf.sysr, mu)}: "
            f"the cycles of the Hopf point {_load(hopf.sysr, mu_H)} lie "
            f"{'above' if shift > 0 else 'below'} it")
    scale = float(np.sqrt((mu - mu_H) / shift))
    return scale * q[:n], scale * K, q[n], dict(record, scale=scale)


def _floquet_and_stability(mult):
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


def _attempt(sysr, trace, q, K, tangent, ds, tK, radius):
    """Correct from the predictor (q + ds tangent, K + ds tK) and append the
    attempt's record to trace.  Returns _correct's (qn, Kn, collocation,
    corrections), the record, and the number of mesh intervals the orbit
    needs: its own unless the error estimate exceeds _RTOL.  An orbit that
    needs more than _MESH_MAX intervals is refused, and the record's reason
    says so."""
    t0 = time.perf_counter()
    qn, Kn, col, it, res, reason = _correct(sysr, q, K, tangent, ds, q + ds * tangent,
                                            K + ds * tK, radius)
    N = len(Kn) if reason or _rotating(sysr) else _mesh_size(sysr, col, qn[-2], _RTOL)
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


def _fixed_mu(sysr, trace, q, K):
    """Correct at q's mu with mu fixed (the arclength row becomes mu = q's
    mu), growing the mesh until the orbit meets _RTOL.  Returns (q, K,
    collocation, record of the last attempt); the record's reason is "" on
    convergence, and names the mesh an orbit would need past _MESH_MAX."""
    m2 = len(q) - 2
    e_mu, mu = np.eye(m2 + 2)[-1], q[m2 + 1]
    while True:
        q, K, col, _, rec, N = _attempt(sysr, trace, q, K, e_mu, 0.0, np.zeros_like(K),
                                        np.inf)
        q[m2 + 1] = mu
        if N == len(K) or N > _MESH_MAX:
            return q, K, col, rec
        K = _refine(col, q[m2], N)


@functools.cache
def _phase_basis(order):
    """e^{i k theta} at the _N_COARSE phases theta (rows) for k = 0 .. order,
    read-only."""
    return _read_only(np.exp(1j * _GRID[:, None] * np.arange(order + 1)))


def _wave_peak(sysr, X, mus):
    """Largest |coordinate| of the mapped orbit W(e^{i theta} z*, mu) of the
    rotating wave of each anchor row of X at its load, the entry of mus,
    shape (len(X), dim).

    Each coordinate is the trigonometric polynomial Re sum_k c_k e^{i k
    theta}, k = 0 .. the order o, whose coefficients are the orbit's
    harmonics, W's terms at the anchor summed by charge
    (RealizedReducedSystem.harmonics).  Its largest value over _N_COARSE
    phases starts Newton's method on its derivative, which polishes the
    peak to round-off: a row stops once none of its coordinates' phase
    steps is above _PEAK_STEP_TOL, or after _PEAK_NEWTON steps.  Every row
    goes through the products of an anchor alone, so it has the bits of a
    block of one.
    """
    c = sysr.harmonics(X, mus)
    ik = 1j * np.arange(c.shape[1])[:, None]
    coarse = np.abs((_phase_basis(c.shape[1] - 1) @ c).real)
    theta = _GRID[np.argmax(coarse, axis=1)]
    # the harmonics of the first and second phase derivatives, and the phases
    # of the rows still polished; a row that converged leaves them
    dc, d2c = ik * c, ik * ik * c
    rows, th = np.arange(len(c)), theta
    for _ in range(_PEAK_NEWTON):
        e = np.exp(ik * th[:, None])
        slope, curv = (dc * e).real.sum(axis=1), (d2c * e).real.sum(axis=1)
        # the curvature is 0 only on a coordinate that stays 0
        step = slope / np.where(curv == 0.0, 1.0, curv)
        th = th - step
        done = np.all(np.abs(step) <= _PEAK_STEP_TOL, axis=1)
        if done.all():
            break
        if done.any():
            theta[rows[done]] = th[done]
            keep = ~done
            rows, th, dc, d2c = rows[keep], th[keep], dc[keep], d2c[keep]
    theta[rows] = th
    # a Newton step that left the peak's basin keeps the best phase sampled
    peak = np.abs((c * np.exp(ik * theta[:, None])).real.sum(axis=1))
    return np.maximum(peak, coarse.max(axis=1))


def _branch_point(sysr, q, col):
    """BranchPoint of the corrected orbit q, linearised as col, and its
    Floquet multipliers other than the trivial one.  A rotating wave's
    multipliers come from col's periodicity rows; its amplitude stays None
    until _walk evaluates those of all its points at once (_wave_peak)."""
    m2 = len(q) - 2
    if _rotating(sysr):
        mult, amp = np.exp(np.linalg.eigvals(col[1][:, :m2])), None
    else:
        sysr.mu = q[m2 + 1]
        mult = np.linalg.eigvals(col.Psi[-1, :, :m2])
        amp = periodic_peak(sysr.map_batch(_sample(col, q[m2], np.linspace(0.0, 1.0, _N_SAMPLE))))
    mult, others, stable = _floquet_and_stability(mult)
    return BranchPoint(q[m2 + 1], q[:m2].copy(), q[m2], amp, mult, stable), others


def continue_periodic(model, options=None):
    """Pseudo-arclength continuation of the post-bifurcation cycle branch.

    model is a ROM, whose cycles are solved as rotating waves of its
    realified system (RealizedReducedSystem; a ROM whose f is not
    S1-equivariant raises ValueError), or a system with that interface,
    whose cycles are collocated.  The Hopf seed at the model's Hopf point
    mu_H (find_hopf) is corrected with mu fixed at min(mu_max, mu_H +
    max(4 _DS0, 0.01 max(|mu_H|, 1))); the first step leaves it along the
    branch's tangent (near mu_H, the amplitude law x ~ sqrt(mu - mu_H)),
    then the branch is followed in (anchor, period, mu) with arclength
    steps of at most _DS0.  Each accepted point records physical amplitudes
    (all mapped coordinates), the period, Floquet multipliers, stability,
    and any event marker; a ROM's amplitudes are evaluated once, after the
    walk, for all its points together (_wave_peak).  On a collocated orbit the mesh grows whenever
    its error estimate exceeds _RTOL, and an orbit that would need more
    than _MESH_MAX intervals ends the branch.  A step past mu_max is
    corrected again with mu fixed at mu_max, from the secant through the
    last point; that point, whose mu is mu_max exactly, ends the branch.
    The branch ends with a "hopf" event on its last point when the cycle
    shrinks back onto the fixed point (its anchor turns back or falls below
    _SEED_AMP), and with a "fold" event on the first point past a fold,
    where the branch turns back (fold test function, _fold_test).

    meta["seed"] is the Hopf seed's record {mu_H, newton, residual, scale},
    whose newton is the Hopf cycle's correction, also where the ROM had
    already corrected that cycle (its _analysis);
    meta["trace"] holds one record per attempted correction (ds, Newton
    corrections, residual norms of the iterates, mesh intervals, accepted,
    reason, wall time); the fixed-mu corrections have ds = 0.  For a ROM
    the mesh is 0 intervals, no record is a mesh refinement, and the
    residuals are those of the rotating-wave equations scaled by the period,
    the phase row and the arclength row.
    meta["truncated"] names why the branch stopped short of mu_max ("" when
    it did not).  Raises
    ContinuationError when no cycle lies on the seed's side of mu_H.
    """
    opts = options or ContinuationOptions()
    hopf = _hopf_cycle(model, find_hopf(model))
    return _walk(model, hopf, _first_load(hopf, opts.mu_max), opts)


def _first_load(hopf, mu_max):
    # continue_periodic's first load
    mu_H = hopf.record["mu_H"]
    return min(mu_max, mu_H + max(4 * _DS0, 0.01 * max(abs(mu_H), 1.0)))


def _walk(model, hopf, mu_start, opts):
    """continue_periodic's branch from the _HopfCycle hopf, its first
    point corrected at mu_start; a branch that starts at mu_max takes no
    tangent.  The corrector, the tangent and the branch points are those of
    hopf.sysr: rotating waves for a ROM's realified system, collocation for
    any other system.  The walk decides with anchors, periods, loads and
    Floquet multipliers alone; a rotating wave's amplitudes are written
    into its points once the walk ends, from one _wave_peak block of all
    of them (a collocated orbit's come with its point)."""
    sysr = hopf.sysr
    m2 = 2 * sysr.m
    x, K, T, seed = _hopf_seed(hopf, mu_start)
    points, trace = [], []
    meta = {"mu0": model.meta.get("mu0", 0.0), "seed": seed, "trace": trace}

    q, K, q_col, rec = _fixed_mu(sysr, trace, np.concatenate([x, [T, mu_start]]), K)
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
        qn, Kn, col, it, rec, N = _attempt(sysr, trace, q, K, tangent, ds, tK, 4.0 * ds)
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
            truncated_reason = f"branch ended at a Hopf point near {_load(sysr, q[m2 + 1])}"
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
            qn, Kn, col, rec = _fixed_mu(sysr, trace, qn, Kn)
            if rec["reason"]:
                truncated_reason = f"corrector failed at mu_max: {rec['reason']}"
                break

        pt, others = _branch_point(sysr, qn, col)
        points.append(pt)
        fold_now = _fold_test(others)
        ns_now = _ns_test(others)
        if fold_prev * fold_now < 0 and abs(fold_prev) < 0.5:
            points[-1].event = "fold"
            truncated_reason = f"branch turned back at a fold near {_load(sysr, qn[m2 + 1])}"
            break
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
    if _rotating(sysr):
        amps = _wave_peak(sysr, np.array([pt.anchor for pt in points]),
                          [pt.mu for pt in points])
        for pt, amp in zip(points, amps):
            pt.amplitude = amp
    return BifurcationDiagram(points, meta)


def _cycle_at(model, mu, param, dim):
    """LimitCycleMeasurement at load increment mu of a ROM or system; param
    is the load it reports.

    The cycle comes from the Hopf point at the last crossing of
    _stability_scan (mu's tile, and those below) at or below mu, or at the
    first crossing when none lies below: past a return to stability, that
    crossing's cycles lie below it, so its seed (_hopf_seed) names why there
    is no cycle at mu.  The landing, the branch that starts at mu, is
    refused when its correction failed, its anchor is below _SEED_AMP (the
    fixed point), or its stability equals the fixed point's at mu (near its
    Hopf point a branch pairs a stable cycle with an unstable fixed point or
    the reverse, so this rejects a landing past a fold).  Then
    continue_periodic's branch from that Hopf point up to mu gives the cycle
    or the reason it stops short; where that branch would start at mu
    itself, it is the landing again, and the refusal is final.  A seed error
    is final and comes before any walk: both seeds lie on the same side of
    the Hopf point.  newton counts the Hopf cycle's correction too, also
    where an earlier measurement of the model made it (its _analysis), so
    that it does not depend on what was measured before.
    Logs one DEBUG record: param, newton and reason.
    """
    opts = ContinuationOptions(mu_max=mu)
    stable = np.linalg.eigvals(model.linear_block(mu)).real.max() < 0
    hopf, walks = None, []
    try:
        crossings = _stability_scan(model, mu)
        below = [c for c in crossings if c[0] <= mu]
        hopf = _hopf_cycle(model, *(below[-1] if below else crossings[0]))
        _hopf_seed(hopf, mu)   # raises where no cycle of that Hopf point reaches mu
        walks.append(_walk(model, hopf, mu, opts))
        reason = _refusal(hopf.sysr, walks[0], mu, stable)
        if reason and _first_load(hopf, mu) < mu:
            walks.append(_walk(model, hopf, _first_load(hopf, mu), opts))
            # a branch ends at mu_max exactly unless it names why not
            reason = walks[-1].meta["truncated"]
    except ContinuationError as exc:
        reason = str(exc)
    newton = sum(rec["newton"] for diag in walks for rec in diag.meta["trace"])
    newton += hopf.record["newton"] if hopf else 0
    _log.debug("limit cycle at %r: newton %d, reason %r", param, newton, reason)
    if reason:
        return LimitCycleMeasurement(param, np.zeros(dim), 0.0, bool(stable), reason,
                                     newton=newton)
    pt = walks[-1].points[-1]
    return LimitCycleMeasurement(param, pt.amplitude, pt.period, True, "", pt.floquet,
                                 pt.stable, newton)


def _refusal(sysr, land, mu, stable):
    """Why the landing (the branch of sysr that starts at mu) is refused, ""
    when it is not; stable is the fixed point's stability at mu."""
    if land.meta["truncated"]:
        return land.meta["truncated"]
    pt = land.points[0]
    if np.linalg.norm(pt.anchor) < _SEED_AMP:
        return (f"the cycle at {_load(sysr, mu)} has shrunk onto the fixed point: its anchor "
                f"{np.linalg.norm(pt.anchor):.3g} is below {_SEED_AMP:g}")
    if pt.stable == stable:
        return (f"the cycle at {_load(sysr, mu)} is {'stable' if stable else 'unstable'} like "
                "the fixed point there: it lies past a fold")
    return ""
