"""Linear analysis: master eigensolves, parameter sweeps, exceptional points
and Jordan-block enforcement.

Master spectra are bi-normalized (X* B Y = I) triplets over the augmented
first-order form of the model; for second-order mechanical systems the
eigenvectors are stored stacked as [displacement; velocity] and the
velocity part is tied analytically to the displacement part.

A parameter sweep (`eigen_sweep`) solves its whole grid in one stacked
`np.linalg.eig` call on the state matrices B^-1 At(P), which exist because
B = blockdiag(M, M) is nonsingular, and tracks every mode across the grid.
It refines its events with fresh eigenvalue-only solves of the pencil: the
Hopf and divergence points are Brent roots, and the coalescence is the
Brent root of the squared gap of the closest pair where that changes sign
(an exceptional point), else the minimum of the gap.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla
from scipy.optimize import brentq

from .models.dae import FirstOrderDAE


class SpectralError(RuntimeError):
    pass


class JordanEnforcementError(RuntimeError):
    pass


@dataclass
class Spectrum:
    """Master eigen-triplet of the augmented system.

    lam holds the diagonal of the reduced linear dynamics Lam; Lam carries
    the imposed off-diagonal couplings when Jordan pairs are declared.  The
    parameter eigenvector Ypar is the state part of the mode attached to
    the control parameter (its parameter component is fixed to one and its
    eigenvalue is exactly zero).
    """

    lam: np.ndarray
    Lam: np.ndarray
    Y: np.ndarray
    X: np.ndarray
    Ypar: np.ndarray
    conj_map: np.ndarray | None = None
    jordan_pairs: list = field(default_factory=list)
    n_disp: int | None = None
    ops: dict = field(default_factory=dict)

    @property
    def d(self):
        return len(self.lam)

    def Yu(self):
        if self.n_disp is None:
            raise SpectralError("not a second-order spectrum")
        return self.Y[: self.n_disp]

    def Xv(self):
        if self.n_disp is None:
            raise SpectralError("not a second-order spectrum")
        return self.X[self.n_disp:]

    def copy(self):
        return Spectrum(self.lam.copy(), self.Lam.copy(), self.Y.copy(), self.X.copy(),
                        self.Ypar.copy(),
                        None if self.conj_map is None else self.conj_map.copy(),
                        list(self.jordan_pairs), self.n_disp, dict(self.ops))


# -- raw pencil solves --------------------------------------------------------

def _first_order_pencil(M, C, K):
    """(At, B) of lam^2 M + lam C + K on the state [u; lam u]."""
    Z = np.zeros(M.shape)
    return np.block([[Z, M], [-K, -C]]), np.block([[M, Z], [Z, M]])


def _pencil_eig(At, B, left=False, right=False):
    """Finite eigenvalues of (At, B), then the requested left and right
    vectors, as sla.eig orders them; LAPACK computes only what is asked."""
    out = sla.eig(At, B, left=left, right=right)
    if not (left or right):
        return out[np.isfinite(out)]
    keep = np.isfinite(out[0])
    return (out[0][keep],) + tuple(v[:, keep] for v in out[1:])


def _canonicalize(vecs, disp_idx):
    """Unit norm on the displacement block, largest component real positive."""
    out = vecs.copy()
    for s in range(out.shape[1]):
        blk = out[disp_idx, s]
        nrm = np.linalg.norm(blk)
        if nrm == 0:
            blk = out[:, s]
            nrm = np.linalg.norm(blk)
        k = int(np.argmax(np.abs(blk)))
        phase = blk[k] / abs(blk[k])
        out[:, s] = out[:, s] / (nrm * phase)
    return out


def _binormalize(X, Y, Bmat):
    """Scale left vectors so that X* B Y has unit diagonal.

    Near-defective pairs have X_s* B Y_s ~ 0; those columns get a floored
    scaling and are meaningful only after Jordan enforcement.
    """
    X = X.copy()
    BY = Bmat @ Y
    for s in range(X.shape[1]):
        c = np.vdot(X[:, s], BY[:, s])
        floor = 1e-13 * max(np.linalg.norm(X[:, s]) * np.linalg.norm(BY[:, s]), 1e-300)
        if abs(c) < floor:
            c = floor if c == 0 else c / abs(c) * floor
        X[:, s] = X[:, s] / np.conj(c)
    return X


def _select_masters(w, n_modes):
    """Representatives (Im > 0) of the master modes: the largest-real-part
    mode plus, for two-mode runs, the distinct mode with closest |Im|."""
    scale = max(np.max(np.abs(w)), 1.0)
    osc = np.where(w.imag > 1e-9 * scale)[0]
    if len(osc) == 0:
        raise SpectralError("no oscillatory modes: leading eigenvalue is non-oscillatory")
    lead = osc[np.argmax(w[osc].real)]
    if n_modes == 1:
        return [lead]
    rest = [i for i in osc if i != lead and abs(w[i] - w[lead]) > 0]
    if not rest:
        raise SpectralError("no companion mode available for the two-mode strategy")
    comp = min(rest, key=lambda i: abs(abs(w[i].imag) - abs(w[lead].imag)))
    return [lead, comp]


def _assemble_conjugate_masters(w, vl, vr, reps, Bmat, disp_idx):
    """Stack [lam, conj(lam)] per representative with exact conjugate vectors."""
    d = 2 * len(reps)
    D = vr.shape[0]
    lam = np.zeros(d, dtype=complex)
    Y = np.zeros((D, d), dtype=complex)
    X = np.zeros((D, d), dtype=complex)
    for m, idx in enumerate(reps):
        lam[2 * m] = w[idx]
        lam[2 * m + 1] = np.conj(w[idx])
        Y[:, 2 * m] = vr[:, idx]
        X[:, 2 * m] = vl[:, idx]
    Y[:, ::2] = _canonicalize(Y[:, ::2], disp_idx)
    for m in range(len(reps)):
        Y[:, 2 * m + 1] = np.conj(Y[:, 2 * m])
        X[:, 2 * m + 1] = np.conj(X[:, 2 * m])
    X = _binormalize(X, Y, Bmat)
    conj_map = np.arange(d)
    conj_map[::2] += 1
    conj_map[1::2] -= 1
    return lam, Y, X, conj_map


def solve_master_eigen(system, d):
    """Master spectrum of a FirstOrderDAE or a second-order model.

    d counts complex master coordinates including conjugates (2 for the
    one-mode strategy, 4 for the two-mode one).  Eigenvalues are ordered
    [lam1, conj lam1(, lam2, conj lam2)] with lam1 the largest-real-part
    mode, and bi-normalized to X* B Y = I.
    """
    if d not in (2, 4):
        raise ValueError("d must be 2 (one master mode) or 4 (two master modes)")
    if isinstance(system, FirstOrderDAE):
        At, B = system.tangent_matrix(), system.B
        n, disp = None, np.asarray(system.displacement_indices)
    else:  # second-order mechanical system
        At, B = _first_order_pencil(*(np.asarray(a) for a in (system.M, system.C, system.Kt)))
        n = B.shape[0] // 2
        disp = np.arange(n)
    w, vl, vr = _pencil_eig(At, B, left=True, right=True)
    lam, Y, X, conj_map = _assemble_conjugate_masters(
        w, vl, vr, _select_masters(w, d // 2), B, disp)
    if n is not None:
        # tie velocities analytically to displacements
        Y[n:] = lam * Y[:n]
        X = _binormalize(X, Y, B)
    return Spectrum(lam, np.diag(lam), Y, X, parameter_eigenvector(system), conj_map,
                    n_disp=n, ops={"B": B, "At": At})


def solve_pencil_spectrum(At, B, d):
    """Spectrum of a bare matrix pencil, top-d modes by descending real part.

    No conjugate pairing is imposed; intended for generic systems and the
    Jordan enforcement tests.
    """
    At = np.asarray(At, dtype=float)
    B = np.asarray(B, dtype=float)
    w, vl, vr = _pencil_eig(At, B, left=True, right=True)
    order = np.lexsort((np.abs(w.imag), -w.real))[:d]
    lam = w[order]
    Y = _canonicalize(vr[:, order].astype(complex), np.arange(At.shape[0]))
    X = _binormalize(vl[:, order].astype(complex), Y, B)
    return Spectrum(lam, np.diag(lam), Y, X, np.zeros(At.shape[0], dtype=complex),
                    ops={"B": B, "At": At})


def parameter_eigenvector(system):
    """State part of the zero-eigenvalue mode attached to the parameter.

    Solves A_t Ypar = -A_0 (its parameter component is one by convention);
    for second-order systems this is the static deflection [Kt^-1 Rt; 0].
    """
    if isinstance(system, FirstOrderDAE):
        At = system.tangent_matrix()
        A0 = system.parameter_column()
        try:
            return sla.solve(At, -A0)
        except sla.LinAlgError as exc:
            w = sla.eigvals(At, system.B)
            w = w[np.isfinite(w)]
            near = w[np.argmin(np.abs(w))]
            raise SpectralError(
                f"A_t singular: eigenvalue {near:.3e} is at/near zero") from exc
    out = np.zeros(2 * system.n, dtype=complex)
    out[:system.n] = sla.solve(system.Kt, system.Rt)
    return out


# -- parameter sweeps ---------------------------------------------------------

@dataclass
class EigenTrajectory:
    P: np.ndarray
    lam: np.ndarray           # (npoints, nmodes), tracked mode identity
    events: dict
    warnings: list = field(default_factory=list)   # weak matches, {P, mode, mac}


def _state_matrices(pencils):
    """Stack of B^-1 At = [[0, I], [-M^-1 K, -M^-1 C]], one per (M, C, K):
    B = blockdiag(M, M) is nonsingular for every linear_pencil, so the
    state matrix has the pencil's whole spectrum and no infinite eigenvalue."""
    M, C, K = (np.array(a) for a in zip(*pencils))
    n = M.shape[-1]
    try:
        MinvKC = np.linalg.solve(M, np.concatenate([K, C], axis=-1))
    except np.linalg.LinAlgError as exc:
        raise SpectralError("singular mass matrix: the pencil has infinite eigenvalues") from exc
    A = np.zeros((len(M), 2 * n, 2 * n))
    A[:, :n, n:] = np.eye(n)
    A[:, n:] = -MinvKC
    return A


def _grid_eigs(model, grid):
    """Eigenvalues and right eigenvectors of the linear pencil at every grid
    load, from one np.linalg.eig call on the stack of state matrices."""
    w, vr = np.linalg.eig(_state_matrices([model.linear_pencil(P) for P in grid]))
    return w.astype(complex, copy=False), vr.astype(complex, copy=False)


def _pencil_eigs_at(model, P):
    """The whole finite spectrum of the linear pencil at load P, from
    scipy's QZ on (At, B); where QZ does not converge (it fails at a few
    loads within 4 ulp of the exact EP of undamped Ziegler-2), from the
    state matrix."""
    mck = [np.asarray(a) for a in model.linear_pencil(P)]
    try:
        return _pencil_eig(*_first_order_pencil(*mck))
    except sla.LinAlgError:
        return np.linalg.eigvals(_state_matrices([mck])[0]).astype(complex, copy=False)


def _closest_pair(w):
    """(gap, scale, pair): the smallest distance among the distinct
    upper-half-plane eigenvalues of w, the spectral scale max |w|, and the
    first closest pair in sorted order (inf and None below two modes)."""
    scale = float(max(np.max(np.abs(w)), 1e-30))
    up = np.sort_complex(w[w.imag > 1e-12 * scale])
    if len(up) < 2:
        return np.inf, scale, None
    ia, ib = np.triu_indices(len(up), 1)
    diff = up[ia] - up[ib]
    # libm's hypot, as abs() of one complex scalar; np.abs of an array rounds differently
    gaps = np.hypot(diff.real, diff.imag)
    k = int(np.argmin(gaps))
    return float(gaps[k]), scale, (up[ia[k]], up[ib[k]])


def _first_root(grid, vals, f, rtol):
    """Root of f (_root_in) on the first grid interval where vals (f on the
    grid) turn from negative to non-negative; None when they never do."""
    vals = np.asarray(vals)
    turns = np.flatnonzero((vals[:-1] < 0) & (vals[1:] >= 0))
    if not turns.size:
        return None
    return _root_in(f, grid[turns[0]], grid[turns[0] + 1], rtol)


def _root_in(f, a, b, rtol, args=()):
    """Root of f(., *args) in the grid interval [a, b], over which it changes
    sign, to rtol max(|b|, 1).  Brent's method: superlinear on the smooth
    growth rates this serves, and it bisects wherever interpolation stalls.
    scipy keeps the function it wraps in a reference cycle, so a model passed
    in args, not captured by f, is freed when its last reference goes."""
    try:
        return brentq(f, a, b, args=args, xtol=rtol * max(abs(b), 1.0))
    except ValueError as exc:   # the fresh values at a and b lost the sign change
        raise SpectralError(f"no sign change in [{a}, {b}]") from exc


# a relative xtol for _root_in that never binds, so brentq stops at its own
# rtol of 4 eps: the gap grows like sqrt|P - P_c| from an EP, and every bit of
# P_c shows in it
_EXACT = np.finfo(float).tiny


def _golden_min(f, a, b, xtol, max_iter=200):
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    c = b - invphi * (b - a)
    d_ = a + invphi * (b - a)
    fc, fd = f(c), f(d_)
    for _ in range(max_iter):
        if abs(b - a) <= xtol:
            break
        if fc < fd:
            b, d_, fd = d_, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d_, fd
            d_ = a + invphi * (b - a)
            fd = f(d_)
    return 0.5 * (a + b)


def eigen_sweep(model, param_range, n_points, mac_threshold=0.8):
    """Track the spectrum over a load range and locate P_c, P_H, P_d.

    The grid loads are solved in one stacked np.linalg.eig call on the state
    matrices B^-1 At(P).  Mode identity is maintained by greedy
    modal-assurance matching between neighbouring grid points, from one MAC
    matrix per step; a match below mac_threshold adds a warning record
    {P, mode, mac}.  The event scans read the grid spectra; the events are
    then refined with fresh eigenvalue-only solves (_pencil_eigs_at), so
    they do not depend on the mode matching:

    - P_H and P_d are Brent roots of the largest growth rate and, past P_H,
      of the unstable mode's frequency;
    - P_c is where the closest upper-half-plane pair coalesces.  Through an
      EP, D = (lam_a - lam_b)^2 of that pair is analytic and real and
      changes sign, so P_c is a Brent root of Re D on the grid step beside
      the smallest grid gap where Re D changes sign, to a few ulp; the gap
      at an EP grows like sqrt|P - P_c|.  Where Re D does not change sign
      there, or its root is no EP, P_c is a golden-section minimum of the
      gap to 1e-12.  events["P_c_method"] names the path ("brent" or
      "golden"), and events["pair_at_Pc"] holds the closest pair at P_c.

    Every solve is dense and covers the whole spectrum, every mode is
    tracked, and only the grid solve computes (right) eigenvectors.
    events["ep"] flags a coalescence gap below 1e-6 of the spectral scale.
    A singular mass matrix raises SpectralError.
    """
    P0, P1 = param_range
    grid = np.linspace(P0, P1, n_points)
    warnings = []

    spectra, vectors = _grid_eigs(model, grid)
    w, vr = spectra[0], vectors[0]
    order = np.lexsort((-w.imag, np.abs(w.imag)))
    lam_rows = [w[order]]
    vec_prev = vr[:, order]

    for P, w, vr in zip(grid[1:], spectra[1:], vectors[1:]):
        # modal assurance |a* b|^2 / (|a|^2 |b|^2) of each (tracked, candidate) pair
        mac = np.abs(vec_prev.conj().T @ vr) ** 2 / np.outer(
            np.sum(np.abs(vec_prev) ** 2, axis=0), np.sum(np.abs(vr) ** 2, axis=0))
        cols = []
        for m in range(len(w)):
            best = int(np.argmax(mac[m]))
            if mac[m, best] < mac_threshold:
                warnings.append({"P": float(P), "mode": m, "mac": float(mac[m, best])})
            mac[:, best] = -1.0
            cols.append(best)
        lam_rows.append(w[cols])
        vec_prev = vr[:, cols]

    lam = np.array(lam_rows)
    events = {}
    scale0 = max(np.max(np.abs(lam[0])), 1.0)
    re_thr = 1e-11 * scale0
    im_thr = 1e-9 * scale0

    def fresh(value):
        """value of a fresh eigenvalue-only solve, as a function of the load."""
        return lambda P: value(_pencil_eigs_at(model, P))

    # Hopf point: the maximum real part turns non-negative
    def max_real(w):
        return np.max(w.real) - re_thr

    events["P_H"] = _first_root(grid, [max_real(w) for w in spectra], fresh(max_real), 1e-8)

    # coalescence: D = (lam_a - lam_b)^2 of the closest pair is analytic in
    # the load and real through an EP, where it changes sign; elsewhere P_c is
    # the minimum of the smallest gap
    def gap(w):
        return _closest_pair(w)[0]

    def split(w):
        a, b = _closest_pair(w)[2]
        return ((a - b) ** 2).real

    gaps = np.array([gap(w) for w in spectra])
    events["P_c"] = None
    events["ep"] = False
    i_min = int(np.argmin(gaps))
    if np.isfinite(gaps[i_min]):
        lo, hi = max(i_min - 1, 0), min(i_min + 1, len(grid) - 1)
        P_c, method = None, "brent"
        for k in range(lo, hi):   # the grid step beside the minimum where Re D turns
            if np.isfinite(gaps[k:k + 2]).all() and split(spectra[k]) * split(spectra[k + 1]) < 0:
                with contextlib.suppress(SpectralError):   # fresh values lost the turn
                    P_c = _root_in(fresh(split), grid[k], grid[k + 1], _EXACT)
                break
        if P_c is not None:
            gap_min, scale, pair = _closest_pair(_pencil_eigs_at(model, P_c))
        if P_c is None or not gap_min < 1e-6 * scale:   # no EP there: D is complex
            P_c, method = _golden_min(fresh(gap), grid[lo], grid[hi],
                                      xtol=1e-12 * max(abs(grid[hi]), 1.0)), "golden"
            gap_min, scale, pair = _closest_pair(_pencil_eigs_at(model, P_c))
        events.update(P_c=P_c, P_c_method=method, gap_at_Pc=gap_min, scale_at_Pc=scale,
                      pair_at_Pc=pair, ep=bool(gap_min < 1e-6 * scale))

    # divergence: past P_H, the imaginary part of the unstable mode vanishes
    events["P_d"] = None
    if events["P_H"] is not None:
        def real_unstable(w):
            return im_thr - abs(w[np.argmax(w.real)].imag)

        s = np.searchsorted(grid, events["P_H"])
        events["P_d"] = _first_root(grid[s:], [real_unstable(w) for w in spectra[s:]],
                                    fresh(real_unstable), 1e-8)

    return EigenTrajectory(grid, lam, events, warnings)


def detect_exceptional_point(traj, model):
    """Exceptional point of a sweep; returns (P_c, pair) or None.

    Reads the sweep's refined coalescence, and solves nothing: its search
    ran over the whole spectrum at every grid load, and events["ep"] flags a
    relative gap below 1e-6 at P_c (for real asymmetric Jacobians,
    coalescence implies a Jordan block).  The pair holds the two closest
    upper-half-plane eigenvalues of the sweep's eigenvalue-only solve at P_c.
    model is not read; the benchmark's workloads still pass it.
    """
    if not traj.events["ep"]:
        return None
    return traj.events["P_c"], traj.events["pair_at_Pc"]


# -- Jordan enforcement -------------------------------------------------------

# the imposed off-diagonal coupling Lam_ij of a Jordan pair
_TAU = 1.0


def _null_pair_construction(B, At, lam_bar, Y_i):
    """Right/left Jordan chains of (At - lam_bar B) via SVD null spaces.

    Used when the raw eigenvalue gap is below working precision so the
    closed-form combination of the raw eigenvectors would be pure round-off.
    Returns (Ybar_i, Ybar_j, Xdir_i, Xdir_j) with the chain relations
      (At - lam_bar B) Ybar_j = _TAU B Ybar_i,   (At - lam_bar B) Ybar_i = 0
    and the matching left relations, in the gauge Ybar_j orthogonal to
    Ybar_i and Ybar_i aligned with the raw eigenvector.
    """
    P = At - lam_bar * B
    U, s, Vh = sla.svd(P)
    v = Vh[-1].conj()
    # align the refined eigenvector with the raw one (contract: Ybar_i = Y_i)
    c = np.vdot(v, Y_i)
    if abs(c) == 0:
        raise JordanEnforcementError("null vector orthogonal to the raw eigenvector")
    v = v * (c / abs(c)) * np.linalg.norm(Y_i)
    # minimal-norm chain solve with the defective direction removed
    s_inv = np.zeros_like(s)
    s_inv[:-1] = 1.0 / s[:-1]
    pinv = (Vh.conj().T * s_inv) @ U.conj().T
    w = pinv @ (_TAU * (B @ v))
    w = w - (np.vdot(v, w) / np.vdot(v, v)) * v
    # left null and left chain
    ul = U[:, -1]
    pinvH = pinv.conj().T
    xi = pinvH @ (np.conj(_TAU) * (B.conj().T @ ul))
    xi = xi - (np.vdot(ul, xi) / np.vdot(ul, ul)) * ul
    return v, w, xi, ul


def enforce_jordan(spectrum, pair):
    """Impose a 2x2 Jordan coupling _TAU on a near-degenerate eigenvalue pair.

    Builds the modified triplet (Lam, Ybar, Xbar): Ybar_i = Y_i,
    Ybar_j = _TAU/(lam_i - lam_j) (Y_i - Y_j/gamma_ij) with
    gamma_ij = (Y_i* Y_j)/(Y_i* Y_i), left vectors from
    nu = ((X* B Y mu)*)^-1, giving Xbar* B Ybar = I and Xbar* At Ybar = Lam
    with Lam_ij = _TAU, for the (B, At) in spectrum.ops.  When the raw gap is
    below 1e-7 (relative), the same objects are produced from SVD
    null/chain solves of (At - mean(lam) B), which is the numerically
    stable formulation of the identical construction; the pair then shares
    the mean eigenvalue.  A spectrum with a conj_map gets the conjugate
    pair mirrored.

    Refuses diabolic-like pairs whose eigenvectors are not nearly aligned
    (normalized overlap below 0.5).
    """
    i, j = pair
    if not i < j:
        raise ValueError("pair must be ordered i < j")
    spec = spectrum.copy()
    lam_i, lam_j = spec.lam[i], spec.lam[j]
    Y_i, Y_j = spec.Y[:, i], spec.Y[:, j]
    align = abs(np.vdot(Y_i, Y_j)) / (np.linalg.norm(Y_i) * np.linalg.norm(Y_j))
    if align < 0.5:
        raise JordanEnforcementError(
            f"pair ({i}, {j}) has independent eigenvectors (alignment {align:.3f}); "
            "diabolic-like degeneracy, refusing to impose a Jordan block")

    gap = abs(lam_i - lam_j)
    lam_bar = 0.5 * (lam_i + lam_j)
    B, At = spec.ops["B"], spec.ops["At"]

    if gap > 1e-7 * max(abs(lam_bar), 1.0):
        gamma = np.vdot(Y_i, Y_j) / np.vdot(Y_i, Y_i)
        mu = np.eye(spec.d, dtype=complex)
        mu[i, j] = _TAU / (lam_i - lam_j)
        mu[j, j] = -_TAU / (gamma * (lam_i - lam_j))
        Ybar = spec.Y @ mu
        G = spec.X.conj().T @ (B @ Ybar)
        nu = np.linalg.inv(G.conj().T)
        Xbar = spec.X @ nu
        spec.Y = Ybar
        spec.X = Xbar
        spec.Lam[i, j] = _TAU
    else:
        v, w, xi, ul = _null_pair_construction(B, At, lam_bar, Y_i)
        Ypair = np.column_stack([v, w])
        Xdir = np.column_stack([xi, ul])
        G = Xdir.conj().T @ (B @ Ypair)
        N = np.linalg.inv(G).conj().T
        Xpair = Xdir @ N
        spec.Y[:, [i, j]] = Ypair
        spec.X[:, [i, j]] = Xpair
        spec.lam[i] = spec.lam[j] = lam_bar
        spec.Lam[i, i] = spec.Lam[j, j] = lam_bar
        spec.Lam[i, j] = _TAU

    spec.jordan_pairs = list(spec.jordan_pairs) + [(i, j, _TAU)]

    if spec.conj_map is not None:
        ic, jc = int(spec.conj_map[i]), int(spec.conj_map[j])
        if {ic, jc} != {i, j}:
            ic, jc = min(ic, jc), max(ic, jc)
            spec.Y[:, ic] = np.conj(spec.Y[:, i])
            spec.Y[:, jc] = np.conj(spec.Y[:, j])
            spec.X[:, ic] = np.conj(spec.X[:, i])
            spec.X[:, jc] = np.conj(spec.X[:, j])
            spec.lam[ic] = np.conj(spec.lam[i])
            spec.lam[jc] = np.conj(spec.lam[j])
            spec.Lam[ic, ic] = np.conj(spec.Lam[i, i])
            spec.Lam[jc, jc] = np.conj(spec.Lam[j, j])
            spec.Lam[ic, jc] = np.conj(_TAU)
            spec.jordan_pairs.append((ic, jc, np.conj(_TAU)))
    return spec
