"""Linear analysis: master eigensolves, parameter sweeps, exceptional points
and Jordan-block enforcement.

Master spectra are bi-normalized (X* B Y = I) triplets over the augmented
first-order form of the model; for second-order mechanical systems the
eigenvectors are stored stacked as [displacement; velocity] and the
velocity part is tied analytically to the displacement part.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla

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
        At, B = _first_order_pencil(*(np.asarray(a) for a in (
            system.mass(), system.damping(), system.tangent_stiffness())))
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
    Kt = np.asarray(system.tangent_stiffness())
    out = np.zeros(2 * Kt.shape[0], dtype=complex)
    out[:Kt.shape[0]] = sla.solve(Kt, system.rt())
    return out


# -- parameter sweeps ---------------------------------------------------------

@dataclass
class EigenTrajectory:
    P: np.ndarray
    lam: np.ndarray           # (npoints, ntrack), tracked mode identity
    events: dict
    warnings: list = field(default_factory=list)   # weak matches, {P, mode, mac}


def _pencil_eigs_at(model, P, right=False):
    """The whole finite spectrum of the linear pencil at load P, and its
    right vectors when asked for."""
    M, C, K = (np.asarray(a) for a in model.linear_pencil(P))
    return _pencil_eig(*_first_order_pencil(M, C, K), right=right)


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


def _bisect(f, a, b, xtol, max_iter=200):
    fa = f(a)
    fb = f(b)
    if fa * fb > 0:
        raise SpectralError(f"no sign change in [{a}, {b}]")
    for _ in range(max_iter):
        m = 0.5 * (a + b)
        fm = f(m)
        if fa * fm <= 0:
            b, fb = m, fm
        else:
            a, fa = m, fm
        if abs(b - a) <= xtol:
            break
    return 0.5 * (a + b)


def _first_root(grid, vals, f, rtol):
    """Root of f by bisection on the first grid interval where vals (f on
    the grid) turn from negative to non-negative; None when they never do."""
    vals = np.asarray(vals)
    turns = np.flatnonzero((vals[:-1] < 0) & (vals[1:] >= 0))
    if not turns.size:
        return None
    a, b = grid[turns[0]], grid[turns[0] + 1]
    return _bisect(f, a, b, xtol=rtol * max(abs(b), 1.0))


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


def eigen_sweep(model, param_range, n_points, n_track=None, mac_threshold=0.8):
    """Track the spectrum over a load range and locate P_c, P_H, P_d.

    Mode identity is maintained by greedy modal-assurance matching between
    neighbouring grid points, from one MAC matrix per step; a match below
    mac_threshold adds a warning record {P, mode, mac}.  The event scans
    read the grid spectra the tracking solved; the events are then refined
    with fresh eigenvalue-only solves (gap minimization for the
    coalescence, bisection for the Hopf and divergence points), so they do
    not depend on the mode matching.  Every solve is dense and covers the
    whole spectrum, which n_track (default: all of it) only trims for the
    tracked output; only the grid solves compute (right) eigenvectors.
    events["ep"] flags a coalescence gap below 1e-6 of the spectral scale.
    """
    P0, P1 = param_range
    grid = np.linspace(P0, P1, n_points)
    warnings = []

    w, vr = _pencil_eigs_at(model, grid[0], right=True)
    order = np.lexsort((-w.imag, np.abs(w.imag)))
    if n_track is None:
        n_track = len(w)
    order = order[:n_track]
    lam_rows = [w[order]]
    vec_prev = vr[:, order]
    spectra = [w]

    for P in grid[1:]:
        w, vr = _pencil_eigs_at(model, P, right=True)
        # modal assurance |a* b|^2 / (|a|^2 |b|^2) of each (tracked, candidate) pair
        mac = np.abs(vec_prev.conj().T @ vr) ** 2 / np.outer(
            np.sum(np.abs(vec_prev) ** 2, axis=0), np.sum(np.abs(vr) ** 2, axis=0))
        cols = []
        for m in range(n_track):
            best = int(np.argmax(mac[m]))
            if mac[m, best] < mac_threshold:
                warnings.append({"P": float(P), "mode": m, "mac": float(mac[m, best])})
            mac[:, best] = -1.0
            cols.append(best)
        lam_rows.append(w[cols])
        vec_prev = vr[:, cols]
        spectra.append(w)

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

    # coalescence: minimize the smallest pairwise eigenvalue gap
    def gap(w):
        return _closest_pair(w)[0]

    gaps = np.array([gap(w) for w in spectra])
    events["P_c"] = None
    events["ep"] = False
    i_min = int(np.argmin(gaps))
    if np.isfinite(gaps[i_min]):
        a = grid[max(i_min - 1, 0)]
        b = grid[min(i_min + 1, len(grid) - 1)]
        P_c = _golden_min(fresh(gap), a, b, xtol=1e-12 * max(abs(b), 1.0))
        gap_min, scale, _ = _closest_pair(_pencil_eigs_at(model, P_c))
        events["P_c"] = P_c
        events["gap_at_Pc"] = gap_min
        events["scale_at_Pc"] = scale
        events["ep"] = bool(gap_min < 1e-6 * scale)

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

    Reads the sweep's refined coalescence: its minimum-gap search ran over
    the whole spectrum at every grid load, for any n_track, and
    events["ep"] flags a relative gap below 1e-6 at P_c (for real
    asymmetric Jacobians, coalescence implies a Jordan block).  The pair
    holds the two closest upper-half-plane eigenvalues of one
    eigenvalue-only solve at P_c.
    """
    if not traj.events["ep"]:
        return None
    P_c = traj.events["P_c"]
    return P_c, _closest_pair(_pencil_eigs_at(model, P_c))[2]


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
