"""Invariant-manifold parametrisation engines.

Solves the homological equations order by order in normal-form style for
two system shapes: the generic first-order quadratic DAE (with the control
parameter as an appended trivial state) and second-order mechanical
systems with parameter-independent quadratic/cubic forces, where the
velocity mappings are recovered a posteriori and only displacement-sized
linear systems are factored.

Both engines support imposed Jordan couplings in the linear reduced
dynamics: the off-diagonal entries of Lam feed an extra within-order term
whose dependency always points to an already-solved monomial thanks to the
descending-lexicographic monomial ordering.

The nonlinear right-hand side of each order is assembled from product
index tables (`MonomialTable.product_ids`): per order split, each form is
applied to the whole blocks of lower-order mapping coefficients at once
and scattered by target monomial, and the gradient cross terms become one
sparse weight matrix per pair of orders of f and W.  The parameter
eigenvalue is exactly zero, so every monomial alpha + k e_mu shares sigma
and the resonant set of alpha; the engines factor each of those systems
once, keyed by the z-part of the exponent.  Each build records per-order
statistics in `rom.meta["stats"]`: monomial and resonant counts,
assembly, cross-term and solve times, new factorizations and the largest
relative homological residual.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from itertools import compress

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .models.dae import FirstOrderDAE
from .polytensor import MonomialTable, polynomial_eval

STYLE_NORMAL_FORM = "normal-form"


class ResonanceError(RuntimeError):
    pass


@dataclass
class ResonanceSet:
    """Per-monomial sigma = alpha . diag(Lam) and the resonant master sets."""

    sigma: np.ndarray
    sets: list
    lam_classified: np.ndarray

    def resonant(self, mid):
        return self.sets[mid]


def classify_resonances(table, lam_vec, r_tol=0.05, enforce_one_to_one=False):
    """Resonance bookkeeping over a monomial table.

    lam_vec has one entry per variable, zero in the parameter slot; the
    comparison |Im sigma - Im lam_r| <= r_tol * max(1, |Im lam_r|) ignores
    real parts so that damping does not unflag physically resonant
    monomials.  With enforce_one_to_one the master imaginary parts are
    replaced, for classification only, by their common average (the exact
    1:1 relationship of the two-mode strategy); appending powers of the
    parameter never changes the classification since its eigenvalue is
    exactly zero.
    """
    lam_vec = np.asarray(lam_vec, dtype=complex)
    d = len(lam_vec) - 1
    lam_cls = lam_vec.copy()
    if enforce_one_to_one:
        if d != 4:
            raise ValueError("the 1:1 enforcement applies to two-mode (d = 4) runs")
        om = np.mean(np.abs(lam_vec[:4].imag))
        lam_cls[:4] = lam_vec[:4].real + 1j * om * np.sign(lam_vec[:4].imag)
    sigma = table.exponents @ lam_vec
    sigma_cls = table.exponents @ lam_cls
    lam_r = lam_cls[:d].imag
    hit = np.abs(sigma_cls.imag[:, None] - lam_r) <= r_tol * np.maximum(1.0, np.abs(lam_r))
    sets = [list(compress(range(d), row)) for row in hit.tolist()]
    return ResonanceSet(sigma, sets, lam_cls)


@dataclass
class ParametrisationROM:
    """Polynomial mapping W and reduced dynamics f over (z, mu).

    W rows hold the mapping coefficient of each table monomial (full state
    for first-order systems, displacement stacked with velocity for
    second-order ones); f rows hold the reduced-dynamics coefficients with
    the parameter slot last, identically zero (the parameter dynamics stays
    trivial at every order).
    """

    table: MonomialTable
    W: np.ndarray
    f: np.ndarray
    lam: np.ndarray
    Lam: np.ndarray
    conj_map: np.ndarray | None = None
    n_disp: int | None = None
    style: str = STYLE_NORMAL_FORM
    meta: dict = field(default_factory=dict)

    @property
    def d(self):
        return len(self.lam)

    @property
    def order(self):
        return self.table.max_order

    @property
    def dim(self):
        return self.W.shape[1]

    def evaluate_mapping(self, ztilde):
        return polynomial_eval(self.table, self.W, ztilde)

    def reduced_rhs(self, ztilde):
        return polynomial_eval(self.table, self.f, ztilde)

    def linear_block(self, mu):
        """mu-dressed linear reduced dynamics J(mu) at the fixed point z = 0."""
        d = self.d
        w = self.table.code_weights
        ids = self.table.ids_of_codes(w[:d, None] + np.arange(self.order) * w[-1])
        J = np.zeros((d, d), dtype=complex)
        for m in range(self.order):
            J += self.f[ids[:, m], :d].T * mu**m
        return J

    def mapping_gradient(self, ztilde):
        """dW/dz at ztilde, shape (dim, nvars)."""
        nv = self.table.nvars
        grad = np.zeros((self.dim, nv), dtype=complex)
        exps = self.table.exponents
        for s in range(nv):
            mask = exps[:, s] > 0
            if not mask.any():
                continue
            lowered = exps[mask].copy()
            lowered[:, s] -= 1
            vals = np.prod(ztilde[None, :] ** lowered, axis=1)
            grad[:, s] = (self.W[mask].T * (exps[mask, s] * vals)) @ np.ones(mask.sum())
        return grad

    def to_dict(self):
        def c2(arr):
            return [[float(v.real), float(v.imag)] for v in arr]

        return {
            "format": "flutterrom-rom",
            "version": 1,
            "style": self.style,
            "nvars": self.table.nvars,
            "order": self.table.max_order,
            "n_disp": self.n_disp,
            "conj_map": None if self.conj_map is None else [int(v) for v in self.conj_map],
            "eigenvalues": c2(self.lam),
            "Lam": [c2(row) for row in self.Lam],
            "monomials": [[int(e) for e in row] for row in self.table.exponents],
            "W": [c2(row) for row in self.W],
            "f": [c2(row) for row in self.f],
            "meta": self.meta,
        }

    @classmethod
    def from_dict(cls, data):
        if data.get("format") != "flutterrom-rom":
            raise ValueError("not a ROM file")
        if data.get("version") != 1:
            raise ValueError(f"unsupported ROM file version {data.get('version')!r}")

        def fromc(rows):
            return np.array([complex(re, im) for re, im in rows])

        table = MonomialTable(data["nvars"], data["order"])
        stored = [[int(e) for e in row] for row in data["monomials"]]
        if stored != [[int(e) for e in row] for row in table.exponents]:
            raise ValueError("monomial list does not match the canonical ordering")
        W = np.array([fromc(r) for r in data["W"]])
        f = np.array([fromc(r) for r in data["f"]])
        lam = fromc(data["eigenvalues"])
        Lam = np.array([fromc(r) for r in data["Lam"]])
        conj_map = data.get("conj_map")
        return cls(table, W, f, lam, Lam,
                   None if conj_map is None else np.array(conj_map, dtype=np.int64),
                   data.get("n_disp"), data.get("style", STYLE_NORMAL_FORM),
                   data.get("meta", {}))


# -- shared engine pieces -----------------------------------------------------

def _order1_ids(table):
    return list(table.ids_of_order(1))


def _gradient_cross_lower(table, W, f, p):
    """N3: sum over lower orders of (dW/dz_s) f_s collecting at order p.

    Only reduced-dynamics coefficients of orders 2..p-1 enter (the linear
    part is the sigma term plus the Jordan correction handled separately).
    Row kf of f (order qf) and row kW of W (order qW = p + 1 - qf) meet at
    alpha(kW) + alpha(kf) - e_s with weight alpha_s(kW) f[kf, s]; per qf
    those weights, summed over s, form one sparse matrix applied to the
    order-qW block of W.  Returns one row per order-p monomial.
    """
    n_p = table.count_of_order(p)
    out = np.zeros((n_p, W.shape[1]), dtype=complex)
    start = table.ids_of_order(p)[0]
    for qf in range(2, p):
        kf, kW = table.ids_of_order(qf), table.ids_of_order(p + 1 - qf)
        fq, aW = f[kf], table.exponents[kW]
        targets, sources, weights = [], [], []
        for s in range(table.nvars):
            rows, cols = np.flatnonzero(fq[:, s]), np.flatnonzero(aW[:, s])
            codes = np.add.outer(table.codes[kW][cols] - table.code_weights[s],
                                 table.codes[kf][rows])
            targets.append(table.ids_of_codes(codes).ravel() - start)
            sources.append(np.repeat(cols, len(rows)))
            weights.append(np.multiply.outer(aW[cols, s], fq[rows, s]).ravel())
        G = sp.csr_matrix((np.concatenate(weights),
                           (np.concatenate(targets), np.concatenate(sources))),
                          shape=(n_p, len(kW)))
        out += G @ W[kW]
    return out


def _jordan_within_order(table, p, jordan_pairs):
    """Dependencies of the extra gradient term from imposed off-diagonal
    linear couplings, over the order-p monomials.

    For each coupling f_s^(1,j) = tau (s < j), the monomial alpha(mid)
    receives alpha_s(kW) * tau * W(kW) with alpha(kW) = alpha(mid)+e_s-e_j
    when alpha_j(mid) > 0; the table ordering guarantees kW was already
    solved.  Returns one (kW or -1, weight) pair of arrays per coupling,
    indexed by position within the order.
    """
    ids = np.array(table.ids_of_order(p))
    exps = table.exponents[ids]
    out = []
    for (s, j, tau) in jordan_pairs:
        has = exps[:, j] > 0
        dep = np.full(len(ids), -1)
        dep[has] = table.ids_of_codes(table.codes[ids[has]] + table.code_weights[s]
                                      - table.code_weights[j])
        if np.any(dep[has] >= ids[has]):
            raise AssertionError("monomial ordering violated the Jordan dependency")
        out.append((dep, (exps[:, s] + 1) * tau))
    return out


def _jordan_term(jdeps, W, loc):
    out = np.zeros(W.shape[1], dtype=complex)
    for dep, weight in jdeps:
        if dep[loc] >= 0:
            out += weight[loc] * W[dep[loc]]
    return out


def _dense_solver(A):
    """LU-factor A once; returns a function solving A x = b with the factors.

    Calls LAPACK getrs directly: the per-monomial solves are tiny, and the
    checked scipy wrappers cost ten times the solve itself.  A singular A
    yields non-finite solutions, which _check_solve rejects.
    """
    lu, piv = sla.lu_factor(A)
    getrs, = sla.get_lapack_funcs(("getrs",), (lu,))
    return lambda b: getrs(lu, piv, b)[0]


def _check_solve(residual_norm, rhs_norm, sigma, lam, table, mid):
    """Relative homological residual; raises when it flags a missed resonance."""
    rel = residual_norm / max(rhs_norm, 1e-300)
    if not rel <= 1e-6:  # also catches NaN from a singular system
        near = lam[np.argmin(np.abs(lam - sigma))]
        alpha = tuple(int(e) for e in table.exponents[mid])
        raise ResonanceError(
            f"homological solve failed for monomial {alpha}: sigma = {sigma:.6g} "
            f"is unflagged-resonant with lambda = {near:.6g}; "
            "revisit the resonance tolerance")
    return rel


def _z_keys(table):
    """Exponent codes with the parameter power dropped: monomials sharing one
    share sigma and the resonant set, hence the homological matrix."""
    return table.codes - table.exponents[:, -1] * table.code_weights[-1]


def _order_record(p, ids, res, marks, factorizations, max_rel):
    """Per-order build statistics; marks are the clock readings before
    assembly, cross terms, solves and after the solves."""
    t0, t1, t2, t3 = marks
    return {"order": p, "monomials": len(ids),
            "resonant": sum(1 for mid in ids if res.sets[mid]),
            "assembly_s": t1 - t0, "cross_s": t2 - t1, "solve_s": t3 - t2,
            "factorizations": factorizations, "max_rel_residual": float(max_rel)}


# -- first-order engine -------------------------------------------------------

def _quadratic_rhs(table, dae, W, p):
    """Order-p coefficients of Q1(W, W) + Q2m W mu + q3 mu^2, one row per
    order-p monomial."""
    n_p = table.count_of_order(p)
    rhs = np.zeros((n_p, dae.dim), dtype=complex)
    for p1 in range(1, p):
        rhs += dae.Q1.apply_outer(W[table.ids_of_order(p1)], W[table.ids_of_order(p - p1)],
                                  table.product_ids(p1, p - p1), n_p)
    # the last order-1 monomial is mu: its column of the product table maps
    # each order-(p-1) alpha to alpha + e_mu
    rhs[table.product_ids(p - 1, 1)[:, -1]] += W[table.ids_of_order(p - 1)] @ dae.Q2m.T
    if p == 2:
        rhs[-1] += dae.q3  # mu^2 is the last order-2 monomial
    return rhs


def build_rom_firstorder(dae: FirstOrderDAE, spectrum, order, r_tol=0.05,
                         enforce_one_to_one=None, style=STYLE_NORMAL_FORM,
                         meta=None):
    """Parametrisation of the augmented quadratic DAE around its fixed point."""
    if style != STYLE_NORMAL_FORM:
        raise ValueError("only the complex normal-form style is implemented")
    d = spectrum.d
    nv = d + 1
    if enforce_one_to_one is None:
        enforce_one_to_one = d == 4
    table = MonomialTable(nv, order)
    D = dae.dim
    B = dae.B
    At = np.asarray(spectrum.ops["At"])
    jp = spectrum.jordan_pairs

    lam_vec = np.zeros(nv, dtype=complex)
    lam_vec[:d] = np.diag(spectrum.Lam)
    res = classify_resonances(table, lam_vec, r_tol, enforce_one_to_one)

    W = np.zeros((len(table), D), dtype=complex)
    f = np.zeros((len(table), nv), dtype=complex)
    o1 = _order1_ids(table)
    for s in range(d):
        W[o1[s]] = spectrum.Y[:, s]
        f[o1[s], :d] = spectrum.Lam[:, s]
    W[o1[d]] = spectrum.Ypar
    # normal-form choice for the parameter column: f^(1, d+1) = 0

    zkeys = _z_keys(table)
    factors = {}  # z-part code -> (homological matrix, its factored solve)
    stats = []
    for p in range(2, order + 1):
        ids = table.ids_of_order(p)
        t0 = time.perf_counter()
        rhs = _quadratic_rhs(table, dae, W, p)
        t1 = time.perf_counter()
        rhs -= _gradient_cross_lower(table, W, f, p) @ B.T
        jdeps = _jordan_within_order(table, p, jp)
        t2 = time.perf_counter()
        n_fact, max_rel = len(factors), 0.0
        for loc, mid in enumerate(ids):
            sigma = res.sigma[mid]
            R = res.sets[mid]
            nR = len(R)
            fact = factors.get(zkeys[mid])
            if fact is None:
                Mtx = sigma * B - At
                if nR:
                    Mtx = np.block([[Mtx, B @ spectrum.Y[:, R]],
                                    [spectrum.X[:, R].conj().T @ B, np.zeros((nR, nR))]])
                fact = factors[zkeys[mid]] = (Mtx, _dense_solver(Mtx))
            Mtx, solve = fact
            b = np.zeros(D + nR, dtype=complex)
            b[:D] = rhs[loc]
            if jp:
                b[:D] -= B @ _jordan_term(jdeps, W, loc)
            sol = solve(b)
            rel = _check_solve(np.linalg.norm(Mtx @ sol - b), np.linalg.norm(b), sigma,
                               lam_vec[:d], table, mid)
            max_rel = max(max_rel, rel)
            W[mid] = sol[:D]
            f[mid, R] = sol[D:]
        stats.append(_order_record(p, ids, res, (t0, t1, t2, time.perf_counter()),
                                   len(factors) - n_fact, max_rel))

    rom_meta = {"engine": "first-order", "mu0": dae.mu0, "r_tol": r_tol,
                "one_to_one": bool(enforce_one_to_one),
                "jordan_pairs": [(int(i), int(j), complex(t).real) for i, j, t in jp],
                "labels": list(dae.labels),
                "displacement_indices": [int(i) for i in dae.displacement_indices],
                "stats": stats}
    rom_meta.update(meta or {})
    return ParametrisationROM(table, W, f, lam_vec[:d].copy(), spectrum.Lam.copy(),
                              spectrum.conj_map, None, style, rom_meta)


# -- second-order engine ------------------------------------------------------

class _BorderedSolver:
    """Bordered solves of [[S, cols], [rows, Dblk]], S = sigma^2 M + sigma C + Kt,
    with one factorization per key."""

    def __init__(self, M, C, Kt, use_sparse):
        self.M, self.C, self.Kt = M, C, Kt
        self.use_sparse = use_sparse
        self._cache = {}

    @property
    def factorizations(self):
        return len(self._cache)

    def solve(self, key, sigma, cols, rows, Dblk, rhs):
        fact = self._cache.get(key)
        if fact is None:
            S = sigma**2 * self.M + sigma * self.C + self.Kt
            nR = cols.shape[1]
            if self.use_sparse:
                S = S.tocsc().astype(complex)
                if nR:
                    S = sp.bmat([[S, sp.csc_matrix(cols)],
                                 [sp.csc_matrix(rows), sp.csc_matrix(Dblk)]], format="csc")
                fact = spla.splu(S).solve
            else:
                if nR:
                    S = np.block([[S, cols], [rows, Dblk]])
                fact = _dense_solver(S)
            self._cache[key] = fact
        return fact(rhs)


def build_rom_secondorder(model, spectrum, order, r_tol=0.05,
                          enforce_one_to_one=None, style=STYLE_NORMAL_FORM,
                          meta=None):
    """Halved-size parametrisation for second-order mechanical systems.

    Requires parameter-independent quadratic/cubic forces (models whose
    cubic scales with the load go through the quadratic recast and the
    first-order engine) and no parameter-only quadratic term; per monomial
    a displacement-sized bordered system is solved and the velocity
    mapping is recovered algebraically afterwards.
    """
    if style != STYLE_NORMAL_FORM:
        raise ValueError("only the complex normal-form style is implemented")
    if getattr(model, "cubic_scales_with_load", False):
        raise ValueError("load-scaled cubic forces require the quadratic recast "
                         "and the first-order engine")
    if getattr(model, "q3", None) is not None and np.any(np.asarray(model.q3) != 0):
        raise ValueError("parameter-quadratic terms are outside the second-order engine")

    d = spectrum.d
    nv = d + 1
    if enforce_one_to_one is None:
        enforce_one_to_one = d == 4
    n = model.ndof
    M, C, Kt = model.mass(), model.damping(), model.tangent_stiffness()
    Ru = model.ru()
    use_sparse = sp.issparse(M)
    if use_sparse:
        M, C, Kt = sp.csc_matrix(M), sp.csc_matrix(C), sp.csc_matrix(Kt)
    else:
        M, C, Kt = np.asarray(M), np.asarray(C), np.asarray(Kt)

    Yu = spectrum.Yu()
    Xv = spectrum.Xv()
    Lam = spectrum.Lam
    jp = spectrum.jordan_pairs
    table = MonomialTable(nv, order)
    lam_vec = np.zeros(nv, dtype=complex)
    lam_vec[:d] = np.diag(Lam)
    res = classify_resonances(table, lam_vec, r_tol, enforce_one_to_one)

    W = np.zeros((len(table), 2 * n), dtype=complex)
    f = np.zeros((len(table), nv), dtype=complex)
    o1 = _order1_ids(table)
    for s in range(d):
        W[o1[s]] = spectrum.Y[:, s]
        f[o1[s], :d] = Lam[:, s]
    W[o1[d]] = spectrum.Ypar

    # velocity part of the linear mapping is Yu @ Lam (reduces to lam*Yu
    # without Jordan couplings)
    YuLam = Yu @ Lam
    MYu = M @ Yu
    CYu = C @ Yu
    MYuLam = M @ YuLam
    XvH = Xv.conj().T
    XvHM = XvH @ M
    XvHC = XvH @ C
    # border row U-coefficients: rows r of (Xv_r^H C + sum_r' Lam[r, r'] Xv_r'^H M)
    row_base = XvHC + Lam @ XvHM
    solver = _BorderedSolver(M, C, Kt, use_sparse)
    zkeys = _z_keys(table)
    stats = []

    for p in range(2, order + 1):
        ids = table.ids_of_order(p)
        t0 = time.perf_counter()
        fnl = model.nl_rhs_series(table, W[:, :n], p)
        fnl[table.product_ids(p - 1, 1)[:, -1]] += (Ru @ W[table.ids_of_order(p - 1), :n].T).T
        t1 = time.perf_counter()
        g = _gradient_cross_lower(table, W, f, p)
        jdeps = _jordan_within_order(table, p, jp)
        t2 = time.perf_counter()
        n_fact, max_rel = solver.factorizations, 0.0
        for loc, mid in enumerate(ids):
            gm = g[loc] + _jordan_term(jdeps, W, loc) if jp else g[loc]
            gU, gV = gm[:n], gm[n:]
            sigma = res.sigma[mid]
            R = res.sets[mid]
            nR = len(R)

            Xi = fnl[loc] - M @ gV - sigma * (M @ gU) - C @ gU
            if nR:
                cols = sigma * MYu[:, R] + CYu[:, R] + MYuLam[:, R]
                rows = row_base[R] + sigma * XvHM[R]
                Dblk = XvHM[R] @ Yu[:, R]
                rhs_b = -(XvHM[R] @ gU)
                rhs = np.concatenate([Xi, rhs_b])
                sol = solver.solve(zkeys[mid], sigma, cols, rows, Dblk, rhs)
                U = sol[:n]
                fR = sol[n:]
                # residual check on the displacement block
                Scheck = (sigma**2 * (M @ U) + sigma * (C @ U) + Kt @ U + cols @ fR)
                resid = np.linalg.norm(Scheck - Xi)
                rel = _check_solve(resid, np.linalg.norm(Xi) + np.linalg.norm(fR),
                                   sigma, lam_vec[:d], table, mid)
                f[mid, R] = fR
                V = sigma * U + Yu[:, R] @ fR + gU
            else:
                U = solver.solve(zkeys[mid], sigma, np.zeros((n, 0)), np.zeros((0, n)),
                                 np.zeros((0, 0)), Xi)
                resid = np.linalg.norm(sigma**2 * (M @ U) + sigma * (C @ U) + Kt @ U - Xi)
                rel = _check_solve(resid, np.linalg.norm(Xi), sigma, lam_vec[:d], table, mid)
                V = sigma * U + gU
            max_rel = max(max_rel, rel)
            W[mid, :n] = U
            W[mid, n:] = V
        stats.append(_order_record(p, ids, res, (t0, t1, t2, time.perf_counter()),
                                   solver.factorizations - n_fact, max_rel))

    rom_meta = {"engine": "second-order", "mu0": getattr(model, "p0", 0.0),
                "r_tol": r_tol, "one_to_one": bool(enforce_one_to_one),
                "jordan_pairs": [(int(i), int(j), complex(t).real) for i, j, t in jp],
                "n_disp": n, "stats": stats}
    rom_meta.update(meta or {})
    return ParametrisationROM(table, W, f, lam_vec[:d].copy(), Lam.copy(),
                              spectrum.conj_map, n, style, rom_meta)


# -- invariance diagnostics ---------------------------------------------------

def invariance_residual(rom, system, ztilde):
    """Norm of the invariance-equation defect at the sample point.

    Substitutes the truncated mapping and reduced dynamics into the full
    model; the result decays like |z|^(order+1) inside the validity domain
    and vanishes identically for linear systems at order 1.
    """
    ztilde = np.asarray(ztilde, dtype=complex)
    Wz = rom.evaluate_mapping(ztilde)
    fz = rom.reduced_rhs(ztilde)
    grad = rom.mapping_gradient(ztilde)
    mu = ztilde[-1]

    if isinstance(system, FirstOrderDAE):
        B = system.B
        At = system.tangent_matrix()
        A0 = system.parameter_column()
        lhs = B @ (grad @ fz)
        rhs = (At @ Wz + A0 * mu + system.Q1.apply(Wz, Wz)
               + (system.Q2m @ Wz) * mu + system.q3 * mu**2)
        return float(np.linalg.norm(lhs - rhs))

    n = system.ndof
    M = system.mass()
    C = system.damping()
    Kt = system.tangent_stiffness()
    U, V = Wz[:n], Wz[n:]
    dU, dV = (grad @ fz)[:n], (grad @ fz)[n:]
    r1 = M @ dU - M @ V
    r2 = (M @ dV + C @ V + Kt @ U - mu * system.rt() - mu * (system.ru() @ U)
          + system.nonlinear_force(U))
    return float(np.linalg.norm(np.concatenate([r1, r2])))


def conjugate_sample(rom, radius, rng):
    """Random conjugate-consistent sample point at the given radius."""
    nv = rom.table.nvars
    z = np.zeros(nv, dtype=complex)
    if rom.conj_map is None:
        raise ValueError("ROM has no conjugate structure")
    reps = [s for s in range(rom.d) if rom.conj_map[s] > s]
    raw = rng.standard_normal(2 * len(reps) + 1)
    raw /= np.linalg.norm(raw)
    for m, s in enumerate(reps):
        z[s] = radius * (raw[2 * m] + 1j * raw[2 * m + 1])
        z[rom.conj_map[s]] = np.conj(z[s])
    z[-1] = radius * raw[-1]
    return z


def residual_slope(rom, system, radii=None, n_dirs=6, seed=0):
    """Log-log slope of the invariance residual against the sample radius."""
    if radii is None:
        radii = np.logspace(-4, -2, 7)
    rng = np.random.default_rng(seed)
    dirs = [conjugate_sample(rom, 1.0, rng) for _ in range(n_dirs)]
    vals = []
    for r in radii:
        worst = max(invariance_residual(rom, system, r * z) for z in dirs)
        vals.append(worst)
    slope = np.polyfit(np.log(radii), np.log(vals), 1)[0]
    return float(slope), np.array(vals)


def validated_radius(rom, system, rel_tol=1e-2, radii=None, n_dirs=4, seed=1):
    """Largest sampled z-radius with relative invariance defect below rel_tol."""
    if radii is None:
        radii = np.logspace(-3, 0.5, 15)
    rng = np.random.default_rng(seed)
    dirs = [conjugate_sample(rom, 1.0, rng) for _ in range(n_dirs)]
    best = radii[0]
    for r in radii:
        rels = []
        for z in dirs:
            zz = r * z
            resid = invariance_residual(rom, system, zz)
            Wz = rom.evaluate_mapping(zz)
            scale = max(np.linalg.norm(Wz), 1e-30)
            rels.append(resid / scale)
        if max(rels) < rel_tol:
            best = r
        else:
            break
    return float(best)
