"""Invariant-manifold parametrisation engines.

Solves the homological equations order by order in normal-form style for
two system shapes: the generic first-order quadratic DAE (with the control
parameter as an appended trivial state) and second-order mechanical
systems with parameter-independent quadratic/cubic forces, where the
velocity mappings are recovered a posteriori and only displacement-sized
linear systems are factored.

One order loop (`_build`) serves both engines: it holds the monomial
table, the resonance classification, the order-1 mapping from the master
spectrum, the gradient cross terms, the Jordan dependencies, the per-order
statistics and the ROM assembly.  An engine supplies only two things: its
order-p nonlinear series and its stacked solve of one order.

Both engines support imposed Jordan couplings in the linear reduced
dynamics: the off-diagonal entries of Lam feed an extra within-order term
whose dependency always points to an already-solved monomial thanks to the
descending-lexicographic monomial ordering.

The nonlinear right-hand side of each order is assembled from product
index tables (`MonomialTable.product_ids`): per order split, each form is
applied to the whole blocks of lower-order mapping coefficients at once
and scattered by target monomial, and the gradient cross terms become one
sparse weight matrix per pair of orders of f and W.

Both engines then solve each order in stacks: the monomials of one
resonant set share the matrix size, so each set is one stacked
`scipy.linalg.solve` of bordered systems, and with Jordan couplings an
order splits into waves whose Jordan terms read only earlier waves.  The
first-order engine stacks sigma B - At; the second-order one stacks the
displacement-sized sigma^2 M + sigma C + Kt with sigma-dependent borders
and recovers the velocity rows from each stack's solutions.  Every
bordered system's relative residual is checked.  Each build records
per-order statistics in `rom.meta["stats"]`: monomial and resonant counts,
assembly, cross-term and solve times, factorizations (one per monomial)
and the largest relative homological residual.

`invariance_residual` checks a ROM against its full model at a block of
sample points at once, from one table of monomial values
(`ParametrisationROM.mapping_and_flow`).
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass, field
from itertools import compress

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

from .models.dae import FirstOrderDAE
from .polytensor import MonomialTable, polynomial_eval

class ResonanceError(RuntimeError):
    pass


@dataclass
class ResonanceSet:
    """Per-monomial sigma = alpha . diag(Lam) and the resonant master sets;
    keys encode each set as a bit mask (bit r for master r)."""

    sigma: np.ndarray
    sets: list
    lam_classified: np.ndarray
    keys: np.ndarray


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
    return ResonanceSet(sigma, sets, lam_cls, hit @ (1 << np.arange(d)))


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

    def linear_block(self, mu):
        """mu-dressed linear reduced dynamics J(mu) at the fixed point z = 0;
        a 1-D array of loads gives one matrix per load, stacked."""
        d = self.d
        w = self.table.code_weights
        ids = self.table.ids_of_codes(w[:d, None] + np.arange(self.order) * w[-1])
        mus = np.atleast_1d(mu)
        # scalar powers, so that each matrix is the one a single load gives
        powers = np.array([[x**m for m in range(self.order)] for x in mus])
        J = np.zeros((len(mus), d, d), dtype=complex)
        for m in range(self.order):
            J += self.f[ids[:, m], :d].T * powers[:, m, None, None]
        return J if np.ndim(mu) else J[0]

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

    def mapping_and_flow(self, Z):
        """W(z), f(z) and (dW/dz) f(z) at every row of Z, one row each.

        All three come from one table of monomial values; the derivative
        term reads the lowered-exponent columns of the same table.
        """
        vals = self.table.batch_values(Z)
        mono = vals[:, :-1]
        fz = mono @ self.f
        dflow = np.zeros_like(mono)
        for s, (ids, low, alpha_s) in enumerate(self.table.lowered):
            dflow[:, ids] += alpha_s * vals[:, low] * fz[:, s, None]
        return mono @ self.W, fz, dflow @ self.W

    def to_dict(self):
        def c2(arr):
            return [[float(v.real), float(v.imag)] for v in arr]

        return {
            "format": "flutterrom-rom",
            "version": 1,
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
        # a stored "style" key (always "normal-form") is ignored
        return cls(table, W, f, lam, Lam,
                   None if conj_map is None else np.array(conj_map, dtype=np.int64),
                   data.get("n_disp"), data.get("meta", {}))


# -- shared engine pieces -----------------------------------------------------

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


def _jordan_term(jdeps, W, locs):
    """Jordan gradient term at the order-p positions locs, one row each."""
    out = np.zeros((len(locs), W.shape[1]), dtype=complex)
    for dep, weight in jdeps:
        has = dep[locs] >= 0
        out[has] += weight[locs][has, None] * W[dep[locs][has]]
    return out


def _jordan_waves(jdeps, start, n):
    """Wave of each order-p position: one past the waves of the monomials its
    Jordan term reads, so that a wave reads only earlier waves.  Without
    couplings the whole order is wave 0."""
    wave = np.zeros(n, dtype=np.int64)
    while True:
        deeper = wave.copy()
        for dep, _ in jdeps:
            has = dep >= 0
            deeper[has] = np.maximum(deeper[has], wave[dep[has] - start] + 1)
        if np.array_equal(deeper, wave):
            return wave
        wave = deeper


def _resonance_error(sigma, lam, table, mid):
    near = lam[np.argmin(np.abs(lam - sigma))]
    alpha = tuple(int(e) for e in table.exponents[mid])
    return ResonanceError(
        f"homological solve failed for monomial {alpha}: sigma = {sigma:.6g} "
        f"is unflagged-resonant with lambda = {near:.6g}; "
        "revisit the resonance tolerance")


def _check_solve(residual_norm, rhs_norm, sigma, lam, table, mids):
    """Largest relative homological residual of a stack of solves; raises at
    the first that flags a missed resonance."""
    rel = residual_norm / np.maximum(rhs_norm, 1e-300)
    bad = np.flatnonzero(~(rel <= 1e-6))  # also catches NaN from a singular system
    if bad.size:
        raise _resonance_error(sigma[bad[0]], lam, table, mids[bad[0]])
    return float(rel.max())


def _order_record(p, ids, res, marks, max_rel):
    """Per-order build statistics; marks are the clock readings before
    assembly, cross terms, solves and after the solves."""
    t0, t1, t2, t3 = marks
    return {"order": p, "monomials": len(ids),
            "resonant": sum(1 for mid in ids if res.sets[mid]),
            "assembly_s": t1 - t0, "cross_s": t2 - t1, "solve_s": t3 - t2,
            "factorizations": len(ids), "max_rel_residual": float(max_rel)}


def _solve_groups(res, ids, jdeps):
    """The order-p positions in solve order, one group per Jordan wave and
    resonant set: yields (locs, mids, R).  A group's Jordan term reads only
    rows that earlier groups wrote, so the caller writes each group before
    taking the next."""
    wave = _jordan_waves(jdeps, ids[0], len(ids))
    for w in range(wave.max() + 1):
        in_wave = np.flatnonzero(wave == w)
        keys, group = np.unique(res.keys[ids[in_wave]], return_inverse=True)
        for g in range(len(keys)):
            locs = in_wave[group == g]
            yield locs, ids[locs], res.sets[ids[locs[0]]]


def _bordered(S, cols, rows, corner):
    """Stack of bordered matrices [[S_k, cols_k], [rows_k, corner]]; the
    borders broadcast over the stack."""
    k, D = S.shape[:2]
    n = D + corner.shape[-1]
    A = np.empty((k, n, n), dtype=complex)
    A[:, :D, :D] = S
    A[:, :D, D:] = cols
    A[:, D:, :D] = rows
    A[:, D:, D:] = corner
    return A


def _stacked_solve(A, b, sigma, lam, table, mids):
    """Homological solves of one group, one monomial per stack entry.

    A is the stack of bordered matrices and b their right-hand sides;
    returns the solutions and the largest residual of the whole bordered
    systems relative to |b|, which _check_solve bounds.  A singular or
    ill-conditioned entry (LinAlgWarning) is a missed resonance.
    """
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error", sla.LinAlgWarning)
            # scipy's LAPACK: each entry gets the bits of its own getrf/getrs;
            # numpy's bundled build rounds differently
            sol = sla.solve(A, b[..., None], assume_a="gen", check_finite=False)[..., 0]
    except (sla.LinAlgError, sla.LinAlgWarning):
        bad = int(np.argmin(np.abs(np.linalg.det(A))))
        raise _resonance_error(sigma[bad], lam, table, mids[bad]) from None
    resid = np.linalg.norm((A @ sol[..., None])[..., 0] - b, axis=1)
    return sol, _check_solve(resid, np.linalg.norm(b, axis=1), sigma, lam, table, mids)


# -- the order loop -----------------------------------------------------------

def _build(spectrum, order, r_tol, series, solve, meta, n_disp=None):
    """Solves the homological equations order by order, for either engine.

    The engine supplies its order-p nonlinear series, series(table, W, p),
    one row per order-p monomial, and its stacked solve,
    solve(table, res, ids, rhs, g, jdeps, W, f), which writes the order-p
    rows of W and f from that series, the gradient cross terms g and the
    Jordan dependencies and returns the largest relative residual; meta
    holds the engine's own keys.  Two-mode (d = 4) runs classify resonances
    with the 1:1 enforcement.
    """
    d = spectrum.d
    nv = d + 1
    one_to_one = d == 4
    table = MonomialTable(nv, order)
    jp = spectrum.jordan_pairs
    lam_vec = np.zeros(nv, dtype=complex)
    lam_vec[:d] = np.diag(spectrum.Lam)
    res = classify_resonances(table, lam_vec, r_tol, one_to_one)

    W = np.zeros((len(table), spectrum.Y.shape[0]), dtype=complex)
    f = np.zeros((len(table), nv), dtype=complex)
    o1 = table.ids_of_order(1)
    for s in range(d):
        W[o1[s]] = spectrum.Y[:, s]
        f[o1[s], :d] = spectrum.Lam[:, s]
    W[o1[d]] = spectrum.Ypar
    # normal-form choice for the parameter column: f^(1, d+1) = 0

    stats = []
    for p in range(2, order + 1):
        ids = np.asarray(table.ids_of_order(p))
        t0 = time.perf_counter()
        rhs = series(table, W, p)
        t1 = time.perf_counter()
        g = _gradient_cross_lower(table, W, f, p)
        jdeps = _jordan_within_order(table, p, jp)
        t2 = time.perf_counter()
        max_rel = solve(table, res, ids, rhs, g, jdeps, W, f)
        stats.append(_order_record(p, ids, res, (t0, t1, t2, time.perf_counter()), max_rel))

    meta.update(r_tol=r_tol, one_to_one=one_to_one,
                jordan_pairs=[(int(i), int(j), complex(t).real) for i, j, t in jp], stats=stats)
    return ParametrisationROM(table, W, f, lam_vec[:d].copy(), spectrum.Lam.copy(),
                              spectrum.conj_map, n_disp, meta)


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


def _solve_order(table, res, spectrum, B, At, ids, rhs, jdeps, W, f):
    """Solves the order-p monomials ids into W and f, one stacked bordered
    system [[sigma B - At, B Y_R], [X_R^H B, 0]] per Jordan wave and resonant
    set R; returns the largest relative residual.

    rhs holds one row per order-p monomial; the Jordan term of a wave reads
    the W rows that earlier waves wrote.
    """
    D = rhs.shape[1]
    lam = np.diag(spectrum.Lam)
    max_rel = 0.0
    for locs, mids, R in _solve_groups(res, ids, jdeps):
        sigma = res.sigma[mids]
        A = _bordered(sigma[:, None, None] * B - At, B @ spectrum.Y[:, R],
                      spectrum.X[:, R].conj().T @ B, np.zeros((len(R), len(R))))
        b = rhs[locs] - _jordan_term(jdeps, W, locs) @ B.T
        sol, rel = _stacked_solve(A, np.pad(b, ((0, 0), (0, len(R)))), sigma, lam, table, mids)
        max_rel = max(max_rel, rel)
        W[mids] = sol[:, :D]
        f[np.ix_(mids, R)] = sol[:, D:]
    return max_rel


def build_rom_firstorder(dae: FirstOrderDAE, spectrum, order, r_tol=0.05):
    """Parametrisation of the augmented quadratic DAE around its fixed point."""
    B, At = dae.B, np.asarray(spectrum.ops["At"])

    def solve(table, res, ids, rhs, g, jdeps, W, f):
        return _solve_order(table, res, spectrum, B, At, ids, rhs - g @ B.T, jdeps, W, f)

    meta = {"engine": "first-order", "mu0": dae.mu0}
    return _build(spectrum, order, r_tol, lambda table, W, p: _quadratic_rhs(table, dae, W, p),
                  solve, meta)


# -- second-order engine ------------------------------------------------------

def _solve_order_secondorder(table, res, spectrum, mck, ids, fnl, g, jdeps, W, f):
    """Displacement-sized counterpart of _solve_order.

    With the gradient term g = [gU, gV] (cross terms plus the Jordan term)
    and Xi = fnl - M gV - (sigma M + C) gU, each Jordan wave and resonant
    set R is one stacked system

        [[sigma^2 M + sigma C + Kt, (sigma M + C) Yu_R + M (Yu Lam)_R],
         [Xv_R^H (sigma M + C) + (Lam Xv^H M)_R, Xv_R^H M Yu_R]] [U; f_R]
            = [Xi; -Xv_R^H M gU],

    and the velocity rows follow as V = sigma U + Yu_R f_R + gU.  Returns
    the largest relative residual.
    """
    M, C, Kt = mck
    n = M.shape[0]
    Yu, XvH = spectrum.Yu(), spectrum.Xv().conj().T
    XvHM = XvH @ M
    cols_base = C @ Yu + M @ Yu @ spectrum.Lam
    rows_base = XvH @ C + spectrum.Lam @ XvHM
    lam = np.diag(spectrum.Lam)
    max_rel = 0.0
    for locs, mids, R in _solve_groups(res, ids, jdeps):
        sigma = res.sigma[mids]
        s = sigma[:, None, None]
        gm = g[locs] + _jordan_term(jdeps, W, locs)
        gU, gV = gm[:, :n], gm[:, n:]
        A = _bordered(s**2 * M + s * C + Kt, s * (M @ Yu[:, R]) + cols_base[:, R],
                      s * XvHM[R] + rows_base[R], XvHM[R] @ Yu[:, R])
        Xi = fnl[locs] - gV @ M.T - sigma[:, None] * (gU @ M.T) - gU @ C.T
        sol, rel = _stacked_solve(A, np.concatenate([Xi, -gU @ XvHM[R].T], axis=1),
                                  sigma, lam, table, mids)
        max_rel = max(max_rel, rel)
        U, fR = sol[:, :n], sol[:, n:]
        W[mids, :n] = U
        W[mids, n:] = sigma[:, None] * U + fR @ Yu[:, R].T + gU
        f[np.ix_(mids, R)] = fR
    return max_rel


def build_rom_secondorder(model, spectrum, order, r_tol=0.05):
    """Halved-size parametrisation for second-order mechanical systems.

    Requires parameter-independent quadratic/cubic forces (nl_rhs_series;
    models without it, whose cubic scales with the load, go through the
    quadratic recast and the first-order engine); each monomial solves a
    displacement-sized bordered system and its velocity mapping is
    recovered algebraically afterwards.
    """
    if not hasattr(model, "nl_rhs_series"):
        raise ValueError("load-scaled cubic forces require the quadratic recast "
                         "and the first-order engine")
    n = model.ndof
    mck = tuple(np.asarray(a) for a in (model.mass(), model.damping(),
                                        model.tangent_stiffness()))
    Ru = model.ru()

    def series(table, W, p):
        fnl = model.nl_rhs_series(table, W[:, :n], p)
        fnl[table.product_ids(p - 1, 1)[:, -1]] += (Ru @ W[table.ids_of_order(p - 1), :n].T).T
        return fnl

    def solve(table, res, ids, fnl, g, jdeps, W, f):
        return _solve_order_secondorder(table, res, spectrum, mck, ids, fnl, g, jdeps, W, f)

    meta = {"engine": "second-order", "mu0": getattr(model, "p0", 0.0)}
    return _build(spectrum, order, r_tol, series, solve, meta, n)


# -- invariance diagnostics ---------------------------------------------------

def invariance_residual(rom, system, ztilde):
    """Norm of the invariance-equation defect at the sample point(s).

    Substitutes the truncated mapping and reduced dynamics into the full
    model; the result decays like |z|^(order+1) inside the validity domain
    and vanishes identically for linear systems at order 1.  A block of
    points (one per row) gives one norm per point, evaluated together.
    """
    ztilde = np.asarray(ztilde, dtype=complex)
    Z = np.atleast_2d(ztilde)
    Wz, fz, dWf = rom.mapping_and_flow(Z)
    mu = Z[:, -1, None]

    if isinstance(system, FirstOrderDAE):
        lhs = dWf @ system.B.T
        rhs = (Wz @ system.tangent_matrix().T + system.parameter_column() * mu
               + system.Q1.apply(Wz, Wz) + (Wz @ system.Q2m.T) * mu + system.q3 * mu**2)
        defect = lhs - rhs
    else:
        n = system.ndof
        M, C, Kt, Ru = system.mass(), system.damping(), system.tangent_stiffness(), system.ru()
        U, V = Wz[:, :n], Wz[:, n:]
        dU, dV = dWf[:, :n], dWf[:, n:]
        r1 = (M @ dU.T - M @ V.T).T
        r2 = ((M @ dV.T + C @ V.T + Kt @ U.T).T - mu * system.rt() - mu * (Ru @ U.T).T
              + system.nonlinear_force(U))
        defect = np.concatenate([r1, r2], axis=1)
    norms = np.linalg.norm(defect, axis=1)
    return float(norms[0]) if ztilde.ndim == 1 else norms


# sample directions of residual_slope and the seed that draws them
_SLOPE_DIRS, _SLOPE_SEED = 6, 0


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


def residual_slope(rom, system, radii=None):
    """Log-log slope of the invariance residual against the sample radius;
    the residual of a radius is the largest over _SLOPE_DIRS sample points
    (the same seeded directions for every ROM)."""
    if radii is None:
        radii = np.logspace(-4, -2, 7)
    rng = np.random.default_rng(_SLOPE_SEED)
    dirs = np.array([conjugate_sample(rom, 1.0, rng) for _ in range(_SLOPE_DIRS)])
    vals = np.array([invariance_residual(rom, system, r * dirs).max() for r in radii])
    slope = np.polyfit(np.log(radii), np.log(vals), 1)[0]
    return float(slope), vals
