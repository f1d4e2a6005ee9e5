"""Invariant-manifold parametrisation engines.

Solves the homological equations order by order in normal-form style for
two system shapes: the generic first-order quadratic DAE (with the control
parameter as an appended trivial state) and second-order mechanical
systems with parameter-independent quadratic/cubic forces, where the
velocity mappings are recovered a posteriori and only displacement-sized
linear systems are factored.

One order loop (`_build`) and one Jordan-wave loop (`_solve_order`) serve
both engines.  They hold the monomial table, the resonance classification,
the order-1 mapping from the master spectrum, the gradient cross terms, the
Jordan dependencies and waves, the padded stacks and their checked solves,
the scatter of f's resonant entries, the mirror, the per-order statistics
and the ROM assembly.  An engine is its force series and its bordered
operator: it supplies its order-p nonlinear series, the bordered systems of
a wave from their right-hand sides and gradient terms, and the mapping rows
of their solutions.

Both engines support imposed Jordan couplings in the linear reduced
dynamics: the off-diagonal entries of Lam feed an extra within-order term
whose dependency always points to an already-solved monomial thanks to the
descending-lexicographic monomial ordering.

The nonlinear right-hand side of each order is assembled from product
index tables (`MonomialTable.product_ids`), which the table keeps and
composes from its raise tables, so a build looks monomial codes up only
once per raise table: per order split, each form is applied to whole
blocks of lower-order mapping coefficients at once and scattered by
target monomial.  The gradient cross terms read the derivative blocks of
W from the raise tables, once per build and order, contract them with the
nonzero rows of f by one matrix product per pair of orders and scatter
through the same product tables.  Every such sum is conjugate-symmetric,
because the mapping and reduced dynamics of lower orders are (see below)
and the forms are real.  So each sum runs over one monomial of each
conjugate pair of its first block alone, weighted 1, and over every
self-conjugate one, weighted 1/2, and is completed by adding its
conjugate at the conjugate targets (`polytensor.ConjugateHalf`).  A
bilinear form is summed over the splits p1 >= p - p1 alone, off the
diagonal as the slot-swapped form Q(u, v) + Q(v, u)
(`ConjugateHalf.bilinear`).  The load terms, linear in the mapping, are
added after the completion.

Both engines then solve each order in one stack of bordered systems per
Jordan wave (the whole order without Jordan couplings; with them, waves
whose Jordan terms read only earlier waves).  The systems are real and
their master modes come in conjugate pairs, so the coefficients of alpha
and of its conjugate (each z_s swapped with its partner, mu kept) are
conjugates: W[conj alpha] = conj W[alpha] and f[conj alpha, conj s] = conj
f[alpha, s].  Only the monomial of each pair first in table order, and
every self-conjugate one, is solved; after each wave its partners are
written by conjugation, so that a later wave's Jordan term can read them.
Conjugation maps each Jordan coupling onto the conjugate one, so each wave
holds the partners of its monomials.  A monomial's border spans the masters
its resonance key's bits name, padded to the wave's largest set with
decoupled slots that never reach f.  The first-order engine stacks sigma B
- At, and its mapping rows are the solutions; the second-order one stacks
the displacement-sized sigma^2 M + sigma C + Kt with sigma-dependent
borders, and its mapping recovers the velocity rows from the solutions.
The load's eigenvalue is exactly 0, so alpha mu^k has the sigma, the
resonant set and the matrix of alpha mu^(k-1), and is solved when alpha
is: only the monomials without mu, and those of order 2, meet a matrix for
the first time.  Per wave, those go in one call through
`scipy.linalg.solve`, whose condition estimate reports a missed resonance,
and the repeats in one call through `numpy.linalg.solve`, the same LU
without the estimate.  Every solved bordered system's relative residual is
checked.  `rom.meta["stats"]` records per order the monomial and resonant
counts, assembly, cross-term and solve times, the (row, row) products
that assembly and cross terms scattered, factorizations (one per solved
monomial), the rows mirrored by conjugation, condition-checked solves,
stacks (one per wave) and the largest relative homological residual.

`invariance_residual` and `residual_slope` check a ROM against its full
model through one graded evaluation (`_graded_pieces`): one table of
monomial values at a block of points, times W, times f and times the
derivative blocks dW/dz_s side by side, order by order.  The blocks have
no rows for the top order, which raises out of the table, and W and f are
not copied beside them: one matrix [W | f | blocks] takes 2.4 MB at order
11, against 0.9 MB, and raised the peak memory of a check.  The residual
sums the pieces; the slope evaluates its directions once and reads every
radius r from the pieces weighted by r^p, with one evaluation of the
defect (`_defect_norms`) for all radii.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.linalg as sla

from .models.dae import FirstOrderDAE
from .polytensor import ConjugateHalf, MonomialTable, _rebuilt, power_index, power_values

class ResonanceError(RuntimeError):
    pass


@dataclass
class ResonanceSet:
    """Per-monomial sigma = alpha . diag(Lam) and resonance key (bit r: master r)."""

    sigma: np.ndarray
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
    return ResonanceSet(sigma, lam_cls, hit @ (1 << np.arange(d)))


@dataclass(frozen=True)
class ParametrisationROM:
    """Polynomial mapping W and reduced dynamics f over (z, mu).

    W rows hold the mapping coefficient of each table monomial (full state
    for first-order systems, displacement stacked with velocity for
    second-order ones); f rows hold the reduced-dynamics coefficients with
    the parameter slot last, identically zero (the parameter dynamics stays
    trivial at every order).  Lam, the reduced linear dynamics, is the one
    store of the master eigenvalues, its diagonal (lam), and of the imposed
    Jordan couplings above it.

    A built ROM is a value: its fields cannot be assigned, and its arrays
    are taken as given, without a copy, and made read-only, so an edit
    raises where it is made and the linear analysis kept on the ROM
    (_analysis, continuation's memo) cannot go stale.  dataclasses.replace
    gives a changed ROM, with an empty memo, and so does copy.deepcopy or
    a pickle.  meta stays a mutable record.
    """

    table: MonomialTable
    W: np.ndarray
    f: np.ndarray
    Lam: np.ndarray
    conj_map: np.ndarray | None = None
    meta: dict = field(default_factory=dict)
    # continuation's memo of the ROM's linear analysis: not an input, not
    # saved, and dataclasses.replace starts a copy without it
    _analysis: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        for a in (self.W, self.f, self.Lam, self.conj_map):
            if a is not None:
                a.flags.writeable = False

    __reduce__ = _rebuilt

    @property
    def lam(self):
        return np.diag(self.Lam)

    @property
    def d(self):
        return len(self.Lam)

    @property
    def order(self):
        return self.table.max_order

    @property
    def dim(self):
        return self.W.shape[1]

    @cached_property
    def _linear_rows(self):
        """linear_block's table structure, kept per ROM: the rows e_s + k e_mu,
        the power_index of their mu powers and, for each row and r, the flat
        position of (r, s) in a d x d matrix."""
        d = self.d
        exps = self.table.exponents
        rows = np.flatnonzero(exps[:, :d].sum(axis=1) == 1)
        rs = np.arange(d) * d + np.argmax(exps[rows, :d], axis=1)[:, None]
        return rows, power_index(exps[rows, -1:]), rs

    def linear_block(self, mu):
        """mu-dressed linear reduced dynamics J(mu) at the fixed point z = 0;
        a 1-D array of loads gives one matrix per load, stacked.

        J[r, s] sums f[row, r] mu^k over the rows e_s + k e_mu in row order,
        elementwise, so each matrix is the one a single load gives."""
        d = self.d
        rows, index, rs = self._linear_rows
        mus = np.atleast_1d(mu)
        # as complex numbers the loads are raised by repeated multiplication,
        # several times faster than numpy's float power
        powers = power_values(mus[:, None] + 0j, index, self.order)
        flat = np.arange(len(mus))[:, None, None] * d * d + rs  # (load, row, r)
        J = np.zeros((len(mus), d, d), dtype=complex)
        np.add.at(J.reshape(-1), flat.ravel(), (self.f[rows, :d] * powers[:, :, None]).ravel())
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

    def _derivative_blocks(self):
        """dW/dz_s of each master variable s, side by side: the row of a
        monomial beta holds (beta_s + 1) W[beta + e_s], gathered through the
        raise tables (table.product_ids(q, 1)).  Row 0 is the constant
        monomial and row 1 + id the table's monomial id; the top order raises
        out of the table, so its rows are left out.  The load needs no
        block: its column of f is zero."""
        table, d = self.table, self.d
        up = np.concatenate([np.arange(d)[None]] + [
            table.product_ids(q, 1)[:, :d] + table.ids_of_order(q + 1).start
            for q in range(1, self.order)])
        weights = np.concatenate((np.zeros((1, d)), table.exponents[:len(up) - 1, :d])) + 1.0
        # real weights on W's (Re, Im) view: complex times real costs several times more
        D = np.take(np.ascontiguousarray(self.W, dtype=complex).view(float), up, axis=0)
        D *= weights[..., None]
        return D.reshape(len(up), -1).view(complex)

    def to_dict(self):
        def c2(arr):
            return [[float(v.real), float(v.imag)] for v in arr]

        return {
            "format": "flutterrom-rom",
            "version": 1,
            "nvars": self.table.nvars,
            "order": self.table.max_order,
            "conj_map": None if self.conj_map is None else [int(v) for v in self.conj_map],
            # Lam's diagonal, for readers that take the eigenvalues from here
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
        Lam = np.array([fromc(r) for r in data["Lam"]])
        conj_map = data.get("conj_map")
        d = table.nvars - 1
        fits = {"W": W.ndim == 2 and len(W) == len(table),
                "f": f.shape == (len(table), table.nvars),
                "Lam": Lam.shape == (d, d),
                "conj_map": conj_map is None or len(conj_map) == d}
        for name, ok in fits.items():
            if not ok:
                raise ValueError(f"ROM file field {name!r} does not fit a table of "
                                 f"{len(table)} monomials in {table.nvars} variables")
        if conj_map is not None:
            conj_map = np.array(conj_map, dtype=np.int64)
            if not (np.array_equal(np.sort(conj_map), np.arange(d))
                    and np.array_equal(conj_map[conj_map], np.arange(d))
                    and np.all(conj_map != np.arange(d))):
                raise ValueError(f"ROM file field 'conj_map' {conj_map.tolist()} is not a "
                                 f"pairing of the {d} master coordinates")
        # a stored "style" (always "normal-form"), "n_disp" or "eigenvalues"
        # (the diagonal of Lam) is ignored
        return cls(table, W, f, Lam, conj_map, data.get("meta", {}))


# -- shared engine pieces -----------------------------------------------------

def _gradient_cross_lower(table, W, f, p, half, blocks):
    """N3: sum over lower orders of (dW/dz_s) f_s collecting at order p.

    Only reduced-dynamics coefficients of orders 2..p-1 enter (the linear
    part is the sigma term plus the Jordan correction handled separately).
    Per order qf of f, the derivative block of W over the monomials a of
    order q = p - qf is dW[a, s] = (a_s + 1) W[a + e_s], read through the
    raise table (q, 1) at the weighted representatives a of half (a
    ConjugateHalf) alone; one matrix product contracts it over s with the
    nonzero order-qf rows of f, and the term of a and row kf lands on
    a + alpha(kf), read from the product table (q, qf) and summed there by
    one bincount over every output column, each column's targets offset by
    its own block of bins.  half.complete then adds the other
    monomials' part, which needs W and f of the lower orders
    conjugate-symmetric, as the mirror writes them.  blocks memoises each
    order's derivative block for the build: it is gathered when first
    needed, at order q + 2 or later, once W of order q + 1 is final.
    Returns one row per order-p monomial.
    """
    n_p, dim = table.count_of_order(p), W.shape[1]
    out = np.zeros((n_p, dim), dtype=complex)
    for qf in range(2, p):
        fq = f[table.ids_of_order(qf)]
        rows = np.flatnonzero(np.any(fq, axis=1))
        if not len(rows):
            continue
        q = p - qf
        if q not in blocks:
            reps = half.rows[q]
            raised = table.product_ids(q, 1)[reps] + table.ids_of_order(q + 1).start
            scale = (table.exponents[table.ids_of_order(q).start + reps] + 1) * half.weights[q]
            blocks[q] = np.ascontiguousarray((W[raised] * scale[:, :, None]).transpose(2, 0, 1))
        terms = blocks[q] @ fq[rows].T  # (column, a, row of f)
        # real and imaginary parts side by side, column c in bins 2 n_p c on
        targets = 2 * half.targets((q, qf), rows)[:, :, None] + np.arange(2)
        targets = np.ravel(targets + 2 * n_p * np.arange(dim)[:, None, None, None])
        sums = np.bincount(targets, terms.view(float).ravel(), 2 * n_p * dim)
        out += sums.view(complex).reshape(dim, n_p).T
    return half.complete(out, p)


def _jordan_within_order(table, p, jordan_pairs):
    """Dependencies of the extra gradient term from imposed off-diagonal
    linear couplings, over the order-p monomials.

    For each coupling f_s^(1,j) = tau (s < j), the monomial alpha(mid)
    receives alpha_s(kW) * tau * W(kW) with alpha(kW) = alpha(mid)+e_s-e_j
    when alpha_j(mid) > 0.  Such an alpha is beta + e_j for exactly one
    beta of order p - 1, and alpha(kW) is beta + e_s: both are read from
    beta's row of the raise table (p - 1, 1).  The table ordering
    guarantees kW was already solved.  Returns one (kW or -1, weight) pair
    of arrays per coupling, indexed by position within the order.
    """
    ids = table.ids_of_order(p)
    exps = table.exponents[ids.start:ids.stop]
    raised = table.product_ids(p - 1, 1)
    out = []
    for (s, j, tau) in jordan_pairs:
        dep = np.full(len(ids), -1)
        dep[raised[:, j]] = raised[:, s] + ids.start
        if np.any(dep >= np.asarray(ids)):
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


def _jordan_waves(jdeps, start, new, reps):
    """The order-p positions reps of each Jordan wave, in solve order, each
    with the count of those marked new, which it lists first.  A
    position's wave is one past the waves of the monomials its Jordan term
    reads, so that a wave reads only earlier waves; without couplings the
    whole order is one wave."""
    wave = np.zeros(len(new), dtype=np.int64)
    while True:
        deeper = wave.copy()
        for dep, _ in jdeps:
            has = dep >= 0
            deeper[has] = np.maximum(deeper[has], wave[dep[has] - start] + 1)
        if np.array_equal(deeper, wave):
            locs = reps[np.lexsort((~new[reps], wave[reps]))]
            locs = np.split(locs, np.cumsum(np.bincount(wave[reps]))[:-1])
            return [(w, int(np.count_nonzero(new[w]))) for w in locs]
        wave = deeper


def _mirror(W, f, mids, partner):
    """Writes the conjugate partners of the solved monomials mids, W[partner]
    = conj W and f[partner, conj s] = conj f[s], in one write each; a
    self-conjugate monomial keeps its solution.  partner[:nvars] is the
    conjugation of the variables, whose order-1 monomials come first in
    table order."""
    pair = mids[partner[mids] != mids]
    W[partner[pair]] = W[pair].conj()
    f[partner[pair, None], partner[:f.shape[1]]] = f[pair].conj()


def _resonance_error(sigma, spectrum, table, mid):
    """The missed resonance of monomial mid, named by the eigenvalue of the
    whole pencil (spectrum.ops) nearest to sigma, with the remedy that
    applies: the resonance tolerance flags resonances with the masters only,
    so a slave mode near sigma has to join the masters.  The pencil is
    solved on this error path only."""
    w = sla.eigvals(spectrum.ops["At"], spectrum.ops["B"])
    near = min(w[np.isfinite(w)], key=lambda x: abs(x - sigma))
    alpha = tuple(int(e) for e in table.exponents[mid])
    if np.min(np.abs(np.diag(spectrum.Lam) - near)) <= 1e-6 * max(abs(near), 1.0):
        remedy = "a master mode: revisit the resonance tolerance"
    else:
        remedy = "a slave mode: take that mode among the masters"
    return ResonanceError(
        f"homological solve failed for monomial {alpha}: sigma = {sigma:.6g} "
        f"is unflagged-resonant with lambda = {near:.6g}, {remedy}")


def _check_solve(residual_norm, rhs_norm, sigma, spectrum, table, mids):
    """Largest relative homological residual of a stack of solves; raises at
    the first that flags a missed resonance."""
    rel = residual_norm / np.maximum(rhs_norm, 1e-300)
    bad = np.flatnonzero(~(rel <= 1e-6))  # also catches NaN from a singular system
    if bad.size:
        raise _resonance_error(sigma[bad[0]], spectrum, table, mids[bad[0]])
    return float(rel.max())


def _order_record(p, ids, res, waves, mirrored, products, marks, max_rel):
    """Per-order build statistics; waves holds the solved positions and
    condition-checked counts of one stacked solve each, mirrored counts the
    rows filled by conjugation, products the (row, row) products that
    assembly and cross terms scattered, and marks are the clock readings
    before assembly, cross terms, solves and after the solves."""
    t0, t1, t2, t3 = marks
    return {"order": p, "monomials": len(ids),
            "resonant": int(np.count_nonzero(res.keys[ids])),
            "assembly_s": t1 - t0, "cross_s": t2 - t1, "solve_s": t3 - t2,
            "products": int(products),
            "factorizations": sum(len(w) for w, _ in waves), "mirrored": mirrored,
            "checked": sum(n for _, n in waves), "stacks": len(waves),
            "max_rel_residual": float(max_rel)}


def _padded_system(sigma, pencil, cols, rows, corner, rhs, border_rhs, keys):
    """Stack of bordered systems [[S_k, cols_k[:, R_k]], [rows_k[R_k],
    corner[R_k][:, R_k]]] x_k = [rhs_k; border_rhs_k[R_k]], with S_k =
    sum_i sigma_k^i pencil[i] and R_k the masters whose bits keys[k] sets.

    cols (.., N, d), rows (.., d, N) and border_rhs (.., d) are shared or
    one per entry.  Each R_k is padded to the stack's largest with slots of
    zero border column, row and right-hand side and unit diagonal corner.
    Returns the matrices, right-hand sides and slots (d marks a padded one).
    """
    d = len(corner)
    bits = keys[:, None] >> np.arange(d) & 1 == 1
    sel = np.sort(np.where(bits, np.arange(d), d), axis=1)[:, :bits.sum(axis=1).max()]
    (k, N), m = rhs.shape, sel.shape[1]
    A = np.zeros((k, N + m, N + m), dtype=complex)
    # in place, highest power first: the operations of sigma B - At and sigma^2 M + sigma C + Kt
    S, s = A[:, :N, :N], sigma[:, None, None]
    np.multiply(s ** (len(pencil) - 1), pencil[-1], out=S)
    for i in range(len(pencil) - 2, 0, -1):
        S += s**i * pencil[i]
    S += pencil[0]
    b = np.concatenate((rhs, np.zeros((k, m))), axis=1)
    e, j = np.nonzero(sel < d)
    A[e, :N, N + j] = np.broadcast_to(cols, (k, N, d))[e, :, sel[e, j]]
    A[e, N + j, :N] = np.broadcast_to(rows, (k, d, N))[e, sel[e, j]]
    b[e, N + j] = np.broadcast_to(border_rhs, (k, d))[e, sel[e, j]]
    padded = np.zeros((d + 1, d + 1), dtype=complex)
    padded[:d, :d] = corner
    A[:, N:, N:] = padded[sel[..., None], sel[:, None]] + np.eye(m) * (sel == d)[:, None]
    return A, b, sel


def _stacked_solve(A, b, n_new, sigma, spectrum, table, mids):
    """Homological solves of one Jordan wave, one solved monomial per stack
    entry.

    A and b are a wave's padded systems (_padded_system), of the monomials
    that are solved rather than mirrored; its first n_new entries have a
    matrix no earlier order solved.  Those go through scipy's solve, which
    estimates each entry's condition: a singular or ill-conditioned one
    (LinAlgWarning) is a missed resonance.  The others repeat a matrix
    checked at a lower order (alpha mu^k is solved, not mirrored, exactly
    when alpha is) and go through numpy's solve, the same LU without the
    estimate.  A padded slot decouples with a unit diagonal, so a padded
    matrix's 1-norm condition number, max(|A|, 1) max(|A^-1|, 1), is at
    least the unpadded one's.  Returns the solutions and the largest
    residual relative to |b|, which _check_solve bounds.
    """
    sol = np.empty_like(b)
    try:
        if n_new:
            with warnings.catch_warnings():
                warnings.simplefilter("error", sla.LinAlgWarning)
                sol[:n_new] = sla.solve(A[:n_new], b[:n_new, :, None], assume_a="gen",
                                        check_finite=False)[..., 0]
        if n_new < len(A):
            sol[n_new:] = np.linalg.solve(A[n_new:], b[n_new:, :, None])[..., 0]
    except (sla.LinAlgError, sla.LinAlgWarning):
        bad = int(np.argmin(np.abs(np.linalg.det(A))))
        raise _resonance_error(sigma[bad], spectrum, table, mids[bad]) from None
    resid = np.linalg.norm((A @ sol[..., None])[..., 0] - b, axis=1)
    return sol, _check_solve(resid, np.linalg.norm(b, axis=1), sigma, spectrum, table, mids)


def _solve_order(bordered, mapping, table, res, spectrum, ids, rhs, g, jdeps, waves, partner,
                 W, f):
    """Solves the order-p monomials the waves hold into W and f, one padded
    stack of the engine's bordered systems per Jordan wave, and mirrors each
    wave's conjugate partners; returns the largest relative residual.

    rhs and the gradient cross terms g hold one row per order-p monomial.
    A wave's gradient term is g plus its Jordan term, which reads the W rows
    that earlier waves wrote or mirrored.  bordered(sigma, rhs_rows,
    g_rows) gives the wave's bordered operator in _padded_system's terms
    (pencil, border columns, border rows, corner, right-hand side, border
    right-hand side); f's resonant entries are read from the border slots
    of the solutions, and mapping(sigma, x, f_rows, g_rows) gives the W rows
    from their leading part x and those rows of f.
    """
    d = spectrum.d
    max_rel = 0.0
    for locs, n_new in waves:
        mids = ids[locs]
        sigma = res.sigma[mids]
        g_rows = g[locs] + _jordan_term(jdeps, W, locs) if jdeps else g[locs]
        A, b, sel = _padded_system(sigma, *bordered(sigma, rhs[locs], g_rows), res.keys[mids])
        sol, rel = _stacked_solve(A, b, n_new, sigma, spectrum, table, mids)
        max_rel = max(max_rel, rel)
        N = A.shape[1] - sel.shape[1]
        k, j = np.nonzero(sel < d)
        f[mids[k], sel[k, j]] = sol[k, N + j]
        W[mids] = mapping(sigma, sol[:, :N], f[mids, :d], g_rows)
        _mirror(W, f, mids, partner)
    return max_rel


# -- the order loop -----------------------------------------------------------

def _build(spectrum, order, r_tol, series, bordered, mapping, meta):
    """Solves the homological equations order by order, for either engine.

    An engine is its force series and its bordered operator: series(table,
    W, p, half) gives the order-p nonlinear series, one row per order-p
    monomial, and bordered and mapping, which _solve_order calls per Jordan
    wave, give the wave's bordered systems and the W rows of their
    solutions.  Everything else is shared: the gradient cross terms g, the
    Jordan term, the padded stacks and their checked solves, f's resonant
    entries and the mirror.  partner is the table's conjugation permutation
    (MonomialTable.conjugation_permutation of the spectrum's conj_map; a
    spectrum without one is refused) and half its representatives per order
    (polytensor.ConjugateHalf): the positions with partner[id] >= id,
    weighted 1, or 1/2 if self-conjugate.  The series and the cross terms
    sum their products over the weighted representative rows of their first
    block alone and complete the sum by conjugation
    (ConjugateHalf.complete); that needs W and f of the lower orders
    conjugate-symmetric, which the mirror writes.  The waves (_jordan_waves)
    hold the same representatives, to solve, led by those whose bordered
    matrix no lower order solved; after each wave the conjugate partners of
    what it solved are written (_mirror).  The mirror and the completion
    assume a real system, as the spectrum's exact conjugate masters do
    (spectral._assemble_conjugate_masters).  meta holds the engine's own
    keys.  Two-mode (d = 4) runs classify resonances with the 1:1
    enforcement.
    """
    if spectrum.conj_map is None:
        raise ValueError("the homological build needs the conjugate pairing of the master "
                         "modes (spectrum.conj_map), which this spectrum lacks")
    d = spectrum.d
    nv = d + 1
    one_to_one = d == 4
    table = MonomialTable(nv, order)
    jp = spectrum.jordan_pairs
    lam_vec = np.zeros(nv, dtype=complex)
    lam_vec[:d] = spectrum.lam
    res = classify_resonances(table, lam_vec, r_tol, one_to_one)
    partner = table.conjugation_permutation(np.append(spectrum.conj_map, d))
    half = ConjugateHalf(table, partner)

    W = np.zeros((len(table), spectrum.Y.shape[0]), dtype=complex)
    f = np.zeros((len(table), nv), dtype=complex)
    o1 = table.ids_of_order(1)
    for s in range(d):
        W[o1[s]] = spectrum.Y[:, s]
        f[o1[s], :d] = spectrum.Lam[:, s]
    W[o1[d]] = spectrum.Ypar
    # normal-form choice for the parameter column: f^(1, d+1) = 0

    stats, blocks = [], {}
    for p in range(2, order + 1):
        ids = np.asarray(table.ids_of_order(p))
        half.products = 0
        t0 = time.perf_counter()
        rhs = series(table, W, p, half)
        t1 = time.perf_counter()
        g = _gradient_cross_lower(table, W, f, p, half, blocks)
        jdeps = _jordan_within_order(table, p, jp)
        # the load's eigenvalue is exactly 0, so alpha mu^k has the sigma, the
        # resonant set and so the bordered matrix of alpha mu^(k-1), solved at
        # order p - 1 unless that is 1
        new = (table.exponents[ids, -1] == 0) | (p == 2)
        waves = _jordan_waves(jdeps, ids[0], new, half.rows[p])
        t2 = time.perf_counter()
        max_rel = _solve_order(bordered, mapping, table, res, spectrum, ids, rhs, g, jdeps, waves,
                               partner, W, f)
        stats.append(_order_record(p, ids, res, waves, len(ids) - len(half.rows[p]),
                                   half.products, (t0, t1, t2, time.perf_counter()), max_rel))
        # not held into the next order's cross terms, where the build peaks in memory
        del rhs, g

    meta.update(r_tol=r_tol, one_to_one=one_to_one,
                jordan_pairs=[(i, j, complex(t).real) for i, j, t in jp], stats=stats)
    return ParametrisationROM(table, W, f, spectrum.Lam, spectrum.conj_map, meta)


# -- first-order engine -------------------------------------------------------

def _quadratic_rhs(table, dae, W, p, half):
    """Order-p coefficients of Q1(W, W) + Q2m W mu + q3 mu^2, one row per
    order-p monomial.

    Q1 is summed over the splits p1 >= p - p1 (ConjugateHalf.bilinear) over
    the weighted representative rows of the order-p1 block (half, a
    ConjugateHalf) and the sum is completed by conjugation, which needs W of
    the lower orders conjugate-symmetric; the load terms follow, over every
    row.
    """
    rhs = half.complete(half.bilinear(dae.Q1, W, p), p)
    # the last order-1 monomial is mu: its column of the product table maps
    # each order-(p-1) alpha to alpha + e_mu
    rhs[table.product_ids(p - 1, 1)[:, -1]] += W[table.ids_of_order(p - 1)] @ dae.Q2m.T
    if p == 2:
        rhs[-1] += dae.q3  # mu^2 is the last order-2 monomial
    return rhs


def build_rom_firstorder(dae: FirstOrderDAE, spectrum, order, r_tol=0.05):
    """Parametrisation of the augmented quadratic DAE around its fixed point:
    each monomial solves [[sigma B - At, B Y_R], [X_R^H B, 0]] [W; f_R] =
    [rhs - B g; 0], with g its gradient term."""
    B, At = dae.B, np.asarray(spectrum.ops["At"])
    BY, XHB, zero = B @ spectrum.Y, spectrum.X.conj().T @ B, np.zeros((spectrum.d,) * 2)

    def bordered(sigma, rhs, g):
        return (-At, B), BY[None], XHB[None], zero, rhs - g @ B.T, zero[:1]

    meta = {"engine": "first-order", "mu0": dae.mu0}
    return _build(spectrum, order, r_tol,
                  lambda table, W, p, half: _quadratic_rhs(table, dae, W, p, half), bordered,
                  lambda sigma, x, f, g: x, meta)


# -- second-order engine ------------------------------------------------------

def build_rom_secondorder(model, spectrum, order, r_tol=0.05):
    """Halved-size parametrisation for second-order mechanical systems.

    Requires parameter-independent quadratic/cubic forces (nl_rhs_series;
    models without it, whose cubic scales with the load, go through the
    quadratic recast and the first-order engine); each monomial solves a
    displacement-sized bordered system and its velocity mapping is
    recovered algebraically afterwards.  With the gradient term g = [gU, gV]
    (cross terms plus the Jordan term) and Xi = fnl - M gV - (sigma M + C)
    gU, a monomial with resonant set R solves

        [[sigma^2 M + sigma C + Kt, (sigma M + C) Yu_R + M (Yu Lam)_R],
         [Xv_R^H (sigma M + C) + (Lam Xv^H M)_R, Xv_R^H M Yu_R]] [U; f_R]
            = [Xi; -Xv_R^H M gU],

    and its velocity rows follow as V = sigma U + Yu_R f_R + gU.
    """
    if not hasattr(model, "nl_rhs_series"):
        raise ValueError("load-scaled cubic forces require the quadratic recast "
                         "and the first-order engine")
    n, Ru = model.n, model.Ru
    M, C, Kt = (np.asarray(a) for a in (model.M, model.C, model.Kt))
    Yu, XvH = spectrum.Yu(), spectrum.Xv().conj().T
    XvHM, MYu = XvH @ M, M @ Yu
    cols_base = C @ Yu + MYu @ spectrum.Lam
    rows_base = XvH @ C + spectrum.Lam @ XvHM
    corner = XvHM @ Yu

    def series(table, W, p, half):
        fnl = model.nl_rhs_series(table, W[:, :n], p, half)
        fnl[table.product_ids(p - 1, 1)[:, -1]] += (Ru @ W[table.ids_of_order(p - 1), :n].T).T
        return fnl

    def bordered(sigma, fnl, g):
        s, gU, gV = sigma[:, None, None], g[:, :n], g[:, n:]
        Xi = fnl - gV @ M.T - sigma[:, None] * (gU @ M.T) - gU @ C.T
        return (Kt, C, M), s * MYu + cols_base, s * XvHM + rows_base, corner, Xi, -gU @ XvHM.T

    def mapping(sigma, U, f, g):
        return np.concatenate((U, sigma[:, None] * U + f @ Yu.T + g[:, :n]), axis=1)

    meta = {"engine": "second-order", "mu0": getattr(model, "p0", 0.0)}
    return _build(spectrum, order, r_tol, series, bordered, mapping, meta)


# -- invariance diagnostics ---------------------------------------------------

def invariance_residual(rom, system, ztilde):
    """Norm of the invariance-equation defect at the sample point(s).

    Substitutes the truncated mapping and reduced dynamics into the full
    model; the result decays like |z|^(order+1) inside the validity domain
    and vanishes identically for linear systems at order 1.  A block of
    points (one per row) gives one norm per point, evaluated together: the
    sum of their graded pieces (_graded_pieces), the radius 1 of
    residual_slope.
    """
    ztilde = np.asarray(ztilde, dtype=complex)
    Z = np.atleast_2d(ztilde)
    Wz, _, dWf = _evaluated(rom, _graded_pieces(rom, Z).sum(axis=0))
    norms = _defect_norms(system, Wz, dWf, Z[:, -1, None])
    return float(norms[0]) if ztilde.ndim == 1 else norms


def _graded_pieces(rom, Z):
    """G[p], the order-p part of [W(z) | f(z) | dW/dz_s(z) of each master
    s] at every row z of Z.

    One table of the monomial values of Z (power_values, with the table's
    own power_index) is multiplied order by order with the rows of W, f and
    the derivative blocks (ParametrisationROM._derivative_blocks); G[0]
    holds the blocks' constant row.  A monomial of order p at r z is r^p
    times its value at z, in the blocks' rows too (the constant row has
    order 0), so sum_p r^p G[p] holds the values at the rows of r Z.
    """
    Z = np.asarray(Z)
    table, dim, nv = rom.table, rom.dim, rom.table.nvars
    if Z.ndim != 2 or Z.shape[1] != nv:
        raise ValueError(f"points must be rows of {nv} components")
    mono = power_values(Z, table.power_index, rom.order)
    D = rom._derivative_blocks()
    G = np.zeros((rom.order + 1, len(Z), dim + nv + D.shape[1]), dtype=complex)
    G[0, :, dim + nv:] = D[0]
    for p in range(1, rom.order + 1):
        ids = table.ids_of_order(p)
        lo, hi = ids.start, ids.stop
        m = mono[:, lo:hi]
        G[p, :, :dim], G[p, :, dim:dim + nv] = m @ rom.W[lo:hi], m @ rom.f[lo:hi]
        if p < rom.order:
            G[p, :, dim + nv:] = m @ D[lo + 1:hi + 1]
    return G


def _evaluated(rom, S):
    """W(z), f(z) and (dW/dz) f(z) from rows S of [W(z) | f(z) | dW/dz_s(z)]
    (_graded_pieces): the derivative blocks' values contracted with f(z) at
    each point."""
    dim, nv, d = rom.dim, rom.table.nvars, rom.d
    fz = S[:, dim:dim + nv]
    return S[:, :dim], fz, (fz[:, None, :d] @ S[:, dim + nv:].reshape(len(S), d, dim))[:, 0]


def _defect_norms(system, Wz, dWf, mu):
    """Norm of the invariance defect of each row of W(z), (dW/dz) f(z) and
    the load column mu."""
    if isinstance(system, FirstOrderDAE):
        lhs = dWf @ system.B.T
        rhs = (Wz @ system.tangent_matrix().T + system.parameter_column() * mu
               + system.Q1.apply(Wz, Wz) + (Wz @ system.Q2m.T) * mu + system.q3 * mu**2)
        defect = lhs - rhs
    else:
        n, M, C, Kt, Ru = system.n, system.M, system.C, system.Kt, system.Ru
        U, V = Wz[:, :n], Wz[:, n:]
        dU, dV = dWf[:, :n], dWf[:, n:]
        r1 = (M @ dU.T - M @ V.T).T
        r2 = ((M @ dV.T + C @ V.T + Kt @ U.T).T - mu * system.Rt - mu * (Ru @ U.T).T
              + system.nonlinear_force(U))
        defect = np.concatenate([r1, r2], axis=1)
    return np.linalg.norm(defect, axis=1)


# sample directions of residual_slope and the seed that draws them
_SLOPE_DIRS, _SLOPE_SEED = 6, 0


def conjugate_sample(rom, radius, rng):
    """Random conjugate-consistent sample point at the given radius."""
    z = np.zeros(rom.table.nvars, dtype=complex)
    if rom.conj_map is None:
        raise ValueError("ROM has no conjugate structure")
    reps = [s for s in range(rom.d) if rom.conj_map[s] > s]
    raw = rng.standard_normal(2 * len(reps) + 1)
    raw /= np.linalg.norm(raw)
    z[reps] = (radius * raw[:-1]).view(complex)
    z[rom.conj_map[reps]] = z[reps].conj()
    z[-1] = radius * raw[-1]
    return z


def residual_slope(rom, system, radii=None):
    """Log-log slope of the invariance residual against the sample radius;
    the residual of a radius is the largest over _SLOPE_DIRS sample points
    (the same seeded directions for every ROM).

    The directions are evaluated once, as graded pieces G_p
    (_graded_pieces); the values at radius r are sum_p r^p G_p, and the
    defect of every radius and direction is evaluated in one call.  The
    radii are not stacked into one table of monomial values: it would be
    len(radii) times the directions' table (its power gather takes 10 MB at
    order 11 with five radii), where the pieces take a few kB.
    """
    if radii is None:
        radii = np.logspace(-4, -2, 7)
    radii = np.asarray(radii, dtype=float)
    rng = np.random.default_rng(_SLOPE_SEED)
    dirs = np.array([conjugate_sample(rom, 1.0, rng) for _ in range(_SLOPE_DIRS)])
    G = _graded_pieces(rom, dirs)
    graded = np.tensordot(radii[:, None] ** np.arange(rom.order + 1), G, axes=1)
    Wz, _, dWf = _evaluated(rom, graded.reshape(-1, G.shape[2]))
    mu = (radii[:, None] * dirs[:, -1]).reshape(-1, 1)
    vals = _defect_norms(system, Wz, dWf, mu).reshape(len(radii), -1).max(axis=1)
    slope = np.polyfit(np.log(radii), np.log(vals), 1)[0]
    return float(slope), vals
