"""Multi-index monomial tables and sparse multilinear forms.

This is the arithmetic substrate shared by the model builders and the
reduction engines: graded-lexicographic monomial enumeration over the
normal coordinates plus the control-parameter slot, and coordinate-format
bilinear/trilinear forms with vector, blockwise and partial contractions.

Each monomial also carries a mixed-radix integer code with radix
max_order + 1, so that code(a + b) = code(a) + code(b).  The homological
assembly uses it to build product index tables: the ids of every sum of
one monomial of each of a few given orders come from one outer sum of
codes and one vectorised lookup, and each form is then applied to whole
blocks of mapping coefficients at once (`apply_outer`) instead of pair by
pair.

The invariance check evaluates every monomial at a block of points at
once (`MonomialTable.batch_values`): each monomial is its parent (alpha
less one unit of its first nonzero variable) times that variable, order by
order, and the partial derivatives read the lowered-exponent columns
(`MonomialTable.lowered`) of the same table.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from math import comb

import numpy as np
import scipy.sparse as sp


def _graded_desc_lex(nvars, max_order):
    """Exponent rows of orders 1..max_order, graded, then descending lex.

    Starts from one partial row per order holding its remaining degree and
    fixes one variable at a time: each partial row expands, in place, into
    the rows with that variable at remaining, remaining - 1, ..., 0, which
    keeps both the grading and the descending-lexicographic order.
    """
    rem = np.arange(1, max_order + 1, dtype=np.int64)
    cols = []
    for _ in range(nvars - 1):
        reps = rem + 1
        row = np.repeat(np.arange(len(rem)), reps)  # partial row each new row extends
        step = np.arange(len(row)) - np.repeat(np.cumsum(reps) - reps, reps)
        first = rem[row] - step
        cols = [c[row] for c in cols] + [first]
        rem = rem[row] - first
    return np.column_stack(cols + [rem])


class MonomialTable:
    """All monomials of orders 1..max_order in `nvars` variables.

    Ordering is graded, then descending lexicographic with the first
    variable having highest priority and the parameter slot last.  With
    that ordering, the within-order dependency alpha + e_s - e_j (s < j)
    used by the Jordan coupling term always points to an earlier id, so a
    single forward pass over each order resolves it.
    """

    def __init__(self, nvars, max_order):
        if nvars < 2:
            raise ValueError(f"need at least 2 variables (one state + parameter), got {nvars}")
        if max_order < 1:
            raise ValueError(f"max_order must be >= 1, got {max_order}")
        self.nvars = int(nvars)
        self.max_order = int(max_order)

        self.exponents = _graded_desc_lex(self.nvars, self.max_order)
        self._order_starts = [0] + np.cumsum(
            [monomial_count(p, self.nvars) for p in range(1, self.max_order + 1)]).tolist()
        # every exponent is <= max_order < radix, so codes are unique, and a
        # sum of exponents whose order stays <= max_order has no carries
        radix = self.max_order + 1
        if radix ** self.nvars > np.iinfo(np.int64).max:
            raise ValueError(f"{nvars} variables at order {max_order} overflow the monomial codes")
        self.code_weights = radix ** np.arange(self.nvars - 1, -1, -1, dtype=np.int64)
        self.codes = self.exponents @ self.code_weights
        self._code_order = np.argsort(self.codes)
        self._sorted_codes = self.codes[self._code_order]

    def __len__(self):
        return self.exponents.shape[0]

    def count_of_order(self, p):
        if not 1 <= p <= self.max_order:
            raise ValueError(f"order {p} outside table range")
        return self._order_starts[p] - self._order_starts[p - 1]

    def ids_of_order(self, p):
        if not 1 <= p <= self.max_order:
            raise ValueError(f"order {p} outside table range")
        return range(self._order_starts[p - 1], self._order_starts[p])

    def ids_of_codes(self, codes):
        """Monomial ids of an array of codes; raises if any code is not in the table."""
        codes = np.asarray(codes, dtype=np.int64)
        pos = np.minimum(np.searchsorted(self._sorted_codes, codes), len(self) - 1)
        if not np.array_equal(self._sorted_codes[pos], codes):
            raise ValueError("monomial code not in table")
        return self._code_order[pos]

    def product_ids(self, *orders):
        """Ids of alpha_1 + ... + alpha_k over all alpha_i of order orders[i].

        Returns an integer array of shape (count_of_order(orders[0]), ...),
        offset so that 0 is the first monomial of order sum(orders).
        """
        p = sum(orders)
        if p > self.max_order:
            raise ValueError(f"order {p} outside table range")
        codes = 0
        for q in orders:
            codes = np.add.outer(codes, self.codes[self.ids_of_order(q)])
        return self.ids_of_codes(codes) - self._order_starts[p - 1]

    def get(self, exps):
        """index_of without raising; returns None for unknown monomials."""
        e = np.asarray(exps, dtype=np.int64)
        # a vector outside the table could alias a table code: reject it first
        if e.shape != (self.nvars,) or e.min() < 0 or not 1 <= e.sum() <= self.max_order:
            return None
        return int(self.ids_of_codes(e @ self.code_weights))

    def index_of(self, exps):
        mid = self.get(exps)
        if mid is None:
            raise ValueError(f"monomial {tuple(np.ravel(exps))} not in table")
        return mid

    def conjugation_permutation(self, conj_map):
        """Monomial permutation induced by a variable conjugation map.

        conj_map[v] is the variable index of the conjugate of variable v
        (the parameter maps to itself).  Returns perm with perm[mid] = id
        of the conjugated monomial.
        """
        conj_map = np.asarray(conj_map, dtype=np.int64)
        if conj_map.shape != (self.nvars,):
            raise ValueError("conj_map must have one entry per variable")
        if not np.array_equal(np.sort(conj_map), np.arange(self.nvars)):
            raise ValueError("conj_map must be a permutation of the variables")
        return self.ids_of_codes(self.exponents @ self.code_weights[conj_map])

    @cached_property
    def lowered(self):
        """Per variable s: (ids, lowered ids, alpha_s) over the monomials with
        alpha_s > 0; the lowered id is that of alpha - e_s, or -1 for the
        constant monomial, which is the last column of `batch_values`."""
        out = []
        for s in range(self.nvars):
            ids = np.flatnonzero(self.exponents[:, s])
            low = np.full(len(ids), -1)
            inner = ids >= self.nvars  # order 1 lowers to the constant
            low[inner] = self.ids_of_codes(self.codes[ids[inner]] - self.code_weights[s])
            out.append((ids, low, self.exponents[ids, s]))
        return out

    @cached_property
    def _parents(self):
        """(parent id, variable) of each monomial: its first nonzero variable
        and the id of alpha minus that variable (-1 for order 1)."""
        var = np.argmax(self.exponents > 0, axis=1)
        parent = np.full(len(self), -1)
        parent[self.nvars:] = self.ids_of_codes(self.codes[self.nvars:]
                                                - self.code_weights[var[self.nvars:]])
        return parent, var

    def batch_values(self, Z):
        """Every monomial at each row of Z, shape (len(Z), len(self) + 1).

        Order by order, a monomial's value is its parent's value times one
        variable.  The extra last column holds the constant monomial 1, so
        that the id -1 of `lowered` reads it.
        """
        Z = np.asarray(Z)
        if Z.ndim != 2 or Z.shape[1] != self.nvars:
            raise ValueError(f"points must be rows of {self.nvars} components")
        parent, var = self._parents
        vals = np.empty((len(Z), len(self) + 1), dtype=np.result_type(Z, float))
        vals[:, -1] = 1.0
        for lo, hi in zip(self._order_starts[:-1], self._order_starts[1:]):
            vals[:, lo:hi] = vals[:, parent[lo:hi]] * Z[:, var[lo:hi]]
        return vals

    def monomial_values(self, z):
        """Evaluate every monomial at the point z (length nvars)."""
        z = np.asarray(z)
        if z.shape != (self.nvars,):
            raise ValueError(f"point must have {self.nvars} components")
        return np.prod(z[None, :] ** self.exponents, axis=1)


def polynomial_eval(table, coeffs, z):
    """Sum of coeffs[mid] * z^alpha(mid) over the whole table.

    coeffs is (nmonomials, dim); there is no constant term by construction.
    """
    coeffs = np.asarray(coeffs)
    if coeffs.shape[0] != len(table):
        raise ValueError("one coefficient row per table monomial required")
    vals = table.monomial_values(z)
    return coeffs.T @ vals


def _check_vec(u, dim, name, batch=False):
    """u as an array of length dim, or of rows of length dim when batch."""
    u = np.asarray(u)
    if u.shape[-1:] != (dim,) or (u.ndim > 1 and not batch):
        raise ValueError(f"{name} must have length {dim}, got shape {u.shape}")
    return u


def _scatter_entries(form, terms):
    """Sum of the per-entry terms (last axis) into their output rows form.p."""
    out = np.zeros(terms.shape[:-1] + (form.dim_out,), dtype=terms.dtype)
    np.add.at(out, (..., form.p), terms)
    return out


def _scatter_products(form, slots, blocks, targets, n_targets):
    """Sum of form(blocks[0][a], blocks[1][b], ...) into row targets[a, b, ...].

    slots are the form's index arrays (i, j[, k]) and blocks the matching
    row blocks.  All tuples of rows are visited at once per output
    component: a Khatri-Rao product of the first blocks, contracted with
    the last block by a matrix product, then scattered by target with
    bincount.  Memory stays at a few arrays of the size of targets.
    """
    out = np.zeros((n_targets, form.dim_out), dtype=complex)
    flat = np.ravel(targets)
    for p in np.unique(form.p):
        e = form.p == p
        acc = blocks[0][:, slots[0][e]] * form.val[e]
        for idx, U in zip(slots[1:-1], blocks[1:-1]):
            acc = (acc[:, None, :] * U[:, idx[e]][None, :, :]).reshape(-1, acc.shape[1])
        prod = (acc @ blocks[-1][:, slots[-1][e]].T).ravel()
        out[:, p] = (np.bincount(flat, prod.real, n_targets)
                     + 1j * np.bincount(flat, prod.imag, n_targets))
    return out


@dataclass
class SparseBilinearForm:
    """Coordinate-format bilinear form  [Q(u, v)]_p = Q_pij u_i v_j."""

    dim_out: int
    dim_in1: int
    dim_in2: int
    p: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))
    i: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))
    j: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))
    val: np.ndarray = field(default_factory=lambda: np.zeros(0))

    def __post_init__(self):
        self.p = np.asarray(self.p, dtype=np.int64)
        self.i = np.asarray(self.i, dtype=np.int64)
        self.j = np.asarray(self.j, dtype=np.int64)
        self.val = np.asarray(self.val)
        n = len(self.val)
        if not (len(self.p) == len(self.i) == len(self.j) == n):
            raise ValueError("entry arrays must have equal length")

    @classmethod
    def from_entries(cls, dim_out, dim_in1, dim_in2, entries):
        """entries: iterable of (p, i, j, value)."""
        entries = list(entries)
        if not entries:
            return cls(dim_out, dim_in1, dim_in2)
        p, i, j, v = zip(*entries)
        return cls(dim_out, dim_in1, dim_in2, np.array(p), np.array(i), np.array(j), np.array(v))

    def apply(self, u, v):
        """Q(u, v); u and v may carry leading batch axes."""
        u = _check_vec(u, self.dim_in1, "u", batch=True)
        v = _check_vec(v, self.dim_in2, "v", batch=True)
        return _scatter_entries(self, self.val * u[..., self.i] * v[..., self.j])

    def apply_outer(self, U1, U2, targets, n_targets):
        """Q(U1[a], U2[b]) summed into row targets[a, b] of an (n_targets, dim_out) array."""
        return _scatter_products(self, (self.i, self.j), (U1, U2), targets, n_targets)

    def contract_left(self, u):
        """Matrix Q(u, .): rows p, columns the second slot."""
        u = _check_vec(u, self.dim_in1, "u")
        return sp.coo_matrix((self.val * u[self.i], (self.p, self.j)),
                             shape=(self.dim_out, self.dim_in2)).tocsr()

    def contract_right(self, v):
        """Matrix Q(., v): rows p, columns the first slot."""
        v = _check_vec(v, self.dim_in2, "v")
        return sp.coo_matrix((self.val * v[self.j], (self.p, self.i)),
                             shape=(self.dim_out, self.dim_in1)).tocsr()


@dataclass
class SparseTrilinearForm:
    """Coordinate-format trilinear form  [H(u, v, w)]_p = H_pijk u_i v_j w_k."""

    dim_out: int
    dim_in: int
    p: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))
    i: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))
    j: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))
    k: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))
    val: np.ndarray = field(default_factory=lambda: np.zeros(0))

    def __post_init__(self):
        self.p = np.asarray(self.p, dtype=np.int64)
        self.i = np.asarray(self.i, dtype=np.int64)
        self.j = np.asarray(self.j, dtype=np.int64)
        self.k = np.asarray(self.k, dtype=np.int64)
        self.val = np.asarray(self.val)
        n = len(self.val)
        if not (len(self.p) == len(self.i) == len(self.j) == len(self.k) == n):
            raise ValueError("entry arrays must have equal length")

    @classmethod
    def from_entries(cls, dim_out, dim_in, entries):
        entries = list(entries)
        if not entries:
            return cls(dim_out, dim_in)
        p, i, j, k, v = zip(*entries)
        return cls(dim_out, dim_in, np.array(p), np.array(i), np.array(j),
                   np.array(k), np.array(v))

    def apply(self, u, v, w):
        """H(u, v, w); the arguments may carry leading batch axes."""
        u = _check_vec(u, self.dim_in, "u", batch=True)
        v = _check_vec(v, self.dim_in, "v", batch=True)
        w = _check_vec(w, self.dim_in, "w", batch=True)
        return _scatter_entries(self, self.val * u[..., self.i] * v[..., self.j] * w[..., self.k])

    def apply_outer(self, U1, U2, U3, targets, n_targets):
        """H(U1[a], U2[b], U3[c]) summed into row targets[a, b, c] of an
        (n_targets, dim_out) array."""
        return _scatter_products(self, (self.i, self.j, self.k), (U1, U2, U3),
                                 targets, n_targets)


def monomial_count(p, nvars):
    """Closed-form count of order-p monomials in nvars variables."""
    return comb(p + nvars - 1, nvars - 1)
