"""Multi-index monomial tables and sparse multilinear forms.

This is the arithmetic substrate shared by the model builders and the
reduction engines: graded-lexicographic monomial enumeration over the
normal coordinates plus the control-parameter slot, and coordinate-format
bilinear/trilinear forms with vector, matrix and partial contractions.

Each monomial also carries a mixed-radix integer code with radix
max_order + 1, so that code(a + b) = code(a) + code(b).  The homological
assembly uses it to build product index tables: the ids of every sum of
one monomial of each of a few given orders come from one outer sum of
codes and one vectorised lookup, and each form is then applied to whole
blocks of mapping coefficients at once (`apply_outer`) instead of pair by
pair.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import comb

import numpy as np
import scipy.sparse as sp


def _compositions_desc(total, nvars):
    """All exponent tuples summing to `total`, descending lexicographic."""
    if nvars == 1:
        yield (total,)
        return
    for first in range(total, -1, -1):
        for rest in _compositions_desc(total - first, nvars - 1):
            yield (first,) + rest


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

        rows = []
        starts = [0]
        for p in range(1, max_order + 1):
            rows.extend(_compositions_desc(p, nvars))
            starts.append(len(rows))
        self.exponents = np.array(rows, dtype=np.int64)
        self._order_starts = starts
        self.orders = self.exponents.sum(axis=1)
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

    def _check_vec(self, u, dim, name):
        u = np.asarray(u)
        if u.shape != (dim,):
            raise ValueError(f"{name} must have length {dim}, got shape {u.shape}")
        return u

    def apply(self, u, v):
        u = self._check_vec(u, self.dim_in1, "u")
        v = self._check_vec(v, self.dim_in2, "v")
        dtype = np.result_type(self.val.dtype if self.val.size else float, u.dtype, v.dtype)
        out = np.zeros(self.dim_out, dtype=dtype)
        if self.val.size:
            np.add.at(out, self.p, self.val * u[self.i] * v[self.j])
        return out

    def apply_outer(self, U1, U2, targets, n_targets):
        """Q(U1[a], U2[b]) summed into row targets[a, b] of an (n_targets, dim_out) array."""
        return _scatter_products(self, (self.i, self.j), (U1, U2), targets, n_targets)

    def contract_left(self, u):
        """Matrix Q(u, .): rows p, columns the second slot."""
        u = self._check_vec(u, self.dim_in1, "u")
        return sp.coo_matrix((self.val * u[self.i], (self.p, self.j)),
                             shape=(self.dim_out, self.dim_in2)).tocsr()

    def contract_right(self, v):
        """Matrix Q(., v): rows p, columns the first slot."""
        v = self._check_vec(v, self.dim_in2, "v")
        return sp.coo_matrix((self.val * v[self.j], (self.p, self.i)),
                             shape=(self.dim_out, self.dim_in1)).tocsr()

    def apply_matrix_left(self, A, v):
        """[Q(A, v)]_pq = Q_pij A_iq v_j  (matrix in the first slot)."""
        A = np.asarray(A)
        if A.shape[0] != self.dim_in1:
            raise ValueError("matrix rows must match the first input dimension")
        return self.contract_right(v) @ A

    def apply_matrix_right(self, u, A):
        """[Q(u, A)]_pq = Q_pij u_i A_jq  (matrix in the second slot)."""
        A = np.asarray(A)
        if A.shape[0] != self.dim_in2:
            raise ValueError("matrix rows must match the second input dimension")
        return self.contract_left(u) @ A


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

    def _check_vec(self, u, name):
        u = np.asarray(u)
        if u.shape != (self.dim_in,):
            raise ValueError(f"{name} must have length {self.dim_in}, got shape {u.shape}")
        return u

    def apply(self, u, v, w):
        u = self._check_vec(u, "u")
        v = self._check_vec(v, "v")
        w = self._check_vec(w, "w")
        dtype = np.result_type(self.val.dtype if self.val.size else float,
                               u.dtype, v.dtype, w.dtype)
        out = np.zeros(self.dim_out, dtype=dtype)
        if self.val.size:
            np.add.at(out, self.p, self.val * u[self.i] * v[self.j] * w[self.k])
        return out

    def apply_outer(self, U1, U2, U3, targets, n_targets):
        """H(U1[a], U2[b], U3[c]) summed into row targets[a, b, c] of an
        (n_targets, dim_out) array."""
        return _scatter_products(self, (self.i, self.j, self.k), (U1, U2, U3),
                                 targets, n_targets)

    def contract_first_two(self, u, v):
        """Matrix H(u, v, .): rows p, columns the third slot."""
        u = self._check_vec(u, "u")
        v = self._check_vec(v, "v")
        return sp.coo_matrix((self.val * u[self.i] * v[self.j], (self.p, self.k)),
                             shape=(self.dim_out, self.dim_in)).tocsr()


def monomial_count(p, nvars):
    """Closed-form count of order-p monomials in nvars variables."""
    return comb(p + nvars - 1, nvars - 1)
