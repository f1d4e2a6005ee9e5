"""Multi-index monomial tables and sparse multilinear forms.

This is the arithmetic substrate shared by the model builders and the
reduction engines: graded-lexicographic monomial enumeration over the
normal coordinates plus the control-parameter slot, and coordinate-format
bilinear/trilinear forms with vector, matrix and partial contractions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import comb

import numpy as np
import scipy.sparse as sp


@dataclass(frozen=True)
class MultiIndex:
    """Exponent tuple of one monomial; the last slot is the parameter."""

    exponents: tuple[int, ...]

    @property
    def order(self) -> int:
        return sum(self.exponents)

    def __post_init__(self):
        if any(e < 0 for e in self.exponents):
            raise ValueError("exponents must be non-negative")


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
        self._lookup = {tuple(row): i for i, row in enumerate(rows)}
        self.orders = self.exponents.sum(axis=1)

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

    def index_of(self, exps):
        key = tuple(int(e) for e in exps)
        try:
            return self._lookup[key]
        except KeyError:
            raise ValueError(f"monomial {key} not in table") from None

    def get(self, exps):
        """index_of without raising; returns None for unknown monomials."""
        return self._lookup.get(tuple(int(e) for e in exps))

    def multi_index(self, mid):
        return MultiIndex(tuple(int(e) for e in self.exponents[mid]))

    def conjugation_permutation(self, conj_map):
        """Monomial permutation induced by a variable conjugation map.

        conj_map[v] is the variable index of the conjugate of variable v
        (the parameter maps to itself).  Returns perm with perm[mid] = id
        of the conjugated monomial.
        """
        conj_map = np.asarray(conj_map, dtype=np.int64)
        if conj_map.shape != (self.nvars,):
            raise ValueError("conj_map must have one entry per variable")
        swapped = np.empty_like(self.exponents)
        swapped[:, conj_map] = self.exponents
        return np.array([self._lookup[tuple(row)] for row in swapped], dtype=np.int64)

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

    def contract_first_two(self, u, v):
        """Matrix H(u, v, .): rows p, columns the third slot."""
        u = self._check_vec(u, "u")
        v = self._check_vec(v, "v")
        return sp.coo_matrix((self.val * u[self.i] * v[self.j], (self.p, self.k)),
                             shape=(self.dim_out, self.dim_in)).tocsr()


def enumerate_monomials(d_plus_1, o):
    """Build the monomial table for d master coordinates plus the parameter."""
    return MonomialTable(d_plus_1, o)


def monomial_count(p, nvars):
    """Closed-form count of order-p monomials in nvars variables."""
    return comb(p + nvars - 1, nvars - 1)
