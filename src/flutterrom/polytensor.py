"""Multi-index monomial tables and sparse multilinear forms.

This is the arithmetic substrate shared by the model builders and the
reduction engines: graded-lexicographic monomial enumeration over the
normal coordinates plus the control-parameter slot, and coordinate-format
bilinear and trilinear forms, one body (`_SparseForm`) over two or three
slots, with vector and blockwise contractions.

Each monomial also carries a mixed-radix integer code with radix
max_order + 1, so that code(a + b) = code(a) + code(b).  Codes are looked
up only to build the raise tables, the ids of alpha + e_s over the
monomials of one order and every variable s (one outer sum of codes and
one vectorised lookup per order).  Everything else is read from them:
each monomial's parent (alpha less one unit of its first nonzero
variable), the lowered ids alpha - e_s, and the product index tables of
the homological assembly, the ids of every sum of one monomial of each of
a few given orders (`MonomialTable.product_ids`).  A pair table is a
gather from a raise table through the parents and is kept on the table;
the forms are then applied to whole blocks of mapping coefficients at
once (`apply_outer`) instead of pair by pair.  A `ConjugateHalf` holds
one monomial of each conjugate pair per order, over which such a sum runs
when conjugation maps it onto itself, and completes the sum.

Monomials are evaluated in one place, at one point or a block of points:
`power_values` gathers powers u_s^k from a table of them by a
`power_index` of exponent rows and multiplies them out.  The realified
reduced dynamics, `ParametrisationROM.linear_block` and the invariance
check evaluate through it; `MonomialTable.monomial_values` and
`polynomial_eval` are their pointwise oracles.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from math import comb

import numpy as np


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
        self._pairs = {}  # product_ids memo of pair tables (a, b) with a >= b

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
        offset so that 0 is the first monomial of order sum(orders); the
        table of a pair is read-only.

        Only the raise tables (a, 1) look codes up, one lookup each.  A
        pair (a, b) with a >= b > 1 is a gather from the raise table
        (a + b - 1, 1): each beta of order b is its parent times one
        variable, so alpha + beta raises alpha + parent(beta) by that
        variable.  (b, a) is the transpose of (a, b), and the table of
        three or more orders gathers the last order's pair table through
        the table of the others.  Pair tables are kept on the table, so a
        build makes each once.
        """
        p = sum(orders)
        if p > self.max_order:
            raise ValueError(f"order {p} outside table range")
        if len(orders) > 2:
            head = self.product_ids(*orders[:-1])
            return self.product_ids(p - orders[-1], orders[-1])[head]
        a, b = orders
        if a < b:
            return self.product_ids(b, a).T
        if (a, b) not in self._pairs:
            if b == 1:
                codes = np.add.outer(self.codes[self.ids_of_order(a)], self.code_weights)
                ids = self.ids_of_codes(codes) - self._order_starts[p - 1]
            else:
                parent, var = self._parents
                lo, hi = self._order_starts[b - 1], self._order_starts[b]
                inner = self.product_ids(a, b - 1)[:, parent[lo:hi] - self._order_starts[b - 2]]
                ids = self.product_ids(p - 1, 1)[inner, var[lo:hi]]
            ids.flags.writeable = False
            self._pairs[a, b] = ids
        return self._pairs[a, b]

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

    def _raised(self):
        """(order-q ids, their raise table) for q = 1 .. max_order - 1; the
        raise table holds global ids."""
        for q in range(1, self.max_order):
            lo, hi = self._order_starts[q - 1], self._order_starts[q]
            yield np.arange(lo, hi), self.product_ids(q, 1) + hi

    @cached_property
    def lowered(self):
        """Per variable s: (ids, lowered ids, alpha_s) over the monomials with
        alpha_s > 0; the lowered id is that of alpha - e_s, or -1 for the
        constant monomial (a last column of ones after the monomial values).
        Every alpha + e_s of a raise table lowers back to alpha."""
        low = np.full((len(self), self.nvars), -1)
        for ids, up in self._raised():
            low[up, np.arange(self.nvars)] = ids[:, None]
        out = []
        for s in range(self.nvars):
            ids = np.flatnonzero(self.exponents[:, s])
            out.append((ids, low[ids, s], self.exponents[ids, s]))
        return out

    @cached_property
    def power_index(self):
        """power_index of the table's exponents: power_values with it
        evaluates every monomial of the table."""
        return power_index(self.exponents)

    @cached_property
    def _parents(self):
        """(parent id, variable) of each monomial: its first nonzero variable
        and the id of alpha minus that variable (-1 for order 1).  Each
        monomial is in its parent's row of a raise table once, at a variable
        no later than the parent's own first nonzero one."""
        var = np.argmax(self.exponents > 0, axis=1)
        parent = np.full(len(self), -1)
        for ids, up in self._raised():
            rows, cols = np.nonzero(np.arange(self.nvars) <= var[ids, None])
            parent[up[rows, cols]] = ids[rows]
        return parent, var

    def monomial_values(self, z):
        """Evaluate every monomial at the point z (length nvars)."""
        z = np.asarray(z)
        if z.shape != (self.nvars,):
            raise ValueError(f"point must have {self.nvars} components")
        return np.prod(z[None, :] ** self.exponents, axis=1)


class ConjugateHalf:
    """One monomial of each conjugate pair of a table, per order, for sums
    that conjugation maps onto themselves.

    partner is the table's conjugation permutation (conjugation_permutation).
    At order q, rows[q] holds the positions within the order of the
    representatives, partner[id] >= id (the first monomial of each pair in
    table order and every self-conjugate one), weights[q] their weights, 1,
    or exactly 1/2 if self-conjugate, and partners[q] is partner within the
    order.  If conjugating a term's first factor, of order q, and its other
    factors conjugates the term and its order-p target, the sum S over every
    first factor is S_h + conj S_h[partners[p]], where S_h sums over the
    weighted representatives alone: first() and targets() gather those rows
    and complete() adds the conjugate.  products counts the entries of the
    product tables that targets() handed out.
    """

    def __init__(self, table, partner):
        self.table = table
        self.rows, self.weights, self.partners = {}, {}, {}
        for q in range(1, table.max_order + 1):
            ids = table.ids_of_order(q)
            local = partner[ids.start:ids.stop] - ids.start
            rows = np.flatnonzero(local >= np.arange(len(local)))
            self.rows[q], self.partners[q] = rows, local
            self.weights[q] = np.where(local[rows] == rows, 0.5, 1.0)[:, None]
        self.products = 0

    def first(self, U, q):
        """The weighted representative rows of the order-q rows of U (one row
        per table monomial)."""
        return U[self.table.ids_of_order(q).start + self.rows[q]] * self.weights[q]

    def targets(self, orders, cols=None):
        """table.product_ids(*orders) at the representative rows of the first
        order (and at the positions cols of the second, if given), gathered
        row by row before the further orders; adds its size to products."""
        rows, product_ids = self.rows[orders[0]], self.table.product_ids
        out = product_ids(*orders[:2])[rows if cols is None else np.ix_(rows, cols)]
        for k in range(2, len(orders)):
            out = product_ids(sum(orders[:k]), orders[k])[out]
        self.products += out.size
        return out

    def complete(self, S, p):
        """S + conj S at the conjugate order-p targets."""
        return S + S[self.partners[p]].conj()


def power_index(exps, lowered=False):
    """Gather index of u^alpha into a power table (`power_values`) for the
    exponent rows alpha of exps, shape (..., nu), variable axis first.

    With lowered the rows gain a leading axis of 1 + nu: alpha, then each
    alpha - e_s (zero where alpha_s is), whose value times alpha_s is the
    derivative of u^alpha by u_s.
    """
    exps = np.asarray(exps)
    nu = exps.shape[-1]
    if lowered:
        down = np.maximum(exps - np.eye(nu, dtype=exps.dtype)[:, None], 0)
        exps = np.concatenate((exps[None], down))
    return np.ascontiguousarray(np.moveaxis(exps * nu + np.arange(nu), -1, 0))


def power_values(U, index, order):
    """The monomials of a power_index at the point U (1-D) or at each row of
    U, shape U.shape[:-1] + index.shape[1:].

    The power table holds u_s^k at k * nu + s, k = 0..order (a complex
    power by repeated multiplication); each point multiplies its gathered
    powers in variable order, so a row of a block has the bits of its
    point alone.
    """
    U = np.asarray(U)
    k = np.arange(order + 1, dtype=U.dtype)  # no cast in u ** k
    P = (U[..., None, :] ** k[:, None]).reshape(U.shape[:-1] + (-1,))
    return np.multiply.reduce(P.take(index, axis=-1), axis=U.ndim - 1)


def polynomial_eval(table, coeffs, z):
    """Sum of coeffs[mid] * z^alpha(mid) over the whole table.

    coeffs is (nmonomials, dim); there is no constant term by construction.
    """
    coeffs = np.asarray(coeffs)
    if coeffs.shape[0] != len(table):
        raise ValueError("one coefficient row per table monomial required")
    vals = table.monomial_values(z)
    return coeffs.T @ vals


def _check_vec(u, dim, name):
    """u as an array of length dim, or of rows of length dim."""
    u = np.asarray(u)
    if u.shape[-1:] != (dim,):
        raise ValueError(f"{name} must have length {dim}, got shape {u.shape}")
    return u


class _SparseForm:
    """Coordinate-format multilinear form [F(u, v, ...)]_p = sum over its
    entries of val u_i v_j ...; a subclass lists its argument slots in
    _slots, as (index field, input dimension field) pairs."""

    def __post_init__(self):
        names = ("p",) + tuple(slot for slot, _ in self._slots)
        for name in names:
            setattr(self, name, np.asarray(getattr(self, name), dtype=np.int64))
        self.val = np.asarray(self.val)
        if any(len(getattr(self, name)) != len(self.val) for name in names):
            raise ValueError("entry arrays must have equal length")

    def apply(self, *args):
        """F(u, v, ...); the arguments may carry leading batch axes."""
        if len(args) != len(self._slots):
            raise TypeError(f"{type(self).__name__}.apply takes {len(self._slots)} arguments")
        terms = self.val
        for name, x, (slot, dim) in zip("uvw", args, self._slots):
            x = _check_vec(x, getattr(self, dim), name)
            terms = terms * x[..., getattr(self, slot)]
        out = np.zeros(terms.shape[:-1] + (self.dim_out,), dtype=terms.dtype)
        np.add.at(out, (..., self.p), terms)
        return out

    def apply_outer(self, *args):
        """apply_outer(U1, U2, ..., targets, n_targets): F(U1[a], U2[b], ...)
        summed into row targets[a, b, ...] of an (n_targets, dim_out) array.

        All tuples of rows are visited at once per output component: a
        Khatri-Rao product of the first blocks, contracted with the last
        block by a matrix product, then scattered by target with bincount.
        Memory stays at a few arrays of the size of targets.
        """
        *blocks, targets, n_targets = args
        slots = [getattr(self, slot) for slot, _ in self._slots]
        out = np.zeros((n_targets, self.dim_out), dtype=complex)
        flat = np.ravel(targets)
        for p in np.unique(self.p):
            e = self.p == p
            acc = blocks[0][:, slots[0][e]] * self.val[e]
            for idx, U in zip(slots[1:-1], blocks[1:-1]):
                acc = (acc[:, None, :] * U[:, idx[e]][None, :, :]).reshape(-1, acc.shape[1])
            prod = (acc @ blocks[-1][:, slots[-1][e]].T).ravel()
            out[:, p] = (np.bincount(flat, prod.real, n_targets)
                         + 1j * np.bincount(flat, prod.imag, n_targets))
        return out


@dataclass
class SparseBilinearForm(_SparseForm):
    """Coordinate-format bilinear form  [Q(u, v)]_p = Q_pij u_i v_j; apply and
    apply_outer are _SparseForm's, over the slots (i, j)."""

    dim_out: int
    dim_in1: int
    dim_in2: int
    p: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))
    i: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))
    j: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))
    val: np.ndarray = field(default_factory=lambda: np.zeros(0))
    _slots = (("i", "dim_in1"), ("j", "dim_in2"))

    @cached_property
    def swapped_sum(self):
        """The form Q(u, v) + Q(v, u): the entries and their slot-swapped
        copies, made once per form."""
        if self.dim_in1 != self.dim_in2:
            raise ValueError("swapping the slots needs equal input dimensions")
        twice = lambda a: np.concatenate((a, a))
        return SparseBilinearForm(self.dim_out, self.dim_in1, self.dim_in2, twice(self.p),
                                  np.concatenate((self.i, self.j)),
                                  np.concatenate((self.j, self.i)), twice(self.val))

    @classmethod
    def from_entries(cls, dim_out, dim_in1, dim_in2, entries):
        """entries: iterable of (p, i, j, value)."""
        entries = list(entries)
        if not entries:
            return cls(dim_out, dim_in1, dim_in2)
        p, i, j, v = zip(*entries)
        return cls(dim_out, dim_in1, dim_in2, np.array(p), np.array(i), np.array(j), np.array(v))


@dataclass
class SparseTrilinearForm(_SparseForm):
    """Coordinate-format trilinear form  [H(u, v, w)]_p = H_pijk u_i v_j w_k;
    apply and apply_outer are _SparseForm's, over the slots (i, j, k)."""

    dim_out: int
    dim_in: int
    p: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))
    i: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))
    j: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))
    k: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))
    val: np.ndarray = field(default_factory=lambda: np.zeros(0))
    _slots = (("i", "dim_in"), ("j", "dim_in"), ("k", "dim_in"))

    @classmethod
    def from_entries(cls, dim_out, dim_in, entries):
        entries = list(entries)
        if not entries:
            return cls(dim_out, dim_in)
        p, i, j, k, v = zip(*entries)
        return cls(dim_out, dim_in, np.array(p), np.array(i), np.array(j),
                   np.array(k), np.array(v))


def monomial_count(p, nvars):
    """Closed-form count of order-p monomials in nvars variables."""
    return comb(p + nvars - 1, nvars - 1)
