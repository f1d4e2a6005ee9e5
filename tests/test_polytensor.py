import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flutterrom.dpim import build_rom_firstorder
from flutterrom.models import build_ziegler, build_ziegler2, recast_to_dae
from flutterrom.polytensor import (
    ConjugateHalf,
    MonomialTable,
    SparseBilinearForm,
    SparseTrilinearForm,
    monomial_count,
    polynomial_eval,
    power_index,
    power_values,
)
from flutterrom.spectral import solve_master_eigen
from tests.oracles import contract_left, contract_right


def brute_force_count(p, nvars):
    """Independent oracle: enumerate exponent tuples summing to p."""
    return sum(1 for e in itertools.product(range(p + 1), repeat=nvars) if sum(e) == p)


def compositions_desc(total, nvars):
    """The recursive enumeration the table used before its vectorised one:
    exponent tuples summing to `total`, descending lexicographic."""
    if nvars == 1:
        yield (total,)
        return
    for first in range(total, -1, -1):
        for rest in compositions_desc(total - first, nvars - 1):
            yield (first,) + rest


def random_bilinear(rng, dim, nnz=12, complex_vals=False):
    p = rng.integers(0, dim, nnz)
    i = rng.integers(0, dim, nnz)
    j = rng.integers(0, dim, nnz)
    v = rng.standard_normal(nnz)
    if complex_vals:
        v = v + 1j * rng.standard_normal(nnz)
    return SparseBilinearForm(dim, dim, dim, p, i, j, v)


def dense_bilinear(Q):
    """Dense triple-loop oracle representation of a sparse form."""
    T = np.zeros((Q.dim_out, Q.dim_in1, Q.dim_in2), dtype=complex)
    for p, i, j, v in zip(Q.p, Q.i, Q.j, Q.val):
        T[p, i, j] += v
    return T


class TestEnumeration:
    def test_order2_count_three_vars(self):
        table = MonomialTable(3, 2)
        assert table.count_of_order(2) == 6  # binomial(2+2, 2)

    def test_order1_two_vars(self):
        table = MonomialTable(2, 1)
        assert len(table) == 2
        assert table.exponents.tolist() == [[1, 0], [0, 1]]  # {z1, mu}

    def test_order9_five_vars_brute_force(self):
        # frozen from the itertools oracle: 715 order-9 monomials in 5 vars
        assert brute_force_count(9, 5) == 715
        table = MonomialTable(5, 9)
        assert table.count_of_order(9) == 715

    @pytest.mark.parametrize("nvars", range(2, 7))
    @pytest.mark.parametrize("order", range(1, 11))
    def test_counts_match_binomial(self, nvars, order):
        table = MonomialTable(nvars, order)
        assert table.count_of_order(order) == monomial_count(order, nvars)

    @pytest.mark.parametrize("nvars", range(2, 7))
    def test_exponents_match_recursive_enumeration(self, nvars):
        for order in range(1, 12):
            table = MonomialTable(nvars, order)
            rows = [r for p in range(1, order + 1) for r in compositions_desc(p, nvars)]
            expect = np.array(rows, dtype=np.int64)
            assert table.exponents.dtype == expect.dtype
            assert np.array_equal(table.exponents, expect)
            for p in range(1, order + 1):
                assert [tuple(r) for r in table.exponents[table.ids_of_order(p)]] == \
                    list(compositions_desc(p, nvars))

    def test_rejects_bad_sizes(self):
        with pytest.raises(ValueError):
            MonomialTable(1, 3)
        with pytest.raises(ValueError):
            MonomialTable(3, 0)

    def test_descending_lex_within_order(self):
        table = MonomialTable(3, 2)
        order2 = [tuple(table.exponents[m]) for m in table.ids_of_order(2)]
        assert order2 == [(2, 0, 0), (1, 1, 0), (1, 0, 1), (0, 2, 0), (0, 1, 1), (0, 0, 2)]
        # the parameter slot comes last
        assert order2[-1] == (0, 0, 2)

    def test_jordan_dependency_points_backwards(self):
        # alpha + e_s - e_j with s < j must already be processed
        table = MonomialTable(5, 4)
        for p in range(1, 5):
            ids = list(table.ids_of_order(p))
            for mid in ids:
                alpha = table.exponents[mid].copy()
                for s in range(5):
                    for j in range(s + 1, 5):
                        if alpha[j] == 0:
                            continue
                        dep = alpha.copy()
                        dep[s] += 1
                        dep[j] -= 1
                        assert table.index_of(dep) < mid

    @given(st.integers(2, 5), st.integers(1, 6))
    @settings(max_examples=30, deadline=None)
    def test_lookup_bijection(self, nvars, order):
        table = MonomialTable(nvars, order)
        for mid in range(len(table)):
            assert table.index_of(table.exponents[mid]) == mid

    @pytest.mark.parametrize("nvars,order", [(2, 1), (2, 4), (3, 3), (4, 2)])
    def test_lookup_outside_table_against_dict_oracle(self, nvars, order):
        # every vector in [-1, order+1]^nvars: negative entries, order 0 and
        # orders past the table must not alias a table code
        table = MonomialTable(nvars, order)
        oracle = {tuple(int(e) for e in row): mid for mid, row in enumerate(table.exponents)}
        for e in itertools.product(range(-1, order + 2), repeat=nvars):
            assert table.get(e) == oracle.get(e)
            if e in oracle:
                assert table.index_of(e) == oracle[e]
            else:
                with pytest.raises(ValueError):
                    table.index_of(e)
        for bad in ((1,) * (nvars - 1), (1,) * (nvars + 1)):
            assert table.get(bad) is None
            with pytest.raises(ValueError):
                table.index_of(bad)

    @pytest.mark.parametrize("orders", [(1, 1), (2, 3), (4, 1), (1, 2, 2), (2, 1, 1)])
    def test_product_ids_brute_force(self, orders):
        assert_product_ids_brute_force(MonomialTable(4, 6), orders)

    @pytest.mark.parametrize("orders", [(3, 3, 3), (1, 4, 2), (2, 2, 1, 1)])
    def test_product_ids_brute_force_order9(self, orders):
        # gathers through gathered pair tables, several levels deep
        assert_product_ids_brute_force(MonomialTable(5, 9), orders)

    def test_product_ids_rejects_orders_past_the_table(self):
        with pytest.raises(ValueError):
            MonomialTable(3, 4).product_ids(2, 3)

    def test_parents_brute_force(self):
        table = MonomialTable(4, 6)
        parent, var = table._parents
        for mid, alpha in enumerate(table.exponents):
            s = next(v for v in range(4) if alpha[v])
            low = alpha.copy()
            low[s] -= 1
            assert var[mid] == s
            assert parent[mid] == (table.index_of(low) if low.sum() else -1)

    def test_conjugation_permutation(self):
        # against swapping each exponent row's entries and looking the result
        # up in a dict of the table's rows; the last variable is the load
        for nvars, conj in ((3, [1, 0, 2]), (5, [1, 0, 3, 2, 4]), (5, [0, 1, 3, 2, 4])):
            table = MonomialTable(nvars, 6)
            ids = {tuple(row): mid for mid, row in enumerate(table.exponents.tolist())}
            perm = table.conjugation_permutation(conj)
            for mid, alpha in enumerate(table.exponents):
                swapped = np.zeros(nvars, dtype=np.int64)
                swapped[conj] = alpha
                assert perm[mid] == ids[tuple(swapped.tolist())]
                self_conjugate = all(alpha[v] == alpha[conj[v]] for v in range(nvars))
                assert (perm[mid] == mid) == self_conjugate
            assert np.array_equal(perm[perm], np.arange(len(table)))   # an involution
            # the load's powers are kept, and so is each monomial's order
            assert np.array_equal(table.exponents[perm, -1], table.exponents[:, -1])
            assert np.array_equal(table.exponents[perm].sum(axis=1),
                                  table.exponents.sum(axis=1))
        table = MonomialTable(5, 3)
        perm = table.conjugation_permutation([1, 0, 3, 2, 4])
        assert perm[table.index_of((2, 1, 0, 0, 0))] == table.index_of((1, 2, 0, 0, 0))

    @pytest.mark.parametrize("conj,match", [([1, 0, 3, 2], "one entry per variable"),
                                            ([1, 1, 3, 2, 4], "a permutation")])
    def test_conjugation_permutation_rejects_bad_maps(self, conj, match):
        with pytest.raises(ValueError, match=match):
            MonomialTable(5, 3).conjugation_permutation(conj)


class TestConjugateHalf:
    @pytest.mark.parametrize("conj", [[1, 0, 3, 2, 4], [3, 2, 1, 0, 4], [0, 1, 3, 2, 4]])
    def test_representatives_and_weights(self, conj):
        # against the exponents: of each conjugate pair the monomial first in
        # table order, weighted 1, and every self-conjugate one, weighted 1/2
        table = MonomialTable(5, 5)
        half = ConjugateHalf(table, table.conjugation_permutation(conj))
        for q in range(1, 6):
            ids = table.ids_of_order(q)
            rows, weights = [], []
            for loc, alpha in enumerate(table.exponents[ids.start:ids.stop]):
                swapped = np.zeros(5, dtype=np.int64)
                swapped[conj] = alpha
                mate = table.index_of(swapped) - ids.start
                assert half.partners[q][loc] == mate
                if mate >= loc:
                    rows.append(loc)
                    weights.append(0.5 if mate == loc else 1.0)
            assert half.rows[q].tolist() == rows
            assert half.weights[q].ravel().tolist() == weights

    def test_completes_a_sum_over_every_monomial(self):
        # sum over all order-2 a and order-1 b of x[a] y[b] at a + b, with x
        # and y conjugate-symmetric, from the representatives a alone
        conj = [1, 0, 3, 2, 4]
        table = MonomialTable(5, 3)
        partner = table.conjugation_permutation(conj)
        half = ConjugateHalf(table, partner)
        rng = np.random.default_rng(3)
        x = rng.standard_normal(len(table)) + 1j * rng.standard_normal(len(table))
        x = np.where(partner > np.arange(len(table)), x, x[partner].conj())
        x[partner == np.arange(len(table))] = x[partner == np.arange(len(table))].real
        start = table.ids_of_order(3).start
        expect = np.zeros(table.count_of_order(3), dtype=complex)
        for a in table.ids_of_order(2):
            for b in table.ids_of_order(1):
                expect[table.index_of(table.exponents[a] + table.exponents[b]) - start] += \
                    x[a] * x[b]
        half.products = 0
        targets = half.targets((2, 1))
        terms = half.first(x[:, None], 2) * x[table.ids_of_order(1)]
        got = np.zeros(len(expect), dtype=complex)
        np.add.at(got, targets, terms)
        assert np.allclose(half.complete(got, 3), expect, rtol=0, atol=1e-13)
        assert half.products == targets.size == len(half.rows[2]) * 5
        # gathers of three orders and of chosen columns
        for orders in ((1, 1, 1), (2, 1), (1, 2)):
            full = table.product_ids(*orders)
            assert np.array_equal(half.targets(orders), full[half.rows[orders[0]]])
        cols = np.array([4, 0])
        assert np.array_equal(half.targets((1, 2), cols),
                              table.product_ids(1, 2)[half.rows[1]][:, cols])

    @pytest.mark.parametrize("p", [2, 3, 4, 5])
    def test_bilinear_against_every_split(self, p):
        # a real form Q, diagonal entries among them, over every pair of a
        # of order p1 and b of order p - p1, p1 = 1 .. p - 1, at a + b, with
        # U conjugate-symmetric, from the splits p1 >= p - p1 and the
        # representatives alone
        table = MonomialTable(5, 5)
        partner = table.conjugation_permutation([1, 0, 3, 2, 4])
        half = ConjugateHalf(table, partner)
        rng = np.random.default_rng(p)
        Q = random_bilinear(rng, 3, nnz=12)
        Q = SparseBilinearForm(3, 3, 3, np.append(Q.p, [0, 2]), np.append(Q.i, [1, 2]),
                               np.append(Q.j, [1, 2]), np.append(Q.val, [0.7, -1.3]))
        U = rng.standard_normal((len(table), 3)) + 1j * rng.standard_normal((len(table), 3))
        own = partner == np.arange(len(table))
        U = np.where((partner > np.arange(len(table)))[:, None], U, U[partner].conj())
        U[own] = U[own].real
        start = table.ids_of_order(p).start
        expect = np.zeros((table.count_of_order(p), 3), dtype=complex)
        for p1 in range(1, p):
            for a in table.ids_of_order(p1):
                for b in table.ids_of_order(p - p1):
                    mid = table.index_of(table.exponents[a] + table.exponents[b])
                    expect[mid - start] += Q.apply(U[a], U[b])
        half.products = 0
        got = half.complete(half.bilinear(Q, U, p), p)
        assert np.allclose(got, expect, rtol=0, atol=1e-12 * np.abs(expect).max())
        assert half.products == sum(len(half.rows[p1]) * table.count_of_order(p - p1)
                                    for p1 in range((p + 1) // 2, p))


def assert_product_ids_brute_force(table, orders):
    """product_ids(*orders) against the sum of exponents of every tuple of
    monomials, looked up in a dict of the table's rows."""
    ids = {tuple(row): mid for mid, row in enumerate(table.exponents.tolist())}
    got = table.product_ids(*orders)
    start = table.ids_of_order(sum(orders))[0]
    blocks = [table.exponents[table.ids_of_order(q)] for q in orders]
    assert got.shape == tuple(len(b) for b in blocks)
    for pos in itertools.product(*(range(len(b)) for b in blocks)):
        alpha = sum(b[k] for b, k in zip(blocks, pos))
        assert got[pos] + start == ids[tuple(alpha.tolist())]


class TestProductMemo:
    def test_one_lookup_per_raise_table_in_a_build(self, monkeypatch):
        # a first-order o9 build looks codes up once per raise table (q, 1),
        # q = 1 .. 8, once over the whole table for the conjugate partners,
        # and never for a pair table or a Jordan dependency
        dae = recast_to_dae(build_ziegler2(1, 1, 1, 1, 1, xi_m=0.2), mu0=2.076805)
        spec = solve_master_eigen(dae, d=4)
        shapes = []
        lookup = MonomialTable.ids_of_codes

        def counted(self, codes):
            shapes.append(np.shape(codes))
            return lookup(self, codes)

        monkeypatch.setattr(MonomialTable, "ids_of_codes", counted)
        rom = build_rom_firstorder(dae, spec, 9)
        assert sorted(shapes) == sorted([(rom.table.count_of_order(q), 5) for q in range(1, 9)]
                                        + [(len(rom.table),)])

    def test_memo_is_read_only_and_transposes(self):
        table = MonomialTable(5, 9)
        for p in range(2, 10):
            for a in range(1, p):
                ids = table.product_ids(a, p - a)
                assert not ids.flags.writeable
                with pytest.raises(ValueError):
                    ids[0, 0] = 0
                assert np.array_equal(table.product_ids(p - a, a), ids.T)
        # each pair (a, b) with a >= b is kept once and handed out again
        assert sorted(table._pairs) == [(a, b) for a in range(1, 9) for b in range(1, a + 1)
                                        if a + b <= 9]
        assert table.product_ids(4, 3) is table.product_ids(4, 3)

    def test_tables_do_not_share_a_memo(self):
        small, large, twin = MonomialTable(4, 6), MonomialTable(5, 6), MonomialTable(4, 6)
        for orders in ((2, 2), (3, 1), (2, 2, 2)):
            for table in (small, large, twin):
                assert_product_ids_brute_force(table, orders)
        assert small._pairs is not twin._pairs
        assert small.product_ids(2, 2) is not twin.product_ids(2, 2)
        assert small.product_ids(2, 2).shape != large.product_ids(2, 2).shape


class TestBatchValues:
    """Monomial values at a block of points: power_index and power_values
    against the pointwise monomial_values."""

    @pytest.mark.parametrize("nvars,order", [(2, 1), (3, 5), (5, 7)])
    def test_against_pointwise_values(self, nvars, order):
        table = MonomialTable(nvars, order)
        rng = np.random.default_rng(nvars + order)
        Z = 0.7 * (rng.standard_normal((4, nvars)) + 1j * rng.standard_normal((4, nvars)))
        index = power_index(table.exponents)
        vals = power_values(Z, index, order)
        assert vals.shape == (4, len(table))
        expect = np.array([table.monomial_values(z) for z in Z])
        assert np.abs(vals - expect).max() <= 1e-14 * np.abs(expect).max()
        # one point alone, 1-D, gives the bits of its row in the block
        for z, row in zip(Z, vals):
            assert np.array_equal(power_values(z, index, order), row)

    @pytest.mark.parametrize("nvars,order", [(3, 5), (5, 4)])
    def test_lowered_rows_are_derivatives(self, nvars, order):
        # row 1 + s of a lowered index times alpha_s is d/du_s of u^alpha:
        # against central differences of monomial_values (error ~ h^2)
        table = MonomialTable(nvars, order)
        rng = np.random.default_rng(7 * nvars + order)
        z = 0.8 * (rng.standard_normal(nvars) + 1j * rng.standard_normal(nvars))
        vals = power_values(z, power_index(table.exponents, lowered=True), order)
        assert vals.shape == (1 + nvars, len(table))
        assert np.array_equal(vals[0], power_values(z, power_index(table.exponents), order))
        h = 1e-5
        for s, e in enumerate(np.eye(nvars)):
            fd = (table.monomial_values(z + h * e) - table.monomial_values(z - h * e)) / (2 * h)
            got = table.exponents[:, s] * vals[1 + s]
            assert np.abs(got - fd).max() <= 1e-8 * np.abs(fd).max()


class TestBatchedApply:
    def test_bilinear_rows_match_single_applies(self):
        rng = np.random.default_rng(21)
        Q = random_bilinear(rng, 5, nnz=20, complex_vals=True)
        U = rng.standard_normal((6, 5)) + 1j * rng.standard_normal((6, 5))
        V = rng.standard_normal((6, 5))
        got = Q.apply(U, V)
        assert got.shape == (6, 5)
        for a in range(6):
            assert np.array_equal(got[a], Q.apply(U[a], V[a]))

    def test_trilinear_rows_match_single_applies(self):
        rng = np.random.default_rng(22)
        H = SparseTrilinearForm(3, 4, *(rng.integers(0, d, 12) for d in (3, 4, 4, 4)),
                                rng.standard_normal(12))
        U = rng.standard_normal((2, 5, 4)) + 1j * rng.standard_normal((2, 5, 4))
        got = H.apply(U, U, U)
        assert got.shape == (2, 5, 3)
        for a, b in np.ndindex(2, 5):
            assert np.array_equal(got[a, b], H.apply(U[a, b], U[a, b], U[a, b]))


class TestBilinear:
    def test_single_entry(self):
        Q = SparseBilinearForm.from_entries(3, 3, 3, [(0, 0, 1, 2.0)])
        e0 = np.eye(3)[0]
        e1 = np.eye(3)[1]
        out = Q.apply(e0, e1)
        assert np.allclose(out, [2.0, 0, 0])

    def test_zero_argument(self):
        rng = np.random.default_rng(0)
        Q = random_bilinear(rng, 5)
        u = rng.standard_normal(5)
        assert np.allclose(Q.apply(u, np.zeros(5)), 0)

    @given(st.integers(0, 1000))
    @settings(max_examples=25, deadline=None)
    def test_dense_loop_oracle(self, seed):
        rng = np.random.default_rng(seed)
        dim = int(rng.integers(2, 9))
        Q = random_bilinear(rng, dim, complex_vals=True)
        T = dense_bilinear(Q)
        u = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        expect = np.einsum("pij,i,j->p", T, u, v)
        assert np.allclose(Q.apply(u, v), expect, atol=1e-13)

    @given(st.integers(0, 1000))
    @settings(max_examples=25, deadline=None)
    def test_linearity_in_each_slot(self, seed):
        rng = np.random.default_rng(seed)
        dim = int(rng.integers(2, 9))
        Q = random_bilinear(rng, dim)
        u, w, v = (rng.standard_normal(dim) for _ in range(3))
        a, b = rng.standard_normal(2)
        lhs = Q.apply(a * u + b * w, v)
        rhs = a * Q.apply(u, v) + b * Q.apply(w, v)
        assert np.allclose(lhs, rhs, atol=1e-12)
        lhs = Q.apply(v, a * u + b * w)
        rhs = a * Q.apply(v, u) + b * Q.apply(v, w)
        assert np.allclose(lhs, rhs, atol=1e-12)

    def test_matrix_contractions_pull_out_identity(self):
        # the matrices Q(y0, .) and Q(., y0) reproduce Q(y0, y) and Q(y, y0)
        rng = np.random.default_rng(3)
        dim = 6
        Q = random_bilinear(rng, dim)
        y0 = rng.standard_normal(dim)
        y = rng.standard_normal(dim)
        assert np.allclose(contract_left(Q, y0) @ y, Q.apply(y0, y), atol=1e-13)
        assert np.allclose(contract_right(Q, y0) @ y, Q.apply(y, y0), atol=1e-13)

    def test_matrix_variant_dense_oracle(self):
        rng = np.random.default_rng(7)
        dim = 5
        Q = random_bilinear(rng, dim, complex_vals=True)
        T = dense_bilinear(Q)
        v = rng.standard_normal(dim)
        expect = np.einsum("pij,j->pi", T, v)
        assert np.allclose(contract_right(Q, v).toarray(), expect, atol=1e-13)
        u = rng.standard_normal(dim)
        expect = np.einsum("pij,i->pj", T, u)
        assert np.allclose(contract_left(Q, u).toarray(), expect, atol=1e-13)

    def test_apply_outer_against_pairwise_apply(self):
        rng = np.random.default_rng(11)
        dim = 5
        Q = random_bilinear(rng, dim, nnz=20, complex_vals=True)
        U1 = rng.standard_normal((4, dim)) + 1j * rng.standard_normal((4, dim))
        U2 = rng.standard_normal((3, dim)) + 1j * rng.standard_normal((3, dim))
        targets = rng.integers(0, 6, (4, 3))
        expect = np.zeros((6, dim), dtype=complex)
        for a, b in np.ndindex(4, 3):
            expect[targets[a, b]] += Q.apply(U1[a], U2[b])
        assert np.allclose(Q.apply_outer(U1, U2, targets, 6), expect, rtol=0, atol=1e-13)

    def test_swapped_sum_against_two_applies(self):
        rng = np.random.default_rng(12)
        Q = random_bilinear(rng, 5, nnz=20)
        u, v = rng.standard_normal((2, 3, 5)) + 1j * rng.standard_normal((2, 3, 5))
        assert np.allclose(Q.swapped_sum.apply(u, v), Q.apply(u, v) + Q.apply(v, u),
                           rtol=0, atol=1e-13)
        assert Q.swapped_sum is Q.swapped_sum   # made once per form
        with pytest.raises(ValueError, match="equal input dimensions"):
            SparseBilinearForm(2, 2, 3).swapped_sum

    @pytest.mark.parametrize("n,entries,diagonal", [(2, 6, 2), (8, 42, 14)])
    def test_swapped_sum_folds_its_diagonal(self, n, entries, diagonal):
        # the recast Q1 of the Ziegler chain: a diagonal entry (i == j) is its
        # own swap, kept once at twice its value; the others twice
        chain = build_ziegler(np.full(n, 1.0 / n), np.full(n, float(n)), 1.0 / n)
        Q = recast_to_dae(chain, mu0=1.0).Q1
        assert len(Q.val) == entries and np.count_nonzero(Q.i == Q.j) == diagonal
        S = Q.swapped_sum
        assert len(S.val) == 2 * entries - diagonal   # 10 for n = 2, 70 for n = 8
        assert np.count_nonzero(S.i == S.j) == diagonal
        rng = np.random.default_rng(n)
        u, v = rng.standard_normal((2, 4, Q.dim_in1)) + 1j * rng.standard_normal((2, 4, Q.dim_in1))
        expect = Q.apply(u, v) + Q.apply(v, u)
        assert np.allclose(S.apply(u, v), expect, rtol=0, atol=1e-15 * np.abs(expect).max())

    def test_zero_form_gives_zero_matrix(self):
        Q = SparseBilinearForm(4, 4, 4)
        assert np.allclose(contract_left(Q, np.ones(4)).toarray(), 0)
        assert np.allclose(contract_right(Q, np.ones(4)).toarray(), 0)

    def test_dimension_mismatch(self):
        Q = SparseBilinearForm(4, 4, 4)
        with pytest.raises(ValueError):
            Q.apply(np.ones(3), np.ones(4))
        with pytest.raises(TypeError):
            Q.apply(np.ones(4))


class TestTrilinear:
    @given(st.integers(0, 500))
    @settings(max_examples=20, deadline=None)
    def test_dense_loop_oracle(self, seed):
        rng = np.random.default_rng(seed)
        dim = int(rng.integers(2, 7))
        nnz = 10
        H = SparseTrilinearForm(dim, dim,
                                rng.integers(0, dim, nnz), rng.integers(0, dim, nnz),
                                rng.integers(0, dim, nnz), rng.integers(0, dim, nnz),
                                rng.standard_normal(nnz))
        T = np.zeros((dim,) * 4)
        for p, i, j, k, v in zip(H.p, H.i, H.j, H.k, H.val):
            T[p, i, j, k] += v
        u, v_, w = (rng.standard_normal(dim) for _ in range(3))
        expect = np.einsum("pijk,i,j,k->p", T, u, v_, w)
        assert np.allclose(H.apply(u, v_, w), expect, atol=1e-12)


    def test_apply_outer_against_triplewise_apply(self):
        rng = np.random.default_rng(12)
        dim, nnz = 4, 15
        H = SparseTrilinearForm(dim, dim, *(rng.integers(0, dim, nnz) for _ in range(4)),
                                rng.standard_normal(nnz))
        U = [rng.standard_normal((n, dim)) + 1j * rng.standard_normal((n, dim))
             for n in (3, 2, 4)]
        targets = rng.integers(0, 5, (3, 2, 4))
        expect = np.zeros((5, dim), dtype=complex)
        for a, b, c in np.ndindex(3, 2, 4):
            expect[targets[a, b, c]] += H.apply(U[0][a], U[1][b], U[2][c])
        assert np.allclose(H.apply_outer(*U, targets, 5), expect, rtol=0, atol=1e-12)


class TestPolynomialEval:
    def test_order1_is_matvec(self):
        table = MonomialTable(3, 2)
        rng = np.random.default_rng(1)
        coeffs = np.zeros((len(table), 4), dtype=complex)
        W1 = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
        for s, mid in enumerate(table.ids_of_order(1)):
            coeffs[mid] = W1[s]
        z = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        assert np.allclose(polynomial_eval(table, coeffs, z), W1.T @ z, atol=1e-13)

    def test_zero_point(self):
        table = MonomialTable(4, 3)
        coeffs = np.ones((len(table), 2), dtype=complex)
        assert np.allclose(polynomial_eval(table, coeffs, np.zeros(4)), 0)

    def test_naive_oracle_order3(self):
        table = MonomialTable(4, 3)
        rng = np.random.default_rng(5)
        coeffs = rng.standard_normal((len(table), 3)) + 1j * rng.standard_normal((len(table), 3))
        z = 0.3 * (rng.standard_normal(4) + 1j * rng.standard_normal(4))
        naive = np.zeros(3, dtype=complex)
        for mid in range(len(table)):
            mono = 1.0 + 0j
            for v, e in enumerate(table.exponents[mid]):
                mono *= z[v] ** e
            naive += coeffs[mid] * mono
        assert np.allclose(polynomial_eval(table, coeffs, z), naive, atol=1e-12)

    def test_linear_in_coeffs(self):
        table = MonomialTable(3, 2)
        rng = np.random.default_rng(9)
        c1 = rng.standard_normal((len(table), 2))
        c2 = rng.standard_normal((len(table), 2))
        z = rng.standard_normal(3)
        lhs = polynomial_eval(table, 2.0 * c1 + 0.5 * c2, z)
        rhs = 2.0 * polynomial_eval(table, c1, z) + 0.5 * polynomial_eval(table, c2, z)
        assert np.allclose(lhs, rhs, atol=1e-13)
