import numpy as np
import pytest
from scipy.integrate import solve_ivp

import flutterrom.models
from flutterrom.continuation import find_hopf
from flutterrom.models import (
    build_ziegler,
    build_ziegler2,
    build_ziegler3,
    recast_to_dae,
)
from flutterrom.spectral import _pencil_eigs_at, eigen_sweep


def test_every_public_model_name_imports():
    for name in flutterrom.models.__all__:
        assert getattr(flutterrom.models, name) is not None
    # a name outside the package is a plain AttributeError, not a failed import
    assert not hasattr(flutterrom.models, "BeckModel")


class TestZiegler2:
    def test_unit_parameter_matrices(self):
        m = build_ziegler2(1, 1, 1, 1, 1)
        assert np.allclose(m.M, [[2, 1], [1, 1]])
        assert np.allclose(m.K, [[2, -1], [-1, 1]])

    def test_kg_matrix(self):
        # the follower load's stiffness Kg = -P Ru enters the linear pencil
        m = build_ziegler2(1, 1, 1, 1, 1)
        assert np.allclose(-m.Ru, [[-1, 1], [0, 0]])
        assert np.allclose(m.linear_pencil(1.0)[2] - m.K, -m.Ru)

    def test_zero_damping(self):
        m = build_ziegler2(1, 1, 1, 1, 1, xi_m=0.0, xi_k=0.0)
        assert np.allclose(m.C, 0)

    def test_rayleigh_convention(self):
        m = build_ziegler2(1, 1, 1, 1, 1, xi_m=0.2, xi_k=0.05)
        assert np.allclose(m.C, 2 * (0.05 * m.K + 0.2 * m.M))

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            build_ziegler2(0, 1, 1, 1, 1)
        with pytest.raises(ValueError):
            build_ziegler2(1, 1, 1, -2, 1)

    def test_cubic_force_shape(self):
        # one cubic term, +P L/6 (th_1 - th_2)^3 on row 0, seen through the
        # accelerations of the FOM rhs at rest
        m = build_ziegler2(1, 1, 1, 1, 1)
        assert m.cubic_terms == [(0, 0, 1, 1.0 / 6.0)]
        th = np.array([0.3, -0.1])
        f = np.array([2.0 / 6.0 * (0.4) ** 3, 0.0])
        acc = m.fom_rhs(2.0)(0.0, np.concatenate([th, np.zeros(2)]))[2:]
        assert np.allclose(acc, -np.linalg.solve(m.M, (m.K - 2.0 * m.Ru) @ th + f),
                           rtol=1e-14, atol=1e-15)


class TestZiegler3:
    def test_unit_mass_matrix(self):
        m = build_ziegler3(1, 1, 1, 1, 1, 1, 1)
        assert np.allclose(m.M, [[3, 2, 1], [2, 2, 1], [1, 1, 1]])

    def test_stiffness_row(self):
        m = build_ziegler3(1, 1, 1, 1, 1, 1, 1)
        assert np.allclose(m.K[1], [-1, 2, -1])

    def test_kg(self):
        m = build_ziegler3(1, 1, 1, 1, 1, 1, 1)
        assert np.allclose(-m.Ru, [[-1, 0, 1], [0, -1, 1], [0, 0, 0]])

    def test_equal_angles_give_zero_cubic(self):
        # every cubic term is a power of th_i - th_3: equal angles leave only
        # the linear accelerations
        m = build_ziegler3(2, 1, 0.5, 3, 2, 1, 1)
        assert [(row, a, b) for row, a, b, _ in m.cubic_terms] == [(0, 0, 2), (1, 1, 2)]
        th = 0.37 * np.ones(3)
        acc = m.fom_rhs(5.0)(0.0, np.concatenate([th, np.zeros(3)]))[3:]
        assert np.allclose(acc, -np.linalg.solve(m.M, (m.K - 5.0 * m.Ru) @ th),
                           rtol=1e-13, atol=1e-15)

    def test_matrices_random_parameters(self):
        # entry-by-entry against the closed forms, random positive parameters
        rng = np.random.default_rng(11)
        m1, m2, m3, k1, k2, k3 = rng.uniform(0.5, 3.0, 6)
        L = rng.uniform(0.5, 2.0)
        m = build_ziegler3(m1, m2, m3, k1, k2, k3, L)
        Mref = L**2 * np.array([
            [m1 + m2 + m3, m2 + m3, m3],
            [m2 + m3, m2 + m3, m3],
            [m3, m3, m3]])
        Kref = np.array([
            [k1 + k2, -k2, 0],
            [-k2, k2 + k3, -k3],
            [0, -k3, k3]])
        assert np.allclose(m.M, Mref)
        assert np.allclose(m.K, Kref)


class TestZieglerChain:
    def test_matrices_against_link_sums(self):
        # energies summed link by link: mass j moves with L (th_1' + ... + th_j'),
        # spring i stretches by th_i - th_(i-1), the follower load at the tip
        # acts through th_i - th_n
        rng = np.random.default_rng(5)
        n = 5
        masses, stiff = rng.uniform(0.5, 3.0, n), rng.uniform(0.5, 3.0, n)
        L = rng.uniform(0.5, 2.0)
        m = build_ziegler(masses, stiff, L, xi_m=0.1, xi_k=0.02)
        lower = np.tril(np.ones((n, n)))
        Mref = L**2 * sum(mj * np.outer(lower[j], lower[j]) for j, mj in enumerate(masses))
        diff = np.eye(n) - np.eye(n, k=-1)
        Kref = sum(ki * np.outer(diff[i], diff[i]) for i, ki in enumerate(stiff))
        Ruref = L * np.array([np.eye(n)[i] - np.eye(n)[-1] for i in range(n)])
        assert m.n == n and m.L == L
        assert np.allclose(m.M, Mref, rtol=1e-14, atol=0)
        assert np.allclose(m.K, Kref, rtol=1e-14, atol=1e-15)
        assert np.array_equal(m.Ru, Ruref)
        assert np.allclose(m.C, 2 * (0.02 * m.K + 0.1 * m.M), rtol=1e-14, atol=0)
        assert m.cubic_terms == [(i, i, n - 1, L / 6.0) for i in range(n - 1)]

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError, match="m3 must be positive"):
            build_ziegler([1, 1, 0, 1], [1, 1, 1, 1], 0.25)
        with pytest.raises(ValueError, match="k2 must be positive"):
            build_ziegler([1, 1], [1, -1], 0.5)


def fom_rhs_by_loop(model, P, x):
    """The equations of motion with the cubic terms summed one by one."""
    n = model.n
    th, v = x[:n], x[n:]
    force = np.zeros(n)
    for row, a, b, coeff in model.cubic_terms:
        force[row] += coeff * P * (th[a] - th[b]) ** 3
    acc = np.linalg.solve(model.M, -model.C @ v - (model.K - P * model.Ru) @ th - force)
    return np.concatenate([v, acc])


def ziegler_without_cubics():
    m = build_ziegler3(1, 2, 0.5, 1, 3, 2, 1.5, xi_m=0.1, xi_k=0.02)
    m.cubic_terms = []
    return m


@pytest.mark.parametrize("make", [
    lambda: build_ziegler2(1, 1, 1, 1, 1, xi_m=0.2),
    lambda: build_ziegler3(1, 2, 0.5, 1, 3, 2, 1.5, xi_m=0.1, xi_k=0.02),
    ziegler_without_cubics,
], ids=["ziegler2", "ziegler3", "no-cubics"])
def test_fom_rhs_against_cubic_loop(make):
    m = make()
    rng = np.random.default_rng(12)
    for P in (0.0, 1.7, 2.9):
        rhs = m.fom_rhs(P)
        for x in 0.5 * rng.standard_normal((6, 2 * m.n)):
            ref = fom_rhs_by_loop(m, P, x)
            assert np.abs(rhs(0.0, x) - ref).max() <= 1e-14 * np.abs(ref).max()


FIRST_ORDER_MODELS = {
    "ziegler2": lambda: build_ziegler2(1, 1, 1, 1, 1, xi_m=0.2),
    "ziegler3": lambda: build_ziegler3(1, 2, 0.5, 1, 3, 2, 1.5, xi_m=0.1, xi_k=0.02),
    # the chain n = 8: masses 1/n, springs n, L = 1/n
    "chain8": lambda: build_ziegler(np.full(8, 0.125), np.full(8, 8.0), 0.125, xi_m=0.05),
}


@pytest.fixture(params=list(FIRST_ORDER_MODELS))
def first_order(request):
    """A model's first-order system about P0 = 2, at mu = 0.3."""
    m = FIRST_ORDER_MODELS[request.param]()
    system = m.first_order(2.0)
    system.mu = 0.3
    return m, system


class TestFirstOrder:
    def test_linearize_against_central_differences(self, first_order):
        # rhs is linear in the load, so its differences in mu carry
        # round-off only and may take a wide step
        m, system = first_order
        rng = np.random.default_rng(13)
        eps, eps_mu = 1e-5, 1e-3
        for x in 0.3 * rng.standard_normal((4, 2 * m.n)):
            f, J, g = system.linearize(x)
            Jfd = np.column_stack([(system.rhs(0.0, x + eps * e) - system.rhs(0.0, x - eps * e))
                                   / (2 * eps) for e in np.eye(2 * m.n)])
            system.mu = 0.3 + eps_mu
            up = system.rhs(0.0, x)
            system.mu = 0.3 - eps_mu
            down = system.rhs(0.0, x)
            system.mu = 0.3
            assert np.array_equal(f, system.rhs(0.0, x))
            assert np.abs(J - Jfd).max() <= 1e-9 * np.abs(J).max()
            assert np.abs(g - (up - down) / (2 * eps_mu)).max() <= 1e-9 * np.abs(g).max()
            assert np.array_equal(J, system.jacobian(x))

    def test_batched_rows_match_single_states(self, first_order):
        m, system = first_order
        X = 0.3 * np.random.default_rng(14).standard_normal((37, 2 * m.n))
        f, J, g = system.linearize(X)
        assert f.shape == g.shape == X.shape and J.shape == X.shape + X.shape[1:]
        assert np.array_equal(system.rhs(0.0, X), f)
        for k, x in enumerate(X):
            fk, Jk, gk = system.linearize(x)
            assert np.array_equal(fk, f[k]) and np.array_equal(Jk, J[k])
            assert np.array_equal(gk, g[k]) and np.array_equal(system.rhs(0.0, x), f[k])
        assert np.array_equal(system.map_batch(X), X)

    def test_rhs_at_the_load_against_cubic_loop(self, first_order):
        m, system = first_order
        for x in 0.5 * np.random.default_rng(15).standard_normal((6, 2 * m.n)):
            ref = fom_rhs_by_loop(m, 2.3, x)
            assert np.abs(system.rhs(0.0, x) - ref).max() <= 1e-13 * np.abs(ref).max()

    def test_linear_block_spectrum_is_the_pencil(self, first_order):
        m, system = first_order
        # not mu = 0: P = 2 is Ziegler-2's exceptional point, where round-off
        # moves the eigenvalues by its square root
        mus = np.array([-0.5, -0.25, 0.25, 0.5, 1.0])
        stack = system.linear_block(mus)
        assert stack.shape == (5, 2 * m.n, 2 * m.n)
        for mu, A in zip(mus, stack):
            assert np.array_equal(A, system.linear_block(mu))
            # each eigenvalue has its partner in the other spectrum (the
            # spectra are simple here)
            dist = np.abs(np.linalg.eigvals(A)[:, None] - _pencil_eigs_at(m, 2.0 + mu))
            assert max(dist.min(0).max(), dist.min(1).max()) <= 1e-10 * np.abs(A).max()

    def test_find_hopf_on_the_full_model(self):
        # the growth rate of A(P) changes sign at the sweep's Hopf point
        m = build_ziegler2(1, 1, 1, 1, 1, xi_m=0.2)
        P_H = eigen_sweep(m, (1.5, 3.0), 40).events["P_H"]
        assert abs(2.0 + find_hopf(m.first_order(2.0)) - P_H) < 1e-8


class TestRecast:
    def test_state_dimension(self):
        m = build_ziegler2(1, 1, 1, 1, 1, xi_m=0.2)
        dae = recast_to_dae(m, mu0=2.0)
        assert dae.dim == 6  # 4 states + 2 auxiliaries; mu appended by the engine

    def test_no_cubic_no_auxiliaries(self):
        m = build_ziegler2(1, 1, 1, 1, 1)
        m.cubic_terms = []
        dae = recast_to_dae(m, mu0=1.0)
        assert dae.dim == 4

    def test_fixed_point(self):
        m = build_ziegler2(1, 1, 1, 1, 1, xi_m=0.2)
        dae = recast_to_dae(m, mu0=2.5)
        assert dae.fixed_point_residual() < 1e-14

    def test_b_rank_deficient(self):
        m = build_ziegler2(1, 1, 1, 1, 1)
        dae = recast_to_dae(m, 2.0)
        assert np.linalg.matrix_rank(dae.B) == 4
        assert list(dae.algebraic_rows()) == [4, 5]

    def test_mu_row_trivial(self):
        # the parameter dynamics lives outside the DAE matrices: A has no
        # parameter column and the augmented system appends an exact mudot = 0
        m = build_ziegler2(1, 1, 1, 1, 1)
        dae = recast_to_dae(m, 2.0)
        assert dae.A.shape == (6, 6)

    def test_trajectory_equivalence_full(self):
        m = build_ziegler2(1, 1, 1, 1, 1, xi_m=0.2)
        # a post-flutter load; the flow settles towards a limit cycle
        P = 2.6
        dae = recast_to_dae(m, mu0=P)
        rhs_dae = dae.make_reduced_rhs(mu=0.0)
        rhs_direct = m.fom_rhs(P)
        x0 = np.array([1e-3, -5e-4, 0.0, 0.0])
        t_eval = np.linspace(0, 50, 201)
        kw = dict(method="DOP853", rtol=1e-12, atol=1e-14, t_eval=t_eval)
        sol_a = solve_ivp(rhs_dae, (0, 50), x0, **kw)
        sol_b = solve_ivp(rhs_direct, (0, 50), x0, **kw)
        assert sol_a.success and sol_b.success
        err = np.max(np.abs(sol_a.y - sol_b.y))
        assert err < 1e-8

    def test_tangent_has_load(self):
        m = build_ziegler2(1, 1, 1, 1, 1)
        dae = recast_to_dae(m, mu0=2.0)
        At = dae.tangent_matrix()
        # v-rows pick up +mu0*Ru on the theta block
        assert np.allclose(At[2:4, 0:2], -m.K + 2.0 * m.Ru)

    def test_parameter_column_zero(self):
        # no load-only force for the pendulum: A0 = 0 at the upright state
        m = build_ziegler2(1, 1, 1, 1, 1)
        dae = recast_to_dae(m, mu0=2.0)
        assert np.allclose(dae.parameter_column(), 0)
