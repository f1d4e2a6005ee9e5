import numpy as np
import pytest
from scipy.integrate import solve_ivp

import flutterrom.models
from flutterrom.models import build_ziegler2, build_ziegler3, recast_to_dae, static_equilibrium


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
        m = build_ziegler2(1, 1, 1, 1, 1)
        assert np.allclose(m.kg_matrix(1.0), [[-1, 1], [0, 0]])
        # Ru reproduces -Kg/P
        assert np.allclose(m.Ru, -m.kg_matrix(1.0))

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
        m = build_ziegler2(1, 1, 1, 1, 1)
        th = np.array([0.3, -0.1])
        f = m.cubic_force(2.0, th)
        assert np.allclose(f, [2.0 / 6.0 * (0.4) ** 3, 0.0])
        # trilinear-form view agrees, with the load factored out
        H = m.cubic_form()
        assert np.allclose(2.0 * H.apply(th, th, th), f, atol=1e-14)


class TestZiegler3:
    def test_unit_mass_matrix(self):
        m = build_ziegler3(1, 1, 1, 1, 1, 1, 1)
        assert np.allclose(m.M, [[3, 2, 1], [2, 2, 1], [1, 1, 1]])

    def test_stiffness_row(self):
        m = build_ziegler3(1, 1, 1, 1, 1, 1, 1)
        assert np.allclose(m.K[1], [-1, 2, -1])

    def test_kg(self):
        m = build_ziegler3(1, 1, 1, 1, 1, 1, 1)
        assert np.allclose(m.kg_matrix(1.0), [[-1, 0, 1], [0, -1, 1], [0, 0, 0]])

    def test_equal_angles_give_zero_cubic(self):
        m = build_ziegler3(2, 1, 0.5, 3, 2, 1, 1)
        th = 0.37 * np.ones(3)
        assert np.allclose(m.cubic_force(5.0, th), 0)

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


class TestStaticEquilibrium:
    def test_ziegler_upright(self):
        m = build_ziegler2(1, 1, 1, 1, 1)
        U = static_equilibrium(m, 1.5)
        assert np.allclose(U, 0, atol=1e-12)

    def test_ziegler3_upright(self):
        m = build_ziegler3(1, 1, 1, 1, 1, 1, 1)
        U = static_equilibrium(m, 0.8)
        assert np.allclose(U, 0, atol=1e-12)
