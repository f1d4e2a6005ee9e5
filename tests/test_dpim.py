import dataclasses
import json
import warnings
from collections import Counter

import numpy as np
import pytest
import scipy.linalg as sla

from flutterrom import dpim
from flutterrom.dpim import (
    ParametrisationROM,
    ResonanceError,
    build_rom_firstorder,
    build_rom_secondorder,
    classify_resonances,
    invariance_residual,
    residual_slope,
)
from flutterrom.models import (
    FirstOrderDAE,
    PolynomialSecondOrderModel,
    build_ziegler,
    build_ziegler2,
    recast_to_dae,
)
from flutterrom.polytensor import (
    ConjugateHalf,
    MonomialTable,
    SparseBilinearForm,
    SparseTrilinearForm,
    polynomial_eval,
)
from flutterrom.spectral import eigen_sweep, enforce_jordan, solve_master_eigen
from tests.conftest import hopf_normal_form_rom


def hopf_oracle_system(seed=4):
    """Planar quadratic system at an exact Hopf point (lambda = +-i)."""
    rng = np.random.default_rng(seed)
    A = np.array([[0.0, -1.0], [1.0, 0.0]])
    entries = []
    for p in range(2):
        for i in range(2):
            for j in range(2):
                entries.append((p, i, j, float(rng.integers(-2, 3)) / 2.0))
    Q1 = SparseBilinearForm.from_entries(2, 2, 2, entries)
    return FirstOrderDAE(np.eye(2), A, Q1, np.zeros((2, 2)), np.zeros(2),
                         np.zeros(2), 0.0, np.arange(2))


def first_lyapunov_cubic_coefficient(dae, q, p):
    """Independent oracle: the resonant cubic normal-form coefficient of a
    planar quadratic system at a Hopf point,

        c1 = (i / 2 omega) (g20 g11 - 2 |g11|^2 - |g02|^2 / 3),

    with g_jk the quadratic Taylor coefficients projected on the critical
    eigenvectors normalized to p* q = 1 (F = B(x,x)/2 gives B = 2 Q1)."""
    omega = 1.0
    B2 = lambda u, v: dae.Q1.apply(u, v) + dae.Q1.apply(v, u)
    g20 = np.vdot(p, B2(q, q))
    g11 = np.vdot(p, B2(q, np.conj(q)))
    g02 = np.vdot(p, B2(np.conj(q), np.conj(q)))
    return (1j / (2 * omega)) * (g20 * g11 - 2 * abs(g11) ** 2 - abs(g02) ** 2 / 3.0)


def brute_force_partners(table, conj_vars):
    """Id of each monomial's conjugate, its exponents moved to the
    conjugate variables, looked up in a dict of the table's rows."""
    ids = {tuple(row): mid for mid, row in enumerate(table.exponents.tolist())}
    out = np.empty(len(table), dtype=np.int64)
    for mid, alpha in enumerate(table.exponents):
        swapped = np.zeros_like(alpha)
        swapped[conj_vars] = alpha
        out[mid] = ids[tuple(swapped.tolist())]
    return out


def resonant_set(res, mid):
    """The resonant masters of monomial mid, decoded from its resonance key:
    bit r is master r."""
    d = len(res.lam_classified) - 1
    return [r for r in range(d) if int(res.keys[mid]) >> r & 1]


class TestResonances:
    def test_mu_powers_keep_sigma(self):
        table = MonomialTable(3, 4)
        lam = np.array([0.1 + 1j, 0.1 - 1j, 0.0])
        res = classify_resonances(table, lam)
        base = table.index_of((2, 1, 0))
        for m in (1, 2):
            dressed = table.index_of((2, 1, m)) if 3 + m <= 4 else None
            if dressed is not None:
                assert res.sigma[dressed] == res.sigma[base]
                assert resonant_set(res, dressed) == resonant_set(res, base)

    def test_one_to_one_couples_detuned_modes(self, monkeypatch):
        # with 2% frequency detuning, z1 z2 z2b stays resonant with lambda1
        # under the 1:1 rule of two-mode runs, and the cross monomial z2^2 z2b,
        # whose raw sigma is detuned from lambda1 by 4 times the tolerance,
        # gets coupled only by it
        monkeypatch.setattr(dpim, "_R_TOL", 0.005)
        table = MonomialTable(5, 3)
        lam = np.array([0.05 + 1.0j, 0.05 - 1.0j, -0.05 + 1.02j, -0.05 - 1.02j, 0.0])
        coupled = classify_resonances(table, lam)
        mixed = table.index_of((1, 0, 1, 1, 0))
        assert 0 in resonant_set(coupled, mixed)
        cross = table.index_of((0, 0, 2, 1, 0))
        assert abs(coupled.sigma[cross].imag - lam[0].imag) > 3 * 0.005
        assert 0 in resonant_set(coupled, cross)

    def test_single_mode_hopf_set(self):
        # brute-force sigma scan: resonant-with-lambda1 monomials up to order 3
        # are exactly the mu-dressed Hopf set
        table = MonomialTable(3, 3)
        lam = np.array([0.02 + 1.0j, 0.02 - 1.0j, 0.0])
        res = classify_resonances(table, lam)
        expect = set()
        for mid in range(len(table)):
            a = table.exponents[mid]
            if a[0] - a[1] == 1:  # Im sigma = omega
                expect.add(mid)
        got = {mid for mid in range(len(table)) if 0 in resonant_set(res, mid)}
        assert got == expect
        names = {tuple(table.exponents[m]) for m in got}
        assert names == {(1, 0, 0), (1, 0, 1), (1, 0, 2), (2, 1, 0)}

    @pytest.mark.parametrize("two_modes", [False, True])
    def test_conjugates_get_the_conjugate_resonant_set(self, two_modes, monkeypatch):
        # the mirror writes f[partner, conj s] = conj f[s]: f keeps the
        # pattern of the resonance keys only if the partner's key is the key
        # with each master's bit moved to its conjugate's; two modes (d = 4)
        # are classified with the 1:1 average, one (d = 2) without
        dae = recast_to_dae(build_ziegler2(1, 1, 1, 1, 1, xi_m=0.2), mu0=P_H)
        rng = np.random.default_rng(5)
        if two_modes:
            specs = [solve_master_eigen(dae, d=4), enforce_jordan(
                solve_master_eigen(recast_to_dae(build_ziegler2(1, 1, 1, 1, 1, xi_m=0.2), 2.0),
                                   d=4), (0, 2))]
        else:
            specs = [solve_master_eigen(dae, d=2)]
        lams = [np.append(spec.lam, 0.0) for spec in specs]
        for ratio in (1.0, 2.0, 3.0, 0.5):   # near 1:1, 1:2, 1:3 and 2:1
            w1 = rng.uniform(0.5, 2.0)
            w2 = w1 * ratio * (1 + 0.02 * rng.standard_normal())
            re = 0.1 * rng.standard_normal(2)
            lam = [re[0] + 1j * w1, re[0] - 1j * w1, re[1] + 1j * w2, re[1] - 1j * w2, 0]
            lams.append(np.array(lam if two_modes else lam[:2] + [0]))
        hits = 0
        for lam in lams:
            d = len(lam) - 1
            conj = np.append(np.arange(d) ^ 1, d)   # (z1, z1b(, z2, z2b), mu)
            table = MonomialTable(d + 1, 7)
            partner = brute_force_partners(table, conj)
            for r_tol in (0.005, 0.05, 0.2):
                monkeypatch.setattr(dpim, "_R_TOL", r_tol)
                res = classify_resonances(table, lam)
                moved = sum((res.keys >> r & 1) << conj[r] for r in range(d))
                assert np.array_equal(res.keys[partner], moved)
                hits += np.count_nonzero(res.keys)
        assert hits > 0


class TestFirstOrderEngine:
    def test_hopf_cubic_against_lyapunov_oracle(self):
        dae = hopf_oracle_system()
        spec = solve_master_eigen(dae, d=2)
        rom = build_rom_firstorder(dae, spec, order=3)
        q = spec.Y[:, 0]
        p = spec.X[:, 0]
        assert abs(np.vdot(p, q) - 1.0) < 1e-12  # B = I normalization
        c1 = first_lyapunov_cubic_coefficient(dae, q, p)
        mid = rom.table.index_of((2, 1, 0))
        assert abs(rom.f[mid, 0] - c1) < 1e-10

    @pytest.mark.filterwarnings("ignore::scipy.linalg.LinAlgWarning")
    def test_unflagged_exact_resonance_raises(self, monkeypatch):
        # with nothing flagged, z^2 zb has sigma = i exactly: its homological
        # matrix is exactly singular and the residual check must reject it
        dae = hopf_oracle_system()
        spec = solve_master_eigen(dae, d=2)
        monkeypatch.setattr(dpim, "_R_TOL", -1.0)
        with pytest.raises(ResonanceError, match=r"lambda = \S*1j, a master mode: revisit the "
                                                 r"resonance tolerance"):
            build_rom_firstorder(dae, spec, order=3)

    def test_resonant_monomial_structure(self):
        dae = hopf_oracle_system()
        spec = solve_master_eigen(dae, d=2)
        rom = build_rom_firstorder(dae, spec, order=3)
        mid = rom.table.index_of((2, 1, 0))
        assert rom.f[mid, 0] != 0
        # normal form: the mapping coefficient lives in the bordered complement
        B = dae.B
        proj = np.vdot(spec.X[:, 0], B @ rom.W[mid])
        assert abs(proj) < 1e-10

    def test_mu_row_zero(self):
        m = build_ziegler2(1, 1, 1, 1, 1, xi_m=0.2)
        dae = recast_to_dae(m, mu0=2.6)
        spec = solve_master_eigen(dae, d=4)
        rom = build_rom_firstorder(dae, spec, order=4)
        assert np.all(rom.f[:, -1] == 0)

    def test_order1_block(self):
        m = build_ziegler2(1, 1, 1, 1, 1, xi_m=0.2)
        dae = recast_to_dae(m, mu0=2.6)
        spec = solve_master_eigen(dae, d=4)
        rom = build_rom_firstorder(dae, spec, order=3)
        for s, mid in enumerate(rom.table.ids_of_order(1)):
            if s < 4:
                assert np.allclose(rom.W[mid], spec.Y[:, s])
                assert np.allclose(rom.f[mid, :4], spec.Lam[:, s])
            else:
                assert np.allclose(rom.W[mid], spec.Ypar)
                assert np.allclose(rom.f[mid], 0)

    def test_parameter_column_nonzero_A0(self):
        # synthetic DAE with a load-only force: W^(1, mu) = -At^-1 A0
        rng = np.random.default_rng(8)
        A = -np.eye(3) + 0.1 * rng.standard_normal((3, 3))
        A[0, 1] = 2.0
        A[1, 0] = -2.0
        Q2m = 0.1 * rng.standard_normal((3, 3))
        dae = FirstOrderDAE(np.eye(3), A, SparseBilinearForm(3, 3, 3), Q2m,
                            q3=0.05 * rng.standard_normal(3),
                            y0=np.zeros(3), mu0=0.3, displacement_indices=np.arange(3))
        spec = solve_master_eigen(dae, d=2)
        rom = build_rom_firstorder(dae, spec, order=2)
        mid = rom.table.index_of((0, 0, 1))
        expect = np.linalg.solve(dae.tangent_matrix(), -dae.parameter_column())
        assert np.allclose(rom.W[mid], expect, atol=1e-12)

    @pytest.mark.parametrize("engine", ["first-order", "second-order"])
    def test_spectrum_without_conjugate_pairing_is_refused(self, engine):
        # the completion by conjugation would double the real part of every
        # sum under the identity pairing: a spectrum without one is refused
        if engine == "first-order":
            system = recast_to_dae(build_ziegler2(1, 1, 1, 1, 1, xi_m=0.2), mu0=P_H)
            build = build_rom_firstorder
        else:
            system, build = make_cubic_test_model(2.6)[0], build_rom_secondorder
        spec = dataclasses.replace(solve_master_eigen(system, d=4), conj_map=None)
        with pytest.raises(ValueError, match=r"conjugate pairing of the master modes"):
            build(system, spec, 3)

    def test_conjugate_symmetry(self):
        # of each conjugate pair one monomial is solved and the other mirrored,
        # so the pair is conjugate to the bit; a self-conjugate monomial is
        # solved, real to round-off
        m = build_ziegler2(1, 1, 1, 1, 1, xi_m=0.2)
        dae = recast_to_dae(m, mu0=2.6)
        jordan_dae, _, _ = firstorder_case("jordan-o7")
        model, _ = make_cubic_test_model(2.0)
        roms = [build_rom_firstorder(dae, solve_master_eigen(dae, d=4), order=5),
                build_rom_firstorder(dae, solve_master_eigen(dae, d=2), order=5),
                build_rom_firstorder(jordan_dae, enforce_jordan(
                    solve_master_eigen(jordan_dae, d=4), (0, 2)), order=7),
                build_rom_secondorder(model, enforce_jordan(
                    solve_master_eigen(model, d=4), (0, 2)), order=5)]
        for rom in roms:
            conj_vars = np.append(rom.conj_map, rom.d)
            perm = brute_force_partners(rom.table, conj_vars)
            pair, own = perm != np.arange(len(perm)), perm == np.arange(len(perm))
            f_perm_vars = rom.f[:, conj_vars]
            assert np.array_equal(rom.W[perm][pair], np.conj(rom.W[pair]))
            assert np.array_equal(f_perm_vars[perm][pair], np.conj(rom.f[pair]))
            assert own.sum() > 1   # mu and z1 z1b at least
            scale_W, scale_f = np.abs(rom.W).max(), np.abs(rom.f).max()
            assert np.abs(rom.W[own] - np.conj(rom.W[own])).max() < 1e-15 * scale_W
            assert np.abs(f_perm_vars[own] - np.conj(rom.f[own])).max() < 1e-15 * scale_f


class TestInvariance:
    def test_zero_point(self):
        m = build_ziegler2(1, 1, 1, 1, 1, xi_m=0.2)
        dae = recast_to_dae(m, mu0=2.6)
        spec = solve_master_eigen(dae, d=4)
        rom = build_rom_firstorder(dae, spec, order=3)
        assert invariance_residual(rom, dae, np.zeros(5, dtype=complex)) == 0.0

    def test_linear_model_exact_at_order1(self):
        rng = np.random.default_rng(3)
        A = -np.eye(3) + 0.2 * rng.standard_normal((3, 3))
        A[0, 1] += 2.0
        A[1, 0] -= 2.0
        dae = FirstOrderDAE(np.eye(3), A, SparseBilinearForm(3, 3, 3),
                            0.1 * rng.standard_normal((3, 3)), np.zeros(3),
                            np.zeros(3), 0.0, np.arange(3))
        spec = solve_master_eigen(dae, d=2)
        rom = build_rom_firstorder(dae, spec, order=1)
        for r in (1e-3, 0.1, 1.0):
            z = np.array([r * (0.3 + 0.4j), r * (0.3 - 0.4j), 0.0], dtype=complex)
            assert invariance_residual(rom, dae, z) < 1e-12

        # nonzero mu needs the mu-dressed linear terms: order 1 is not exact,
        # but order 2 restores machine precision for this quadratic-free model
        rom2 = build_rom_firstorder(dae, spec, order=2)
        z = np.array([0.05 + 0.02j, 0.05 - 0.02j, 0.1], dtype=complex)
        assert invariance_residual(rom2, dae, z) > 1e-12  # mu^2 coupling remains
        rom3 = build_rom_firstorder(dae, spec, order=6)
        assert invariance_residual(rom3, dae, z) < 1e-11

    def test_slope_order3(self):
        m = build_ziegler2(1, 1, 1, 1, 1, xi_m=0.2)
        dae = recast_to_dae(m, mu0=2.6)
        spec = solve_master_eigen(dae, d=4)
        rom = build_rom_firstorder(dae, spec, order=3)
        slope, _ = residual_slope(rom, dae, np.logspace(-4, -2, 7))
        assert slope >= 4 - 0.2

    def test_jordan_build_at_ep(self):
        # expansion exactly at the exceptional point needs the imposed block
        m = build_ziegler2(1, 1, 1, 1, 1)
        dae = recast_to_dae(m, mu0=2.0)
        spec = enforce_jordan(solve_master_eigen(dae, d=4), (0, 2))
        rom = build_rom_firstorder(dae, spec, order=3)
        slope, _ = residual_slope(rom, dae, radii=np.logspace(-2, -1, 5))
        assert slope >= 4 - 0.3


def make_cubic_test_model(P_e, kappa=1.0 / 6.0, xi_m=0.2):
    """2-DOF system with parameter-independent cubic, for both engines."""
    base = build_ziegler2(1, 1, 1, 1, 1, xi_m=xi_m)
    n = 2
    entries = []
    for i, j, k in np.ndindex(2, 2, 2):
        sign = (-1) ** ((i == 1) + (j == 1) + (k == 1))
        entries.append((0, i, j, k, sign * kappa))
    H = SparseTrilinearForm.from_entries(n, n, entries)
    model = PolynomialSecondOrderModel(
        n=n, M=base.M, C=base.C, Kt=base.K - P_e * base.Ru, Rt=np.zeros(n),
        Ru=base.Ru, Gt=None, H=H, p0=P_e)

    # matching first-order recast: one auxiliary w = (th1 - th2)^2
    D = 5
    B = np.zeros((D, D))
    A = np.zeros((D, D))
    Q2m = np.zeros((D, D))
    B[:2, :2] = np.eye(2)
    A[:2, 2:4] = np.eye(2)
    B[2:4, 2:4] = base.M
    A[2:4, :2] = -base.K
    A[2:4, 2:4] = -base.C
    Q2m[2:4, :2] = base.Ru
    q1 = [(2, 4, 0, -kappa), (2, 4, 1, kappa),
          (4, 0, 0, -1.0), (4, 0, 1, 1.0), (4, 1, 0, 1.0), (4, 1, 1, -1.0)]
    A[4, 4] = 1.0
    dae = FirstOrderDAE(B, A, SparseBilinearForm.from_entries(D, D, D, q1), Q2m,
                        q3=np.zeros(D), y0=np.zeros(D), mu0=P_e,
                        displacement_indices=np.arange(2))
    return model, dae


class TestSecondOrderEngine:
    def test_order1_velocity_relation(self):
        model, _ = make_cubic_test_model(2.6)
        spec = solve_master_eigen(model, d=4)
        rom = build_rom_secondorder(model, spec, order=3)
        for s, mid in enumerate(rom.table.ids_of_order(1)):
            if s < 4:
                U = rom.W[mid, :2]
                V = rom.W[mid, 2:]
                assert np.allclose(V, spec.lam[s] * U, atol=1e-12)

    def test_rejects_load_scaled_cubic(self):
        m = build_ziegler2(1, 1, 1, 1, 1)
        dae = recast_to_dae(m, mu0=2.5)
        spec = solve_master_eigen(dae, d=4)
        with pytest.raises(ValueError):
            build_rom_secondorder(m, spec, order=3)

    def test_dual_engine_equivalence(self):
        model, dae = make_cubic_test_model(2.6)
        spec2 = solve_master_eigen(model, d=4)
        spec1 = solve_master_eigen(dae, d=4)
        assert np.allclose(spec1.lam, spec2.lam, atol=1e-9)
        rom2 = build_rom_secondorder(model, spec2, order=5)
        rom1 = build_rom_firstorder(dae, spec1, order=5)
        scale = np.abs(rom2.W[:, :2]).max()
        diff = np.abs(rom1.W[:, :2] - rom2.W[:, :2]).max()
        assert diff < 1e-8 * scale
        fdiff = np.abs(rom1.f - rom2.f).max()
        assert fdiff < 1e-8 * max(np.abs(rom2.f).max(), 1.0)

    def test_dual_engine_equivalence_jordan(self):
        # at the exceptional point P_e = 2 with the Jordan coupling imposed
        model, dae = make_cubic_test_model(2.0)
        rom2 = build_rom_secondorder(model, enforce_jordan(solve_master_eigen(model, d=4),
                                                           (0, 2)), order=5)
        rom1 = build_rom_firstorder(dae, enforce_jordan(solve_master_eigen(dae, d=4), (0, 2)),
                                    order=5)
        couplings = np.triu(rom1.Lam, 1)
        assert np.array_equal(np.triu(rom2.Lam, 1), couplings) and couplings.any()
        assert rel_diff(rom1.W[:, :2], rom2.W[:, :2]) < 1e-7
        assert rel_diff(rom1.f, rom2.f) < 1e-7

    def test_rejects_unflagged_resonance(self, monkeypatch):
        # with nothing flagged, the z mu monomials have sigma = lambda exactly
        model, _ = make_cubic_test_model(2.6)
        spec = solve_master_eigen(model, d=4)
        monkeypatch.setattr(dpim, "_R_TOL", -1.0)
        # an ill-conditioned stack is the missed resonance, not a LinAlgWarning
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(ResonanceError, match="a master mode: revisit the resonance"):
                build_rom_secondorder(model, spec, 3)
        assert caught == []

    def test_rejects_a_spectrum_of_another_size(self):
        # the recast's spectrum stacks 2n + 1 states (the auxiliary w last),
        # so its rows past n are not the velocities
        model, dae = make_cubic_test_model(2.6)
        with pytest.raises(ValueError, match=r"spectrum has 5 state rows, not the 2n = 4"):
            build_rom_secondorder(model, solve_master_eigen(dae, d=4), 3)

    def test_invariance_residual_secondorder(self):
        model, _ = make_cubic_test_model(2.6)
        spec = solve_master_eigen(model, d=4)
        rom = build_rom_secondorder(model, spec, order=5)
        # window where the order-6 truncation term resolves above f64 noise
        slope, _ = residual_slope(rom, model, radii=np.logspace(-2.5, -1.2, 7))
        assert slope >= 6 - 0.2

    def test_invariance_residual_with_quadratic_force(self):
        model = with_quadratic_force(make_cubic_test_model(2.6)[0])
        rom = build_rom_secondorder(model, solve_master_eigen(model, d=4), order=5)
        slope, _ = residual_slope(rom, model, radii=np.logspace(-2.5, -1.2, 7))
        assert slope >= 6 - 0.3
        # the defect at one point, with the forces written out:
        # Gt(U, U) = (0.3 U0 U1, 0.15 U0^2 - 0.2 U1^2), H(U, U, U) = ((U0 - U1)^3 / 6, 0)
        z = dpim.conjugate_sample(rom, 0.2, np.random.default_rng(4))
        Wz = polynomial_eval(rom.table, rom.W, z)
        flow = rom.mapping_gradient(z) @ polynomial_eval(rom.table, rom.f, z)
        (U0, U1), V, dU, dV, mu = Wz[:2], Wz[2:], flow[:2], flow[2:], z[-1]
        force = np.array([0.3 * U0 * U1 + (U0 - U1) ** 3 / 6.0, 0.15 * U0**2 - 0.2 * U1**2])
        r1 = model.M @ (dU - V)
        r2 = (model.M @ dV + model.C @ V + model.Kt @ Wz[:2] - mu * model.Rt
              - mu * model.Ru @ Wz[:2] + force)
        ref = np.linalg.norm(np.concatenate([r1, r2]))
        assert ref > 1e-8
        assert abs(invariance_residual(rom, model, z) - ref) <= 1e-10 * ref

    def test_cubic_index_constraint(self):
        # H contributions only come from order triples summing to p
        model, _ = make_cubic_test_model(2.6)
        spec = solve_master_eigen(model, d=4)
        table = MonomialTable(5, 4)
        U = np.zeros((len(table), 2), dtype=complex)
        for s, mid in enumerate(table.ids_of_order(1)):
            if s < 4:
                U[mid] = spec.Y[:2, s]
        half = ConjugateHalf(table, table.conjugation_permutation(np.append(spec.conj_map, 4)))
        out = model.nl_rhs_series(table, U, 3, half)
        # with only order-1 mappings, order-3 terms exist (1+1+1) and are the
        # cubic applied to eigenvectors
        loc = table.index_of((3, 0, 0, 0, 0)) - table.ids_of_order(3)[0]
        expect = -model.H.apply(spec.Y[:2, 0], spec.Y[:2, 0], spec.Y[:2, 0])
        assert np.allclose(out[loc], expect, atol=1e-12)


# -- per-pair and per-triple loops: references for the product-table assembly --

def naive_quadratic_rhs(table, dae, W, p):
    start = table.ids_of_order(p)[0]
    rhs = np.zeros((table.count_of_order(p), dae.dim), dtype=complex)
    exps = table.exponents
    for p1 in range(1, p):
        for k1 in table.ids_of_order(p1):
            for k2 in table.ids_of_order(p - p1):
                rhs[table.index_of(exps[k1] + exps[k2]) - start] += dae.Q1.apply(W[k1], W[k2])
    for kW in table.ids_of_order(p - 1):
        target = exps[kW].copy()
        target[-1] += 1
        rhs[table.index_of(target) - start] += dae.Q2m @ W[kW]
    if p == 2:
        mu2 = np.zeros(table.nvars, dtype=np.int64)
        mu2[-1] = 2
        rhs[table.index_of(mu2) - start] += dae.q3
    return rhs


def naive_gradient_cross_lower(table, W, f, p):
    start = table.ids_of_order(p)[0]
    out = np.zeros((table.count_of_order(p), W.shape[1]), dtype=complex)
    exps = table.exponents
    for qf in range(2, p):
        for kf in table.ids_of_order(qf):
            nz = [s for s in range(table.nvars) if f[kf, s] != 0]
            for kW in table.ids_of_order(p + 1 - qf):
                for s in nz:
                    if exps[kW, s] == 0:
                        continue
                    target = exps[kW] + exps[kf]
                    target[s] -= 1
                    out[table.index_of(target) - start] += exps[kW, s] * f[kf, s] * W[kW]
    return out


def naive_jordan_within_order(table, p, jordan_pairs):
    ids = list(table.ids_of_order(p))
    out = []
    for s, j, tau in jordan_pairs:
        dep = np.full(len(ids), -1)
        weight = np.zeros(len(ids), dtype=complex)
        for loc, mid in enumerate(ids):
            alpha = table.exponents[mid].copy()
            if alpha[j] == 0:
                continue
            alpha[s] += 1
            alpha[j] -= 1
            dep[loc] = table.index_of(alpha)
            weight[loc] = alpha[s] * tau
        out.append((dep, weight))
    return out


def naive_nl_rhs_series(model, table, U, p):
    start = table.ids_of_order(p)[0]
    out = np.zeros((table.count_of_order(p), model.n), dtype=complex)
    exps = table.exponents
    if model.Gt is not None:
        for p1 in range(1, p):
            for k1 in table.ids_of_order(p1):
                for k2 in table.ids_of_order(p - p1):
                    out[table.index_of(exps[k1] + exps[k2]) - start] -= model.Gt.apply(U[k1], U[k2])
    if model.H is not None:
        for p1 in range(1, p - 1):
            for p2 in range(1, p - p1):
                for k1 in table.ids_of_order(p1):
                    for k2 in table.ids_of_order(p2):
                        for k3 in table.ids_of_order(p - p1 - p2):
                            mid = table.index_of(exps[k1] + exps[k2] + exps[k3])
                            out[mid - start] -= model.H.apply(U[k1], U[k2], U[k3])
    return out


def use_naive_assembly(monkeypatch):
    """The builds' assembly through the loops above, which sum over every
    monomial and read neither the representatives nor the block memo."""
    monkeypatch.setattr(dpim, "_quadratic_rhs",
                        lambda table, dae, W, p, half: naive_quadratic_rhs(table, dae, W, p))
    monkeypatch.setattr(dpim, "_gradient_cross_lower",
                        lambda table, W, f, p, half, blocks:
                        naive_gradient_cross_lower(table, W, f, p))
    monkeypatch.setattr(dpim, "_jordan_within_order", naive_jordan_within_order)
    monkeypatch.setattr(PolynomialSecondOrderModel, "nl_rhs_series",
                        lambda model, table, U, p, half: naive_nl_rhs_series(model, table, U, p))


def conjugate_consistent(table, conj_vars, X, columns=False):
    """X with the conjugation symmetry of a build's W (columns False) or f
    (columns True): the row of each monomial's conjugate is the conjugate
    row, its columns moved to the conjugate variables for f, and a
    self-conjugate row is its own conjugate (real, for W).  The pairing is
    MonomialTable.conjugation_permutation's."""
    partner = table.conjugation_permutation(conj_vars)
    cols = np.asarray(conj_vars) if columns else np.arange(X.shape[1])
    mids = np.arange(len(table))
    own, rep = partner == mids, partner > mids
    X = X.copy()
    X[own] = (X[own] + X[own][:, cols].conj()) / 2
    X[partner[rep][:, None], cols] = X[rep].conj()
    return X


def random_conjugate_inputs(table, conj_vars, dim, seed):
    """Conjugate-consistent random W (dim columns) and a sparse f: its
    order-3 and order-5 rows are all zero, the other orders have a few
    nonzero rows (with their conjugates), the parameter column among them."""
    rng = np.random.default_rng(seed)
    W = rng.standard_normal((len(table), dim)) + 1j * rng.standard_normal((len(table), dim))
    f = np.zeros((len(table), table.nvars), dtype=complex)
    for q in range(2, table.max_order + 1, 2):
        rows = rng.choice(np.asarray(table.ids_of_order(q)), 4, replace=False)
        vals = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        f[rows, rng.integers(0, table.nvars, 4)] = vals
        f[rows[0], -1] = 0.7 - 0.2j
    return (conjugate_consistent(table, conj_vars, W),
            conjugate_consistent(table, conj_vars, f, columns=True))


def rel_diff(a, b):
    return np.abs(a - b).max() / max(np.abs(b).max(), 1e-300)


def with_quadratic_force(model):
    """The cubic test model plus a parameter-independent quadratic force."""
    Gt = SparseBilinearForm.from_entries(2, 2, 2, [(0, 0, 1, 0.3), (1, 1, 1, -0.2),
                                                   (1, 0, 0, 0.15)])
    return dataclasses.replace(model, Gt=Gt)


P_H = 2.076805  # Hopf point of build_ziegler2(1, 1, 1, 1, 1, xi_m=0.2)
# conjugations of (z1, z1b, z2, z2b, mu): the builds' pairing, and one that
# pairs each variable of the first mode with one of the second
CONJ_VARS = ([1, 0, 3, 2, 4], [3, 2, 1, 0, 4])


class TestProductTableAssembly:
    @pytest.mark.parametrize("case", ["hopf-o7", "jordan-o5"])
    def test_firstorder_against_pairwise_loops(self, case, monkeypatch):
        m = build_ziegler2(1, 1, 1, 1, 1, xi_m=0.2)
        if case == "hopf-o7":
            dae = recast_to_dae(m, mu0=P_H)
            spec, order = solve_master_eigen(dae, d=4), 7
        else:
            dae = recast_to_dae(m, mu0=2.0)
            spec, order = enforce_jordan(solve_master_eigen(dae, d=4), (0, 2)), 5
        rom = build_rom_firstorder(dae, spec, order)
        use_naive_assembly(monkeypatch)
        ref = build_rom_firstorder(dae, spec, order)
        assert rel_diff(rom.W, ref.W) < 1e-12
        assert rel_diff(rom.f, ref.f) < 1e-12

    def test_secondorder_against_triplewise_loops(self, monkeypatch):
        model, _ = make_cubic_test_model(2.6)
        spec = solve_master_eigen(model, d=4)
        rom = build_rom_secondorder(model, spec, order=7)
        use_naive_assembly(monkeypatch)
        ref = build_rom_secondorder(model, spec, order=7)
        assert rel_diff(rom.W, ref.W) < 1e-12
        assert rel_diff(rom.f, ref.f) < 1e-12

    # the halved sums need conjugate-symmetric inputs, as a build's mirror
    # writes them: the random inputs below are drawn with that symmetry, on
    # the pairings CONJ_VARS

    def test_nl_rhs_series_against_loops(self):
        model = with_quadratic_force(make_cubic_test_model(2.6)[0])
        table = MonomialTable(5, 5)
        for conj_vars in CONJ_VARS:
            half = ConjugateHalf(table, table.conjugation_permutation(conj_vars))
            U, _ = random_conjugate_inputs(table, conj_vars, 2, 2)
            for p in range(2, 6):
                got = model.nl_rhs_series(table, U, p, half)
                assert rel_diff(got, naive_nl_rhs_series(model, table, U, p)) < 1e-12

    def test_gradient_cross_lower_random_against_loops(self):
        table = MonomialTable(5, 7)
        for conj_vars in CONJ_VARS:
            half = ConjugateHalf(table, table.conjugation_permutation(conj_vars))
            W, f = random_conjugate_inputs(table, conj_vars, 3, 5)
            blocks = {}
            for p in range(2, 8):
                got = dpim._gradient_cross_lower(table, W, f, p, half, blocks)
                ref = naive_gradient_cross_lower(table, W, f, p)
                assert got.shape == ref.shape
                assert rel_diff(got, ref) < 1e-13
            # one derivative block per order q = p - qf it was needed at, qf
            # in (2, 4, 6), the orders of f's nonzero rows
            assert sorted(blocks) == list(range(1, 6))

    @pytest.mark.parametrize("pairs", [[(0, 2, 1.0), (1, 3, 1.0)], [(0, 1, 0.5 + 0.25j)]],
                             ids=["0-2-and-1-3", "0-1"])
    def test_jordan_within_order_against_loops(self, pairs):
        # each alpha with alpha_j > 0 is one raise of a lower monomial by e_j,
        # and its dependency alpha + e_s - e_j the raise of that one by e_s;
        # a weight is read only where there is a dependency
        table = MonomialTable(5, 9)
        for p in range(2, 10):
            got = dpim._jordan_within_order(table, p, pairs)
            ref = naive_jordan_within_order(table, p, pairs)
            assert len(got) == len(ref) == len(pairs)
            for (dep, weight), (dep_ref, weight_ref) in zip(got, ref):
                assert np.array_equal(dep, dep_ref)
                has = dep_ref >= 0
                assert has.any() and np.array_equal(weight[has], weight_ref[has])

    def test_gradient_cross_lower_jordan_against_loops(self):
        dae = recast_to_dae(build_ziegler2(1, 1, 1, 1, 1, xi_m=0.2), mu0=2.0)
        spec = enforce_jordan(solve_master_eigen(dae, d=4), (0, 2))
        rom = build_rom_firstorder(dae, spec, 5)
        half = ConjugateHalf(rom.table, rom.table.conjugation_permutation(
            np.append(rom.conj_map, 4)))
        blocks = {}
        for p in range(3, 6):
            got = dpim._gradient_cross_lower(rom.table, rom.W, rom.f, p, half, blocks)
            assert rel_diff(got, naive_gradient_cross_lower(rom.table, rom.W, rom.f, p)) < 1e-13

    def test_completed_sums_are_conjugate_symmetric_to_the_bit(self):
        # a completed sum is S + conj S at the conjugate rows: conjugate
        # pairs are exact conjugates and self-conjugate rows exactly real
        table = MonomialTable(5, 6)
        partner = table.conjugation_permutation(CONJ_VARS[0])
        half = ConjugateHalf(table, partner)
        W, f = random_conjugate_inputs(table, CONJ_VARS[0], 5, 11)
        model, dae = make_cubic_test_model(2.6)
        model = with_quadratic_force(model)
        blocks = {}
        for p in range(2, 7):
            ids = np.asarray(table.ids_of_order(p))
            own = partner[ids] == ids
            sums = (dpim._quadratic_rhs(table, dae, W, p, half),
                    model.nl_rhs_series(table, W[:, :2], p, half),
                    dpim._gradient_cross_lower(table, W, f, p, half, blocks))
            # not trivially real: only the cross terms vanish, at order 2
            assert [bool(np.any(series[own])) for series in sums] == [True, True, p > 2]
            for series in sums:
                assert np.array_equal(series[own].imag, np.zeros(series[own].shape))
                assert np.array_equal(series[partner[ids] - ids[0]], series.conj())

    def test_no_per_pair_calls(self, monkeypatch):
        # guard against the per-pair loops coming back: builds apply no form
        # pair by pair and look up O(order) monomials at most
        m = build_ziegler2(1, 1, 1, 1, 1, xi_m=0.2)
        dae = recast_to_dae(m, mu0=P_H)
        spec1 = solve_master_eigen(dae, d=4)
        model = with_quadratic_force(make_cubic_test_model(2.6)[0])
        spec2 = solve_master_eigen(model, d=4)
        calls = Counter()

        def counted(key, fn):
            def wrapper(*args, **kwargs):
                calls[key] += 1
                return fn(*args, **kwargs)
            return wrapper

        for cls, attr, key in ((SparseBilinearForm, "apply", "bilinear"),
                               (SparseTrilinearForm, "apply", "trilinear"),
                               (MonomialTable, "index_of", "lookup")):
            monkeypatch.setattr(cls, attr, counted(key, getattr(cls, attr)))
        order = 7
        for build, system, spec in ((build_rom_firstorder, dae, spec1),
                                    (build_rom_secondorder, model, spec2)):
            calls.clear()
            build(system, spec, order)
            assert calls["bilinear"] == 0
            assert calls["trilinear"] == 0
            assert calls["lookup"] <= order


# -- the per-monomial solve loop: reference for the stacked solves -----------

def naive_solve_order(dae, table, res, spectrum, ids, rhs, g, jdeps, waves, partner, W, f):
    """One unpadded bordered LU solve per monomial of the DAE's engine, in
    table order, so that each Jordan term reads monomials solved before it;
    every monomial's matrix is factored afresh, both monomials of a
    conjugate pair are solved, and waves and partner are not read."""
    B, At = dae.B, dae.tangent_matrix()
    D = rhs.shape[1]
    max_rel = 0.0
    for loc, mid in enumerate(ids):
        sigma, R = res.sigma[mid], resonant_set(res, mid)
        nR = len(R)
        Mtx = sigma * B - At
        if nR:
            Mtx = np.block([[Mtx, B @ spectrum.Y[:, R]],
                            [spectrum.X[:, R].conj().T @ B, np.zeros((nR, nR))]])
        b = np.zeros(D + nR, dtype=complex)
        b[:D] = rhs[loc]
        gm = g[loc].copy()
        for dep, weight in jdeps:
            if dep[loc] >= 0:
                gm += weight[loc] * W[dep[loc]]
        b[:D] -= B @ gm
        sol = sla.lu_solve(sla.lu_factor(Mtx), b)
        rel = np.linalg.norm(Mtx @ sol - b) / max(np.linalg.norm(b), 1e-300)
        assert rel <= 1e-6
        max_rel = max(max_rel, rel)
        W[mid] = sol[:D]
        f[mid, R] = sol[D:]
    return max_rel


def naive_solve_order_secondorder(model, table, res, spectrum, ids, fnl, g, jdeps, waves,
                                  partner, W, f):
    """One unpadded bordered displacement-sized LU solve per monomial of the
    model's engine, in table order, with the velocity rows recovered after
    each solve; both monomials of a conjugate pair are solved, and waves and
    partner are not read."""
    M, C, Kt = model.M, model.C, model.Kt
    n = M.shape[0]
    Yu, XvH, Lam = spectrum.Y[:n], spectrum.X[n:].conj().T, spectrum.Lam
    XvHM = XvH @ M
    row_base = XvH @ C + Lam @ XvHM
    max_rel = 0.0
    for loc, mid in enumerate(ids):
        gm = g[loc].copy()
        for dep, weight in jdeps:
            if dep[loc] >= 0:
                gm += weight[loc] * W[dep[loc]]
        gU, gV = gm[:n], gm[n:]
        sigma, R = res.sigma[mid], resonant_set(res, mid)
        nR = len(R)
        Xi = fnl[loc] - M @ gV - sigma * (M @ gU) - C @ gU
        Mtx = np.block([[sigma**2 * M + sigma * C + Kt,
                         sigma * M @ Yu[:, R] + C @ Yu[:, R] + M @ (Yu @ Lam)[:, R]],
                        [row_base[R] + sigma * XvHM[R], XvHM[R] @ Yu[:, R]]])
        b = np.concatenate([Xi, -(XvHM[R] @ gU)])
        sol = sla.lu_solve(sla.lu_factor(Mtx), b)
        rel = np.linalg.norm(Mtx @ sol - b) / max(np.linalg.norm(b), 1e-300)
        assert rel <= 1e-6
        max_rel = max(max_rel, rel)
        U, fR = sol[:n], sol[n:]
        W[mid, :n] = U
        W[mid, n:] = sigma * U + Yu[:, R] @ fR + gU
        f[mid, R] = fR
    return max_rel


def naive_wave_loop(oracle, system):
    """dpim._solve_order replaced by a per-monomial oracle of the system's
    engine; the engine's bordered and mapping callbacks are not called."""
    return lambda bordered, mapping, *args: oracle(system, *args)


def firstorder_case(case):
    """(dae, spectrum, order) of the first-order builds the stacked solves are checked on."""
    m = build_ziegler2(1, 1, 1, 1, 1, xi_m=0.2)
    if case.startswith("hopf"):
        dae = recast_to_dae(m, mu0=P_H)
        spec = solve_master_eigen(dae, d=4)
    elif case.startswith("chain"):
        # the chain n = 8 (masses 1/n, springs n, L = 1/n), D = 4n - 2 = 30
        n = 8
        chain = build_ziegler(np.full(n, 1.0 / n), np.full(n, float(n)), 1.0 / n, xi_m=0.05)
        dae = recast_to_dae(chain, mu0=eigen_sweep(chain, (1.0, 30.0), 60).events["P_H"])
        spec = solve_master_eigen(dae, d=4)
    elif case.startswith("jordan"):
        dae = recast_to_dae(m, mu0=2.0)
        spec = enforce_jordan(solve_master_eigen(dae, d=4), (0, 2))
    else:
        dae = make_cubic_test_model(2.6)[1]
        spec = solve_master_eigen(dae, d=4)
    return dae, spec, int(case.rsplit("-o", 1)[1])


def solve_waves(table, jordan_pairs):
    """The monomials of each (order, Jordan wave) of a build, with the waves
    found by a forward pass: one past the deepest Jordan dependency."""
    waves = {}
    for p in range(2, table.max_order + 1):
        ids = list(table.ids_of_order(p))
        jdeps = naive_jordan_within_order(table, p, jordan_pairs)
        wave = [0] * len(ids)
        for loc in range(len(ids)):
            for dep, _ in jdeps:
                if dep[loc] >= 0:
                    wave[loc] = max(wave[loc], wave[dep[loc] - ids[0]] + 1)
            waves.setdefault((p, wave[loc]), []).append(ids[loc])
    return waves


def self_conjugate_count(table, orders):
    """Monomials of the given orders whose exponents are equal on each
    conjugate pair of variables (z1, z1b), (z2, z2b), ...; the load is its
    own conjugate."""
    d = table.nvars - 1
    return sum(all(alpha[v] == alpha[v + 1] for v in range(0, d, 2))
               for p in orders for alpha in table.exponents[table.ids_of_order(p)])


def first_appearances(table):
    """For each solved monomial (order 2 and up), the id of the first one in
    table order with the same master exponents, the exponents of every
    variable but the load."""
    first, out = {}, {}
    for mid in range(table.count_of_order(1), len(table)):
        out[mid] = first.setdefault(tuple(table.exponents[mid, :-1]), mid)
    return out


def resonance_error_cases(engine):
    """(system, its one-mode spectrum) with a slave mode at exactly three
    times the master frequency, damped by about 1e-16: the z^3 matrix is
    singular to working precision, yet not flagged, since only resonances
    with the masters are.  The system is linear, so every right-hand side is
    zero and the residual check alone cannot see the missed resonance."""
    if engine == "first-order":
        A = np.zeros((4, 4))
        A[:2, :2] = [[0.0, -1.0], [1.0, 0.0]]
        A[2:, 2:] = [[-1e-16, -3.0], [3.0, -1e-16]]
        system = FirstOrderDAE(np.eye(4), A, SparseBilinearForm.from_entries(4, 4, 4, []),
                               np.zeros((4, 4)), np.zeros(4), np.zeros(4), 0.0, np.arange(4))
        return system, build_rom_firstorder
    system = PolynomialSecondOrderModel(n=2, M=np.eye(2), C=np.diag([0.0, 2e-16]),
                                        Kt=np.diag([1.0, 9.0]), Rt=np.zeros(2),
                                        Ru=np.zeros((2, 2)))
    return system, build_rom_secondorder


class TestStackedSolves:
    @pytest.mark.parametrize("case", ["hopf-o7", "jordan-o5", "jordan-o7", "cubic-o7",
                                      "chain-o5"])
    def test_against_per_monomial_loop(self, case, monkeypatch):
        dae, spec, order = firstorder_case(case)
        rom = build_rom_firstorder(dae, spec, order)
        monkeypatch.setattr(dpim, "_solve_order", naive_wave_loop(naive_solve_order, dae))
        ref = build_rom_firstorder(dae, spec, order)
        assert rel_diff(rom.W, ref.W) < 1e-12
        assert rel_diff(rom.f, ref.f) < 1e-12

    @staticmethod
    def count_solves(monkeypatch):
        """Counts of the stacked solves of scipy (condition-checked) and of
        numpy, and of the matrices each factors.  Every matrix numpy gets
        must have gone through scipy before, up to its padded slots (the
        trailing unit rows and columns); calls["unchecked"] counts those
        that did not."""
        calls, checked = Counter(), set()

        def core(a):
            n = len(a)
            while n and a[n - 1, n - 1] == 1 and np.count_nonzero(a[n - 1]) == 1 \
                    and np.count_nonzero(a[:, n - 1]) == 1:
                n -= 1
            return a[:n, :n].tobytes()

        def counted(lib, solve):
            def wrapper(A, *args, **kwargs):
                calls[lib, "solves"] += 1
                calls[lib, "matrices"] += len(A)
                if lib == "scipy":
                    checked.update(core(a) for a in A)
                else:
                    calls["unchecked"] += sum(core(a) not in checked for a in A)
                return solve(A, *args, **kwargs)
            return wrapper

        monkeypatch.setattr(dpim.sla, "solve", counted("scipy", sla.solve))
        monkeypatch.setattr(dpim.np.linalg, "solve", counted("numpy", np.linalg.solve))
        return calls

    @staticmethod
    def expected_solves(table, jordan_pairs, conj_vars):
        """The counts count_solves should read, from a forward pass over the
        representatives of the conjugate pairs (the monomial of each pair
        first in table order) and the self-conjugate monomials: scipy solves
        the first appearance of each master exponent, numpy the rest, one
        call of each per wave that has any."""
        first = first_appearances(table)
        partner = brute_force_partners(table, conj_vars)
        expect = Counter()
        for mids in solve_waves(table, jordan_pairs).values():
            mids = [mid for mid in mids if partner[mid] >= mid]
            new = sum(first[mid] == mid for mid in mids)
            for lib, count in (("scipy", new), ("numpy", len(mids) - new)):
                expect[lib, "solves"] += count > 0
                expect[lib, "matrices"] += count
        return expect

    @pytest.mark.parametrize("case", ["hopf-o7", "jordan-o7"])
    def test_one_solve_per_wave(self, case, monkeypatch):
        dae, spec, order = firstorder_case(case)
        calls = self.count_solves(monkeypatch)
        rom = build_rom_firstorder(dae, spec, order)
        assert calls.pop("unchecked") == 0
        assert calls == self.expected_solves(rom.table, spec.jordan_pairs,
                                             np.append(spec.conj_map, 4))
        # of the 791 - 5 monomials from order 2, 38 are self-conjugate: 412
        # are solved, with 170 distinct master exponents among them
        own = self_conjugate_count(rom.table, range(2, order + 1))
        assert own == 38 and (len(rom.table) - 5 + own) // 2 == 412
        assert calls["scipy", "matrices"] == 170
        assert calls["numpy", "matrices"] == 412 - 170 == 242
        waves = solve_waves(rom.table, spec.jordan_pairs)
        assert calls["scipy", "solves"] <= len(waves) and calls["numpy", "solves"] <= len(waves)
        if case.startswith("jordan"):
            assert len(waves) > order - 1  # the Jordan build has several waves per order
        else:
            assert calls["scipy", "solves"] == len(waves) == order - 1

    def test_jordan_waves_are_closed_under_conjugation(self):
        # a wave's Jordan terms read rows that earlier waves solved or
        # mirrored, so each wave has to hold the partner of each of its
        # monomials: the coupling (0, 2, tau) conjugates to (1, 3, conj tau)
        dae, spec, order = firstorder_case("jordan-o7")
        table = MonomialTable(5, order)
        partner = brute_force_partners(table, np.append(spec.conj_map, 4))
        waves = solve_waves(table, spec.jordan_pairs)
        assert len(waves) > order - 1
        for mids in waves.values():
            assert set(partner[mids]) == set(mids)
        # the engine's waves, all positions and the representatives alone
        for p in range(2, order + 1):
            ids = np.asarray(table.ids_of_order(p))
            jdeps = dpim._jordan_within_order(table, p, spec.jordan_pairs)
            new = table.exponents[ids, -1] == 0
            every = dpim._jordan_waves(jdeps, ids[0], new, np.arange(len(ids)))
            reps = dpim._jordan_waves(jdeps, ids[0], new, np.flatnonzero(partner[ids] >= ids))
            assert len(every) == len(reps) == sum(q == p for q, _ in waves)
            for w, ((locs, _), (rlocs, r_new)) in enumerate(zip(every, reps)):
                assert sorted(ids[locs]) == waves[p, w]
                assert list(rlocs) == [loc for loc in locs if partner[ids[loc]] >= ids[loc]]
                assert r_new == np.count_nonzero(new[rlocs])
                assert np.all(new[rlocs[:r_new]]) and not np.any(new[rlocs[r_new:]])

    @pytest.mark.parametrize("case", ["hopf-o7", "jordan-o7"])
    @pytest.mark.parametrize("two_modes", [False, True])
    def test_repeats_share_sigma_and_resonant_set(self, case, two_modes):
        # the premise of solving repeats unchecked: alpha mu^k has the very
        # sigma and resonance key of its first appearance, so the same matrix;
        # one mode (d = 2) is the case's system's one-mode spectrum
        dae, spec, order = firstorder_case(case)
        if not two_modes:
            spec = solve_master_eigen(dae, d=2)
        table = MonomialTable(spec.d + 1, order)
        res = classify_resonances(table, np.append(np.diag(spec.Lam), 0.0))
        first = np.array(list(first_appearances(table).items())).T
        repeats = first[:, first[0] != first[1]]
        # the first appearances: mu^k, z_s mu^k and each master part of order 2..7
        assert repeats.shape[1] == len(table) - (spec.d + 1) - (330 if two_modes else 36)
        mids, firsts = repeats
        assert np.array_equal(res.sigma[mids].view(np.uint64), res.sigma[firsts].view(np.uint64))
        assert np.array_equal(res.keys[mids], res.keys[firsts])

    @pytest.mark.parametrize("engine", ["first-order", "second-order"])
    def test_ill_conditioned_first_appearance_raises(self, engine):
        system, build = resonance_error_cases(engine)
        spec = solve_master_eigen(system, d=2)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            # the slave at 3i, not the master at i, and the remedy for a slave
            with pytest.raises(ResonanceError, match=r"monomial \(3, 0, 0\): sigma = \S*3j .*"
                                                     r"lambda = \S*3j, a slave mode: take that "
                                                     r"mode among the masters"):
                build(system, spec, 3)
        assert caught == []

    @pytest.mark.parametrize("case", ["hopf-o5", "hopf-o7", "jordan-o5"])
    def test_secondorder_against_per_monomial_loop(self, case, monkeypatch):
        order = int(case.rsplit("-o", 1)[1])
        if case.startswith("hopf"):
            model, _ = make_cubic_test_model(2.6)
            spec = solve_master_eigen(model, d=4)
        else:
            model, _ = make_cubic_test_model(2.0)
            spec = enforce_jordan(solve_master_eigen(model, d=4), (0, 2))
        rom = build_rom_secondorder(model, spec, order)
        monkeypatch.setattr(dpim, "_solve_order",
                            naive_wave_loop(naive_solve_order_secondorder, model))
        ref = build_rom_secondorder(model, spec, order)
        assert rel_diff(rom.W, ref.W) < 1e-12
        assert rel_diff(rom.f, ref.f) < 1e-12

    def test_secondorder_one_solve_per_wave(self, monkeypatch):
        model, _ = make_cubic_test_model(2.0)
        spec = enforce_jordan(solve_master_eigen(model, d=4), (0, 2))
        calls = self.count_solves(monkeypatch)
        rom = build_rom_secondorder(model, spec, 7)
        assert calls.pop("unchecked") == 0
        assert calls == self.expected_solves(rom.table, spec.jordan_pairs,
                                             np.append(spec.conj_map, 4))
        assert calls["scipy", "matrices"] == 170
        assert calls["numpy", "matrices"] == 242
        assert sum(r["stacks"] for r in rom.meta["stats"]) == len(
            solve_waves(rom.table, spec.jordan_pairs))

    @pytest.mark.parametrize("case", ["first-order-hopf", "first-order-jordan",
                                      "first-order-cubic", "second-order-hopf",
                                      "second-order-jordan", "second-order-cubic"])
    def test_f_pattern_is_the_resonance_keys(self, case):
        # a padded border slot that leaked into f would put a nonzero off the
        # monomial's resonant set (or in the load's column)
        engine, kind = case.rsplit("-", 1)
        if engine == "first-order":
            dae, spec, _ = firstorder_case(f"{kind}-o5")
            rom = build_rom_firstorder(dae, spec, 5)
        else:
            model, _ = make_cubic_test_model(2.0 if kind == "jordan" else 2.6)
            if kind == "cubic":
                model = with_quadratic_force(model)
            spec = solve_master_eigen(model, d=4)
            if kind == "jordan":
                spec = enforce_jordan(spec, (0, 2))
            rom = build_rom_secondorder(model, spec, 5)
        res = classify_resonances(rom.table, np.append(rom.lam, 0.0))
        for mid in range(rom.table.count_of_order(1), len(rom.table)):
            assert list(np.flatnonzero(rom.f[mid])) == resonant_set(res, mid)

    def test_padded_system_against_per_monomial_bordered_lu(self):
        # resonant sets of sizes 0, 1 and 2 in one stack, borders one per
        # entry as in the second-order engine, against unpadded solves
        rng = np.random.default_rng(7)
        N, d = 6, 4
        keys = np.array([0, 0b0001, 0b0100, 0b0101, 0b1010, 0b0110, 0])
        k = len(keys)

        def crandn(*shape):
            return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

        sigma, pencil = crandn(k), (crandn(N, N), crandn(N, N), crandn(N, N))
        cols, rows, corner = crandn(k, N, d), crandn(k, d, N), crandn(d, d)
        rhs, border_rhs = crandn(k, N), crandn(k, d)
        A, b, sel = dpim._padded_system(sigma, pencil, cols, rows, corner, rhs, border_rhs, keys)
        assert A.shape == (k, N + 2, N + 2) and b.shape == (k, N + 2)
        # scipy solves sizes 0, 1, 1, 2 and numpy 2, 2, 0
        sol, rel = dpim._stacked_solve(A, b, 4, np.zeros(k), None, None, np.arange(k))
        assert rel < 1e-13
        assert np.all(sol[:, N:][sel == d] == 0)   # the padded unknowns stay 0
        for e in range(k):
            R = [r for r in range(d) if keys[e] >> r & 1]
            assert list(sel[e]) == R + [d] * (2 - len(R))
            S = pencil[0] + sigma[e] * pencil[1] + sigma[e] ** 2 * pencil[2]
            Mtx = np.block([[S, cols[e][:, R]], [rows[e][R], corner[np.ix_(R, R)]]])
            ref = sla.lu_solve(sla.lu_factor(Mtx), np.concatenate((rhs[e], border_rhs[e, R])))
            assert rel_diff(sol[e, :N + len(R)], ref) < 1e-13

    def test_residual_slope_one_evaluation_of_its_directions(self, monkeypatch):
        # the directions' monomials are evaluated once, never stacked over
        # the radii, and the defect of every radius and direction is one
        # application of the quadratic form
        dae, spec, _ = firstorder_case("hopf-o5")
        rom = build_rom_firstorder(dae, spec, 5)
        rows, applies = [], Counter()
        power_values, apply = dpim.power_values, SparseBilinearForm.apply

        def counted_power_values(U, *args):
            rows.append(len(U))
            return power_values(U, *args)

        def counted_apply(self, *args):
            applies[len(args[0])] += 1
            return apply(self, *args)

        monkeypatch.setattr(dpim, "power_values", counted_power_values)
        monkeypatch.setattr(SparseBilinearForm, "apply", counted_apply)
        radii = np.logspace(-2, -1, 4)
        residual_slope(rom, dae, radii)
        assert rows == [dpim._SLOPE_DIRS]
        assert applies == {len(radii) * dpim._SLOPE_DIRS: 1}


def pointwise_residual(rom, system, z):
    """Invariance defect at one point through the direct evaluators."""
    Wz = polynomial_eval(rom.table, rom.W, z)
    fz = polynomial_eval(rom.table, rom.f, z)
    flow = rom.mapping_gradient(z) @ fz
    mu = z[-1]
    if isinstance(system, FirstOrderDAE):
        rhs = (system.tangent_matrix() @ Wz + system.parameter_column() * mu
               + system.Q1.apply(Wz, Wz) + (system.Q2m @ Wz) * mu + system.q3 * mu**2)
        return np.linalg.norm(system.B @ flow - rhs)
    n, M, C, Kt = system.n, system.M, system.C, system.Kt
    U, V, dU, dV = Wz[:n], Wz[n:], flow[:n], flow[n:]
    r1 = M @ dU - M @ V
    r2 = (M @ dV + C @ V + Kt @ U - mu * system.Rt - mu * (system.Ru @ U)
          + system.nonlinear_force(U))
    return np.linalg.norm(np.concatenate([r1, r2]))


def invariance_cases():
    dae, spec, _ = firstorder_case("hopf-o7")
    model, _ = make_cubic_test_model(2.6)
    spec2 = solve_master_eigen(model, d=4)
    # at the exceptional point, with the Jordan block imposed: f's linear
    # part is off-diagonal
    ep = recast_to_dae(build_ziegler2(1, 1, 1, 1, 1), mu0=2.0)
    jordan = enforce_jordan(solve_master_eigen(ep, d=4), (0, 2))
    return [(build_rom_firstorder(dae, spec, 7), dae),
            (build_rom_secondorder(model, spec2, 5), model),
            (build_rom_firstorder(ep, jordan, 5), ep)]


class TestBatchedInvariance:
    @pytest.fixture(scope="class")
    def cases(self):
        return invariance_cases()

    @staticmethod
    def points(rom, radius, n=6, seed=3):
        rng = np.random.default_rng(seed)
        return np.array([dpim.conjugate_sample(rom, radius, rng) for _ in range(n)])

    def test_graded_sum_against_direct_evaluation(self, cases):
        # the graded pieces summed over the orders: W(z), f(z) and
        # (dW/dz) f(z) at each point
        for rom, _ in cases:
            for radius in (1e-2, 0.3, 1.0):
                Z = self.points(rom, radius)
                Wz, fz, flow = dpim._evaluated(rom, dpim._graded_pieces(rom, Z).sum(axis=0))
                for k, z in enumerate(Z):
                    W_ref = polynomial_eval(rom.table, rom.W, z)
                    f_ref = polynomial_eval(rom.table, rom.f, z)
                    flow_ref = rom.mapping_gradient(z) @ f_ref
                    assert rel_diff(Wz[k], W_ref) < 1e-13
                    assert rel_diff(fz[k], f_ref) < 1e-13
                    assert rel_diff(flow[k], flow_ref) < 1e-13

    def test_rejects_a_single_point(self, cases):
        rom = cases[0][0]
        nv = rom.table.nvars
        with pytest.raises(ValueError, match=f"rows of {nv} components"):
            dpim._graded_pieces(rom, np.ones(nv))

    def test_residual_against_pointwise_formula(self, cases):
        # the defect is a difference of terms of the size of W(z); where it
        # has cancelled to round-off of those terms, that round-off is the bound
        for rom, system in cases:
            for radius in (1e-2, 0.1, 0.3, 0.5, 1.0):
                Z = self.points(rom, radius)
                got = invariance_residual(rom, system, Z)
                assert got.shape == (len(Z),)
                for k, z in enumerate(Z):
                    ref = pointwise_residual(rom, system, z)
                    floor = 1e-13 * np.linalg.norm(polynomial_eval(rom.table, rom.W, z))
                    assert abs(got[k] - ref) <= max(1e-10 * ref, floor)
                    # a single point is the one-row case
                    one = invariance_residual(rom, system, z)
                    assert isinstance(one, float)
                    assert one == invariance_residual(rom, system, z[None])[0]

    def test_residual_slope_against_invariance_residual(self, cases):
        # each radius's value, read from the per-order pieces at the
        # directions, is the largest defect at the directions scaled by the
        # radius, within test_residual_against_pointwise_formula's bound
        radii = np.array([1e-2, 0.1, 0.3, 0.5, 1.0])
        for rom, system in cases:
            rng = np.random.default_rng(dpim._SLOPE_SEED)
            dirs = np.array([dpim.conjugate_sample(rom, 1.0, rng)
                             for _ in range(dpim._SLOPE_DIRS)])
            slope, vals = residual_slope(rom, system, radii)
            assert vals.shape == radii.shape
            for r, got in zip(radii, vals):
                ref = invariance_residual(rom, system, r * dirs).max()
                floor = 1e-13 * max(np.linalg.norm(polynomial_eval(rom.table, rom.W, r * d))
                                    for d in dirs)
                assert abs(got - ref) <= max(1e-10 * ref, floor), (rom.order, r)
            assert slope == np.polyfit(np.log(radii), np.log(vals), 1)[0]


def product_counts(rom, engine):
    """Per order from 2, the (row, row) products of the assembly and of the
    cross terms: each sum runs over the representatives of its first block
    (partner[id] >= id, by brute force) and over every row of the others;
    the bilinear forms over the splits p1 >= p - p1, the second-order
    model's cubic over every composition, and the cross terms over the
    nonzero f rows of each order qf."""
    table = rom.table
    partner = brute_force_partners(table, np.append(rom.conj_map, rom.d))
    n = [0] + [table.count_of_order(q) for q in range(1, rom.order + 1)]
    reps = [0] + [sum(partner[mid] >= mid for mid in table.ids_of_order(q))
                  for q in range(1, rom.order + 1)]
    out = []
    for p in range(2, rom.order + 1):
        if engine == "first-order":
            series = sum(reps[p1] * n[p - p1] for p1 in range((p + 1) // 2, p))
        else:  # the cubic test model: H alone
            series = sum(reps[p1] * n[p2] * n[p - p1 - p2]
                         for p1 in range(1, p - 1) for p2 in range(1, p - p1))
        cross = sum(reps[p - qf] * int(np.any(rom.f[table.ids_of_order(qf)], axis=1).sum())
                    for qf in range(2, p))
        out.append((series, cross))
    return out


def expected_products(rom, engine):
    return [series + cross for series, cross in product_counts(rom, engine)]


class TestBuildStats:
    @pytest.mark.parametrize("engine", ["first-order", "second-order"])
    def test_per_order_stats(self, engine):
        order = 7
        if engine == "first-order":
            m = build_ziegler2(1, 1, 1, 1, 1, xi_m=0.2)
            system = recast_to_dae(m, mu0=P_H)
            build = build_rom_firstorder
        else:
            system, _ = make_cubic_test_model(2.6)
            build = build_rom_secondorder
        spec = solve_master_eigen(system, d=4)
        rom = build(system, spec, order)
        again = build(system, spec, order)
        assert np.array_equal(rom.W, again.W) and np.array_equal(rom.f, again.f)

        stats = rom.meta["stats"]
        assert [r["order"] for r in stats] == list(range(2, order + 1))
        res = classify_resonances(rom.table, np.append(rom.lam, 0.0))
        for r in stats:
            ids = rom.table.ids_of_order(r["order"])
            assert r["monomials"] == len(ids)
            assert r["resonant"] == sum(1 for mid in ids if resonant_set(res, mid))
            assert min(r["assembly_s"], r["cross_s"], r["solve_s"]) >= 0
            assert r["max_rel_residual"] < 1e-6
            assert r["stacks"] == 1   # no Jordan couplings: one wave per order
            # each conjugate pair is one solve and one mirrored row
            own = self_conjugate_count(rom.table, [r["order"]])
            assert r["factorizations"] + r["mirrored"] == r["monomials"]
            assert r["mirrored"] == (r["monomials"] - own) // 2
        assert [r["products"] for r in stats] == expected_products(rom, engine)
        # stacked solves factor the matrix of one monomial of each conjugate
        # pair and of each self-conjugate one: 412 of the 791 - 5 rows from
        # order 2; the first appearance of each master exponent among them
        # is condition-checked
        assert sum(r["factorizations"] for r in stats) == 412
        assert sum(r["mirrored"] for r in stats) == len(rom.table) - 5 - 412
        first = first_appearances(rom.table)
        partner = brute_force_partners(rom.table, np.append(rom.conj_map, 4))
        for r in stats:
            assert r["checked"] == sum(first[mid] == mid and partner[mid] >= mid
                                       for mid in rom.table.ids_of_order(r["order"]))
        assert sum(r["checked"] for r in stats) == 170

        back = ParametrisationROM.from_dict(json.loads(json.dumps(rom.to_dict())))
        assert back.meta["stats"] == stats

    def test_quadratic_products_at_order_11(self):
        # of the 343,981 (row, row) products of every split and monomial,
        # the splits p1 >= p - p1 over the representatives keep 95,296
        dae = recast_to_dae(build_ziegler2(1, 1, 1, 1, 1, xi_m=0.2), mu0=P_H)
        rom = build_rom_firstorder(dae, solve_master_eigen(dae, d=4), 11)
        n = [0] + [rom.table.count_of_order(q) for q in range(1, 12)]
        assert sum(n[p1] * n[p - p1] for p in range(2, 12) for p1 in range(1, p)) == 343981
        products = [r["products"] for r in rom.meta["stats"]]
        cross = [c for _, c in product_counts(rom, "first-order")]
        assert sum(products) - sum(cross) == 95296

    def test_stacks_count_the_jordan_waves(self):
        dae, spec, order = firstorder_case("jordan-o5")
        rom = build_rom_firstorder(dae, spec, order)
        waves = solve_waves(rom.table, spec.jordan_pairs)
        stats = rom.meta["stats"]
        assert [r["stacks"] for r in stats] == [sum(p == r["order"] for p, _ in waves)
                                                for r in stats]
        assert sum(r["stacks"] for r in stats) == 18
        back = ParametrisationROM.from_dict(json.loads(json.dumps(rom.to_dict())))
        assert back.meta["stats"] == stats


def loop_resonance_sets(table, lam_cls, r_tol):
    d = len(lam_cls) - 1
    sigma_cls = table.exponents @ lam_cls
    return [[r for r in range(d)
             if abs(sigma_cls[mid].imag - lam_cls[r].imag)
             <= r_tol * max(1.0, abs(lam_cls[r].imag))]
            for mid in range(len(table))]


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("two_modes", [False, True])
def test_resonance_sets_match_loop(seed, two_modes, monkeypatch):
    # one mode (d = 2) is classified on its own eigenvalues; two (d = 4) on
    # the 1:1 average, each imaginary part replaced by the mean frequency
    rng = np.random.default_rng(seed)
    # frequencies near 1:1, 1:2 and 1:3 ratios so that many monomials are hit
    w1 = rng.uniform(0.5, 2.0)
    w2 = w1 * rng.choice([1.0, 2.0, 3.0, 0.5]) * (1 + 0.02 * rng.standard_normal())
    re = 0.1 * rng.standard_normal(2)
    lam = np.array([re[0] + 1j * w1, re[0] - 1j * w1, re[1] + 1j * w2, re[1] - 1j * w2, 0])
    lam_cls = lam.copy()
    if two_modes:
        om = (w1 + abs(w2)) / 2
        lam_cls[:4] = np.array([re[0] + 1j * om, re[0] - 1j * om, re[1] + 1j * om, re[1] - 1j * om])
    else:
        lam, lam_cls = lam[[0, 1, 4]], lam_cls[[0, 1, 4]]
    table = MonomialTable(len(lam), 6)
    for r_tol in (0.005, 0.05, 0.2):
        monkeypatch.setattr(dpim, "_R_TOL", r_tol)
        res = classify_resonances(table, lam)
        assert np.allclose(res.lam_classified, lam_cls, rtol=1e-15, atol=0)
        assert ([resonant_set(res, mid) for mid in range(len(table))]
                == loop_resonance_sets(table, lam_cls, r_tol))


class TestRomSerialization:
    def test_round_trip_bit_faithful(self):
        m = build_ziegler2(1, 1, 1, 1, 1, xi_m=0.2)
        dae = recast_to_dae(m, mu0=2.6)
        spec = solve_master_eigen(dae, d=4)
        rom = build_rom_firstorder(dae, spec, order=3)
        blob = json.dumps(rom.to_dict())
        rom2 = ParametrisationROM.from_dict(json.loads(blob))
        blob2 = json.dumps(rom2.to_dict())
        assert blob == blob2
        assert np.array_equal(rom.W, rom2.W)
        assert np.array_equal(rom.f, rom2.f)

    def test_reads_files_with_the_dropped_style_field(self):
        m = build_ziegler2(1, 1, 1, 1, 1, xi_m=0.2)
        dae = recast_to_dae(m, mu0=2.6)
        rom = build_rom_firstorder(dae, solve_master_eigen(dae, d=2), order=2)
        data = rom.to_dict()
        assert "style" not in data
        back = ParametrisationROM.from_dict({**data, "style": "normal-form"})
        assert back.to_dict() == data

    @pytest.mark.parametrize("n_disp", [None, 2])
    def test_reads_files_with_the_dropped_n_disp_field(self, rom_data, n_disp):
        # files written before the field was dropped store n_disp: None from
        # the first-order engine, the displacement count from the second-order
        # one; nothing read it
        assert "n_disp" not in rom_data
        back = ParametrisationROM.from_dict({**rom_data, "n_disp": n_disp})
        assert back.to_dict() == rom_data

    def test_reads_files_with_the_dropped_build_settings(self, rom_data):
        # files written before the resonance tolerance became a constant and
        # Lam the one store of the couplings hold r_tol, one_to_one and
        # jordan_pairs in meta; meta is a record, written back as read
        assert not {"r_tol", "one_to_one", "jordan_pairs"} & set(rom_data["meta"])
        data = {**rom_data, "meta": {**rom_data["meta"], "r_tol": 0.05, "one_to_one": True,
                                     "jordan_pairs": [[0, 2, 1.0], [1, 3, 1.0]]}}
        back = ParametrisationROM.from_dict(data)
        assert back.to_dict() == data
        assert np.array_equal(back.W, ParametrisationROM.from_dict(rom_data).W)

    @pytest.fixture(scope="class")
    def rom_data(self):
        dae = recast_to_dae(build_ziegler2(1, 1, 1, 1, 1, xi_m=0.2), mu0=2.6)
        return build_rom_firstorder(dae, solve_master_eigen(dae, d=4), order=3).to_dict()

    @pytest.mark.parametrize("field,cut", [
        ("W", lambda data: data["W"][:-10]),
        ("f", lambda data: data["f"][:-10]),
        ("f", lambda data: [row[:-1] for row in data["f"]]),
        ("Lam", lambda data: [row[:2] for row in data["Lam"][:2]]),
        ("conj_map", lambda data: data["conj_map"][:2]),
    ], ids=["W-rows", "f-rows", "f-columns", "Lam", "conj_map"])
    def test_rejects_fields_that_do_not_fit_the_table(self, rom_data, field, cut):
        # each loaded without complaint and failed later, or not at all:
        # short W rows gave amplitudes with an empty reason
        data = dict(rom_data)
        data[field] = cut(data)
        with pytest.raises(ValueError, match=f"field '{field}'"):
            ParametrisationROM.from_dict(data)
        ParametrisationROM.from_dict(rom_data)  # the file as written loads

    def test_stored_eigenvalues_are_not_read(self, rom_data):
        # the eigenvalues are Lam's diagonal, written for readers that take
        # them from the file; a stored list that disagrees is ignored
        rom = ParametrisationROM.from_dict({**rom_data, "eigenvalues": [[9.0, 9.0]] * 2})
        assert np.array_equal(rom.lam, np.diag(rom.Lam))
        assert rom.to_dict() == rom_data

    def test_lam_is_the_diagonal_of_Lam(self, rom_data):
        rom = ParametrisationROM.from_dict(rom_data)
        L2 = np.diag([1j, -1j, 2j, -2j]) + np.eye(4, k=2)
        assert np.array_equal(dataclasses.replace(rom, Lam=L2).lam, np.diag(L2))
        assert dataclasses.replace(rom, Lam=L2).d == 4

    @pytest.mark.parametrize("conj_map", [[5, 0], [1, 1], [0, 1], [-1, 0]],
                             ids=["out-of-range", "repeated", "fixed-points", "negative"])
    def test_rejects_a_conj_map_that_is_not_a_pairing(self, conj_map):
        # each loaded: with [5, 0] the first cycle measurement raised an
        # IndexError, [1, 1] was measured as [1, 0], and [0, 1] and [-1, 0]
        # failed later for want of distinct conjugate partners
        data = json.loads(json.dumps(hopf_normal_form_rom().to_dict()))
        with pytest.raises(ValueError, match="field 'conj_map'"):
            ParametrisationROM.from_dict({**data, "conj_map": conj_map})
        assert ParametrisationROM.from_dict(data).to_dict() == data

    def test_rejects_bad_version(self):
        m = build_ziegler2(1, 1, 1, 1, 1)
        dae = recast_to_dae(m, mu0=2.5)
        spec = solve_master_eigen(dae, d=4)
        rom = build_rom_firstorder(dae, spec, order=2)
        data = rom.to_dict()
        data["version"] = 99
        with pytest.raises(ValueError):
            ParametrisationROM.from_dict(data)
