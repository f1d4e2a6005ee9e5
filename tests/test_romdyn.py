import warnings
from dataclasses import replace
from functools import partial

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from flutterrom import continuation
from flutterrom.continuation import ContinuationOptions, continue_periodic
from flutterrom.dpim import build_rom_firstorder
from flutterrom.models import build_ziegler, build_ziegler2, recast_to_dae
from flutterrom.romdyn import (
    BlowUpError,
    RealizedReducedSystem,
    integrate_reduced,
    measure_limit_cycle,
    measure_limit_cycle_fom,
    periodic_peak,
    trace_unstable_manifold,
)
from flutterrom.spectral import detect_exceptional_point, eigen_sweep, solve_master_eigen
from tests.conftest import hopf_normal_form_rom
from tests.oracles import return_time
from tests.test_paper_claims import rom_at


def ziegler_rom(mu0=2.27, order=5, xi_m=0.2, d=4):
    m = build_ziegler2(1, 1, 1, 1, 1, xi_m=xi_m)
    dae = recast_to_dae(m, mu0=mu0)
    spec = solve_master_eigen(dae, d=d)
    rom = build_rom_firstorder(dae, spec, order=order)
    return m, dae, rom


class TestRealified:
    def test_origin_fixed_point(self, hopf_rom):
        sysr = RealizedReducedSystem(hopf_rom, 0.0)
        assert np.allclose(sysr.rhs(0.0, np.zeros(2)), 0.0)

    def test_realification_matches_complex_field(self):
        _, _, rom = ziegler_rom()
        sysr = RealizedReducedSystem(rom, 0.05)
        rng = np.random.default_rng(0)
        x = 0.1 * rng.standard_normal(4)
        z = sysr.complex_state(x)
        fz = sysr.complex_field(z)
        out = sysr.rhs(0.0, x)
        expect = np.array([fz[0].real, fz[0].imag, fz[2].real, fz[2].imag])
        assert np.abs(out - expect).max() < 1e-12

    def test_jacobian_matches_fd(self):
        _, _, rom = ziegler_rom()
        sysr = RealizedReducedSystem(rom, 0.03)
        rng = np.random.default_rng(5)
        x = 0.05 * rng.standard_normal(4)
        J = sysr.jacobian(x)
        eps = 1e-7
        Jfd = np.zeros_like(J)
        for k in range(4):
            dx = np.zeros(4)
            dx[k] = eps
            Jfd[:, k] = (sysr.rhs(0, x + dx) - sysr.rhs(0, x - dx)) / (2 * eps)
        assert np.abs(J - Jfd).max() < 1e-6

    def test_dfdmu_matches_fd(self):
        _, _, rom = ziegler_rom()
        sysr = RealizedReducedSystem(rom, 0.03)
        x = np.array([0.02, -0.01, 0.005, 0.01])
        g = sysr.dfdmu(x)
        eps = 1e-7
        s1 = RealizedReducedSystem(rom, 0.03 + eps)
        s2 = RealizedReducedSystem(rom, 0.03 - eps)
        gfd = (s1.rhs(0, x) - s2.rhs(0, x)) / (2 * eps)
        assert np.abs(g - gfd).max() < 1e-6

    def test_mapped_state_real(self):
        _, _, rom = ziegler_rom()
        sysr = RealizedReducedSystem(rom, 0.05)
        y = sysr.map_to_physical(np.array([0.1, 0.02, -0.03, 0.01]))
        assert y.dtype == float


def realified_oracle(sysr, x):
    """rhs, Jacobian and dfdmu from the direct polynomial evaluation of f."""
    rom = sysr.rom
    z = sysr.complex_state(x)
    fz = sysr.complex_field(z)
    gf = replace(rom, W=rom.f).mapping_gradient(z)  # gf[r, s] = df_r/dz_s
    reps = sysr.reps
    J = np.zeros((2 * sysr.m, 2 * sysr.m))
    for kk, r in enumerate(reps):
        for ll, s in enumerate(reps):
            sc = rom.conj_map[s]
            da = gf[r, s] + gf[r, sc]
            db = 1j * (gf[r, s] - gf[r, sc])
            J[2 * kk:2 * kk + 2, 2 * ll] = da.real, da.imag
            J[2 * kk:2 * kk + 2, 2 * ll + 1] = db.real, db.imag
    f = np.column_stack([fz[reps].real, fz[reps].imag]).ravel()
    g = np.column_stack([gf[reps, -1].real, gf[reps, -1].imag]).ravel()
    return f, J, g


def rel_diff(a, b):
    return np.abs(a - b).max() / max(np.abs(b).max(), 1e-300)


@pytest.fixture(scope="module", params=["ziegler-d2", "ziegler-d4", "hopf"])
def compiled_case(request):
    if request.param == "hopf":
        return hopf_normal_form_rom(rho=0.1, omega=1.3, c_mu=0.7 - 0.2j, c3=-1.0 + 0.4j)
    return ziegler_rom(d=int(request.param[-1]))[2]


class TestCompiledEvaluator:
    """The compiled realified evaluator against the direct polynomial oracles."""

    @pytest.mark.parametrize("reassign", [False, True])
    def test_against_oracles(self, compiled_case, reassign):
        rom = compiled_case
        sysr = RealizedReducedSystem(rom, 0.05)
        rng = np.random.default_rng(3)
        X = np.vstack([np.zeros(2 * sysr.m),
                       0.2 * rng.standard_normal((5, 2 * sysr.m))])
        if reassign:
            sysr.map_batch(X)  # fills the mapping table at the old mu
            sysr.mu = -0.08
        for x in X:
            f, J, g = realified_oracle(sysr, x)
            assert rel_diff(sysr.rhs(0.0, x), f) <= 1e-13
            assert rel_diff(sysr.jacobian(x), J) <= 1e-13
            assert rel_diff(sysr.dfdmu(x), g) <= 1e-13
        Yref = np.array([sysr.map_to_physical(x) for x in X])
        assert rel_diff(sysr.map_batch(X), Yref) <= 1e-13

    def test_linearize_matches_separate_calls(self, compiled_case):
        sysr = RealizedReducedSystem(compiled_case, 0.05)
        x = 0.2 * np.random.default_rng(4).standard_normal(2 * sysr.m)
        f, J, g = sysr.linearize(x)
        assert rel_diff(f, sysr.rhs(0.0, x)) <= 1e-14
        assert rel_diff(J, sysr.jacobian(x)) <= 1e-14
        assert rel_diff(g, sysr.dfdmu(x)) <= 1e-14

    def test_batched_linearize_matches_single_states(self, compiled_case):
        sysr = RealizedReducedSystem(compiled_case, 0.05)
        X = 0.2 * np.random.default_rng(5).standard_normal((37, 2 * sysr.m))
        f, J, g = sysr.linearize(X)
        assert f.shape == g.shape == X.shape and J.shape == X.shape + X.shape[1:]
        for k, x in enumerate(X):
            fk, Jk, gk = sysr.linearize(x)
            assert np.array_equal(fk, f[k]) and np.array_equal(Jk, J[k])
            assert np.array_equal(gk, g[k])
            assert np.array_equal(Jk, sysr.jacobian(x))

    def test_mu_reassignment_matches_fresh_system(self, compiled_case):
        sysr = RealizedReducedSystem(compiled_case, 0.05)
        fresh = RealizedReducedSystem(compiled_case, 0.13)
        x = 0.2 * np.random.default_rng(6).standard_normal(2 * sysr.m)
        sysr.map_batch(x[None])
        sysr.mu = 0.13
        for a, b in zip(sysr.linearize(x), fresh.linearize(x)):
            assert np.array_equal(a, b)
        assert np.array_equal(sysr.map_batch(x[None]), fresh.map_batch(x[None]))


class TestSingleState:
    """One-state rhs/linearize against the batched path and the oracles."""

    def states(self, sysr):
        # a strided view (a row of a transposed sample block) and a list
        X = 0.2 * np.random.default_rng(8).standard_normal((2 * sysr.m, 3))
        assert not X[:, 1].flags.c_contiguous
        return X.T, [X[:, 1], list(X[:, 2])]

    def test_rhs_against_batch_and_complex_field(self, compiled_case):
        sysr = RealizedReducedSystem(compiled_case, 0.05)
        block, singles = self.states(sysr)
        batch, dbatch = sysr.rhs(0.0, block), sysr.dfdmu(block)
        assert batch.shape == dbatch.shape == block.shape
        for row, drow, x in zip(batch[1:], dbatch[1:], singles):
            f, _, g = realified_oracle(sysr, np.array(x))
            assert rel_diff(sysr.rhs(0.0, x), row) <= 1e-13
            assert rel_diff(sysr.rhs(0.0, x), f) <= 1e-13
            assert rel_diff(sysr.dfdmu(x), drow) <= 1e-13
            assert rel_diff(sysr.dfdmu(x), g) <= 1e-13

    def test_linearize_against_batch_and_complex_field(self, compiled_case):
        sysr = RealizedReducedSystem(compiled_case, -0.03)
        block, singles = self.states(sysr)
        batch = sysr.rhs(0.0, block)
        for row, x in zip(batch[1:], singles):
            f, J, g = sysr.linearize(x)
            fo, Jo, go = realified_oracle(sysr, np.array(x))
            assert rel_diff(f, row) <= 1e-13 and rel_diff(f, fo) <= 1e-13
            assert rel_diff(J, Jo) <= 1e-13
            assert rel_diff(g, go) <= 1e-13


class TestIntegrateReduced:
    def test_zero_stays_zero(self, hopf_rom):
        sol = integrate_reduced(hopf_rom, 0.1, [0.0], 20.0)
        assert np.abs(sol.y).max() < 1e-14

    @pytest.mark.parametrize("alpha", [0.01, 0.04])
    def test_normal_form_radius(self, alpha):
        # zdot = (alpha + i) z - z|z|^2 settles on radius sqrt(alpha), period 2pi
        rom = hopf_normal_form_rom()
        meas = measure_limit_cycle(rom, alpha, coord=0)
        assert meas.converged
        assert abs(meas.amplitude[0] - np.sqrt(alpha)) < 2e-5 * np.sqrt(alpha)
        assert abs(meas.period - 2 * np.pi) < 1e-6

    def test_decay_below_hopf(self, hopf_rom):
        meas = measure_limit_cycle(hopf_rom, -0.05, coord=0)
        assert meas.converged
        assert meas.amplitude.max() == 0.0

    def test_spiral_out_to_cycle_post_hopf(self):
        # expansion at the Hopf point, small positive increment: bounded cycle
        m = build_ziegler2(1, 1, 1, 1, 1, xi_m=0.2)
        P_H = eigen_sweep(m, (1.5, 3.0), 40).events["P_H"]
        _, _, rom = ziegler_rom(mu0=P_H, order=5)
        meas = measure_limit_cycle(rom, 0.2, coord=1)
        assert meas.converged
        assert meas.amplitude[1] > 0.05
        # the solver's work, pinned as a count: the Hopf seed corrected at
        # mu = 0.2 itself, no branch walked
        assert meas.newton == 4

    @pytest.mark.parametrize("mu", [0.04, -0.04])
    def test_blow_up_of_the_subcritical_normal_form(self, mu):
        # zdot = (mu + i) z + z|z|^2 from r0 = 0.5, outside the unstable cycle
        # r = sqrt(-mu) when there is one: r^2 = mu r0^2 E / (mu + r0^2 - r0^2 E)
        # with E = exp(2 mu t) reaches the escape radius R = 1e3 r0 at t_R
        rom = hopf_normal_form_rom(c3=1.0)
        r0, R = 0.5, 500.0
        t_R = np.log(R**2 * (mu + r0**2) / (r0**2 * (mu + R**2))) / (2 * mu)
        with pytest.raises(BlowUpError, match="left the escape radius") as info:
            integrate_reduced(rom, mu, [r0], 10.0)
        assert abs(info.value.t_blowup - t_R) < 1e-9 * t_R

    def test_mapping_derivative_consistency(self):
        # d/dt W(z(t)) along a trajectory matches the velocity block of W in
        # the asymptotic regime (the defect is the order-(o+1) truncation)
        _, _, rom = ziegler_rom()
        sysr = RealizedReducedSystem(rom, 0.0)
        sol = integrate_reduced(rom, 0.0, [1e-2], 3.0, rtol=1e-12, atol=1e-14,
                                dense_output=True)
        eps = 1e-5
        for t in np.linspace(0.5, 2.5, 5):
            y_plus = sysr.map_to_physical(sol.sol(t + eps))
            y_minus = sysr.map_to_physical(sol.sol(t - eps))
            dy = (y_plus - y_minus) / (2 * eps)
            y = sysr.map_to_physical(sol.sol(t))
            # theta-block derivative equals the velocity block
            assert np.abs(dy[:2] - y[2:4]).max() < 1e-8


def test_map_to_physical_rejects_a_broken_conjugate_mapping():
    # the conj(z) row of W no longer conjugates the z row: the mapped state
    # of a real normal-form point is complex
    rom = hopf_normal_form_rom()
    x = np.array([0.1, 0.05])
    assert np.allclose(RealizedReducedSystem(rom, 0.0).map_to_physical(x), x)
    rom.W[rom.table.index_of((0, 1, 0))] = rom.W[rom.table.index_of((1, 0, 0))]
    with pytest.raises(RuntimeError, match="non-negligible imaginary part"):
        RealizedReducedSystem(rom, 0.0).map_to_physical(x)


class TestUnstableManifold:
    def test_trajectories_converge_to_common_cycle(self):
        m = build_ziegler2(1, 1, 1, 1, 1, xi_m=0.2)
        P_H = eigen_sweep(m, (1.5, 3.0), 40).events["P_H"]
        _, _, rom = ziegler_rom(mu0=1.05 * P_H, order=7)
        mu = P_H * 1.05 * 0.0 + 0.3  # increment beyond the expansion point
        trajs = trace_unstable_manifold(rom, 0.3, n_radial=2, n_angle=4,
                                        t_end=260.0, n_samples=600)
        finals = []
        for tid, ts, Y, flag in trajs:
            assert flag == ""
            finals.append(np.max(np.abs(Y[-200:, 1])))
        finals = np.array(finals)
        assert finals.std() < 2e-3 * finals.mean()

    def test_small_radius_tangent_to_eigenplane(self):
        _, dae, rom = ziegler_rom()
        spec = solve_master_eigen(dae, d=4)
        trajs = trace_unstable_manifold(rom, 0.0, n_radial=1, n_angle=4,
                                        r_scale=1e-6, t_end=1e-3, n_samples=2)
        for tid, ts, Y, flag in trajs:
            y0 = Y[0]
            # initial physical state lies in the span of the leading pair
            basis = np.column_stack([spec.Y[:, 0].real, spec.Y[:, 0].imag])
            coef, res, *_ = np.linalg.lstsq(basis, y0, rcond=None)
            rel = np.linalg.norm(y0 - basis @ coef) / max(np.linalg.norm(y0), 1e-30)
            assert rel < 1e-6


class TestFom:
    def test_decay_below_hopf(self):
        m = build_ziegler2(1, 1, 1, 1, 1, xi_m=0.2)
        meas = measure_limit_cycle_fom(m, 1.8, coord=1)
        assert meas.converged
        assert meas.amplitude.max() == 0.0

    def test_energy_conservation_free_vibration(self):
        # undamped, no load: energy drift < 1e-6 over 100 periods
        m = build_ziegler2(1, 1, 1, 1, 1)
        x0 = np.array([0.02, -0.01, 0.0, 0.0])
        om_min = 0.4142  # slowest eigenfrequency at P = 0
        T = 100 * 2 * np.pi / om_min
        sol = solve_ivp(m.fom_rhs(0.0), (0.0, T), x0, method="DOP853", rtol=1e-12, atol=1e-14)
        E0 = m.energy(x0)
        E1 = m.energy(sol.y[:, -1])
        assert abs(E1 - E0) / E0 < 1e-6

    def test_fom_cycle_exists_post_hopf(self):
        m = build_ziegler2(1, 1, 1, 1, 1, xi_m=0.2)
        P_H = eigen_sweep(m, (1.5, 3.0), 40).events["P_H"]
        meas = measure_limit_cycle_fom(m, P_H + 0.3, coord=1)
        assert meas.converged
        assert meas.amplitude[1] > 0.05

    def test_newton_count_of_a_cycle(self):
        # the solver's work, pinned as a count: the Newton corrections of the
        # Hopf seed corrected at P_H + 0.2 itself
        m = build_ziegler2(1, 1, 1, 1, 1, xi_m=0.2)
        P_H = eigen_sweep(m, (1.5, 3.0), 40).events["P_H"]
        assert measure_limit_cycle_fom(m, P_H + 0.2).newton == 4

    def test_no_hopf_point_in_the_scanned_window(self):
        # expanded at p = 3.3, find_hopf scans the loads within 0.35 p of it,
        # and P_H = 2.077 lies below them: the reason names that window
        m = build_ziegler2(1, 1, 1, 1, 1, xi_m=0.2)
        meas = measure_limit_cycle_fom(m, 3.3)
        assert meas.amplitude.max() == 0.0 and not meas.converged
        assert "loads [2.145, 4.455]" in meas.reason and "reduc" not in meas.reason

    def test_cycle_against_a_long_run(self):
        # the collocation cycle at P_H + 0.02 against 200 periods of DOP853
        # from 1.1 times its anchor: the transient decays like |m|^k with
        # |m| <= 0.67, far below 1e-8
        m = build_ziegler2(1, 1, 1, 1, 1, xi_m=0.2)
        P = eigen_sweep(m, (1.5, 3.0), 40).events["P_H"] + 0.02
        pt = continue_periodic(m.first_order(P), ContinuationOptions(mu_max=0.0)).points[-1]
        meas = measure_limit_cycle_fom(m, P, coord=1)
        assert meas.converged and meas.reason == "" and meas.newton > 0
        assert np.array_equal(meas.amplitude, pt.amplitude) and meas.period == pt.period
        others = np.sort(np.abs(meas.floquet))[:-1]
        assert np.abs(meas.floquet - 1.0).min() < 1e-6
        assert others.max() <= 0.67 and meas.stable
        assert abs(meas.amplitude[1] - 0.2708906) < 1e-7

        rhs = m.fom_rhs(P)
        run = solve_ivp(rhs, (0.0, 200 * pt.period), 1.1 * pt.anchor, method="DOP853",
                        rtol=1e-12, atol=1e-14)
        x = run.y[:, -1]
        T = return_time(rhs, x, pt.period, 1e-12, 1e-14)
        orbit = solve_ivp(rhs, (0.0, T), x, method="DOP853", rtol=1e-12, atol=1e-14,
                          dense_output=True)
        ref = periodic_peak(orbit.sol(np.linspace(0.0, T, 20001)).T)
        assert abs(T / meas.period - 1.0) < 1e-8
        assert np.abs(meas.amplitude / ref - 1.0).max() < 1e-8


class TestDecayUnits:
    def test_decay_from_reduced_norm(self):
        # a one-mode ROM whose mapping shrinks the amplitude 1e4-fold: the
        # branch's tests (an anchor below _SEED_AMP ends it at a Hopf point)
        # act on the reduced state, which is unchanged, so the cycle is found
        # and only its physical amplitude shrinks
        rom = hopf_normal_form_rom()
        small = replace(rom, W=1e-4 * rom.W)
        meas = measure_limit_cycle(small, 0.04)
        assert meas.converged and meas.reason == ""
        assert abs(meas.amplitude[0] - 1e-4 * np.sqrt(0.04)) < 2e-5 * 1e-4 * np.sqrt(0.04)


@pytest.fixture(scope="module")
def chain8():
    """The chain n = 8 (masses 1/n, springs n, L = 1/n, xi_m = 0.05), its
    Hopf point P_H and its d = 4 order-5 ROM at P_H."""
    n = 8
    m = build_ziegler(np.full(n, 1.0 / n), np.full(n, float(n)), 1.0 / n, xi_m=0.05)
    P_H = eigen_sweep(m, (1.0, 30.0), 60).events["P_H"]
    dae = recast_to_dae(m, mu0=P_H)
    return m, P_H, build_rom_firstorder(dae, solve_master_eigen(dae, d=4), order=5)


def test_chain_rom_against_fom_past_a_false_settle(chain8):
    # at 0.5% of P_H the settle loop reported 0.20950 for the ROM, where
    # both cycles are 0.180214 (Floquet pair |m| = 0.964); at 5% a cycle
    # corrected at fixed load from the Hopf seed did not converge
    m, P_H, rom = chain8
    n = m.n
    for frac, tol in ((0.005, 1e-5), (0.05, 1e-4)):
        got = measure_limit_cycle(rom, frac * P_H, coord=n - 1)
        ref = measure_limit_cycle_fom(m, P_H + frac * P_H, coord=n - 1)
        assert got.converged and ref.converged and got.reason == ref.reason == ""
        assert abs(got.amp(n - 1) / ref.amp(n - 1) - 1.0) < tol
        assert abs(got.period / ref.period - 1.0) < tol
        assert abs(ref.amp(n - 1) - {0.005: 0.1802144, 0.05: 0.5608973}[frac]) < 1e-7


def test_periodic_peak_against_fine_sampling():
    # a two-harmonic orbit at 50 phases: the raw sample maximum of 512
    # samples misses by up to 3e-5 relative, the polished one by < 1e-7
    t = np.linspace(0.0, 1.0, 512)
    fine = np.linspace(0.0, 1.0, 100001)
    for phase in np.linspace(0.0, 2 * np.pi, 50):
        def orbit(s):
            return np.stack([np.cos(2 * np.pi * s + phase)
                             + 0.3 * np.cos(4 * np.pi * s + 2 * phase + 0.4),
                             np.zeros_like(s)], axis=1)
        ref = np.abs(orbit(fine)[:, 0]).max()
        got = periodic_peak(orbit(t))
        assert abs(got[0] / ref - 1.0) < 1e-7
        assert got[1] == 0.0


def count_walks(monkeypatch):
    """The loads up to which a branch is walked other than by a landing (the
    branch that starts at the load): every walk that starts below its last
    load, and every second walk from one Hopf cycle, so a measurement's
    fallback counts even when it starts at the load itself."""
    walks, walked, walk = [], [], continuation._walk

    def counted(model, hopf, mu_start, options):
        if mu_start < options.mu_max or any(h is hopf for h in walked):
            walks.append(options.mu_max)
        walked.append(hopf)
        return walk(model, hopf, mu_start, options)

    monkeypatch.setattr(continuation, "_walk", counted)
    return walks


class TestLanding:
    """A cycle at a load is the Hopf seed corrected at that load; the branch
    walked there from the Hopf point is the oracle and the fallback."""

    @pytest.fixture(scope="class")
    def ziegler2(self):
        """Ziegler-2 (xi_m = 0.2), its Hopf point P_H and the o5 ROMs of the
        paper's claims with their expansion loads."""
        model = build_ziegler2(1, 1, 1, 1, 1, xi_m=0.2)
        traj = eigen_sweep(model, (1.5, 3.0), 40)
        P_H, P_c = traj.events["P_H"], detect_exceptional_point(traj, model)[0]
        roms = {"one-mode": (rom_at(model, P_H, 2), P_H), "two-mode": (rom_at(model, P_H, 4), P_H),
                "jordan": (rom_at(model, P_c, 4, (0, 2)), P_c)}
        return model, P_H, roms

    @pytest.mark.parametrize("label", ["fom", "one-mode", "two-mode", "jordan"])
    def test_landing_matches_the_walked_branch(self, ziegler2, label, monkeypatch):
        # both orbits sit on meshes that meet _RTOL, on different meshes
        # where the walk's seed lies below the load: measured <= 3.1e-8;
        # at mu <= 0.05 the walk starts at the load, so it is the landing
        model, P_H, roms = ziegler2
        cases = []
        for mu in (0.02, 0.05, 0.1, 0.2, 0.3):
            if label == "fom":
                system, inc = model.first_order(P_H + mu), 0.0
                measure = partial(measure_limit_cycle_fom, model, P_H + mu)
            else:
                system, P = roms[label]
                inc = P_H + mu - P
                measure = partial(measure_limit_cycle, system, inc)
            cases.append((mu, inc, measure, continue_periodic(system,
                                                              ContinuationOptions(mu_max=inc))))
        walks = count_walks(monkeypatch)
        short = []
        for mu, inc, measure, diag in cases:
            meas = measure()
            pt = diag.points[-1]
            if pt.mu != inc:
                # no cycle at the load: the measurement is the walk's
                short.append(inc)
                assert meas.amplitude.max() == 0.0 and meas.reason == diag.meta["truncated"]
                continue
            assert meas.reason == "" and meas.stable == pt.stable
            assert np.abs(meas.amplitude - pt.amplitude).max() < 1e-7 * pt.amplitude.max()
            assert abs(meas.period / pt.period - 1.0) < 1e-7
            if mu <= 0.05:
                assert len(diag.points) == 1 and meas.period == pt.period
                assert np.array_equal(meas.amplitude, pt.amplitude)
                assert np.array_equal(meas.floquet, pt.floquet)
        # only the one-mode ROM has loads without a cycle (mu = 0.2, 0.3), and
        # only those walk
        assert len(short) == (2 if label == "one-mode" else 0)
        assert walks == short

    def test_one_mode_past_its_second_hopf_point_keeps_the_walk_reason(self, ziegler2):
        model, P_H, roms = ziegler2
        meas = measure_limit_cycle(roms["one-mode"][0], 0.2)
        assert meas.amplitude.max() == 0.0
        assert meas.reason.startswith("branch ended at a Hopf point near mu = 0.18")

    @pytest.mark.parametrize("mu", [0.1, 0.2, 0.24])
    def test_quintic_normal_form_lands_on_its_small_branch(self, mu, monkeypatch):
        # zdot = (mu + i) z - z|z|^2 + z|z|^4: stable cycle r^2 = (1 - sqrt(1 - 4 mu)) / 2
        # up to the fold at mu = 1/4
        walks = count_walks(monkeypatch)
        meas = measure_limit_cycle(hopf_normal_form_rom(c5=1.0, order=5), mu)
        assert meas.reason == "" and meas.stable and walks == []
        assert abs(meas.amplitude[0] - np.sqrt((1.0 - np.sqrt(1.0 - 4.0 * mu)) / 2.0)) < 1e-8

    def test_landing_on_the_unstable_branch_is_refused(self, monkeypatch):
        # the seed at mu = 0.2 moved onto the unstable upper cycle
        # r^2 = (1 + sqrt(1 - 4 mu)) / 2, which has the stability of the
        # fixed point there: the walk from the Hopf point gives the lower one
        mu, seed, branch_point = 0.2, continuation._hopf_seed, continuation._branch_point
        upper, lower = (np.sqrt((1.0 + s * np.sqrt(1.0 - 4.0 * mu)) / 2.0) for s in (1, -1))
        recorded = []

        def upper_seed(hopf, mu_start):
            x, K, T, rec = seed(hopf, mu_start)
            scale = upper / np.linalg.norm(x) if mu_start == mu else 1.0
            return scale * x, scale * K, T, rec

        def record(sysr, q, col):
            pt, others = branch_point(sysr, q, col)
            recorded.append(pt)
            return pt, others

        monkeypatch.setattr(continuation, "_hopf_seed", upper_seed)
        monkeypatch.setattr(continuation, "_branch_point", record)
        walks = count_walks(monkeypatch)
        meas = measure_limit_cycle(hopf_normal_form_rom(c5=1.0, order=5), mu)
        # the first point recorded is the landing
        assert abs(recorded[0].amplitude[0] - upper) < 1e-8 and not recorded[0].stable
        assert walks == [mu]
        assert meas.reason == "" and meas.stable
        assert abs(meas.amplitude[0] - lower) < 1e-8

    def test_subcritical_seed_error_names_the_requested_load(self):
        # zdot = (mu + i) z + z|z|^2 has its cycles below the Hopf point; the
        # walk's seed would have sat at 0.08
        meas = measure_limit_cycle(hopf_normal_form_rom(c3=1.0), 0.3)
        assert meas.amplitude.max() == 0.0 and meas.newton == 0 and not meas.converged
        assert "grows at mu = 0.3: " in meas.reason and "lie below it" in meas.reason

    def test_past_the_fold_no_cycle_and_no_warning(self):
        # the quintic normal form has no cycle past its fold at mu = 1/4; the
        # walk turns back there, and its correctors overflow on the upper
        # branch: they must stop with a reason, not a numpy warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            meas = measure_limit_cycle(hopf_normal_form_rom(c5=1.0, order=5), 0.3)
        assert meas.amplitude.max() == 0.0 and meas.reason != ""


    @pytest.mark.parametrize("case", ["one-mode", "chain"])
    def test_one_hopf_analysis_per_walking_measurement(self, ziegler2, chain8, case,
                                                        monkeypatch):
        # the landing is refused and the branch is walked up to the load;
        # both start from the measurement's one Hopf point and Hopf cycle
        if case == "one-mode":
            rom, mu = ziegler2[2]["one-mode"][0], 0.2
        else:
            _, P_H, rom = chain8
            mu = 0.02 * P_H
        calls = {"find_hopf": 0, "_hopf_cycle": 0}

        def counter(name, fn):
            def counted(model):
                calls[name] += 1
                return fn(model)
            return counted

        for name in calls:
            monkeypatch.setattr(continuation, name, counter(name, getattr(continuation, name)))
        walks = count_walks(monkeypatch)
        measure_limit_cycle(rom, mu)
        assert walks == [mu]
        assert calls == {"find_hopf": 1, "_hopf_cycle": 1}
