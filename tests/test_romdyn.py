from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from flutterrom import romdyn
from flutterrom.dpim import build_rom_firstorder
from flutterrom.models import ZieglerModel, build_ziegler2, recast_to_dae
from flutterrom.romdyn import (
    RealizedReducedSystem,
    integrate_fom,
    integrate_reduced,
    measure_limit_cycle,
    measure_limit_cycle_fom,
    periodic_peak,
    trace_unstable_manifold,
)
from flutterrom.spectral import solve_master_eigen
from tests.conftest import hopf_normal_form_rom


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
        meas = measure_limit_cycle(rom, alpha, coord=0, amp0=1e-3, settle_rtol=1e-7)
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
        from flutterrom.spectral import eigen_sweep

        P_H = eigen_sweep(m, (1.5, 3.0), 40).events["P_H"]
        _, _, rom = ziegler_rom(mu0=P_H, order=5)
        meas = measure_limit_cycle(rom, 0.2, coord=1)
        assert meas.converged
        assert meas.amplitude[1] > 0.05

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


class TestUnstableManifold:
    def test_trajectories_converge_to_common_cycle(self):
        m = build_ziegler2(1, 1, 1, 1, 1, xi_m=0.2)
        from flutterrom.spectral import eigen_sweep

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
        sol = integrate_fom(m, 0.0, x0=x0, t_end=T, rtol=1e-12, atol=1e-14)
        E0 = m.energy(x0)
        E1 = m.energy(sol.y[:, -1])
        assert abs(E1 - E0) / E0 < 1e-6

    def test_fom_cycle_exists_post_hopf(self):
        m = build_ziegler2(1, 1, 1, 1, 1, xi_m=0.2)
        from flutterrom.spectral import eigen_sweep

        P_H = eigen_sweep(m, (1.5, 3.0), 40).events["P_H"]
        meas = measure_limit_cycle_fom(m, P_H + 0.3, coord=1)
        assert meas.converged
        assert meas.amplitude[1] > 0.05


def counting(calls, key, fn):
    def counted(*args, **kwargs):
        calls[key] += 1
        return fn(*args, **kwargs)
    return counted


@pytest.fixture
def settle_calls(monkeypatch):
    """Counts settle steppers, solve_ivp calls and rhs evaluations (ROM and FOM)."""
    calls = {"DOP853": 0, "solve_ivp": 0, "rhs": 0}
    monkeypatch.setattr(romdyn, "DOP853", counting(calls, "DOP853", romdyn.DOP853))
    monkeypatch.setattr(romdyn, "solve_ivp", counting(calls, "solve_ivp", romdyn.solve_ivp))
    monkeypatch.setattr(RealizedReducedSystem, "rhs",
                        counting(calls, "rhs", RealizedReducedSystem.rhs))
    make_rhs = ZieglerModel.fom_rhs
    monkeypatch.setattr(ZieglerModel, "fom_rhs",
                        lambda model, P: counting(calls, "rhs", make_rhs(model, P)))
    return calls


class TestSettleLoop:
    """One settle stepper per measurement, all rhs calls through the public
    evaluators (the ones the benchmark's tracer wraps), counted in nfev."""

    def check(self, calls, meas, plain):
        assert calls["DOP853"] == 1
        assert calls["solve_ivp"] <= 2
        assert meas.nfev > 0 and meas.nfev == calls["rhs"]
        # counting changes no result bit
        assert np.array_equal(meas.amplitude, plain.amplitude)
        assert (meas.period, meas.transient_periods, meas.nfev) == \
            (plain.period, plain.transient_periods, plain.nfev)

    def test_rom(self, settle_calls):
        rom = hopf_normal_form_rom()
        plain = measure_limit_cycle(rom, 0.04, amp0=1e-3)
        settle_calls.update(dict.fromkeys(settle_calls, 0))
        meas = measure_limit_cycle(rom, 0.04, amp0=1e-3)
        assert meas.converged and settle_calls["solve_ivp"] == 2
        self.check(settle_calls, meas, plain)

    def test_rom_decay(self, settle_calls):
        plain = measure_limit_cycle(hopf_normal_form_rom(), -0.05)
        settle_calls.update(dict.fromkeys(settle_calls, 0))
        meas = measure_limit_cycle(hopf_normal_form_rom(), -0.05)
        assert meas.reason.startswith("decayed") and settle_calls["solve_ivp"] == 0
        self.check(settle_calls, meas, plain)

    def test_rom_blow_up(self, settle_calls):
        # subcritical: the seed runs away in finite time and the stepper fails
        rom = hopf_normal_form_rom(c3=1.0)
        plain = measure_limit_cycle(rom, 0.04, amp0=1e-3)
        settle_calls.update(dict.fromkeys(settle_calls, 0))
        meas = measure_limit_cycle(rom, 0.04, amp0=1e-3)
        assert meas.reason == "blow-up" and settle_calls["solve_ivp"] == 0
        self.check(settle_calls, meas, plain)

    def test_fom(self, settle_calls):
        m = build_ziegler2(1, 1, 1, 1, 1, xi_m=0.2)
        plain = measure_limit_cycle_fom(m, 2.28, coord=1)
        settle_calls.update(dict.fromkeys(settle_calls, 0))
        meas = measure_limit_cycle_fom(m, 2.28, coord=1)
        assert meas.converged and settle_calls["solve_ivp"] == 2
        self.check(settle_calls, meas, plain)


class TestDecayUnits:
    def test_decay_from_reduced_norm(self):
        # a one-mode ROM whose mapping shrinks the amplitude 1e4-fold: the
        # physical amplitude is below 1e-3 amp0 from the start, yet the
        # reduced state grows onto the cycle, so it must not count as decay
        rom = hopf_normal_form_rom()
        small = replace(rom, W=1e-4 * rom.W)
        meas = measure_limit_cycle(small, 0.04, amp0=1e-3, settle_rtol=1e-7)
        assert meas.converged and meas.reason == ""
        assert abs(meas.amplitude[0] - 1e-4 * np.sqrt(0.04)) < 2e-5 * 1e-4 * np.sqrt(0.04)


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
