import copy
import importlib
import logging
import pickle
import warnings
from dataclasses import FrozenInstanceError, replace
from functools import partial

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from flutterrom import continuation
from flutterrom.continuation import ContinuationOptions, continue_periodic, find_hopf
from flutterrom.dpim import build_rom_firstorder
from flutterrom.models import build_ziegler, build_ziegler2, recast_to_dae
from flutterrom.models.ziegler import ZieglerFirstOrder
from flutterrom.polytensor import polynomial_eval
from flutterrom.romdyn import (
    RealizedReducedSystem,
    measure_limit_cycle,
    measure_limit_cycle_fom,
    periodic_peak,
)
from flutterrom.spectral import detect_exceptional_point, eigen_sweep, solve_master_eigen
from tests.conftest import hopf_normal_form_rom
from tests.oracles import CollocatedROM, measure_settled_cycle, return_time
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
        fz = polynomial_eval(rom.table, rom.f, z)
        out = sysr.rhs(0.0, x)
        expect = np.array([fz[0].real, fz[0].imag, fz[2].real, fz[2].imag])
        assert np.abs(out - expect).max() < 1e-12

    def test_state_conversions_against_pairs(self):
        _, _, rom = ziegler_rom()
        sysr = RealizedReducedSystem(rom, 0.05)
        x = np.array([0.1, -0.02, 0.03, 0.04])
        z = sysr.complex_state(x)
        for kk, s in enumerate(sysr.reps):
            assert z[s] == complex(x[2 * kk], x[2 * kk + 1])
            assert z[rom.conj_map[s]] == complex(x[2 * kk], -x[2 * kk + 1])
        assert z[-1] == 0.05

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
    fz = polynomial_eval(rom.table, rom.f, z)
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
    """The realified evaluator, power_values gathers over the rows of f and
    W, against the direct polynomial oracles."""

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

    def test_same_mu_keeps_the_scaling(self, compiled_case):
        # assigning the value mu has recomputes nothing; another value drops
        # W's folded groups and rescales f
        sysr = RealizedReducedSystem(compiled_case, 0.05)
        x = 0.2 * np.random.default_rng(7).standard_normal(2 * sysr.m)
        sysr.map_batch(x[None])
        f_rhs, W_coef = sysr._f_rhs, sysr._W_coef
        sysr.mu = np.float64(0.05)
        assert sysr._f_rhs is f_rhs and sysr._W_coef is W_coef
        sysr.mu = 0.06
        assert sysr._W_coef is None and sysr._f_rhs is not f_rhs

    def test_one_plan_per_rom_grouped_by_z_exponent(self, compiled_case):
        # systems at two loads share the ROM's plan; W's nonzero rows fall
        # into one group per distinct z exponent (246 rows into 125 groups
        # on the d = 4 ROM), ordered by charge
        rom = compiled_case
        a, b = RealizedReducedSystem(rom, 0.05), RealizedReducedSystem(rom, -0.1)
        assert a._W_index is b._W_index and a._f_index is b._f_index
        nonzero = np.flatnonzero(np.any(rom.W != 0, axis=1))
        exps = rom.table.exponents[nonzero][:, np.r_[a.reps, rom.conj_map[a.reps]]]
        assert len(a._W_rows) == len(nonzero)
        assert len(a._W_groups) == len(np.unique(exps, axis=0))
        if rom.d == 4 and rom.order == 5:
            assert (len(a._W_rows), len(a._W_groups)) == (246, 125)
        charges = np.repeat(a._W_charges, np.diff(np.r_[a._W_charge_starts, len(a._W_groups)]))
        z = a._W_index // (2 * a.m)   # each group's exponents, variable axis first
        assert np.array_equal(z[:a.m].sum(axis=0) - z[a.m:].sum(axis=0), charges)

    @pytest.mark.parametrize("edit", ["W", "f"])
    def test_an_in_place_edit_builds_a_fresh_plan(self, compiled_case, edit):
        # an edit of W or f in place raises; a system built on the ROM
        # replaced with the edited array, after the ROM built its plan,
        # equals one built on a fresh copy of that ROM, bit for bit, and
        # differs from the one built before the edit
        rom = replace(compiled_case)
        x = 0.2 * np.random.default_rng(9).standard_normal(rom.d)
        before = RealizedReducedSystem(rom, 0.05)
        rows = np.flatnonzero(np.any(getattr(rom, edit) != 0, axis=1))
        with pytest.raises(ValueError, match="read-only"):
            getattr(rom, edit)[rows[-1]] *= 1.5
        a = getattr(rom, edit).copy()
        a[rows[-1]] *= 1.5
        a[rows[0]] = 0.0
        rom = replace(rom, **{edit: a})
        edited = RealizedReducedSystem(rom, 0.05)
        fresh = RealizedReducedSystem(replace(rom, W=rom.W.copy(), f=rom.f.copy()), 0.05)
        outputs = [(*s.linearize(x), s.map_batch(x[None]), s.harmonics(x))
                   for s in (before, edited, fresh)]
        assert all(np.array_equal(a, b) for a, b in zip(outputs[1], outputs[2]))
        assert not all(np.array_equal(a, b) for a, b in zip(outputs[0], outputs[1]))


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
        # the solver's work, pinned as a count: the Hopf cycle's correction
        # (1) and the rotating wave corrected at mu = 0.2 itself (3), no
        # branch walked
        assert meas.newton == 4

    def test_mapping_derivative_consistency(self):
        # d/dt W(z(t)) along a trajectory matches the velocity block of W in
        # the asymptotic regime (the defect is the order-(o+1) truncation)
        _, _, rom = ziegler_rom()
        sysr = RealizedReducedSystem(rom, 0.0)
        sol = solve_ivp(sysr.rhs, (0.0, 3.0), [1e-2, 0.0, 0.0, 0.0], method="DOP853",
                        rtol=1e-12, atol=1e-14, dense_output=True)
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
    W = rom.W.copy()
    with pytest.raises(ValueError, match="read-only"):
        rom.W[:] = W
    W[rom.table.index_of((0, 1, 0))] = W[rom.table.index_of((1, 0, 0))]
    rom = replace(rom, W=W)
    with pytest.raises(RuntimeError, match="non-negligible imaginary part"):
        RealizedReducedSystem(rom, 0.0).map_to_physical(x)


class TestUnstableManifold:
    def test_trajectories_converge_to_common_cycle(self, ziegler2):
        # trajectories from four points of the leading master plane, settled
        # by DOP853 at mu = 0.3, end on the rotating wave measure_limit_cycle
        # solves for: its period and its mapped peak per coordinate
        # (measured <= 4e-13 and <= 3.4e-10)
        _, _, rom = ziegler_rom(mu0=1.05 * ziegler2[1], order=7)
        meas = measure_limit_cycle(rom, 0.3)
        assert meas.converged and meas.stable
        sysr = RealizedReducedSystem(rom, 0.3)
        for r, phi in ((1e-3, 0.0), (1e-3, np.pi / 2), (5e-2, 0.0), (5e-2, np.pi / 2)):
            x0 = np.array([r * np.cos(phi), r * np.sin(phi), 0.0, 0.0])
            status, _, x = measure_settled_cycle(
                sysr.rhs, x0, meas.period, lambda X: float(np.abs(sysr.map_batch(X)[:, 1]).max()),
                1e-10, 400, 1e-12, 1e-14)
            T = return_time(sysr.rhs, x, meas.period, 1e-12, 1e-14)
            orbit = solve_ivp(sysr.rhs, (0.0, T), x, method="DOP853", rtol=1e-12, atol=1e-14,
                              dense_output=True)
            ref = periodic_peak(sysr.map_batch(orbit.sol(np.linspace(0.0, T, 4001)).T))
            assert status == "settled" and abs(T / meas.period - 1.0) < 1e-11
            assert np.abs(ref / meas.amplitude - 1.0).max() < 1e-8


class TestFom:
    def test_decay_below_hopf(self):
        # the Hopf cycle's one correction decides it; 1.8 shares its tile
        # [1.785, 3.0345] with P_H + 0.1, and measured after that load on
        # one model it is a fresh model's measurement bit for bit
        m = build_ziegler2(1, 1, 1, 1, 1, xi_m=0.2)
        meas = measure_limit_cycle_fom(m, 1.8, coord=1)
        assert meas.converged and meas.newton == 1
        assert meas.amplitude.max() == 0.0
        assert meas.reason == ("trajectory decays at P = 1.8: the cycles of the Hopf point "
                               "P = 2.07681 lie above it")
        warm = replace(m)
        measure_limit_cycle_fom(warm, eigen_sweep(m, (1.5, 3.0), 40).events["P_H"] + 0.1)
        assert same_bits(measure_limit_cycle_fom(warm, 1.8, coord=1), meas)

    def test_energy_conservation_free_vibration(self):
        # undamped, no load: energy drift < 1e-6 over 100 periods
        m = build_ziegler2(1, 1, 1, 1, 1)

        def energy(x):  # of the conservative truncation, x = [theta, thetadot]
            return 0.5 * x[2:] @ m.M @ x[2:] + 0.5 * x[:2] @ m.K @ x[:2]

        x0 = np.array([0.02, -0.01, 0.0, 0.0])
        om_min = 0.4142  # slowest eigenfrequency at P = 0
        T = 100 * 2 * np.pi / om_min
        sol = solve_ivp(m.fom_rhs(0.0), (0.0, T), x0, method="DOP853", rtol=1e-12, atol=1e-14)
        E0 = energy(x0)
        E1 = energy(sol.y[:, -1])
        assert abs(E1 - E0) / E0 < 1e-6

    def test_fom_cycle_exists_post_hopf(self):
        m = build_ziegler2(1, 1, 1, 1, 1, xi_m=0.2)
        P_H = eigen_sweep(m, (1.5, 3.0), 40).events["P_H"]
        meas = measure_limit_cycle_fom(m, P_H + 0.3, coord=1)
        assert meas.converged
        assert meas.amplitude[1] > 0.05

    def test_newton_count_of_a_cycle(self):
        # the solver's work, pinned as a count: the Newton corrections of the
        # Hopf cycle (1) and of the Hopf seed corrected at P_H + 0.2 itself (4)
        m = build_ziegler2(1, 1, 1, 1, 1, xi_m=0.2)
        P_H = eigen_sweep(m, (1.5, 3.0), 40).events["P_H"]
        assert measure_limit_cycle_fom(m, P_H + 0.2).newton == 5

    def test_no_hopf_point_in_the_scanned_window(self):
        # the tile of p = 3.3, [3.0345, 5.15865], holds no Hopf point: the
        # scan goes on over the tile below, [1.785, 3.0345], and finds
        # P_H = 2.077; the cycle is the end of the branch walked up from
        # there (held_branch).  A system expanded at 3.3, whose tile 0
        # [2.145, 4.455] holds no Hopf point either, walks the same branch
        # from its own scan's P_H: measured 6.4e-15 relative.  The oracle
        # settles from 2% off its anchor (nontrivial multipliers <= 0.64):
        # from near the fixed point DOP853 settles on another, larger cycle
        # (theta2 2.97, period 9.96)
        m = build_ziegler2(1, 1, 1, 1, 1, xi_m=0.2)
        meas = measure_limit_cycle_fom(m, 3.3)
        assert meas.converged and meas.reason == "" and meas.stable
        pt = held_branch(m, 3.3).points[-1]
        assert np.array_equal(meas.amplitude, pt.amplitude) and meas.period == pt.period
        expanded = continue_periodic(m.first_order(3.3), ContinuationOptions(mu_max=0.0))
        assert np.abs(expanded.points[-1].amplitude / pt.amplitude - 1.0).max() < 1e-12
        assert abs(expanded.points[-1].period / pt.period - 1.0) < 1e-12

        rhs = m.fom_rhs(3.3)
        status, _, x = measure_settled_cycle(rhs, 1.02 * pt.anchor, pt.period,
                                             lambda X: float(np.abs(X[:, 1]).max()),
                                             1e-10, 200, 1e-12, 1e-14)
        assert status == "settled"
        T = return_time(rhs, x, pt.period, 1e-12, 1e-14)
        orbit = solve_ivp(rhs, (0.0, T), x, method="DOP853", rtol=1e-12, atol=1e-14,
                          dense_output=True)
        ref = periodic_peak(orbit.sol(np.linspace(0.0, T, 20001)).T)
        assert abs(T / meas.period - 1.0) < 1e-9
        # measured 7.7e-8, the read of the collocated orbit's 512 samples
        assert abs(meas.amplitude[1] / ref[1] - 1.0) < 2e-7
        assert abs(meas.amplitude[1] - 1.78206) < 1e-5

    def test_cycle_against_a_long_run(self):
        # the collocation cycle at P_H + 0.02 against 200 periods of DOP853
        # from 1.1 times its anchor: the transient decays like |m|^k with
        # |m| <= 0.67, far below 1e-8
        m = build_ziegler2(1, 1, 1, 1, 1, xi_m=0.2)
        P_H = eigen_sweep(m, (1.5, 3.0), 40).events["P_H"]
        P = P_H + 0.02
        pt = held_branch(m, P).points[-1]
        meas = measure_limit_cycle_fom(m, P, coord=1)
        assert meas.converged and meas.reason == "" and meas.newton > 0
        assert np.array_equal(meas.amplitude, pt.amplitude) and meas.period == pt.period
        # a system expanded at P_H, which finds P_H in its own tile 0:
        # measured 1.1e-15
        expanded = continue_periodic(m.first_order(P_H), ContinuationOptions(mu_max=P - P_H))
        assert np.abs(expanded.points[-1].amplitude / pt.amplitude - 1.0).max() < 1e-12
        assert abs(expanded.points[-1].period / pt.period - 1.0) < 1e-12
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


def held_branch(model, p):
    """The FOM branch that measure_limit_cycle_fom(model, p) walks, or lands
    on, up to load p: on the system the model holds, from the Hopf point of
    the last rising crossing at or below p of that system's stability scan
    (find_hopf scans tile 0, the loads within 0.35 of P = 0, and the tile
    below it)."""
    system = model.system
    crossings = continuation._stability_scan(system, p)
    mu_H = [c for c, rising in crossings if rising and c <= p][-1]
    hopf = continuation._hopf_cycle(system, mu_H)
    return continuation._walk(system, hopf, continuation._first_load(hopf, p),
                              ContinuationOptions(mu_max=p))


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
    load, and every second walk from one Hopf cycle within one measurement,
    so a measurement's fallback counts even when it starts at the load
    itself.  A ROM keeps its Hopf cycles, so the next measurement's landing
    walks from the same one: each measurement (_cycle_at) starts a new
    count."""
    walks, walked = [], []
    walk, cycle_at = continuation._walk, continuation._cycle_at

    def counted(model, hopf, mu_start, options):
        if mu_start < options.mu_max or any(h is hopf for h in walked):
            walks.append(options.mu_max)
        walked.append(hopf)
        return walk(model, hopf, mu_start, options)

    def measured(*args):
        walked.clear()
        return cycle_at(*args)

    monkeypatch.setattr(continuation, "_walk", counted)
    monkeypatch.setattr(continuation, "_cycle_at", measured)
    return walks


@pytest.fixture(scope="module")
def ziegler2():
    """Ziegler-2 (xi_m = 0.2), its Hopf point P_H and the o5 ROMs of the
    paper's claims with their expansion loads."""
    model = build_ziegler2(1, 1, 1, 1, 1, xi_m=0.2)
    traj = eigen_sweep(model, (1.5, 3.0), 40)
    P_H, P_c = traj.events["P_H"], detect_exceptional_point(traj, model)[0]
    roms = {"one-mode": (rom_at(model, P_H, 2), P_H), "two-mode": (rom_at(model, P_H, 4), P_H),
            "jordan": (rom_at(model, P_c, 4, (0, 2)), P_c)}
    return model, P_H, roms


@pytest.mark.parametrize("label", ["one-mode", "two-mode", "jordan", "hopf"])
def test_linear_block_is_the_gradient_of_f_at_the_fixed_point(ziegler2, label):
    # J(mu)[r, s] = df_r/dz_s at z = 0, from the pointwise gradient of the
    # table f; the hand-built ROM's mu^2 z term exercises the powers of mu
    if label == "hopf":
        rom = hopf_normal_form_rom(rho=-0.1, c_mu=0.7 - 0.2j, c_mu2=0.3)
    else:
        rom = ziegler2[2][label][0]
    d = rom.d
    mus = np.linspace(-0.5, 0.5, 5)
    stack = rom.linear_block(mus)
    for mu, J in zip(mus, stack):
        z = np.zeros(rom.table.nvars, dtype=complex)
        z[-1] = mu
        ref = replace(rom, W=rom.f).mapping_gradient(z)[:d, :d]
        assert rel_diff(rom.linear_block(mu), ref) <= 1e-14
        assert rel_diff(J, ref) <= 1e-14


class TestLanding:
    """A cycle at a load is the Hopf seed corrected at that load; the branch
    walked there from the Hopf point is the oracle and the fallback."""

    @pytest.mark.parametrize("label", ["fom", "one-mode", "two-mode", "jordan"])
    def test_landing_matches_the_walked_branch(self, ziegler2, label, monkeypatch):
        # both orbits sit on meshes that meet _RTOL, on different meshes
        # where the walk's seed lies below the load: measured <= 3.1e-8;
        # at mu <= 0.05 the walk starts at the load, so it is the landing.
        # The FOM is measured on the system the model holds, whose mu is the
        # load P and whose branch (held_branch) is the oracle; the branch of
        # a system expanded at P_H, which finds P_H in its own tile 0, is
        # that branch within 1e-12 (measured <= 1.6e-15)
        model, P_H, roms = ziegler2
        cases = []
        for mu in (0.02, 0.05, 0.1, 0.2, 0.3):
            expanded = None
            if label == "fom":
                inc = P_H + mu
                measure = partial(measure_limit_cycle_fom, model, inc)
                diag = held_branch(model, inc)
                expanded = continue_periodic(model.first_order(P_H),
                                             ContinuationOptions(mu_max=mu)).points[-1]
            else:
                system, P = roms[label]
                inc = P_H + mu - P
                measure = partial(measure_limit_cycle, system, inc)
                diag = continue_periodic(system, ContinuationOptions(mu_max=inc))
            cases.append((mu, inc, measure, diag, expanded))
        walks = count_walks(monkeypatch)
        short = []
        for mu, inc, measure, diag, expanded in cases:
            meas = measure()
            pt = diag.points[-1]
            if expanded is not None:
                assert np.abs(expanded.amplitude / pt.amplitude - 1.0).max() < 1e-12, mu
                assert abs(expanded.period / pt.period - 1.0) < 1e-12, mu
            if pt.mu != inc:
                # no cycle at the load: the walk ends at the Hopf point where
                # the fixed point turns stable again, and the measurement
                # names that point without walking
                short.append(inc)
                assert diag.meta["truncated"] == "branch ended at a Hopf point near mu = 0.187332"
                assert meas.amplitude.max() == 0.0 and meas.reason == (
                    f"trajectory decays at mu = {inc:.6g}: the cycles of the Hopf point "
                    "mu = 0.18734 lie below it")
                continue
            assert meas.reason == "" and meas.stable == pt.stable
            assert np.abs(meas.amplitude - pt.amplitude).max() < 1e-7 * pt.amplitude.max()
            assert abs(meas.period / pt.period - 1.0) < 1e-7
            if mu <= 0.05:
                assert len(diag.points) == 1 and meas.period == pt.period
                assert np.array_equal(meas.amplitude, pt.amplitude)
                assert np.array_equal(meas.floquet, pt.floquet)
        # only the one-mode ROM has loads without a cycle (mu = 0.2, 0.3), and
        # no load walks
        assert len(short) == (2 if label == "one-mode" else 0)
        assert walks == []

    def test_one_mode_past_its_second_hopf_point_names_it_without_a_walk(self, ziegler2,
                                                                          monkeypatch):
        # the scan's last crossing below the load is the return to stability
        # near mu = 0.1873, whose cycles lie below it: its Hopf cycle's two
        # corrections decide that there is no cycle, and no branch is entered
        entered = []
        monkeypatch.setattr(continuation, "_walk", lambda *args: entered.append(args))
        for mu in (0.2, 0.3):
            meas = measure_limit_cycle(ziegler2[2]["one-mode"][0], mu)
            assert meas.amplitude.max() == 0.0 and meas.converged and meas.newton == 2
            assert meas.reason == (f"trajectory decays at mu = {mu:g}: the cycles of the Hopf "
                                   "point mu = 0.18734 lie below it")
        assert entered == []

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

    def test_a_refusal_is_final_where_the_walk_would_start_at_the_load(self, monkeypatch):
        # at mu = 1e-7 the landing's anchor sqrt(mu) = 3.2e-4 lies below
        # _SEED_AMP, so it is refused; the branch up to mu would start at mu
        # itself and repeat the landing, so nothing is walked and no cycle
        # is reported
        starts, walk = [], continuation._walk

        def recorded(model, hopf, mu_start, options):
            starts.append(mu_start)
            return walk(model, hopf, mu_start, options)

        monkeypatch.setattr(continuation, "_walk", recorded)
        meas = measure_limit_cycle(hopf_normal_form_rom(), 1e-7)
        assert starts == [1e-7]
        assert meas.amplitude.max() == 0.0 and meas.period == 0.0 and not meas.converged
        assert meas.reason == ("the cycle at mu = 1e-07 has shrunk onto the fixed point: its "
                               "anchor 0.000316 is below 0.001")
        # the Hopf cycle's one correction; the scaled seed already solves the
        # normal form's landing
        assert meas.newton == 1

    def test_subcritical_seed_error_names_the_requested_load(self):
        # zdot = (mu + i) z + z|z|^2 has its cycles below the Hopf point; the
        # walk's seed would have sat at 0.08; the one correction counted is
        # the Hopf cycle's
        meas = measure_limit_cycle(hopf_normal_form_rom(c3=1.0), 0.3)
        assert meas.amplitude.max() == 0.0 and meas.newton == 1 and not meas.converged
        assert "grows at mu = 0.3: " in meas.reason and "lie below it" in meas.reason

    def test_normal_form_with_two_hopf_points(self, monkeypatch):
        # zdot = (mu - mu^2 / a + i) z - z|z|^2: the fixed point is unstable
        # on (0, a), where the cycles are r^2 = mu (1 - mu / a); past a the
        # Hopf point a alone shows that there is none
        a = 0.25
        rom = hopf_normal_form_rom(c_mu2=-1.0 / a)
        assert abs(find_hopf(rom)) < 1e-12
        for mu in (0.02, 0.05, 0.1, 0.15, 0.2, 0.24):
            meas = measure_limit_cycle(rom, mu)
            assert meas.reason == "" and meas.stable
            assert abs(meas.amplitude[0] - np.sqrt(mu * (1.0 - mu / a))) < 1e-8
        walks = count_walks(monkeypatch)
        for mu in (0.26, 0.3):
            meas = measure_limit_cycle(rom, mu)
            assert meas.amplitude.max() == 0.0 and meas.converged and meas.newton == 1
            assert meas.reason == (f"trajectory decays at mu = {mu:g}: the cycles of the Hopf "
                                   "point mu = 0.25 lie below it")
        assert walks == []

    def test_past_the_fold_no_cycle_and_no_warning(self):
        # the quintic normal form has no cycle past its fold at mu = 1/4: the
        # landing at 0.3 is refused, and the walk ends at the first point
        # past the fold, without a numpy warning; the count is the Hopf
        # cycle's, the landing's and the walk's corrections (it was 636, to
        # "max_points = 400 reached", when the walk went on down the
        # unstable upper branch)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            meas = measure_limit_cycle(hopf_normal_form_rom(c5=1.0, order=5), 0.3)
        assert meas.amplitude.max() == 0.0
        assert meas.reason == "branch turned back at a fold near mu = 0.249731"
        assert meas.newton == 58


    @pytest.mark.parametrize("case", ["one-mode", "chain"])
    def test_one_hopf_analysis_per_walking_measurement(self, ziegler2, chain8, case,
                                                        monkeypatch):
        # the landing is refused and the branch is walked up to the load;
        # both start from the measurement's one stability scan and Hopf cycle
        if case == "one-mode":
            rom, mu = ziegler2[2]["one-mode"][0], 0.15
        else:
            _, P_H, rom = chain8
            mu = 0.02 * P_H
        calls = {"_stability_scan": 0, "_hopf_cycle": 0}

        def counter(name, fn):
            def counted(*args):
                calls[name] += 1
                return fn(*args)
            return counted

        for name in calls:
            monkeypatch.setattr(continuation, name, counter(name, getattr(continuation, name)))
        walks = count_walks(monkeypatch)
        measure_limit_cycle(rom, mu)
        assert walks == [mu]
        assert calls == {"_stability_scan": 1, "_hopf_cycle": 1}


def same_bits(a, b):
    """Whether two results (measurements, branch points, dicts, lists,
    arrays, numbers) are equal bit for bit; the wall times of a trace are
    skipped."""
    if hasattr(a, "__dataclass_fields__"):
        a, b = vars(a), vars(b)
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(same_bits(a[k], b[k]) for k in a if k != "wall_s")
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(map(same_bits, a, b))
    if isinstance(a, np.ndarray):
        return a.dtype == b.dtype and np.array_equal(a, b)
    return type(a) is type(b) and a == b


class TestLinearAnalysis:
    """A ROM's stability intervals, realified system and Hopf cycles are
    computed once per ROM (its _analysis), and no result depends on
    whether they were."""

    @pytest.mark.parametrize("label", ["one-mode", "two-mode", "jordan", "chain"])
    def test_one_analysis_for_four_loads(self, ziegler2, chain8, label, monkeypatch):
        # four loads on one fresh ROM: one 201-load linear_block stack, one
        # realified system and one correction per Hopf cycle (the
        # corrections whose tangent fixes the amplitude instead of mu): one
        # Hopf point serves every load but the one-mode ROM's last, past its
        # second one; each measurement and the branch after them equal those
        # of a cold copy bit for bit, newton and meta["seed"] included
        if label == "chain":
            _, P_H, rom = chain8
            loads, mu_max = [frac * P_H for frac in (0.005, 0.01, 0.02, 0.05)], 0.05 * P_H
        else:
            _, P_H, roms = ziegler2
            rom, P = roms[label]
            loads, mu_max = [P_H + mu - P for mu in (0.02, 0.05, 0.1, 0.2)], 0.3
        once = {"stacks": 1, "systems": 1, "hopf": 2 if label == "one-mode" else 1}
        calls = {"stacks": 0, "systems": 0, "hopf": 0}
        linear_block, init = type(rom).linear_block, RealizedReducedSystem.__init__
        correct = continuation._correct

        def counted_block(self, mu):
            calls["stacks"] += np.ndim(mu) == 1 and len(mu) == 201
            return linear_block(self, mu)

        def counted_init(self, *args):
            calls["systems"] += 1
            init(self, *args)

        def counted_correct(sysr, q, K, tangent, *args):
            calls["hopf"] += int(tangent[-1] == 0.0)
            return correct(sysr, q, K, tangent, *args)

        monkeypatch.setattr(type(rom), "linear_block", counted_block)
        monkeypatch.setattr(RealizedReducedSystem, "__init__", counted_init)
        monkeypatch.setattr(continuation, "_correct", counted_correct)
        warm = replace(rom)
        measured = [measure_limit_cycle(warm, mu) for mu in loads]
        assert calls == once
        diag = continue_periodic(warm, ContinuationOptions(mu_max=mu_max, max_points=40))
        assert calls == once
        assert diag.meta["seed"]["newton"] >= 1 and len(diag.points) > 1

        for mu, meas in zip(loads, measured):
            cold = measure_limit_cycle(replace(rom), mu)
            assert same_bits(meas, cold), mu
        cold = continue_periodic(replace(rom), ContinuationOptions(mu_max=mu_max, max_points=40))
        assert same_bits(diag.points, cold.points) and same_bits(diag.meta, cold.meta)
        # the memo's arrays are read-only; a copy starts without it, and the
        # ROM file does not hold it
        hopf = continuation._hopf_cycle(warm, find_hopf(warm))
        with pytest.raises(ValueError, match="read-only"):
            hopf.q[0] = 0.0
        assert replace(warm)._analysis == {} and "_analysis" not in warm.to_dict()

    def test_warm_is_cold_across_tiles(self, ziegler2):
        # the two-mode ROM at P_H: P_H + 0.02 lies in tile 0, +-0.7269 about
        # P_H, and P_H + 1.0 and 1.4 in the tile above it, whose scan holds
        # no crossing, so they scan tile 0 too; ascending, then descending,
        # each measurement is a cold copy's bit for bit
        _, P_H, roms = ziegler2
        rom, P = roms["two-mode"]
        loads = [P_H + mu - P for mu in (0.02, 1.0, 1.4)]
        warm = replace(rom)
        for mu in loads + loads[::-1]:
            meas = measure_limit_cycle(warm, mu)
            assert same_bits(meas, measure_limit_cycle(replace(rom), mu)), mu
            assert meas.reason == "" and meas.converged, mu
        tiles = warm._analysis["scan", P]
        assert tiles == {0: tiles[0], 1: ()}

    def test_a_load_tiles_above_the_expansion_load(self, ziegler2):
        # the two-mode ROM at P_H, at P_H + 3 in tile 2, [2.6895, 6.0259],
        # whose crossing at 3.45367 lies above the load: the scan goes down
        # through tile 1 to the Hopf point in tile 0, and the branch walked
        # up from it turns back at its fold, after a load in tile 0 as on a
        # cold copy
        _, P_H, roms = ziegler2
        rom, P = roms["two-mode"]
        warm = replace(rom)
        measure_limit_cycle(warm, P_H + 0.02 - P)
        meas = measure_limit_cycle(warm, P_H + 3.0 - P)
        assert same_bits(meas, measure_limit_cycle(replace(rom), P_H + 3.0 - P))
        assert meas.amplitude.max() == 0.0 and meas.newton == 333
        assert meas.reason == "branch turned back at a fold near mu = 2.83361"
        assert sorted(warm._analysis["scan", P]) == [0, 1, 2]

    def test_an_edited_rom_is_analysed_again(self):
        # zdot = (mu + i) z + c3 z|z|^2 has the cycle rho = sqrt(mu / |c3|):
        # c3 changed in place raises, and a measured ROM replaced with the
        # changed f measures as a fresh ROM; so does one replaced with the
        # mapping doubled
        rom, mu = hopf_normal_form_rom(), 0.04
        assert abs(measure_limit_cycle(rom, mu).amplitude[0] - np.sqrt(mu)) < 1e-8
        with pytest.raises(ValueError, match="read-only"):
            rom.f[rom.table.index_of((2, 1, 0)), 0] = -4.0
        f = rom.f.copy()
        f[rom.table.index_of((2, 1, 0)), 0] = f[rom.table.index_of((1, 2, 0)), 1] = -4.0
        rom = replace(rom, f=f)
        meas = measure_limit_cycle(rom, mu)
        assert same_bits(meas, measure_limit_cycle(hopf_normal_form_rom(c3=-4.0), mu))
        assert meas.reason == "" and abs(meas.amplitude[0] - np.sqrt(mu / 4.0)) < 1e-8
        with pytest.raises(ValueError, match="read-only"):
            rom.W *= 2.0
        rom = replace(rom, W=2.0 * rom.W)
        assert abs(measure_limit_cycle(rom, mu).amplitude[0] - 2.0 * np.sqrt(mu / 4.0)) < 2e-8

    def test_built_roms_and_models_are_values(self, ziegler2):
        # a field assignment or a write into an array of a ROM or a model
        # raises where it is made; a ROM shares the read-only Lam and
        # conj_map of the spectrum it is built from, and the arrays a model
        # is built from stay writeable
        model, P_H, _ = ziegler2
        dae = recast_to_dae(model, mu0=P_H)
        spec = solve_master_eigen(dae, d=2)
        rom = build_rom_firstorder(dae, spec, order=3)
        for obj, name in ((rom, "W"), (rom, "meta"), (model, "C"), (model, "cubic_terms")):
            with pytest.raises(FrozenInstanceError):
                setattr(obj, name, getattr(obj, name))
        for a in (rom.W, rom.f, rom.Lam, rom.conj_map, model.M, model.C, model.Ru):
            with pytest.raises(ValueError, match="read-only"):
                a[0] = a[0]
        with pytest.raises(TypeError):
            model.cubic_terms[0] = model.cubic_terms[0]
        assert rom.Lam is spec.Lam and rom.conj_map is spec.conj_map
        M = model.M.copy()
        assert replace(model, M=M).M is not M and M.flags.writeable

    def test_a_rom_table_is_a_value(self, ziegler2):
        # the realified plan and linear_block's rows are derived from the
        # table, so a write into any of its arrays raises where it is made
        table = ziegler2[2]["two-mode"][0].table
        for a in (table.exponents, table.power_index, table.codes, *table._parents,
                  table.product_ids(2, 1)):
            with pytest.raises(ValueError, match="read-only"):
                a.flat[0] = a.flat[0]

    @pytest.mark.parametrize("how", ["deepcopy", "pickle"])
    def test_a_copy_is_rebuilt_through_the_constructor(self, ziegler2, how):
        # a copied ROM (with its table), model or spectrum has read-only
        # arrays, an empty memo and the original's bits.  A copy that kept
        # writeable arrays and the warm memo let c3 of the o3 normal form be
        # edited to -4 in place, and then read the stale radius 0.2 at
        # mu = 0.04 where a fresh ROM reads 0.1
        dup = copy.deepcopy if how == "deepcopy" else lambda v: pickle.loads(pickle.dumps(v))
        model, P_H, roms = ziegler2
        rom = roms["two-mode"][0]
        measure_limit_cycle(rom, 0.02)
        spec = solve_master_eigen(recast_to_dae(model, mu0=P_H), d=4)
        cases = [(rom, ("W", "f", "Lam", "conj_map"), ("_analysis", "_linear_rows")),
                 (rom.table, ("exponents", "codes"), ("_pairs",)),
                 (model, ("M", "K", "C", "Ru"), ("system",)),
                 (spec, ("Lam", "Y", "X", "Ypar", "conj_map"), ())]
        for value, arrays, memos in cases:
            assert all(vars(value).get(name) for name in memos)
            copied = dup(value)
            assert type(copied) is type(value)
            assert not any(vars(copied).get(name) for name in memos)
            for name in arrays:
                a, b = getattr(value, name), getattr(copied, name)
                assert a is not b and a.dtype == b.dtype and a.tobytes() == b.tobytes()
                with pytest.raises(ValueError, match="read-only"):
                    b[0] = b[0]
        rom = hopf_normal_form_rom()
        assert abs(measure_limit_cycle(rom, 0.04).amplitude[0] - 0.2) < 1e-8
        with pytest.raises(ValueError, match="read-only"):
            dup(rom).f[rom.table.index_of((2, 1, 0)), 0] = -4.0

    def test_a_new_expansion_load_is_analysed_again(self):
        # the growth rate 2 + mu crosses 0 at mu = -2, outside the tiles a
        # ROM expanded at 0 scans (+-0.35 and [-1.05, -0.35]) and inside
        # tile 0 of one expanded at 10 (+-3.5): the tiles follow meta["mu0"],
        # and the cycle is r = sqrt(mu + 2)
        rom, mu = hopf_normal_form_rom(rho=2.0), 0.04
        assert measure_limit_cycle(rom, mu).reason == (
            "no sign change of the growth rate at the fixed point over the scanned loads "
            "[-1.05, 0.35]")
        rom.meta["mu0"] = 10.0
        meas = measure_limit_cycle(rom, mu)
        fresh = hopf_normal_form_rom(rho=2.0)
        fresh.meta["mu0"] = 10.0
        assert same_bits(meas, measure_limit_cycle(fresh, mu))
        assert meas.reason == "" and abs(meas.amplitude[0] - np.sqrt(mu + 2.0)) < 1e-8


class TestFomAnalysis:
    """measure_limit_cycle_fom measures on the one first-order system the
    model holds, so the loads in one tile share its stability scan and its
    Hopf cycle; a warm measurement is a cold one bit for bit."""

    def test_warm_within_round_off_of_cold_on_ziegler2(self, ziegler2):
        # ascending, then descending on one model, each load against a
        # fresh model: P_H + 0.02 ... 0.3 share P_H's tile [1.785, 3.0345];
        # 3.3 lies in the tile above it and finds P_H in P_H's tile; 1.5 and
        # 1.56 lie in the tile below it, [1.05, 1.785], and neither that tile
        # nor those below it down to tile 0, which reaches P = 0, holds a
        # crossing
        model, P_H, _ = ziegler2
        loads = sorted([P_H + mu for mu in (0.02, 0.05, 0.1, 0.2, 0.3)] + [3.3, 1.5, 1.56])
        warm, cold = replace(model), {}
        for p in loads + loads[::-1]:
            meas = measure_limit_cycle_fom(warm, p)
            if p not in cold:
                cold[p] = measure_limit_cycle_fom(replace(model), p)
            assert same_bits(meas, cold[p]), p
            assert meas.converged and (meas.reason == "") == (p > P_H), p
        assert sorted(warm.system._analysis["scan", 0.0]) == [0, 1, 2, 3, 4]

    def test_warm_within_round_off_of_cold_on_the_chain(self, chain8):
        # the loads 0.5%, 2% and 5% past P_H share P_H's tile
        # [14.9085, 25.3444]
        m, P_H, _ = chain8
        warm = replace(m)
        for frac in (0.005, 0.02, 0.05):
            p = P_H + frac * P_H
            assert same_bits(measure_limit_cycle_fom(warm, p),
                             measure_limit_cycle_fom(replace(m), p)), frac
        assert list(warm.system._analysis["scan", 0.0]) == [7]

    def test_a_load_after_another_is_a_fresh_models(self, ziegler2):
        # 1.56 measured after 1.5 on one model is a fresh model's 1.56:
        # both loads lie in the tile [1.05, 1.785], which with the tiles
        # below it down to P = -0.35 holds no crossing, whatever the model
        # measured before
        model = ziegler2[0]
        warm = replace(model)
        measure_limit_cycle_fom(warm, 1.5)
        meas = measure_limit_cycle_fom(warm, 1.56)
        assert same_bits(meas, measure_limit_cycle_fom(replace(model), 1.56))
        assert meas.converged and meas.newton == 0 and meas.amplitude.max() == 0.0
        assert meas.reason == ("no sign change of the growth rate at the fixed point over the "
                               "scanned loads [-0.35, 1.785]")

    def test_a_load_tiles_above_its_hopf_point_finds_it(self, ziegler2):
        # 5.5 lies in the tile [5.15865, 8.7697], two tiles above P_H's: the
        # scan goes down to P_H, and the branch walked up from it turns back
        # at its fold, after 3.3 (which scans P_H's tile and the one above
        # it) as on a fresh model
        model = ziegler2[0]
        warm = replace(model)
        measure_limit_cycle_fom(warm, 3.3)
        meas = measure_limit_cycle_fom(warm, 5.5)
        assert same_bits(meas, measure_limit_cycle_fom(replace(model), 5.5))
        assert meas.amplitude.max() == 0.0 and meas.newton == 379
        assert meas.reason == "branch turned back at a fold near P = 3.67758"
        assert sorted(warm.system._analysis["scan", 0.0]) == [3, 4, 5]

    def test_one_analysis_for_four_loads(self, ziegler2, monkeypatch):
        # one 201-load linear_block stack and one Hopf-cycle correction (the
        # correction whose tangent fixes the amplitude instead of mu) for four
        # loads; newton still counts that correction at every load
        model, P_H, _ = ziegler2
        calls = {"stacks": 0, "hopf": 0}
        linear_block, correct = ZieglerFirstOrder.linear_block, continuation._correct

        def counted_block(self, mu):
            calls["stacks"] += np.ndim(mu) == 1 and len(mu) == 201
            return linear_block(self, mu)

        def counted_correct(sysr, q, K, tangent, *args):
            calls["hopf"] += int(tangent[-1] == 0.0)
            return correct(sysr, q, K, tangent, *args)

        monkeypatch.setattr(ZieglerFirstOrder, "linear_block", counted_block)
        monkeypatch.setattr(continuation, "_correct", counted_correct)
        warm = replace(model)
        measured = [measure_limit_cycle_fom(warm, P_H + mu) for mu in (0.02, 0.05, 0.1, 0.2)]
        assert calls == {"stacks": 1, "hopf": 1}
        assert [meas.newton for meas in measured] == [4, 5, 5, 5]
        # the memo's arrays are read-only, and a copy of the model starts cold
        memo = warm.system._analysis
        hopf, = (cycle for key, cycle in memo.items() if key[0] == "hopf")
        for a in (hopf.q, hopf.K):
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 0.0
        assert "system" not in vars(replace(warm)) and "system" not in repr(warm)

    def test_a_caller_built_system_keeps_its_own_analysis(self, ziegler2):
        # a system expanded at P_H, measured at two loads, is a cold
        # system's measurement at the second bit for bit; the model's own
        # system is never asked for
        model, P_H, _ = ziegler2
        model = replace(model)
        system = model.first_order(P_H)
        cycle_at = continuation._cycle_at
        first = cycle_at(system, 0.05, P_H + 0.05, 4)
        second = cycle_at(system, 0.2, P_H + 0.2, 4)
        assert sorted(system._analysis["scan", P_H]) == [0]
        assert sum(key[0] == "hopf" for key in system._analysis) == 1
        assert same_bits(second, cycle_at(model.first_order(P_H), 0.2, P_H + 0.2, 4))
        assert first.reason == second.reason == "" and second.newton > 0
        assert "system" not in vars(model)

    @pytest.mark.parametrize("name", ["C", "Ru"])
    def test_an_edited_model_is_analysed_again(self, ziegler2, name):
        # a 10% edit in place raises; a measured model replaced with the
        # edited matrix moves the Hopf point, and its measurement is a fresh
        # model's, bit for bit
        model, P_H, _ = ziegler2
        model, p = replace(model), P_H + 0.1
        before = measure_limit_cycle_fom(model, p)
        with pytest.raises(ValueError, match="read-only"):
            getattr(model, name)[...] *= 1.1
        model = replace(model, **{name: getattr(model, name) * 1.1})
        after = measure_limit_cycle_fom(model, p)
        assert same_bits(after, measure_limit_cycle_fom(replace(model), p))
        assert after.amplitude[1] != before.amplitude[1]

    def test_logging_changes_no_bit(self, ziegler2, caplog):
        # one DEBUG record per measurement, with its load, newton and reason
        model, P_H, roms = ziegler2
        rom, P = roms["two-mode"]
        loads = [P_H + mu for mu in (0.02, 0.05, 0.1, 0.2)]

        def measure_all():
            fom, warm_rom = replace(model), replace(rom)
            return ([measure_limit_cycle_fom(fom, p) for p in loads]
                    + [measure_limit_cycle(warm_rom, p - P) for p in loads])

        quiet = measure_all()
        assert caplog.records == []
        with caplog.at_level(logging.DEBUG, logger="flutterrom"):
            loud = measure_all()
        assert same_bits(loud, quiet)
        records = [r for r in caplog.records if r.name.startswith("flutterrom")]
        assert [r.args for r in records] == [(meas.mu, meas.newton, meas.reason)
                                             for meas in quiet]
        assert all(r.levelno == logging.DEBUG for r in records)

    def test_reimports_keep_one_null_handler(self):
        import flutterrom
        for _ in range(3):
            importlib.reload(flutterrom)
        handlers = logging.getLogger("flutterrom").handlers
        assert sum(isinstance(h, logging.NullHandler) for h in handlers) == 1


def hausdorff(a, b):
    """Largest distance from a point of either set to the other set."""
    dist = np.abs(np.subtract.outer(a, b))
    return max(dist.min(axis=1).max(), dist.min(axis=0).max())


class TestRotatingWaves:
    """A ROM's cycles are rotating waves; its collocated cycles
    (tests.oracles.CollocatedROM) are the oracle."""

    @pytest.mark.parametrize("label", ["one-mode", "two-mode", "jordan", "chain"])
    def test_against_collocation(self, ziegler2, chain8, label, monkeypatch):
        # the Ziegler-2 ROMs at P_H + 0.02 ... 0.2, and the chain at 2% and
        # 5% of P_H, where the landing is refused and the branch is walked
        if label == "chain":
            _, P_H, rom = chain8
            cases = [(rom, frac * P_H, True) for frac in (0.02, 0.05)]
        else:
            _, P_H, roms = ziegler2
            rom, P = roms[label]
            # the one-mode ROM has no cycle at P_H + 0.2
            cases = [(rom, P_H + mu - P, label != "one-mode" or mu < 0.2)
                     for mu in (0.02, 0.05, 0.1, 0.2)]
        for rom, mu, has_cycle in cases:
            walks = count_walks(monkeypatch)
            got = measure_limit_cycle(rom, mu)
            assert walks == ([mu] if label == "chain" else [])
            ref = continuation._cycle_at(CollocatedROM(rom), mu, mu, rom.dim)
            assert (got.reason == "") == (ref.reason == "") == has_cycle
            assert got.converged == ref.converged and got.stable == ref.stable
            if not has_cycle:
                assert got.amplitude.max() == ref.amplitude.max() == 0.0
                assert got.reason == ref.reason
                continue
            assert abs(got.period / ref.period - 1.0) < 1e-10
            assert np.abs(got.amplitude - ref.amplitude).max() < 1e-7 * ref.amplitude.max()
            assert hausdorff(got.floquet, ref.floquet) < 1e-7

    def test_a_field_off_charge_one_is_refused(self):
        # z^3 turns three times as fast as z: the field is not S1-equivariant,
        # so neither a branch nor a cycle is solved, also where the ROM was
        # measured before it was replaced with the edited f
        for measured_first in (False, True):
            rom = hopf_normal_form_rom()
            if measured_first:
                assert measure_limit_cycle(rom, 0.04).reason == ""
            with pytest.raises(ValueError, match="read-only"):
                rom.f[rom.table.index_of((3, 0, 0)), 0] = 0.1
            f = rom.f.copy()
            f[rom.table.index_of((3, 0, 0)), 0] = 0.1
            rom = replace(rom, f=f)
            for run in (partial(measure_limit_cycle, rom, 0.04), partial(continue_periodic, rom)):
                with pytest.raises(ValueError, match=r"monomial \(3, 0, 0\) of charge 3: .* "
                                                     "not S1-equivariant"):
                    run()

    @pytest.mark.parametrize("label", ["one-mode", "two-mode"])
    def test_peak_against_fine_sampling(self, ziegler2, label):
        # the orbit's harmonics polished by Newton against periodic_peak of
        # 2^16 samples of the mapped orbit, at d = 2 and d = 4
        rom = ziegler2[2][label][0]
        pt = continue_periodic(rom, ContinuationOptions(mu_max=0.1)).points[-1]
        sysr = RealizedReducedSystem(rom, 0.1)
        # the orbit's realified states, (Re z, Im z) per pair, in 17 blocks
        Z = np.exp(2j * np.pi * np.arange(2 ** 16 + 1) / 2 ** 16)[:, None] * pt.anchor.view(complex)
        ref = periodic_peak(np.concatenate([sysr.map_batch(block.view(float))
                                            for block in np.array_split(Z, 17)]))
        assert np.abs(pt.amplitude - ref).max() < 1e-9 * ref.max()

    @pytest.mark.parametrize("label", ["one-mode", "two-mode", "jordan"])
    def test_harmonics_against_sampled_phases(self, ziegler2, label):
        # the charge sums at the anchor against the rfft of 64 phases of the
        # mapped orbit, which resolve every harmonic up to the order
        rom = ziegler2[2][label][0]
        rng = np.random.default_rng(11)
        for mu in (0.0, 0.1):
            sysr = RealizedReducedSystem(rom, mu)
            x = 0.3 * rng.standard_normal(2 * sysr.m)
            Z = np.exp(2j * np.pi * np.arange(64) / 64)[:, None] * x.view(complex)
            ref = np.fft.rfft(sysr.map_batch(Z.view(float)), axis=0)[:rom.order + 1] / 64
            ref[1:] *= 2.0
            c = sysr.harmonics(x)
            assert c.shape == ref.shape
            assert np.abs(c - ref).max() <= 1e-13 * np.abs(ref).max()

    @pytest.mark.parametrize("label", ["one-mode", "two-mode", "jordan"])
    def test_peak_against_dense_phases(self, ziegler2, label):
        # the polished peak is no lower than the largest of 4096 phases of
        # the mapped orbit, and above it by at most what a phase spacing h
        # can hide: the curvature bound sum_k k^2 |c_k| times h^2 / 8
        rom = ziegler2[2][label][0]
        sysr = RealizedReducedSystem(rom, 0.1)
        x = 0.3 * np.random.default_rng(12).standard_normal(2 * sysr.m)
        Z = np.exp(2j * np.pi * np.arange(4096) / 4096)[:, None] * x.view(complex)
        dense = np.abs(sysr.map_batch(Z.view(float))).max(axis=0)
        peak = continuation._wave_peak(sysr, x)
        k = np.arange(rom.order + 1)[:, None]
        slack = (k ** 2 * np.abs(sysr.harmonics(x))).sum(axis=0) * (2 * np.pi / 4096) ** 2 / 8
        assert np.all(peak >= dense - 1e-14 * dense.max())
        assert np.all(peak - dense <= slack + 1e-14 * dense.max())

    @pytest.mark.parametrize("label", ["one-mode", "two-mode", "jordan"])
    def test_peak_polish_stops_at_convergence(self, ziegler2, label, monkeypatch):
        # stopping once the phase steps are small gives the peak of the five
        # fixed Newton steps (a step tolerance of 0) to round-off, in fewer
        # steps: one phase exponential per step and one for the peak
        sysr = RealizedReducedSystem(ziegler2[2][label][0], 0.1)
        x = 0.3 * np.random.default_rng(12).standard_normal(2 * sysr.m)
        continuation._wave_peak(sysr, x)   # builds the order's coarse phase basis
        exps, exp = [], np.exp
        monkeypatch.setattr(np, "exp", lambda a: exps.append(1) or exp(a))
        peak = continuation._wave_peak(sysr, x)
        steps = len(exps) - 1
        monkeypatch.setattr(continuation, "_PEAK_STEP_TOL", 0.0)
        exps.clear()
        fixed = continuation._wave_peak(sysr, x)
        assert len(exps) - 1 == continuation._PEAK_NEWTON > steps
        assert np.abs(peak - fixed).max() <= 1e-14 * fixed.max()

    def test_no_rom_cycle_is_collocated(self, ziegler2, monkeypatch):
        def refuse(*args):
            raise AssertionError("a ROM cycle was collocated")

        monkeypatch.setattr(continuation, "_collocate", refuse)
        roms = ziegler2[2]
        assert measure_limit_cycle(roms["two-mode"][0], 0.1).reason == ""
        assert measure_limit_cycle(roms["one-mode"][0], 0.2).amplitude.max() == 0.0
        diag = continue_periodic(roms["jordan"][0], ContinuationOptions(mu_max=0.3))
        assert diag.meta["truncated"] == ""
