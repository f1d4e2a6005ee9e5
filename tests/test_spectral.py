import numpy as np
import pytest
import scipy.linalg as sla
from scipy.linalg import block_diag
from scipy.optimize import brentq

from flutterrom import spectral
from flutterrom.dpim import build_rom_firstorder
from flutterrom.models import (
    ZieglerModel,
    build_ziegler,
    build_ziegler2,
    build_ziegler3,
    recast_to_dae,
)
from flutterrom.spectral import (
    JordanEnforcementError,
    detect_exceptional_point,
    eigen_sweep,
    enforce_jordan,
    parameter_eigenvector,
    solve_master_eigen,
    solve_pencil_spectrum,
)
from flutterrom.romdyn import measure_limit_cycle


def modal_assurance(a, b):
    """|a* b|^2 / (|a|^2 |b|^2), one pair at a time: the oracle of the MAC
    matrix eigen_sweep tracks modes with."""
    num = abs(np.vdot(a, b)) ** 2
    den = (np.vdot(a, a).real * np.vdot(b, b).real)
    return num / den if den > 0 else 0.0


def pencil(model, P):
    """(At, B) of the first-order form of the linear pencil at load P."""
    M, C, K = model.linear_pencil(P)
    Z = np.zeros_like(M)
    return np.block([[Z, M], [-K, -C]]), np.block([[M, Z], [Z, M]])


def pencil_eigvals(model, P):
    w = sla.eigvals(*pencil(model, P))
    return w[np.isfinite(w)]


def char_quartic_roots(gamma2, delta2):
    """Coalescence/divergence loads from the characteristic-polynomial oracle.

    det(K - P*Ru - om^2 M) = gamma2*om^4 - (delta2+gamma2+4-2P)*om^2 + delta2
    for k2 = m2 = L = 1; the double-root condition gives
    (2P - (delta2+gamma2+4))^2 = 4*gamma2*delta2.
    """
    s = delta2 + gamma2 + 4.0
    gd = 2.0 * np.sqrt(gamma2 * delta2)
    return (s - gd) / 2.0, (s + gd) / 2.0


class TestMasterEigen:
    def test_undamped_frequencies_p0(self):
        # det(K - om^2 M) = om^4 - 6 om^2 + 1 for unit parameters
        m = build_ziegler2(1, 1, 1, 1, 1)
        dae = recast_to_dae(m, mu0=0.0)
        spec = solve_master_eigen(dae, d=4)
        om2 = np.roots([1.0, -6.0, 1.0])
        expect = np.sqrt(np.sort(om2))
        got = np.sort(np.unique(np.round(np.abs(spec.lam.imag), 10)))
        assert np.allclose(got, expect, atol=1e-9)
        # conservative: purely imaginary
        assert np.max(np.abs(spec.lam.real)) < 1e-10

    def test_double_frequency_at_p2(self):
        m = build_ziegler2(1, 1, 1, 1, 1)
        dae = recast_to_dae(m, mu0=2.0)
        spec = solve_master_eigen(dae, d=4)
        assert np.allclose(np.abs(spec.lam.imag), 1.0, atol=1e-6)

    def test_binormalization_invariants(self):
        m = build_ziegler2(1, 1, 1, 1, 1, xi_m=0.2)
        dae = recast_to_dae(m, mu0=2.6)
        spec = solve_master_eigen(dae, d=4)
        B, At = dae.B, dae.tangent_matrix()
        XBY = spec.X.conj().T @ B @ spec.Y
        assert np.max(np.abs(XBY - np.eye(4))) < 1e-8
        XAY = spec.X.conj().T @ At @ spec.Y
        assert np.max(np.abs(XAY - spec.Lam)) < 1e-8

    def test_second_order_velocity_relation(self):
        from flutterrom.models import PolynomialSecondOrderModel

        m = build_ziegler2(1, 1, 1, 1, 1, xi_m=0.2)
        model = PolynomialSecondOrderModel(
            n=2, M=m.M, C=m.C, Kt=m.K - 2.6 * m.Ru, Rt=np.zeros(2), Ru=m.Ru)
        spec = solve_master_eigen(model, d=4)
        for s in range(4):
            Yu = spec.Y[:2, s]
            Yv = spec.Y[2:, s]
            assert np.linalg.norm(Yv - spec.lam[s] * Yu) < 1e-10 * np.linalg.norm(Yv)

    def test_conjugate_ordering(self):
        m = build_ziegler2(1, 1, 1, 1, 1, xi_m=0.2)
        dae = recast_to_dae(m, mu0=2.6)
        spec = solve_master_eigen(dae, d=4)
        assert spec.lam[1] == np.conj(spec.lam[0])
        assert spec.lam[3] == np.conj(spec.lam[2])
        assert spec.lam[0].real >= spec.lam[2].real
        assert np.allclose(spec.Y[:, 1], np.conj(spec.Y[:, 0]))
        assert list(spec.conj_map) == [1, 0, 3, 2]


class TestParameterEigenvector:
    def test_ziegler_zero(self):
        # no load-only force at the upright state: A0 = 0 so Ypar = 0
        m = build_ziegler2(1, 1, 1, 1, 1)
        dae = recast_to_dae(m, mu0=1.5)
        assert np.allclose(parameter_eigenvector(dae), 0)

    def test_second_order_static_deflection(self):
        from flutterrom.models import PolynomialSecondOrderModel

        rng = np.random.default_rng(2)
        A = rng.standard_normal((3, 3))
        M = A @ A.T + 3 * np.eye(3)
        Kt = rng.standard_normal((3, 3)) + 4 * np.eye(3)
        Rt = rng.standard_normal(3)
        model = PolynomialSecondOrderModel(n=3, M=M, C=0.01 * M, Kt=Kt, Rt=Rt,
                                           Ru=np.zeros((3, 3)))
        ypar = parameter_eigenvector(model)
        assert np.allclose(ypar[:3], np.linalg.solve(Kt, Rt), atol=1e-12)
        assert np.allclose(ypar[3:], 0)


class TestSweep:
    def test_unit_undamped_events(self):
        m = build_ziegler2(1, 1, 1, 1, 1)
        traj = eigen_sweep(m, (0.0, 4.5), 90)
        assert abs(traj.events["P_c"] - 2.0) < 1e-6
        assert abs(traj.events["P_H"] - 2.0) < 1e-6
        assert abs(traj.events["P_d"] - 4.0) < 1e-6
        assert traj.events["ep"]

    def test_ale_parameters_against_quartic_oracle(self):
        gamma2, delta2 = 25.0 / 4.0, 41.0 / 4.0
        m = build_ziegler2(gamma2, 1.0, delta2, 1.0, 1.0)
        traj = eigen_sweep(m, (0.0, 20.0), 220)
        P_c_ref, P_d_ref = char_quartic_roots(gamma2, delta2)
        assert abs(traj.events["P_c"] - P_c_ref) < 1e-4
        assert abs(traj.events["P_d"] - P_d_ref) < 1e-4
        # paper-consistency: the flutter range spans about 16 load units
        assert abs((P_d_ref - P_c_ref) - 16.0) < 0.1

    def test_mass_damping_shifts_real_parts_only(self):
        m0 = build_ziegler2(1, 1, 1, 1, 1)
        m1 = build_ziegler2(1, 1, 1, 1, 1, xi_m=0.2)
        t0 = eigen_sweep(m0, (0.5, 3.5), 60)
        t1 = eigen_sweep(m1, (0.5, 3.5), 60)
        assert abs(t0.events["P_c"] - t1.events["P_c"]) < 1e-8
        assert t1.events["P_H"] > t1.events["P_c"]

    def test_hopf_bracketing(self):
        m = build_ziegler2(1, 1, 1, 1, 1, xi_m=0.2)
        traj = eigen_sweep(m, (0.5, 3.5), 60)
        P_H = traj.events["P_H"]
        eps = 1e-6 * P_H
        max_real = [np.max(pencil_eigvals(m, P).real) for P in (P_H - eps, P_H + eps)]
        assert max_real[0] < 0 < max_real[1]

    def test_whole_spectrum_above_60_dof(self):
        # 31 uncoupled damped 2-DOF copies with distinct stiffness scales: the
        # 62-DOF sweep tracks all 124 modes, and its Hopf point is the first
        # copy's to lose stability
        scales = 0.8 + 0.04 * np.random.default_rng(0).permutation(31)
        copies = [build_ziegler2(1, 1, k, k, 1, xi_m=0.2) for k in scales]
        m = ZieglerModel(62, *(block_diag(*(getattr(c, a) for c in copies))
                               for a in ("M", "K", "C", "Ru")), L=1.0)
        traj = eigen_sweep(m, (1.0, 3.0), 12)
        assert traj.lam.shape == (12, 124)
        own = [eigen_sweep(c, (1.0, 3.0), 12).events["P_H"] for c in copies]
        assert abs(traj.events["P_H"] - min(p for p in own if p is not None)) < 1e-8

    def test_chain_approaches_becks_column(self):
        # the undamped chain of n equal links (unit total length, mass and
        # EI) flutters at P_c -> 20.05 (Beck 1952) with an O(1/n) error:
        # Richardson's 2 P_c(32) - P_c(16) lands within 1%
        P_c = {}
        for n in (16, 32):
            traj = eigen_sweep(build_ziegler(np.full(n, 1.0 / n), np.full(n, float(n)), 1.0 / n),
                               (15.0, 21.0), 13)
            assert traj.events["ep"]
            P_c[n] = traj.events["P_c"]
        assert P_c[16] < P_c[32] < 20.05
        assert abs(2 * P_c[32] - P_c[16] - 20.05) < 0.01 * 20.05


class TestExceptionalPoint:
    def test_undamped_ep_at_2(self):
        m = build_ziegler2(1, 1, 1, 1, 1)
        traj = eigen_sweep(m, (1.0, 3.0), 40)
        out = detect_exceptional_point(traj, m)
        assert out is not None
        P_c, pair = out
        assert abs(P_c - 2.0) < 1e-8

    def test_stiffness_damped_no_ep(self):
        m = build_ziegler2(1, 1, 1, 1, 1, xi_k=0.1)
        traj = eigen_sweep(m, (1.0, 3.0), 40)
        assert detect_exceptional_point(traj, m) is None

    def test_mass_damped_ep_before_hopf(self):
        m = build_ziegler2(1, 1, 1, 1, 1, xi_m=0.2)
        traj = eigen_sweep(m, (1.0, 3.5), 50)
        out = detect_exceptional_point(traj, m)
        assert out is not None
        assert out[0] < traj.events["P_H"]


def pair_gap(model, P):
    """Gap of the closest upper-half-plane pair at load P (inf below two
    such eigenvalues), and max |w|."""
    w = pencil_eigvals(model, P)
    scale = max(np.abs(w).max(), 1e-30)
    if np.count_nonzero(w.imag > 1e-12 * scale) < 2:
        return np.inf, scale
    a, b = closest_upper_pair(w)
    return abs(a - b), scale


def coalescence_by_fresh_solves(model, grid):
    """The coalescence events with a fresh pencil solve at every grid load."""
    gaps = np.array([pair_gap(model, P)[0] for P in grid])
    i_min = int(np.argmin(gaps))
    a, b = grid[max(i_min - 1, 0)], grid[min(i_min + 1, len(grid) - 1)]
    P_c = spectral._golden_min(lambda P: pair_gap(model, P)[0], a, b,
                               xtol=1e-12 * max(abs(b), 1.0))
    gap_min, scale = pair_gap(model, P_c)
    return {"P_c": P_c, "gap_at_Pc": gap_min, "ep": bool(gap_min < 1e-6 * scale)}


def hopf_and_divergence_by_fresh_solves(model, grid):
    """P_H and P_d as eigen_sweep refines them: brentq to 1e-8 on the first
    grid step where the growth rate, then past P_H the unstable mode's
    frequency margin, turns non-negative, with a fresh pencil solve at every
    grid load."""
    spectra = [pencil_eigvals(model, P) for P in grid]
    scale0 = max(np.abs(spectra[0]).max(), 1.0)

    def first_root(value, loads, vals):
        turns = [i for i in range(len(loads) - 1) if vals[i] < 0 <= vals[i + 1]]
        if not turns:
            return None
        a, b = loads[turns[0]], loads[turns[0] + 1]
        return brentq(lambda P: value(pencil_eigvals(model, P)), a, b,
                      xtol=1e-8 * max(abs(b), 1.0))

    def max_real(w):
        return np.max(w.real) - 1e-11 * scale0

    def real_unstable(w):
        return 1e-9 * scale0 - abs(w[np.argmax(w.real)].imag)

    P_H = first_root(max_real, grid, [max_real(w) for w in spectra])
    P_d = None
    if P_H is not None:
        s = np.searchsorted(grid, P_H)
        P_d = first_root(real_unstable, grid[s:], [real_unstable(w) for w in spectra[s:]])
    return {"P_H": P_H, "P_d": P_d}


def sweep_with_grid_spectra(monkeypatch, model, span, n_points, **kwargs):
    """eigen_sweep, and the (eigenvalues, right vectors) of each grid load
    that its one stacked np.linalg.eig call returned."""
    calls = []
    eig = np.linalg.eig

    def recording(a):
        calls.append(eig(a))
        return calls[-1]

    monkeypatch.setattr(np.linalg, "eig", recording)
    traj = eigen_sweep(model, span, n_points, **kwargs)
    monkeypatch.undo()
    assert len(calls) == 1
    w, vr = calls[0]
    return traj, list(zip(w.astype(complex), vr.astype(complex)))


def track_pairwise(grid, spectra, mac_threshold):
    """eigen_sweep's mode tracking of the grid spectra [(w, vr), ...] with
    one modal_assurance call per (tracked, candidate) pair: (tracked
    spectra, warning records)."""
    w, vr = spectra[0]
    order = np.lexsort((-w.imag, np.abs(w.imag)))
    rows, vec_prev, warnings = [w[order]], vr[:, order], []
    for P, (w, vr) in zip(grid[1:], spectra[1:]):
        cols, used = [], set()
        for m in range(len(order)):
            best, best_mac = None, -1.0
            for cand in range(len(w)):
                if cand in used:
                    continue
                macv = modal_assurance(vec_prev[:, m], vr[:, cand])
                if macv > best_mac:
                    best, best_mac = cand, macv
            if best_mac < mac_threshold:
                warnings.append({"P": P, "mode": m, "mac": best_mac})
            used.add(best)
            cols.append(best)
        rows.append(w[cols])
        vec_prev = vr[:, cols]
    return np.array(rows), warnings


@pytest.mark.parametrize("mac_threshold", [0.8, 1.01])
@pytest.mark.parametrize("model,span", [
    (build_ziegler2(1, 1, 1, 1, 1, xi_m=0.2), (1.5, 3.0)),
    (build_ziegler3(1, 1, 1, 1, 1, 1, 1, xi_m=0.2), (0.0, 6.0)),
])
def test_mac_matrix_tracking_matches_pairwise_loop(model, span, mac_threshold, monkeypatch):
    traj, spectra = sweep_with_grid_spectra(monkeypatch, model, span, 60,
                                            mac_threshold=mac_threshold)
    lam, warnings = track_pairwise(traj.P, spectra, mac_threshold)
    assert np.array_equal(traj.lam, lam)
    assert [(w["P"], w["mode"]) for w in traj.warnings] == [(w["P"], w["mode"]) for w in warnings]
    for got, ref in zip(traj.warnings, warnings):
        assert set(got) == {"P", "mode", "mac"} and abs(got["mac"] - ref["mac"]) < 1e-12
    if mac_threshold > 1.0:
        assert len(warnings) == (len(traj.P) - 1) * lam.shape[1]


class TestSweepSolves:
    @pytest.mark.parametrize("xi_m,span", [(0.2, (1.5, 3.0)), (0.0, (1.0, 3.0))])
    def test_each_grid_load_solved_once(self, xi_m, span, monkeypatch):
        m = build_ziegler2(1, 1, 1, 1, 1, xi_m=xi_m)
        n_points = 40
        calls = {"pencil": 0, "refine": 0}
        pencil = m.linear_pencil

        def counted_pencil(P):
            calls["pencil"] += 1
            return pencil(P)

        def counting(search):
            def wrapper(f, *args, **kwargs):
                def counted_f(P):
                    calls["refine"] += 1
                    return f(P)
                return search(counted_f, *args, **kwargs)
            return wrapper

        monkeypatch.setattr(m, "linear_pencil", counted_pencil)
        monkeypatch.setattr(spectral, "brentq", counting(spectral.brentq))
        monkeypatch.setattr(spectral, "_golden_min", counting(spectral._golden_min))
        traj = eigen_sweep(m, span, n_points)
        # tracking, each refinement evaluation, and the scale solve at P_c
        assert calls["pencil"] == n_points + calls["refine"] + 1
        monkeypatch.undo()
        expect = hopf_and_divergence_by_fresh_solves(m, traj.P)
        assert {k: traj.events[k] for k in expect} == expect
        golden = coalescence_by_fresh_solves(m, traj.P)
        assert traj.events["ep"] == golden["ep"]
        assert abs(traj.events["P_c"] - golden["P_c"]) <= 1e-12 * golden["P_c"]

    def test_only_the_grid_solves_compute_vectors(self, monkeypatch):
        m = build_ziegler2(1, 1, 1, 1, 1, xi_m=0.2)
        asked, stacks = [], []
        eig, np_eig = sla.eig, np.linalg.eig

        def recording(a, b=None, left=False, right=True, **kwargs):
            asked.append((left, right))
            return eig(a, b, left=left, right=right, **kwargs)

        def recording_stack(a):
            stacks.append(np.shape(a))
            return np_eig(a)

        monkeypatch.setattr(sla, "eig", recording)
        monkeypatch.setattr(np.linalg, "eig", recording_stack)
        traj = eigen_sweep(m, (1.5, 3.0), 40)
        assert detect_exceptional_point(traj, m) is not None
        # the benchmark's sweep: 40 loads in one stack, at most 55 loads solved
        assert stacks == [(40, 4, 4)]
        assert asked and set(asked) == {(False, False)} and 40 + len(asked) <= 55


def closest_upper_pair(w):
    """The two closest upper-half-plane eigenvalues of w, first pair first."""
    up = np.sort_complex(w[w.imag > 1e-12 * max(np.abs(w).max(), 1e-30)])
    _, a, b = min(((abs(a - b), a, b) for i, a in enumerate(up) for b in up[i + 1:]),
                  key=lambda g: g[0])
    return a, b


def test_closest_pair_matches_pairwise_loop():
    rng = np.random.default_rng(3)
    for n in (2, 3, 8, 40):
        z = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        w = np.concatenate([z, z.conj(), rng.standard_normal(3)])
        gap, scale, pair = spectral._closest_pair(w)
        assert pair == closest_upper_pair(w)
        assert gap == abs(pair[0] - pair[1]) and scale == np.abs(w).max()
    assert spectral._closest_pair(np.array([1j, -1j, 2.0])) == (np.inf, 2.0, None)


class TestExceptionalPointReuse:
    @pytest.mark.parametrize("xi_m,span", [(0.2, (1.5, 3.0)), (0.0, (1.0, 3.0))])
    def test_no_solve_at_the_sweep_pc(self, xi_m, span, monkeypatch):
        m = build_ziegler2(1, 1, 1, 1, 1, xi_m=xi_m)
        traj = eigen_sweep(m, span, 40)
        monkeypatch.setattr(m, "linear_pencil", None)
        out = detect_exceptional_point(traj, m)
        monkeypatch.undo()
        # P_c of a gap search over fresh solves at every grid load, and the
        # closest pair of a fresh solve at the sweep's P_c
        golden = coalescence_by_fresh_solves(m, traj.P)
        assert out is not None and abs(out[0] - golden["P_c"]) <= 1e-12 * golden["P_c"]
        assert out[1] == closest_upper_pair(pencil_eigvals(m, out[0]))
        assert abs(out[0] - 2.0) < 1e-12

    def test_no_solve_without_coalescence(self, monkeypatch):
        m = build_ziegler2(1, 1, 1, 1, 1, xi_k=0.1)
        traj = eigen_sweep(m, (1.0, 3.0), 40)
        monkeypatch.setattr(m, "linear_pencil", None)
        assert detect_exceptional_point(traj, m) is None


def ziegler2_quartic_roots(m1, m2, k1, k2, L, xi_m, P):
    """Roots of det(lam^2 M + lam C + K - P Ru), from the textbook 2-DOF
    matrices (no model object)."""
    M = L**2 * np.array([[m1 + m2, m2], [m2, m2]])
    K = np.array([[k1 + k2, -k2], [-k2, k2]]) - P * L * np.array([[1.0, -1.0], [0.0, 0.0]])
    E = [[np.array([M[i, j], 2 * xi_m * M[i, j], K[i, j]]) for j in range(2)] for i in range(2)]
    return np.roots(np.polysub(np.polymul(E[0][0], E[1][1]), np.polymul(E[0][1], E[1][0])))


def assert_same_multiset(got, ref, rtol):
    """Each value of got has a partner in ref, and each of ref one in got."""
    dist = np.abs(np.asarray(got)[:, None] - np.asarray(ref)[None, :])
    assert len(got) == len(ref)
    assert max(dist.min(0).max(), dist.min(1).max()) <= rtol * np.abs(ref).max()


def assert_conjugate_pairs_up_first(row):
    osc = row[row.imag != 0]
    assert (osc[::2].imag > 0).all() and np.array_equal(osc[1::2], osc[::2].conj())


class TestBatchedGrid:
    """The stacked grid solve against solvers that share nothing with it.
    The grids keep off the exceptional points, where no eigensolver
    resolves the double root beyond sqrt(eps)."""

    @pytest.mark.parametrize("params,span,n_points", [
        ((1, 1, 1, 1, 1, 0.2), (1.0, 3.0), 40),
        ((1, 1, 1, 1, 1, 0.0), (1.0, 3.0), 40),
        ((25 / 4, 1.0, 41 / 4, 1.0, 1.0, 0.0), (0.0, 20.0), 220),
    ])
    def test_ziegler2_rows_are_the_quartic_roots(self, params, span, n_points):
        traj = eigen_sweep(build_ziegler2(*params[:5], xi_m=params[5]), span, n_points)
        for P, row in zip(traj.P, traj.lam):
            assert_same_multiset(row, ziegler2_quartic_roots(*params, P), 1e-10)
        assert_conjugate_pairs_up_first(traj.lam[0])

    @pytest.mark.parametrize("model,span,n_points", [
        (build_ziegler3(1, 1, 1, 1, 1, 1, 1, xi_m=0.2), (0.0, 6.0), 60),
        (build_ziegler(np.full(8, 1 / 8), np.full(8, 8.0), 1 / 8, xi_m=0.05), (1.0, 30.0), 60),
    ])
    def test_rows_are_the_pencil_eigenvalues(self, model, span, n_points):
        traj = eigen_sweep(model, span, n_points)
        for P, row in zip(traj.P, traj.lam):
            assert_same_multiset(row, pencil_eigvals(model, P), 1e-10)
        assert_conjugate_pairs_up_first(traj.lam[0])

    def test_fresh_solve_where_qz_does_not_converge(self, monkeypatch):
        # scipy's QZ stops unconverged at a few loads within 4 ulp of the
        # undamped pendulum's EP; the fresh solve then reads the state matrix
        def unconverged(*args, **kwargs):
            raise sla.LinAlgError("generalized eig algorithm (ggev) did not converge")

        monkeypatch.setattr(sla, "eig", unconverged)
        w = spectral._pencil_eigs_at(build_ziegler2(1, 1, 1, 1, 1), 2.5)
        assert_same_multiset(w, ziegler2_quartic_roots(1, 1, 1, 1, 1, 0.0, 2.5), 1e-12)

    def test_singular_mass_matrix_is_named(self):
        m = build_ziegler2(1, 1, 1, 1, 1)
        m.M = np.array([[1.0, 1.0], [1.0, 1.0]])
        with pytest.raises(spectral.SpectralError, match="singular mass matrix"):
            eigen_sweep(m, (1.0, 3.0), 10)


def count_root_evaluations(monkeypatch):
    """(root, evaluations) of every brentq call eigen_sweep makes."""
    calls = []
    search = spectral.brentq

    def counted(f, *args, **kwargs):
        n = [0]

        def counted_f(P):
            n[0] += 1
            return f(P)
        root = search(counted_f, *args, **kwargs)
        calls.append((root, n[0]))
        return root

    monkeypatch.setattr(spectral, "brentq", counted)
    return calls


class TestRootIn:
    """spectral._root_in: a lost sign change is a SpectralError, an error
    of the function it searches is that error."""

    def test_a_solver_failure_inside_the_bracket_propagates(self):
        # f changes sign over [0, 1]; a LinAlgError (a ValueError) raised
        # past the bracket ends is not read as a lost sign change
        def f(P):
            if 0.0 < P < 1.0:
                raise np.linalg.LinAlgError("Eigenvalues did not converge")
            return P - 0.5

        with pytest.raises(np.linalg.LinAlgError, match="did not converge"):
            spectral._root_in(f, 0.0, 1.0, 1e-12)

    def test_a_lost_sign_change_keeps_its_message(self):
        with pytest.raises(spectral.SpectralError,
                           match=r"^no sign change in \[0\.0, 1\.0\]$"):
            spectral._root_in(lambda P: P + 1.0, 0.0, 1.0, 1e-12)
        assert abs(spectral._root_in(lambda P: P - 0.25, 0.0, 1.0, 1e-12) - 0.25) <= 1e-12


class TestCoalescenceRoot:
    @pytest.mark.parametrize("gamma2,delta2,span,n_points", [
        (1.0, 1.0, (1.0, 3.0), 40),      # the grid gaps tie across the symmetric EP
        (1.0, 1.0, (0.0, 4.5), 90),
        (25 / 4, 41 / 4, (0.0, 20.0), 220),
        (2.0, 3.0, (1.0, 4.0), 30),
        (0.5, 1.5, (1.0, 3.0), 25),
    ])
    def test_pc_against_the_closed_form(self, gamma2, delta2, span, n_points, monkeypatch):
        calls = count_root_evaluations(monkeypatch)
        traj = eigen_sweep(build_ziegler2(gamma2, 1.0, delta2, 1.0, 1.0), span, n_points)
        P_c_ref = char_quartic_roots(gamma2, delta2)[0]
        ev = traj.events
        assert ev["P_c_method"] == "brent" and ev["ep"]
        assert abs(ev["P_c"] - P_c_ref) <= 1e-12 * P_c_ref
        assert [n for root, n in calls if root == ev["P_c"]][0] <= 8

    @pytest.mark.parametrize("xi_k", [0.05, 0.1])
    def test_no_ep_falls_back_to_the_golden_section(self, xi_k):
        m = build_ziegler2(1, 1, 1, 1, 1, xi_k=xi_k)
        traj = eigen_sweep(m, (1.0, 3.0), 40)
        golden = coalescence_by_fresh_solves(m, traj.P)
        assert traj.events["P_c_method"] == "golden" and not traj.events["ep"]
        assert {k: traj.events[k] for k in golden} == golden
        assert golden["gap_at_Pc"] > 0.6

    @pytest.mark.parametrize("model,span,n_points", [
        (build_ziegler2(1, 1, 1, 1, 1, xi_m=0.2), (1.5, 3.0), 40),
        (build_ziegler2(1, 1, 1, 1, 1, xi_m=0.2), (0.5, 3.5), 60),
        (build_ziegler2(1, 1, 1, 1, 1, xi_m=0.2), (1.0, 3.5), 50),
        (build_ziegler2(1, 1, 1, 1, 1, xi_m=0.2), (1.5, 3.0), 60),
        (build_ziegler2(1, 1, 1, 1, 1), (0.5, 3.5), 60),
        (build_ziegler3(1, 1, 1, 1, 1, 1, 1, xi_m=0.2), (0.0, 6.0), 60),
        (build_ziegler3(1, 1, 1, 1, 1, 1, 1, xi_m=0.2), (0.5, 4.0), 60),
        (build_ziegler(np.full(8, 1 / 8), np.full(8, 8.0), 1 / 8, xi_m=0.05), (1.0, 30.0), 60),
        (build_ziegler(np.full(16, 1 / 16), np.full(16, 16.0), 1 / 16), (15.0, 21.0), 13),
        (build_ziegler(np.full(32, 1 / 32), np.full(32, 32.0), 1 / 32), (15.0, 21.0), 13),
    ])
    def test_root_against_the_golden_section(self, model, span, n_points):
        # the sweeps of this suite: the root keeps the EP flag, lands within
        # 1e-12 of the gap minimum and leaves at most twice its gap
        traj = eigen_sweep(model, span, n_points)
        golden = coalescence_by_fresh_solves(model, traj.P)
        ev = traj.events
        assert ev["ep"] == golden["ep"]
        assert abs(ev["P_c"] - golden["P_c"]) <= 1e-12 * abs(golden["P_c"])
        assert ev["gap_at_Pc"] <= 2 * golden["gap_at_Pc"]

    def test_root_flags_an_ep_the_golden_section_missed(self):
        # k1 = k2 = 0.88 scales the unit pendulum's stiffness: its EP is at
        # P_c = 2 k exactly.  The gap minimum over the same 12-point grid
        # stops at a gap of 1.03e-6 against a scale of 0.94 and so does
        # not flag it
        m = build_ziegler2(1, 1, 0.88, 0.88, 1, xi_m=0.2)
        traj = eigen_sweep(m, (1.0, 3.0), 12)
        assert traj.events["P_c_method"] == "brent" and traj.events["ep"]
        assert abs(traj.events["P_c"] - 1.76) <= 1e-12 * 1.76


class TestJordan:
    def companion_spectrum(self):
        At = np.array([[0.0, 1.0], [-1.0, -2.0]])
        B = np.eye(2)
        return solve_pencil_spectrum(At, B, d=2), At, B

    def test_companion_enforcement(self):
        spec, At, B = self.companion_spectrum()
        out = enforce_jordan(spec, (0, 1))
        XBY = out.X.conj().T @ B @ out.Y
        XAY = out.X.conj().T @ At @ out.Y
        assert np.max(np.abs(XBY - np.eye(2))) < 1e-8
        assert np.max(np.abs(XAY - np.array([[-1, 1], [0, -1]]))) < 1e-8
        assert np.max(np.abs(out.Lam - np.array([[-1, 1], [0, -1]]))) < 1e-8

    def test_conditioning_rescued(self):
        spec, At, B = self.companion_spectrum()
        raw_cond = np.linalg.cond(spec.Y)
        out = enforce_jordan(spec, (0, 1))
        new_cond = np.linalg.cond(out.Y)
        assert raw_cond > 1e8
        assert new_cond < 1e3

    def test_formula_path_healthy_gap(self):
        # eigenvalues split by 2e-4: the closed-form combination applies
        eps = 1e-4
        core = np.array([[-1.0, 1.0], [eps**2, -1.0]])
        At = np.zeros((3, 3))
        At[:2, :2] = core
        At[2, 2] = -3.0
        rng = np.random.default_rng(0)
        V = rng.standard_normal((3, 3)) + np.eye(3)
        At = V @ At @ np.linalg.inv(V)
        B = np.eye(3)
        spec = solve_pencil_spectrum(At, B, d=3)
        i, j = 0, 1
        assert abs(spec.lam[i] - spec.lam[j]) > 1e-7
        out = enforce_jordan(spec, (i, j))
        XBY = out.X.conj().T @ B @ out.Y
        XAY = out.X.conj().T @ At @ out.Y
        assert np.max(np.abs(XBY - np.eye(3))) < 1e-9
        assert np.max(np.abs(XAY - out.Lam)) < 1e-9

    def test_norm_ratio_bounded(self):
        spec, At, B = self.companion_spectrum()
        out = enforce_jordan(spec, (0, 1))
        r = np.linalg.norm(out.Y[:, 1]) / np.linalg.norm(out.Y[:, 0])
        assert 1e-2 < r < 1e2

    def test_refuses_diabolic_pair(self):
        # independent eigenvectors with equal eigenvalues: not a Jordan block
        At = np.diag([-1.0, -1.0, -2.0])
        B = np.eye(3)
        spec = solve_pencil_spectrum(At, B, d=3)
        with pytest.raises(JordanEnforcementError):
            enforce_jordan(spec, (0, 1))

    def test_no_pair_spectrum_unchanged(self):
        m = build_ziegler2(1, 1, 1, 1, 1, xi_m=0.2)
        dae = recast_to_dae(m, mu0=2.6)
        spec = solve_master_eigen(dae, d=4)
        assert spec.jordan_pairs == []
        assert np.allclose(spec.Lam, np.diag(spec.lam))

    def test_ziegler_ep_enforcement(self):
        # expansion exactly at the exceptional point of the undamped pendulum
        m = build_ziegler2(1, 1, 1, 1, 1)
        dae = recast_to_dae(m, mu0=2.0)
        spec = solve_master_eigen(dae, d=4)
        raw_cond = np.linalg.cond(spec.Y[:, [0, 2]])
        out = enforce_jordan(spec, (0, 2))
        B, At = dae.B, dae.tangent_matrix()
        XBY = out.X.conj().T @ B @ out.Y
        XAY = out.X.conj().T @ At @ out.Y
        assert np.max(np.abs(XBY - np.eye(4))) < 1e-8
        assert np.max(np.abs(XAY - out.Lam)) < 1e-8
        assert raw_cond > 1e8
        assert np.linalg.cond(out.Y[:, [0, 2]]) < 1e3
        # the conjugate pair is mirrored for real models
        assert (0, 2, 1.0) in out.jordan_pairs
        assert any(p[:2] == (1, 3) for p in out.jordan_pairs)
        assert np.allclose(out.Y[:, 1], np.conj(out.Y[:, 0]))

    @pytest.mark.parametrize("order", [5, 7])
    def test_coupling_is_a_gauge(self, order, monkeypatch):
        # the imposed coupling only scales the generalised eigenvector: the
        # Jordan ROM at the exceptional point of Ziegler-2 (xi_m = 0.2)
        # predicts the same theta2 amplitude and period at P_H + 0.3, with
        # the same Newton corrections, whatever its value
        m = build_ziegler2(1, 1, 1, 1, 1, xi_m=0.2)
        traj = eigen_sweep(m, (1.5, 3.0), 40)
        P_H, P_c = traj.events["P_H"], detect_exceptional_point(traj, m)[0]
        dae = recast_to_dae(m, mu0=P_c)
        cycles = []
        for tau in (0.25, 1.0, 4.0):
            monkeypatch.setattr(spectral, "_TAU", tau)
            spec = enforce_jordan(solve_master_eigen(dae, d=4), (0, 2))
            assert (0, 2, tau) in spec.jordan_pairs
            cycle = measure_limit_cycle(build_rom_firstorder(dae, spec, order), P_H + 0.3 - P_c)
            assert cycle.converged and cycle.reason == ""
            cycles.append(cycle)
        ref = cycles[1]
        for cycle in cycles:
            assert abs(cycle.amp(1) / ref.amp(1) - 1.0) <= 1e-14
            assert abs(cycle.period / ref.period - 1.0) <= 1e-14
            assert cycle.newton == ref.newton

    def test_mac(self):
        a = np.array([1.0, 2.0, 3.0])
        assert abs(modal_assurance(a, 2.5 * a) - 1.0) < 1e-14
        b = np.array([1.0, 0.0, 0.0])
        c = np.array([0.0, 1.0, 0.0])
        assert modal_assurance(b, c) == 0.0
