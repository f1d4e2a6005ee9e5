import re
import time

import numpy as np
import pytest
import scipy.linalg as sla
from scipy.integrate import cumulative_trapezoid, solve_ivp
from scipy.optimize import brentq, minimize_scalar
from scipy.special import roots_legendre

from flutterrom import continuation
from flutterrom.continuation import (
    BifurcationDiagram,
    BranchPoint,
    ContinuationError,
    _DS0,
    _DS_MIN,
    _MAX_NEWTON,
    _MESH0,
    _N_SAMPLE,
    _NODES,
    _NEWTON_TOL,
    _RTOL,
    _SEED_AMP,
    _TARGET_NEWTON,
    ContinuationOptions,
    _correct,
    _floquet_and_stability,
    _fold_test,
    _hopf_cycle,
    _hopf_seed,
    _mesh_size,
    _ns_test,
    _sample,
    _stage_times,
    continue_periodic,
    diagram_compare,
    find_hopf,
)
from flutterrom.dpim import build_rom_firstorder
from flutterrom.models import build_ziegler2, recast_to_dae
from flutterrom.romdyn import BlowUpError, RealizedReducedSystem, measure_limit_cycle
from flutterrom.spectral import (
    detect_exceptional_point,
    eigen_sweep,
    enforce_jordan,
    solve_master_eigen,
)
from tests.conftest import hopf_normal_form_rom
from tests.oracles import measure_settled_cycle, return_time
from tests.test_romdyn import ziegler_rom


ATOL = 1e-12  # absolute tolerance of the oracles' time integrations


# -- the settled seed: the oracle of the Hopf seed -----------------------------


def _initial_cycle(rom, mu, max_periods=600):
    """Seed anchor/period from an integration at fixed mu, settled from a
    _SEED_AMP perturbation of the leading coordinate, and the seed record
    {periods, status}; status is "settled", or "no-convergence" when
    max_periods ran out first."""
    sysr = RealizedReducedSystem(rom, mu)
    T0 = 2 * np.pi / abs(rom.lam[0].imag)
    x0 = sysr.real_state([_SEED_AMP] + [0.0] * (sysr.m - 1))
    try:
        status, periods, x = measure_settled_cycle(
            sysr.rhs, x0, T0, lambda X: float(np.max(np.abs(X))), 3e-4,
            max_periods, _RTOL, ATOL, escape_radius=1e3 * max(_SEED_AMP, 1e-2))
    except BlowUpError as exc:
        raise ContinuationError(f"seed trajectory at mu = {mu}: {exc}") from exc
    if status == "decayed":
        raise ContinuationError(f"trajectory decays at mu = {mu}: no cycle to seed")
    T = return_time(sysr.rhs, x, T0, _RTOL, ATOL)
    return x, T, {"periods": periods, "status": status}


# -- single-interval shooting: the oracle of the collocation corrector ---------


def _flow_with_variations(sysr, x0, T, mu, rtol, atol, sensitivity=True):
    """phi_T(x0), monodromy, and the mu-sensitivity of the flow.

    The state stores [Phi | s]^T row by row, so one product J [Phi | s]
    advances both."""
    m2 = 2 * sysr.m
    sysr.mu = mu

    def rhs(t, y):
        f, J, g = sysr.linearize(y[:m2])
        out = np.empty_like(y)
        out[:m2] = f
        dV = out[m2:].reshape(-1, m2)
        np.dot(y[m2:].reshape(-1, m2), J.T, out=dV)
        if sensitivity:
            dV[-1] += g
        return out

    y0 = np.concatenate([x0, np.eye(m2).ravel(),
                         np.zeros(m2 if sensitivity else 0)])
    yT = solve_ivp(rhs, (0.0, T), y0, method="DOP853", rtol=rtol, atol=atol).y[:, -1]
    xT = yT[:m2]
    Mono = yT[m2:m2 + m2 * m2].reshape(m2, m2).T
    smu = yT[m2 + m2 * m2:] if sensitivity else None
    return xT, Mono, smu


def _newton_fixed_mu(sysr, x, T, mu):
    """Polish (anchor, period) at fixed parameter by shooting Newton."""
    m2 = 2 * sysr.m
    for _ in range(_MAX_NEWTON):
        nvec = sysr.rhs(0.0, x)
        nvec /= np.linalg.norm(nvec)
        xT, Mono, _ = _flow_with_variations(sysr, x, T, mu, _RTOL, ATOL,
                                            sensitivity=False)
        F = np.concatenate([xT - x, [0.0]])
        if np.linalg.norm(F) < _NEWTON_TOL * max(1.0, np.linalg.norm(x)):
            return x, T, Mono
        J = np.zeros((m2 + 1, m2 + 1))
        J[:m2, :m2] = Mono - np.eye(m2)
        J[:m2, m2] = sysr.rhs(0.0, xT)
        J[m2, :m2] = nvec
        dq = sla.solve(J, -F)
        x = x + dq[:m2]
        T = T + dq[m2]
    raise ContinuationError("seed shooting Newton failed")


def shooting_branch(rom, opts):
    """The branch by single-interval shooting: each corrector iterate
    integrates the variational system over one period, and each accepted
    point is integrated once more for its amplitudes: each coordinate's
    largest sample, refined on a 1000 times finer grid over the sample
    spacing either side of it.  Same seed, first tangent (the null vector
    of the seed's periodicity and phase rows), rows (the phase normal is f
    at the last point's anchor and mu, once per step), convergence test,
    step rule and landing (a step past mu_max corrected again at mu =
    mu_max, from the secant through the last point) as continue_periodic."""
    hopf = _hopf_cycle(rom)
    sysr, mu_H = hopf.sysr, hopf.record["mu_H"]
    mu_start = min(opts.mu_max, mu_H + max(4 * _DS0, 0.01 * max(abs(mu_H), 1.0)))
    m2 = 2 * sysr.m
    x, _, T, _ = _hopf_seed(hopf, mu_start)
    x, T, Mono = _newton_fixed_mu(sysr, x, T, mu_start)
    amp_cap = 40.0 * max(np.linalg.norm(x), 0.05)
    points = []

    def record(x, T, mu, Mono):
        mult, others, stable = _floquet_and_stability(Mono)
        sysr.mu = mu
        sol = solve_ivp(sysr.rhs, (0.0, T), x, method="DOP853", rtol=_RTOL,
                        atol=ATOL, dense_output=True)
        t, dt = np.linspace(0.0, T, _N_SAMPLE, retstep=True)
        tops = t[np.argmax(np.abs(sysr.map_batch(sol.sol(t).T)), axis=0)]
        amp = [np.abs(sysr.map_batch(sol.sol(np.mod(np.linspace(-dt, dt, 2001) + top, T)).T)
                      [:, c]).max() for c, top in enumerate(tops)]
        points.append(BranchPoint(mu, x.copy(), T, np.array(amp), mult, stable))
        return others

    others = record(x, T, mu_start, Mono)
    fold_prev, ns_prev = _fold_test(others), _ns_test(others)
    q = np.concatenate([x, [T, mu_start]])
    xT, Mono, smu = _flow_with_variations(sysr, x, T, mu_start, _RTOL, ATOL)
    rows = np.zeros((m2 + 1, m2 + 2))
    rows[:m2, :m2] = Mono - np.eye(m2)
    rows[:m2, m2] = sysr.rhs(0.0, xT)
    rows[:m2, m2 + 1] = smu
    rows[m2, :m2] = sysr.rhs(0.0, x)
    tangent = sla.null_space(rows)[:, 0]
    tangent *= np.sign(tangent[-1])
    ds = _DS0
    truncated = ""
    while len(points) < opts.max_points:
        qn = q + ds * tangent
        sysr.mu = q[m2 + 1]
        nvec = sysr.rhs(0.0, q[:m2])
        nvec /= np.linalg.norm(nvec)
        converged = False
        for it in range(_MAX_NEWTON):
            x_n, T_n, mu_n = qn[:m2], qn[m2], qn[m2 + 1]
            xT, Mono, smu = _flow_with_variations(sysr, x_n, T_n, mu_n, _RTOL, ATOL)
            F = np.concatenate([xT - x_n, [nvec @ (x_n - q[:m2])], [tangent @ (qn - q) - ds]])
            if np.linalg.norm(F) < _NEWTON_TOL * max(1.0, np.linalg.norm(qn)):
                converged = True
                break
            J = np.zeros((m2 + 2, m2 + 2))
            J[:m2, :m2] = Mono - np.eye(m2)
            J[:m2, m2] = sysr.rhs(0.0, xT)
            J[:m2, m2 + 1] = smu
            J[m2, :m2] = nvec
            J[m2 + 1] = tangent
            qn = qn + sla.solve(J, -F)
        if not converged:
            if ds > _DS_MIN:
                ds = max(ds / 2.0, _DS_MIN)
                continue
            truncated = "shooting Newton stalled at the minimum step"
            break
        x_n, T_n, mu_n = qn[:m2], qn[m2], qn[m2 + 1]
        if np.linalg.norm(x_n) > amp_cap:
            truncated = "branch left the reduced-coordinate trust region"
            break
        if mu_n > opts.mu_max:
            s = (opts.mu_max - q[m2 + 1]) / (mu_n - q[m2 + 1])
            guess = q + s * (qn - q)
            mu_n = opts.mu_max
            x_n, T_n, Mono = _newton_fixed_mu(sysr, guess[:m2], guess[m2], mu_n)
        others = record(x_n, T_n, mu_n, Mono)
        fold_now, ns_now = _fold_test(others), _ns_test(others)
        if fold_prev * fold_now < 0 and abs(fold_prev) < 0.5:
            points[-1].event = "fold"
        elif ns_prev * ns_now < 0 and ns_now > 0:
            points[-1].event = "neimark-sacker"
        fold_prev, ns_prev = fold_now, ns_now
        if mu_n == opts.mu_max:
            break
        tangent = (qn - q) / np.linalg.norm(qn - q)
        q = qn
        if it <= _TARGET_NEWTON:
            ds = min(ds * 1.4, _DS0)
        elif it >= _MAX_NEWTON - 2:
            ds = max(ds / 1.5, _DS_MIN)
    return BifurcationDiagram(points, {"truncated": truncated})


@pytest.fixture(scope="module")
def branch_rom():
    """The d = 4, order-5 ROM expanded at the sweep's Hopf point."""
    m = build_ziegler2(1, 1, 1, 1, 1, xi_m=0.2)
    P_H = eigen_sweep(m, (1.5, 3.0), 40).events["P_H"]
    return P_H, ziegler_rom(mu0=P_H, order=5)[2]


@pytest.fixture(scope="module")
def branch(branch_rom):
    return continue_periodic(branch_rom[1],
                             options=ContinuationOptions(mu_max=0.3, max_points=20))


def test_find_hopf_matches_eigen_sweep(branch_rom):
    P_H, rom = branch_rom
    assert abs(rom.meta["mu0"] + find_hopf(rom) - P_H) < 1e-6


def test_normal_form_branch_against_closed_form():
    # zdot = (mu + 1.3 i) z - z|z|^2: radius sqrt(mu), period 2 pi / 1.3
    omega = 1.3
    diag = continue_periodic(hopf_normal_form_rom(omega=omega),
                             options=ContinuationOptions(mu_max=0.3, max_points=40))
    assert diag.meta["truncated"] == ""
    seed = diag.meta["seed"]
    assert set(seed) == {"mu_H", "newton", "residual", "scale"}
    assert abs(seed["mu_H"]) < 1e-9 and seed["newton"] >= 1 and seed["residual"] < 1e-9
    mu = diag.mu()
    assert mu[-1] == mu.max() == 0.3 and len(mu) > 5
    amp = diag.amplitude(0)
    assert np.abs(amp / np.sqrt(mu) - 1.0).max() < 1e-4
    # the polished orbit maximum, not the largest of 512 samples, which reads
    # up to 1.9e-5 relative low depending on where the samples fall
    assert np.abs(amp - np.sqrt(mu)).max() < 1e-6
    assert np.abs(diag.periods() - 2 * np.pi / omega).max() < 1e-8
    trivial = max(np.abs(pt.floquet - 1.0).min() for pt in diag.points)
    assert trivial < 1e-6


def test_fold_of_the_quintic_normal_form():
    # zdot = (mu + i) z - z|z|^2 + z|z|^4: cycles r^2 = (1 -+ sqrt(1 - 4 mu)) / 2,
    # a stable lower and an unstable upper branch meeting at the fold
    # mu = 1/4, r = 1/sqrt(2)
    diag = continue_periodic(hopf_normal_form_rom(c5=1.0, order=5),
                             options=ContinuationOptions(mu_max=0.3, max_points=60))
    events = diag.events()
    assert [event for _, event in events] == ["fold"]
    assert abs(events[0][0] - 0.25) < 1e-3
    k = next(i for i, pt in enumerate(diag.points) if pt.event)
    assert all(pt.stable for pt in diag.points[:k])
    assert not any(pt.stable for pt in diag.points[k:])
    for pt in diag.points:
        r = np.sqrt((1.0 + (-1.0 if pt.stable else 1.0) * np.sqrt(1.0 - 4.0 * pt.mu)) / 2.0)
        assert abs(pt.amplitude[0] - r) < 1e-8


def find_hopf_pointwise(rom, n_scan=201, tol=1e-12):
    """find_hopf with one eigensolve per scanned load."""
    ref = max(abs(rom.meta.get("mu0", 0.0)), 1.0)
    mus = np.linspace(-0.35 * ref, 0.35 * ref, n_scan)

    def max_re(mu):
        return float(np.max(np.linalg.eigvals(rom.linear_block(mu)).real))

    vals = np.array([max_re(mu) for mu in mus])
    i = next(i for i in range(n_scan - 1) if vals[i] < 0 <= vals[i + 1])
    a, b = mus[i], mus[i + 1]
    return brentq(max_re, a, b, xtol=tol * max(abs(b), 1.0))


@pytest.mark.parametrize("d", [2, 4])
def test_find_hopf_stacked_scan_matches_pointwise_scan(d):
    _, _, rom = ziegler_rom(mu0=2.0768, order=5, d=d)
    assert find_hopf(rom) == find_hopf_pointwise(rom)
    mus = np.linspace(-0.7, 0.7, 11)
    stack = rom.linear_block(mus)
    assert stack.shape == (11, d, d)
    for mu, J in zip(mus, stack):
        assert np.array_equal(J, rom.linear_block(mu))


def test_find_hopf_on_the_normal_form():
    # growth rate rho + mu: the Hopf point is mu = -rho, and none lies in the
    # scanned window +-0.35 when |rho| exceeds it
    assert abs(find_hopf(hopf_normal_form_rom(rho=-0.1)) - 0.1) < 1e-12
    with pytest.raises(ContinuationError, match="no sign change"):
        find_hopf(hopf_normal_form_rom(rho=-1.0))


def test_degenerate_hopf_point_raises():
    # without the cubic term every circle at mu = 0 is a cycle: mu does not
    # move with the amplitude, so no amplitude law scales the seed
    with pytest.raises(ContinuationError, match="degenerate Hopf point"):
        continue_periodic(hopf_normal_form_rom(c3=0.0))


def test_non_oscillatory_crossing_raises():
    # zdot = mu z - z|z|^2 with omega = 0: the growth rate changes sign through
    # a real double eigenvalue, so there is no oscillatory pair to seed from
    with pytest.raises(ContinuationError, match="no oscillatory eigenvalue pair at the Hopf "
                                               "point mu = "):
        continue_periodic(hopf_normal_form_rom(omega=0.0))


def test_subcritical_hopf_point_raises():
    # zdot = (mu + i) z + z|z|^2: the cycles lie at mu < 0, none past the
    # Hopf point; the seed sits at mu_H + 4 _DS0 = 0.08
    with pytest.raises(ContinuationError, match="grows at mu = 0.08: .* lie below it"):
        continue_periodic(hopf_normal_form_rom(c3=1.0), ContinuationOptions(mu_max=0.2))


def test_decaying_seed_raises():
    # below the Hopf point the seed sits at mu_max, where no cycle exists
    with pytest.raises(ContinuationError, match="decays at mu = -0.1"):
        continue_periodic(hopf_normal_form_rom(), ContinuationOptions(mu_max=-0.1))


def test_options_reject_a_branch_without_an_end():
    # a nan mu_max never stops the branch, and no branch has zero points
    for bad in (dict(mu_max=np.nan), dict(mu_max=np.inf), dict(max_points=0)):
        with pytest.raises(ValueError, match="must be"):
            ContinuationOptions(**bad)


def test_max_points_stop_is_named():
    # the normal form's branch needs more than three points to reach mu = 0.3
    diag = continue_periodic(hopf_normal_form_rom(),
                             ContinuationOptions(mu_max=0.3, max_points=3))
    assert len(diag.points) == 3 and diag.mu().max() < 0.3
    assert diag.meta["truncated"] == "max_points = 3 reached"


@pytest.mark.parametrize("mu_max", [0.03, 0.08, 0.2537])
def test_branch_ends_exactly_at_mu_max(mu_max):
    # from the seed (clipped to mu_max at 0.03), through a step past mu_max
    # corrected again there: the last point is the cycle at mu_max itself,
    # radius sqrt(mu_max)
    diag = continue_periodic(hopf_normal_form_rom(omega=1.3),
                             ContinuationOptions(mu_max=mu_max))
    assert diag.meta["truncated"] == ""
    last = diag.points[-1]
    assert last.mu == mu_max and np.all(diag.mu()[:-1] < mu_max)
    assert abs(last.amplitude[0] - np.sqrt(mu_max)) < 1e-6
    assert abs(last.period - 2 * np.pi / 1.3) < 1e-8


def fixed_mu_cycle(sysr, x, K, T, mu):
    """The fixed-mu seed correction of continue_periodic: correct at mu,
    growing the mesh until the orbit meets rtol.  Returns (q, collocation)."""
    sysr.mu = mu
    q = np.append(x, [T, mu])
    fixed_mu = np.eye(len(q))[-1]
    while True:
        q, K, col, _, _, reason = _correct(sysr, q, K, fixed_mu, 0.0, q, K, np.inf,
                                           (T / 4, 4 * T))
        assert reason == ""
        N = _mesh_size(sysr, col, q[-2], _RTOL)
        if N == len(K):
            return q, col
        K = _sample(col, q[-2], _stage_times(N)).reshape(N, len(_NODES), -1)


def orbit_max(col, T):
    """max |x_i| over the collocation orbit per coordinate, each maximum
    polished between the samples around it so that it does not depend on
    where the anchor sits on the orbit."""
    t = np.linspace(0.0, 1.0, 1025)
    X = np.abs(_sample(col, T, t))
    out = []
    for i, k in enumerate(np.argmax(X, axis=0)):
        res = minimize_scalar(lambda s: -abs(_sample(col, T, np.array([s % 1.0]))[0, i]),
                              bounds=(t[k] - t[1], t[k] + t[1]), method="bounded",
                              options={"xatol": 1e-12})
        out.append(max(-res.fun, X[k, i]))
    return np.array(out)


@pytest.fixture(scope="module")
def seed_roms(branch_rom):
    """o5 ROMs of the branch's model: one-mode and two-mode at P_H, and the
    Jordan-enforced two-mode expansion at the exceptional point P_c."""
    P_H, two_mode = branch_rom
    m = build_ziegler2(1, 1, 1, 1, 1, xi_m=0.2)
    P_c = detect_exceptional_point(eigen_sweep(m, (1.5, 3.0), 40), m)[0]
    dae = recast_to_dae(m, mu0=P_c)
    jordan = build_rom_firstorder(dae, enforce_jordan(solve_master_eigen(dae, d=4), (0, 2)), 5)
    return {"one-mode": ziegler_rom(mu0=P_H, order=5, d=2)[2], "two-mode": two_mode,
            "jordan": jordan}


@pytest.mark.parametrize("label", ["one-mode", "two-mode", "jordan"])
def test_hopf_seed_matches_settled_seed(seed_roms, label):
    # both seeds, corrected at the same fixed mu, land on the same cycle
    rom = seed_roms[label]
    hopf = _hopf_cycle(rom)
    sysr, mu_H = hopf.sysr, hopf.record["mu_H"]
    mu = mu_H + max(4 * _DS0, 0.01 * max(abs(mu_H), 1.0))
    x, K, T, seed = _hopf_seed(hopf, mu)
    assert seed["newton"] >= 1 and seed["scale"] > 1.0
    q, col = fixed_mu_cycle(sysr, x, K, T, mu)

    xs, Ts, record = _initial_cycle(rom, mu)
    assert record["status"] == "settled"
    orbit = solve_ivp(sysr.rhs, (0.0, Ts), xs, method="DOP853", rtol=_RTOL, atol=ATOL,
                      dense_output=True)
    Ks = orbit.sol(Ts * _stage_times(_MESH0)).T.reshape(_MESH0, len(_NODES), -1)
    qs, col_s = fixed_mu_cycle(sysr, xs, Ks, Ts, mu)

    assert abs(q[-2] / qs[-2] - 1.0) < 1e-9
    assert np.abs(orbit_max(col, q[-2]) - orbit_max(col_s, qs[-2])).max() < 1e-8


def test_hopf_seed_radius_on_the_normal_form():
    # zdot = (mu + 1.3 i) z - z|z|^2: the cycle at mu has radius sqrt(mu)
    hopf = _hopf_cycle(hopf_normal_form_rom(omega=1.3))
    for mu in (0.02, 0.08, 0.3):
        x, _, T, _ = _hopf_seed(hopf, mu)
        assert abs(np.linalg.norm(x) - np.sqrt(mu)) < 1e-8
        assert abs(T - 2 * np.pi / 1.3) < 1e-8


@pytest.mark.parametrize("sensitivity", [True, False])
def test_flow_variations_against_differences(sensitivity):
    _, _, rom = ziegler_rom(mu0=2.0768, order=5)
    sysr = RealizedReducedSystem(rom, 0.0)
    x0 = np.array([0.05, -0.02, 0.01, 0.03])
    T, mu, eps, tol = 4.0, 0.05, 1e-6, 1e-12

    def flow(x, mu):
        return _flow_with_variations(sysr, x, T, mu, tol, tol, sensitivity=False)[0]

    xT, Mono, smu = _flow_with_variations(sysr, x0, T, mu, tol, tol, sensitivity)
    assert np.abs(xT - flow(x0, mu)).max() < 1e-10
    Mfd = np.column_stack([(flow(x0 + eps * e, mu) - flow(x0 - eps * e, mu)) / (2 * eps)
                           for e in np.eye(4)])
    assert np.abs(Mono - Mfd).max() < 1e-7 * np.abs(Mfd).max()
    if sensitivity:
        sfd = (flow(x0, mu + eps) - flow(x0, mu - eps)) / (2 * eps)
        assert np.abs(smu - sfd).max() < 1e-7 * np.abs(sfd).max()
    else:
        assert smu is None


def test_collocation_matches_shooting(branch_rom, branch):
    shot = shooting_branch(branch_rom[1], ContinuationOptions(mu_max=0.3, max_points=20))
    assert len(branch.points) == len(shot.points) == 17
    assert branch.meta["truncated"] == shot.meta["truncated"] == ""
    assert branch.mu()[-1] == shot.mu()[-1] == 0.3
    assert branch.events() == shot.events()
    assert np.abs(branch.mu() - shot.mu()).max() < 1e-9
    assert np.abs(branch.periods() / shot.periods() - 1.0).max() < 1e-7
    for a, b in zip(branch.points, shot.points):
        assert np.abs(a.amplitude - b.amplitude).max() < 1e-7 * np.abs(b.amplitude).max()
        fa, fb = np.sort(np.abs(a.floquet)), np.sort(np.abs(b.floquet))
        assert np.abs(fa / fb - 1.0).max() < 1e-7
        assert a.stable == b.stable


def test_mesh_meets_rtol_against_the_flow(branch_rom):
    # the mesh the error estimate picks meets rtol on the orbit's samples,
    # measured against a tight integration from the corrected anchor; the
    # seed mesh it rejects does not
    rom, mu = branch_rom[1], 0.1
    sysr = RealizedReducedSystem(rom, mu)
    x, T, _ = _initial_cycle(rom, mu)
    q = np.append(x, [T, mu])
    fixed_mu = np.eye(len(q))[-1]
    orbit = solve_ivp(sysr.rhs, (0.0, T), x, method="DOP853", rtol=1e-13, atol=1e-15,
                      dense_output=True)
    t = np.linspace(0.0, 1.0, 401)

    def corrected_error(K):
        qn, _, col, _, _, reason = _correct(sysr, q, K, fixed_mu, 0.0, q, K, np.inf,
                                            (T / 4, 4 * T))
        assert reason == ""
        flow = solve_ivp(sysr.rhs, (0.0, qn[-2]), qn[:-2], method="DOP853", rtol=1e-13,
                         atol=1e-15, dense_output=True).sol(qn[-2] * t).T
        err = np.abs(_sample(col, qn[-2], t) - flow).max() / np.abs(flow).max()
        return err, col, qn[-2]

    seed = orbit.sol(T * _stage_times(_MESH0)).T.reshape(_MESH0, len(_NODES), -1)
    err, col, Tn = corrected_error(seed)
    N = _mesh_size(sysr, col, Tn, _RTOL)
    assert err > _RTOL and N > _MESH0
    refined = _sample(col, Tn, _stage_times(N)).reshape(N, len(_NODES), -1)
    err, col, Tn = corrected_error(refined)
    assert err <= _RTOL
    assert _mesh_size(sysr, col, Tn, _RTOL) == N


def test_collocation_constants_against_gauss_legendre():
    # nodes: the roots of P_s mapped to [0, 1]; weights and stage weights:
    # the Gauss order conditions, exact for polynomials of degree 2s - 1 and
    # s - 1; _RHO: a brute-force maximum of the integrated node polynomial
    s = len(_NODES)
    assert np.abs(_NODES - 0.5 * (1.0 + roots_legendre(s)[0])).max() < 1e-15
    for k in range(1, 2 * s + 1):
        assert abs(continuation._B @ _NODES ** (k - 1) - 1.0 / k) < 1e-12
    for k in range(1, s + 1):
        assert np.abs(continuation._A @ _NODES ** (k - 1) - _NODES ** k / k).max() < 1e-12
    t = np.linspace(0.0, 1.0, 200_001)
    integral = cumulative_trapezoid(np.prod(t[:, None] - _NODES, axis=1), t, initial=0.0)
    rho = np.abs(integral).max() / np.prod(_NODES)
    assert abs(continuation._RHO / rho - 1.0) < 1e-8


@pytest.fixture(scope="module")
def ziegler2_fom(branch_rom):
    """Ziegler-2's full-order system at its Hopf load."""
    return build_ziegler2(1, 1, 1, 1, 1, xi_m=0.2).first_order(branch_rom[0])


@pytest.mark.parametrize("case", ["rom", "fom"])
def test_mesh_error_estimate_is_sharp(branch_rom, ziegler2_fom, case, monkeypatch):
    # the estimate is within a factor 2 of the interior error of the
    # collocation polynomial on every mesh, so the error falls like
    # h^(s+1) as the mesh rule assumes; the correction runs to 1e-13 so
    # that each orbit is its mesh's own collocation solution, not the
    # resampled converged orbit (whose residual is already under 1e-9)
    model, mu = (branch_rom[1], 0.1) if case == "rom" else (ziegler2_fom, 0.2)
    hopf = _hopf_cycle(model)
    sysr = hopf.sysr
    x, K, T, _ = _hopf_seed(hopf, mu)
    q, col = fixed_mu_cycle(sysr, x, K, T, mu)
    monkeypatch.setattr(continuation, "_NEWTON_TOL", 1e-13)
    fixed_mu = np.eye(len(q))[-1]
    t = np.linspace(0.0, 1.0, 4001)
    for N in (4, 6, 8, 10):
        KN = continuation._refine(col, q[-2], N)
        qn, _, colN, _, _, reason = _correct(sysr, q, KN, fixed_mu, 0.0, q, KN, np.inf,
                                             (T / 4, 4 * T))
        assert reason == ""
        flow = solve_ivp(sysr.rhs, (0.0, qn[-2]), qn[:-2], method="DOP853", rtol=1e-13,
                         atol=1e-15, dense_output=True).sol(qn[-2] * t).T
        err = np.abs(_sample(colN, qn[-2], t) - flow).max() / np.abs(flow).max()
        estimate = continuation._mesh_error(sysr, colN, qn[-2])
        assert 0.5 < estimate / err < 2.0, (N, estimate, err)


def test_an_orbit_past_the_mesh_cap_is_refused(branch_rom, ziegler2_fom, monkeypatch):
    # an orbit that needs more intervals than _MESH_MAX is refused with a
    # named reason; the branch stops there, it does not halve the step
    full = continue_periodic(ziegler2_fom, ContinuationOptions(mu_max=0.3, max_points=40))
    meshes = [rec["mesh"] for rec in full.meta["trace"] if rec["accepted"]]
    cap = max(meshes) - 1
    monkeypatch.setattr(continuation, "_MESH_MAX", cap)
    capped = continue_periodic(ziegler2_fom, ContinuationOptions(mu_max=0.3, max_points=40))
    reason = capped.meta["truncated"]
    assert re.fullmatch(rf"orbit needs \d+ mesh intervals, more than {cap}", reason)
    assert capped.meta["trace"][-1]["reason"] == reason
    assert 0 < len(capped.points) < len(full.points)
    assert capped.mu().tolist() == full.mu()[:len(capped.points)].tolist()
    # the cap at the seed mesh, below the 7 intervals the d = 4 ROM's orbits
    # need: no branch, and no cycle at a load
    monkeypatch.setattr(continuation, "_MESH_MAX", _MESH0)
    rom = branch_rom[1]
    diag = continue_periodic(rom, ContinuationOptions(mu_max=0.1))
    assert diag.points == []
    assert re.fullmatch(rf"seed corrector: orbit needs \d+ mesh intervals, more than {_MESH0}",
                        diag.meta["truncated"])
    meas = measure_limit_cycle(rom, 0.1)
    assert not meas.converged and meas.reason == diag.meta["truncated"]


def test_branch_mesh_stays_small(branch_rom, monkeypatch):
    # a work guard: every batch of states continue_periodic hands to
    # linearize on the d = 4 branch is an accepted or a rejected mesh of at
    # most 64 collocation points (4-point collocation needs 220)
    sizes = []
    linearize = RealizedReducedSystem.linearize

    def counted(self, X):
        sizes.append(len(X) if np.ndim(X) == 2 else 1)
        return linearize(self, X)

    monkeypatch.setattr(RealizedReducedSystem, "linearize", counted)
    diag = continue_periodic(branch_rom[1], ContinuationOptions(mu_max=0.3, max_points=20))
    assert len(diag.points) == 17
    accepted = {rec["mesh"] * len(_NODES) for rec in diag.meta["trace"] if rec["accepted"]}
    assert max(accepted) <= 64 and accepted <= set(sizes)
    assert max(sizes) <= 64


def test_trace_accounts_for_every_step(branch):
    trace = branch.meta["trace"]
    assert sum(rec["accepted"] for rec in trace) == len(branch.points)
    for rec in trace:
        assert set(rec) == {"ds", "newton", "residuals", "mesh", "accepted", "reason", "wall_s"}
        assert rec["accepted"] == (rec["reason"] == "")
        assert len(rec["residuals"]) == rec["newton"] + 1
    # the trust region never fires on this branch; only the seed mesh grows,
    # and the one step past mu_max is corrected again at mu_max
    rejected = [rec for rec in trace if rec["reason"]]
    assert rejected[-1]["reason"] == "stepped past mu_max" and rejected[-1]["ds"] > 0.0
    assert trace[-1]["ds"] == 0.0 and trace[-1]["accepted"]
    assert all(rec["reason"].startswith("mesh refined") for rec in rejected[:-1])
    assert all(rec["ds"] == 0.0 for rec in rejected[:-1])
    assert len({rec["mesh"] for rec in trace if rec["accepted"]}) == 1


def test_arclength_steps_converge_quadratically(branch):
    # the phase normal is fixed for a whole correction, so the Newton matrix
    # is the exact Jacobian of the rows: every residual is at most the square
    # of the one before (about ten times below it on this branch)
    steps = [rec for rec in branch.meta["trace"] if rec["accepted"] and rec["ds"] > 0.0]
    assert len(steps) == len(branch.points) - 2
    for rec in steps:
        r = rec["residuals"]
        assert all(after <= before ** 2 for before, after in zip(r, r[1:])), r


def test_first_step_off_the_seed_converges_like_the_rest(branch):
    # the seed's tangent carries the stage values' part, so the first
    # arclength step starts from an O(ds^2) residual like every later step
    steps = [rec for rec in branch.meta["trace"] if rec["ds"] > 0.0]
    assert steps[0]["newton"] <= 2
    assert steps[0]["residuals"][0] <= max(rec["residuals"][0] for rec in steps[1:])


def test_step_grows_back_to_ds0_after_a_failure(monkeypatch):
    # the first arclength attempt fails once: the step halves, then grows
    # back to _DS0 within three accepted steps and never past it
    correct, failed = continuation._correct, []

    def fail_first_step(sysr, q, K, tangent, ds, *args):
        out = correct(sysr, q, K, tangent, ds, *args)
        if ds > 0.0 and not failed:
            failed.append(ds)
            return (*out[:5], "forced failure")
        return out

    monkeypatch.setattr(continuation, "_correct", fail_first_step)
    diag = continue_periodic(hopf_normal_form_rom(omega=1.3), ContinuationOptions(mu_max=0.3))
    assert failed == [_DS0] and diag.meta["truncated"] == ""
    steps = [rec["ds"] for rec in diag.meta["trace"] if rec["accepted"] and rec["ds"] > 0.0]
    assert steps[0] == _DS0 / 2.0
    assert _DS0 in steps[1:4] and max(steps) == _DS0


def test_branch_closes_at_the_second_hopf_point():
    # the d = 2 branch runs from the ROM's first Hopf point to a second one
    # where the cycle shrinks back onto the fixed point
    m = build_ziegler2(1, 1, 1, 1, 1, xi_m=0.2)
    P_H = eigen_sweep(m, (1.5, 3.0), 40).events["P_H"]
    _, _, rom = ziegler_rom(mu0=P_H, order=5, d=2)

    def growth(mu):
        return float(np.max(np.linalg.eigvals(rom.linear_block(mu)).real))

    mu_H2 = brentq(growth, 0.1, 0.3, xtol=1e-12)
    opts = ContinuationOptions(mu_max=0.4, max_points=40)
    t0 = time.perf_counter()
    diag = continue_periodic(rom, options=opts)
    assert time.perf_counter() - t0 < 5.0
    assert diag.meta["truncated"].startswith("branch ended at a Hopf point")
    (mu_end, event), = diag.events()
    assert event == "hopf" and diag.points[-1].event == "hopf"
    assert abs(mu_end - mu_H2) < 2e-3
    assert diag.mu().max() < opts.mu_max
    assert sum(rec["accepted"] for rec in diag.meta["trace"]) == len(diag.points)


# -- diagram comparison ----------------------------------------------------------


def amplitude_diagram(mu, amp, mu0=0.0):
    """Synthetic diagram with one amplitude coordinate per point."""
    return BifurcationDiagram([BranchPoint(m, np.zeros(2), 1.0, np.array([a]),
                                           np.zeros(0, dtype=complex), True)
                               for m, a in zip(mu, amp)], {"mu0": mu0})


def test_diagram_compare_first_exceedance():
    # errors 0, 1%, 20%, 1%, 0 against the reference: valid up to the second
    # point, the recovery after the first exceedance does not count
    ref = amplitude_diagram([0.1, 0.2, 0.3, 0.4, 0.5], [1.0, 2.0, 3.0, 4.0, 5.0], mu0=2.0)
    rom = amplitude_diagram([0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6],
                            [0.5, 1.0, 2.02, 3.6, 4.04, 5.0, 6.0], mu0=2.0)
    cmp = diagram_compare(rom, ref, 0, threshold=0.05)
    assert np.allclose(cmp.P, [2.1, 2.2, 2.3, 2.4, 2.5])
    assert np.allclose(cmp.rel_error, [0.0, 0.01, 0.2, 0.01, 0.0])
    assert cmp.P_valid == cmp.P[1] and cmp.threshold == 0.05
    # within the threshold everywhere: valid over the whole overlap
    assert diagram_compare(rom, ref, 0, threshold=0.5).P_valid == cmp.P[-1]
    # the reference in any order gives the same comparison
    perm = [3, 0, 4, 2, 1]
    shuffled = BifurcationDiagram([ref.points[i] for i in perm], ref.meta)
    again = diagram_compare(rom, shuffled, 0, threshold=0.05)
    assert np.array_equal(again.P, cmp.P) and np.array_equal(again.rel_error, cmp.rel_error)
    assert again.P_valid == cmp.P_valid


def test_diagram_compare_invalid_from_the_start():
    ref = amplitude_diagram([0.1, 0.2, 0.3], [1.0, 2.0, 3.0])
    rom = amplitude_diagram([0.1, 0.2, 0.3], [1.5, 2.0, 3.0])
    assert np.isnan(diagram_compare(rom, ref, 0).P_valid)


def test_diagram_compare_needs_overlap():
    ref = amplitude_diagram([0.1, 0.2], [1.0, 2.0])
    rom = amplitude_diagram([0.3, 0.4], [1.0, 2.0])
    with pytest.raises(ValueError, match="do not overlap"):
        diagram_compare(rom, ref, 0)
    # offset expansion loads shift the absolute parameter: the same mu overlap
    # vanishes when the reference sits one load unit higher
    with pytest.raises(ValueError, match="do not overlap"):
        diagram_compare(amplitude_diagram([0.1, 0.2], [1.0, 2.0], mu0=2.0),
                        amplitude_diagram([0.1, 0.2], [1.0, 2.0], mu0=3.0), 0)
