import re
import time
from dataclasses import replace
from itertools import islice

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
    _tiles,
    _window,
    continue_periodic,
    find_hopf,
)
from flutterrom.dpim import ParametrisationROM, build_rom_firstorder
from flutterrom.models import build_ziegler2, recast_to_dae
from flutterrom.polytensor import MonomialTable
from flutterrom.romdyn import RealizedReducedSystem, measure_limit_cycle
from flutterrom.spectral import (
    detect_exceptional_point,
    eigen_sweep,
    enforce_jordan,
    solve_master_eigen,
)
from tests.conftest import hopf_normal_form_rom
from tests.oracles import BlowUpError, CollocatedROM, measure_settled_cycle, return_time
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
    x0 = np.r_[_SEED_AMP, np.zeros(2 * sysr.m - 1)]
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
    hopf = _hopf_cycle(rom, find_hopf(rom))
    sysr, mu_H = hopf.sysr, hopf.record["mu_H"]
    mu_start = min(opts.mu_max, mu_H + max(4 * _DS0, 0.01 * max(abs(mu_H), 1.0)))
    m2 = 2 * sysr.m
    x, _, T, _ = _hopf_seed(hopf, mu_start)
    x, T, Mono = _newton_fixed_mu(sysr, x, T, mu_start)
    amp_cap = 40.0 * max(np.linalg.norm(x), 0.05)
    points = []

    def record(x, T, mu, Mono):
        mult, others, stable = _floquet_and_stability(np.linalg.eigvals(Mono))
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


@pytest.mark.parametrize("mu0", [0.0, 2.0768, 15.69, -3.0])
def test_tiles_of_the_load_axis(mu0):
    # tile 0 is +-_window(mu0) exactly; each other tile reaches 2 _window of
    # the absolute load at its inner edge beyond it; neighbours share an
    # edge, which belongs to the tile nearer tile 0 alone; the walk down
    # from any load passes the same tiles, edge for edge
    w = _window(mu0)
    assert next(_tiles(mu0, 0.0)) == next(_tiles(mu0, np.inf)) == (0, -w, w)
    assert next(_tiles(mu0, -w))[0] == 0
    tiles = list(islice(_tiles(mu0, 5.0 * w), 9))
    assert tiles[0][0] >= 2 and tiles[-1][0] <= -2
    for (k, lo, hi), below in zip(tiles, tiles[1:]):
        assert lo < hi and below == (k - 1, below[1], lo)
    for i, (k, lo, hi) in enumerate(tiles):
        if k:
            inner = lo if k > 0 else hi
            assert abs((hi - lo) / (2.0 * _window(mu0 + inner)) - 1.0) < 1e-14
        assert next(_tiles(mu0, hi))[0] == (k if k >= 0 else k + 1)
        assert next(_tiles(mu0, np.nextafter(hi, -np.inf)))[0] == k
        assert next(_tiles(mu0, np.nextafter(hi, np.inf)))[0] == k + 1
        assert list(islice(_tiles(mu0, 0.5 * (lo + hi)), 9 - i)) == tiles[i:]


def test_find_hopf_on_the_normal_form():
    # growth rate rho + mu: the Hopf point is mu = -rho; the scan covers
    # tile 0, +-0.35, and where that holds none, the tile [-1.05, -0.35]
    # below it
    assert abs(find_hopf(hopf_normal_form_rom(rho=-0.1)) - 0.1) < 1e-12
    assert abs(find_hopf(hopf_normal_form_rom(rho=0.5)) + 0.5) < 1e-12
    with pytest.raises(ContinuationError, match="no sign change"):
        find_hopf(hopf_normal_form_rom(rho=-1.0))
    # without the load term the growth rate stays -0.1: a measurement names
    # the loads scanned
    meas = measure_limit_cycle(hopf_normal_form_rom(rho=-0.1, c_mu=0.0), 0.1)
    assert meas.amplitude.max() == 0.0 and meas.converged and meas.newton == 0
    assert meas.reason == ("no sign change of the growth rate at the fixed point over the "
                           "scanned loads [-1.05, 0.35]")


def test_a_failed_eigenvalue_solve_in_the_scan_propagates(monkeypatch):
    # the scan's stacked solve succeeds, the refinement of its crossing
    # (spectral._root_in on _growth, one load at a time) fails: the
    # LinAlgError is raised as it is, not named a lost sign change
    growth = continuation._growth

    def failing(mus, model):
        if np.ndim(mus) == 0:
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return growth(mus, model)

    monkeypatch.setattr(continuation, "_growth", failing)
    with pytest.raises(np.linalg.LinAlgError, match="did not converge"):
        find_hopf(hopf_normal_form_rom(rho=-0.1))


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
        q, K, col, _, _, reason = _correct(sysr, q, K, fixed_mu, 0.0, q, K, np.inf)
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
    # both seeds, corrected at the same fixed mu, land on the same cycle: the
    # Hopf seed as a rotating wave, the settled seed by collocation
    rom = seed_roms[label]
    hopf = _hopf_cycle(rom, find_hopf(rom))
    sysr, mu_H = hopf.sysr, hopf.record["mu_H"]
    mu = mu_H + max(4 * _DS0, 0.01 * max(abs(mu_H), 1.0))
    x, K, T, seed = _hopf_seed(hopf, mu)
    assert seed["newton"] >= 1 and seed["scale"] > 1.0
    q, _, _, rec = continuation._fixed_mu(sysr, [], np.append(x, [T, mu]), K)
    assert rec["reason"] == ""

    xs, Ts, record = _initial_cycle(rom, mu)
    assert record["status"] == "settled"
    collocated = CollocatedROM(rom, mu)
    orbit = solve_ivp(collocated.rhs, (0.0, Ts), xs, method="DOP853", rtol=_RTOL, atol=ATOL,
                      dense_output=True)
    Ks = orbit.sol(Ts * _stage_times(_MESH0)).T.reshape(_MESH0, len(_NODES), -1)
    qs, col_s = fixed_mu_cycle(collocated, xs, Ks, Ts, mu)

    assert abs(q[-2] / qs[-2] - 1.0) < 1e-9
    # the rotating wave's (Re z, Im z) both peak at |z|
    peaks = np.repeat(np.abs(q[:-2:2] + 1j * q[1:-2:2]), 2)
    assert np.abs(peaks - orbit_max(col_s, qs[-2])).max() < 1e-8


def test_hopf_seed_radius_on_the_normal_form():
    # zdot = (mu + 1.3 i) z - z|z|^2: the cycle at mu has radius sqrt(mu)
    rom = hopf_normal_form_rom(omega=1.3)
    hopf = _hopf_cycle(rom, find_hopf(rom))
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
    # the ROM's branch of rotating waves, and its branch by collocation (the
    # ROM oracle), against single-interval shooting
    rom = branch_rom[1]
    opts = ContinuationOptions(mu_max=0.3, max_points=20)
    shot = shooting_branch(rom, opts)
    for diag in (branch, continue_periodic(CollocatedROM(rom), opts)):
        assert len(diag.points) == len(shot.points) == 17
        assert diag.meta["truncated"] == shot.meta["truncated"] == ""
        assert diag.mu()[-1] == shot.mu()[-1] == 0.3
        assert diag.events() == shot.events()
        assert np.abs(diag.mu() - shot.mu()).max() < 1e-9
        assert np.abs(diag.periods() / shot.periods() - 1.0).max() < 1e-7
        for a, b in zip(diag.points, shot.points):
            assert np.abs(a.amplitude - b.amplitude).max() < 1e-7 * np.abs(b.amplitude).max()
            fa, fb = np.sort(np.abs(a.floquet)), np.sort(np.abs(b.floquet))
            assert np.abs(fa / fb - 1.0).max() < 1e-7
            assert a.stable == b.stable


def test_mesh_meets_rtol_against_the_flow(branch_rom):
    # the mesh the error estimate picks meets rtol on the orbit's samples,
    # measured against a tight integration from the corrected anchor; the
    # seed mesh it rejects does not
    rom, mu = branch_rom[1], 0.1
    sysr = CollocatedROM(rom, mu)
    x, T, _ = _initial_cycle(rom, mu)
    q = np.append(x, [T, mu])
    fixed_mu = np.eye(len(q))[-1]
    orbit = solve_ivp(sysr.rhs, (0.0, T), x, method="DOP853", rtol=1e-13, atol=1e-15,
                      dense_output=True)
    t = np.linspace(0.0, 1.0, 401)

    def corrected_error(K):
        qn, _, col, _, _, reason = _correct(sysr, q, K, fixed_mu, 0.0, q, K, np.inf)
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
    # resampled converged orbit (whose residual is already under 1e-9); the
    # ROM is collocated through its oracle
    model, mu = (CollocatedROM(branch_rom[1]), 0.1) if case == "rom" else (ziegler2_fom, 0.2)
    hopf = _hopf_cycle(model, find_hopf(model))
    sysr = hopf.sysr
    x, K, T, _ = _hopf_seed(hopf, mu)
    q, col = fixed_mu_cycle(sysr, x, K, T, mu)
    monkeypatch.setattr(continuation, "_NEWTON_TOL", 1e-13)
    fixed_mu = np.eye(len(q))[-1]
    t = np.linspace(0.0, 1.0, 4001)
    for N in (4, 6, 8, 10):
        KN = continuation._refine(col, q[-2], N)
        qn, _, colN, _, _, reason = _correct(sysr, q, KN, fixed_mu, 0.0, q, KN, np.inf)
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
    # the cap at the seed mesh, below the 7 intervals the d = 4 ROM's
    # collocated orbits need: no branch, and no cycle at a load; the ROM's
    # own cycles are rotating waves, on no mesh
    monkeypatch.setattr(continuation, "_MESH_MAX", _MESH0)
    rom = branch_rom[1]
    diag = continue_periodic(CollocatedROM(rom), ContinuationOptions(mu_max=0.1))
    assert diag.points == []
    assert re.fullmatch(rf"seed corrector: orbit needs \d+ mesh intervals, more than {_MESH0}",
                        diag.meta["truncated"])
    meas = continuation._cycle_at(CollocatedROM(rom), 0.1, 0.1, rom.dim)
    assert not meas.converged and meas.reason == diag.meta["truncated"]
    # a cold copy, so that no Hopf cycle corrected under the patched cap
    # stays on the shared ROM
    assert measure_limit_cycle(replace(rom), 0.1).reason == ""


def test_branch_mesh_stays_small(branch_rom, monkeypatch):
    # a work guard: on the d = 4 ROM's branch every state continue_periodic
    # hands to linearize is a single one, one per corrector iterate (and one
    # for the Jacobian at the fixed point); on its collocated oracle every
    # batch is an accepted or a rejected mesh of at most 64 collocation
    # points (4-point collocation needs 220); the ROM is a cold copy, so its
    # Hopf cycle is corrected here and counted
    sizes = []
    linearize = RealizedReducedSystem.linearize

    def counted(self, X):
        sizes.append(len(X) if np.ndim(X) == 2 else 1)
        return linearize(self, X)

    monkeypatch.setattr(RealizedReducedSystem, "linearize", counted)
    opts = ContinuationOptions(mu_max=0.3, max_points=20)
    diag = continue_periodic(replace(branch_rom[1]), opts)
    assert len(diag.points) == 17
    iterates = sum(len(rec["residuals"]) for rec in diag.meta["trace"])
    assert sizes == [1] * (iterates + diag.meta["seed"]["newton"] + 2)

    sizes.clear()
    diag = continue_periodic(CollocatedROM(branch_rom[1]), opts)
    assert len(diag.points) == 17
    accepted = {rec["mesh"] * len(_NODES) for rec in diag.meta["trace"] if rec["accepted"]}
    assert max(accepted) <= 64 and accepted <= set(sizes)
    assert max(sizes) <= 64


def test_trace_accounts_for_every_step(branch_rom, branch):
    # the ROM's branch of rotating waves and its collocated branch
    collocated = continue_periodic(CollocatedROM(branch_rom[1]),
                                   ContinuationOptions(mu_max=0.3, max_points=20))
    for diag in (branch, collocated):
        trace = diag.meta["trace"]
        assert sum(rec["accepted"] for rec in trace) == len(diag.points)
        for rec in trace:
            assert set(rec) == {"ds", "newton", "residuals", "mesh", "accepted", "reason",
                                "wall_s"}
            assert rec["accepted"] == (rec["reason"] == "")
            assert len(rec["residuals"]) == rec["newton"] + 1
        # the trust region never fires on this branch; only the seed mesh
        # grows, and the one step past mu_max is corrected again at mu_max
        rejected = [rec for rec in trace if rec["reason"]]
        assert rejected[-1]["reason"] == "stepped past mu_max" and rejected[-1]["ds"] > 0.0
        assert trace[-1]["ds"] == 0.0 and trace[-1]["accepted"]
        assert all(rec["reason"].startswith("mesh refined") for rec in rejected[:-1])
        assert all(rec["ds"] == 0.0 for rec in rejected[:-1])
        assert len({rec["mesh"] for rec in trace if rec["accepted"]}) == 1
    # a rotating wave has no mesh (0 intervals), so nothing is refined
    assert len([rec for rec in branch.meta["trace"] if rec["reason"]]) == 1
    assert {rec["mesh"] for rec in branch.meta["trace"]} == {0}
    assert len([rec for rec in collocated.meta["trace"] if rec["reason"]]) > 1


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


# -- stop reasons of the corrector and the branch walk ------------------------


def two_mode_normal_form_rom():
    """Hand-built d = 4 ROM with reduced dynamics

        z1' = (i + mu) z1 - z1|z1|^2,    z2' = (-0.1 + 1.7 i + mu) z2,

    mapped to (Re z1, Im z1, Re z2, Im z2).  Its branch from mu = 0 has
    z2 = 0 and |z1|^2 = mu; the z2 mode turns unstable on it at mu = 0.1,
    through a complex pair of Floquet multipliers."""
    table = MonomialTable(5, 3)
    lam = np.array([1j, -1j, -0.1 + 1.7j, -0.1 - 1.7j])
    W = np.zeros((len(table), 4), dtype=complex)
    f = np.zeros((len(table), 5), dtype=complex)
    e = np.eye(5, dtype=int)
    for s in (0, 1, 2, 3):
        W[table.index_of(e[s]), 2 * (s // 2):2 * (s // 2) + 2] = [0.5, 0.5j if s % 2 else -0.5j]
        f[table.index_of(e[s]), s] = lam[s]
        f[table.index_of(e[s] + e[4]), s] = 1.0
    f[table.index_of((2, 1, 0, 0, 0)), 0] = f[table.index_of((1, 2, 0, 0, 0)), 1] = -1.0
    return ParametrisationROM(table, W, f, np.diag(lam), conj_map=np.array([1, 0, 3, 2]),
                              meta={"engine": "hand-built", "mu0": 0.0})


def test_neimark_sacker_event_on_a_hand_built_rom():
    diag = continue_periodic(two_mode_normal_form_rom(), ContinuationOptions(mu_max=0.2))
    assert diag.meta["truncated"] == "" and diag.mu()[-1] == 0.2
    (mu_ns, event), = diag.events()
    assert event == "neimark-sacker"
    # the first point past mu = 0.1, where the z2 pair leaves the unit circle
    k = next(i for i, pt in enumerate(diag.points) if pt.event)
    assert diag.points[k - 1].mu < 0.1 < mu_ns < 0.11
    for pt in diag.points:
        assert abs(pt.amplitude[0] - np.sqrt(pt.mu)) < 1e-8 and pt.amplitude[2] < 1e-12
        # the z2 pair, turned by the rotating frame: e^{(-0.1 + mu) T}
        pair = np.exp((-0.1 + pt.mu) * pt.period)
        assert np.abs(np.abs(pt.floquet) - pair).min() < 1e-8
        assert pt.stable == (pt.mu < 0.1)


def test_a_load_past_the_second_hopf_point_names_it(branch_rom):
    # past its second Hopf point the two-mode ROM's fixed point is stable
    # again; the measurement names that falling crossing without a walk
    # (today through its Hopf cycle, whose correction fails)
    rom = replace(branch_rom[1])

    def growth(mu):
        return float(np.max(np.linalg.eigvals(rom.linear_block(mu)).real))

    mu_H2 = brentq(growth, 3.3, 3.6, xtol=1e-12)
    assert growth(3.3) > 0 > growth(3.6)
    out = measure_limit_cycle(rom, 4.0)
    assert f"mu = {mu_H2:.6g}" in out.reason
    assert out.newton == 0 and not out.amplitude.any()


def test_corrector_stops_on_a_bad_iterate():
    # each reason of _correct, from the normal form's corrected Hopf cycle q
    hopf = _hopf_cycle(hopf_normal_form_rom(), 0.0)
    sysr, q, K = hopf.sysr, hopf.q.copy(), hopf.K
    tangent = np.array([1.0, 0.0, 0.0, 0.0])
    # an anchor of 1e200 overflows the cubic term
    far = q.copy()
    far[:2] *= 1e200
    out = _correct(sysr, q, K, tangent, 0.0, far, K, np.inf)
    assert out[3] == 0 and not np.isfinite(out[4][0]) and out[5] == "iterate not finite"
    # a zero arclength row makes the Newton matrix singular
    out = _correct(sysr, q, K, 0.0 * tangent, 0.01, q, K, np.inf)
    assert out[3] == 0 and out[5] == "singular corrector matrix"
    # the first Newton step already moves the anchor by about ds
    out = _correct(sysr, q, K, tangent, 0.01, q, K, 1e-3)
    assert out[3] == 1 and out[5] == "iterate left the trust region"


def test_the_period_window_follows_the_branch():
    # zdot = (10 i + mu) z - (1 + 40 i) z|z|^2: radius sqrt(mu), angular
    # frequency 10 - 40 mu.  The period passes 4 times the seed's at mu =
    # 0.1875; each correction takes its window [T0/4, 4 T0] about the point
    # it starts from, so the branch reaches mu_max on the closed form
    diag = continue_periodic(hopf_normal_form_rom(omega=10.0, c3=-1 - 40j),
                             ContinuationOptions(mu_max=0.2))
    assert diag.meta["truncated"] == "" and diag.mu()[-1] == 0.2
    # past 4 times the Hopf cycle's period, 2 pi / 10
    assert diag.points[-1].period > 4.0 * (2 * np.pi / 10.0)
    for pt in diag.points:
        assert abs(pt.amplitude[0] - np.sqrt(pt.mu)) < 1e-8
        assert abs(pt.period - 2 * np.pi / (10.0 - 40.0 * pt.mu)) < 1e-8 * pt.period


def test_corrector_failure_at_the_minimum_step_ends_the_branch(monkeypatch):
    # a corrector that refuses every step from a point past mu = 0.1: the
    # step halves from the last accepted one down to _DS_MIN, where the
    # branch ends with the corrector's reason
    correct = continuation._correct

    def refusing(sysr, q, *args):
        out = correct(sysr, q, *args)
        return out[:5] + ("refused past mu = 0.1",) if q[-1] > 0.1 else out

    monkeypatch.setattr(continuation, "_correct", refusing)
    diag = continue_periodic(hopf_normal_form_rom(), ContinuationOptions(mu_max=0.3))
    assert diag.meta["truncated"] == ("corrector failed at the minimum step: "
                                      "refused past mu = 0.1")
    refused = [rec["ds"] for rec in diag.meta["trace"] if rec["reason"]]
    assert len(refused) > 5 and refused[-1] == _DS_MIN
    assert refused == [max(refused[0] / 2.0 ** k, _DS_MIN) for k in range(len(refused))]
    assert diag.points[-2].mu <= 0.1 < diag.points[-1].mu


def test_branch_stops_at_the_reduced_coordinate_trust_region():
    # zdot = (i + mu) z - (100 - 1000 mu) z|z|^2: radius sqrt(mu / (100 - 1000 mu))
    # grows without bound as mu nears 0.1; the walk stops at 40 times the
    # seed's anchor norm (at least 0.05)
    rom = hopf_normal_form_rom(c3=-100.0, order=4)
    f = rom.f.copy()
    f[rom.table.index_of((2, 1, 1)), 0] = f[rom.table.index_of((1, 2, 1)), 1] = 1000.0
    rom = replace(rom, f=f)
    diag = continue_periodic(rom, ContinuationOptions(mu_max=1.0, max_points=400))
    assert diag.meta["truncated"] == "branch left the reduced-coordinate trust region"
    last = diag.meta["trace"][-1]
    assert last["reason"] == diag.meta["truncated"] and not last["accepted"]
    cap = 40.0 * max(np.linalg.norm(diag.points[0].anchor), 0.05)
    for pt in diag.points:
        assert abs(pt.amplitude[0] - np.sqrt(pt.mu / (100.0 - 1000.0 * pt.mu))) < 1e-8
        assert np.linalg.norm(pt.anchor) <= cap
    assert np.linalg.norm(diag.points[-1].anchor) > cap - 4 * _DS0


def test_step_shrinks_after_a_slow_correction(monkeypatch):
    # with _TARGET_NEWTON = 1 and _MAX_NEWTON = 4, a step that took one
    # correction grows by 1.4 (to _DS0 at most) and one that took two or
    # more shrinks by 1.5; the normal form's steps take one or two
    monkeypatch.setattr(continuation, "_TARGET_NEWTON", 1)
    monkeypatch.setattr(continuation, "_MAX_NEWTON", 4)
    diag = continue_periodic(hopf_normal_form_rom(omega=1.3), ContinuationOptions(mu_max=0.3))
    assert diag.meta["truncated"] == ""
    steps = [rec for rec in diag.meta["trace"] if rec["ds"] > 0.0]
    assert all(rec["accepted"] for rec in steps[:-1])
    assert steps[-1]["reason"] == "stepped past mu_max"
    shrunk = 0
    for rec, nxt in zip(steps[:-1], steps[1:]):
        if rec["newton"] >= 2:
            assert nxt["ds"] == max(rec["ds"] / 1.5, _DS_MIN)
            shrunk += 1
        else:
            assert nxt["ds"] == min(rec["ds"] * 1.4, _DS0)
    assert shrunk >= 5
