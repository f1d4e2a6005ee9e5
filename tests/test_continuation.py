import numpy as np
import pytest

from flutterrom.continuation import (
    ContinuationError,
    ContinuationOptions,
    _flow_with_variations,
    continue_periodic,
    find_hopf,
)
from flutterrom.models import build_ziegler2
from flutterrom.spectral import eigen_sweep
from tests.conftest import hopf_normal_form_rom
from tests.test_romdyn import ziegler_rom


def test_find_hopf_matches_eigen_sweep():
    m = build_ziegler2(1, 1, 1, 1, 1, xi_m=0.2)
    P_H = eigen_sweep(m, (1.5, 3.0), 40).events["P_H"]
    _, _, rom = ziegler_rom(mu0=P_H, order=5)
    assert abs(rom.meta["mu0"] + find_hopf(rom) - P_H) < 1e-6


def test_normal_form_branch_against_closed_form():
    # zdot = (mu + 1.3 i) z - z|z|^2: radius sqrt(mu), period 2 pi / 1.3
    omega = 1.3
    diag = continue_periodic(hopf_normal_form_rom(omega=omega),
                             options=ContinuationOptions(mu_max=0.3, max_points=40))
    assert diag.meta["truncated"] == ""
    assert diag.meta["seed"]["status"] == "settled" and diag.meta["seed"]["periods"] >= 5
    mu = diag.mu()
    assert mu.max() > 0.3 and len(mu) > 5
    amp = diag.amplitude(0)
    assert np.abs(amp / np.sqrt(mu) - 1.0).max() < 1e-4
    assert np.abs(diag.periods() - 2 * np.pi / omega).max() < 1e-8
    trivial = max(np.abs(pt.floquet - 1.0).min() for pt in diag.points)
    assert trivial < 1e-6


def find_hopf_pointwise(rom, n_scan=201, tol=1e-12):
    """find_hopf with one eigensolve per scanned load."""
    ref = max(abs(rom.meta.get("mu0", 0.0)), 1.0)
    mus = np.linspace(-0.35 * ref, 0.35 * ref, n_scan)

    def max_re(mu):
        return float(np.max(np.linalg.eigvals(rom.linear_block(mu)).real))

    vals = np.array([max_re(mu) for mu in mus])
    i = next(i for i in range(n_scan - 1) if vals[i] < 0 <= vals[i + 1])
    a, b = mus[i], mus[i + 1]
    fa = max_re(a)
    for _ in range(200):
        m = 0.5 * (a + b)
        fm = max_re(m)
        if fa * fm <= 0:
            b = m
        else:
            a, fa = m, fm
        if b - a < tol:
            break
    return 0.5 * (a + b)


@pytest.mark.parametrize("d", [2, 4])
def test_find_hopf_stacked_scan_matches_pointwise_scan(d):
    _, _, rom = ziegler_rom(mu0=2.0768, order=5, d=d)
    assert find_hopf(rom) == find_hopf_pointwise(rom)
    mus = np.linspace(-0.7, 0.7, 11)
    stack = rom.linear_block(mus)
    assert stack.shape == (11, d, d)
    for mu, J in zip(mus, stack):
        assert np.array_equal(J, rom.linear_block(mu))


def test_unsettled_seed_truncates_the_branch():
    # three periods cannot settle (the settle test starts at the fifth)
    opts = ContinuationOptions(mu_max=0.1, max_points=10, seed_settle_periods=3)
    diag = continue_periodic(hopf_normal_form_rom(omega=1.3), options=opts)
    assert diag.meta["seed"] == {"periods": 3, "status": "no-convergence"}
    assert diag.meta["truncated"] == "seed did not settle in 3 periods"
    assert diag.points == []


def test_decaying_seed_raises():
    with pytest.raises(ContinuationError, match="decays"):
        continue_periodic(hopf_normal_form_rom(), mu_start=-0.1)


@pytest.mark.parametrize("sensitivity", [True, False])
def test_flow_variations_against_differences(sensitivity):
    from flutterrom.romdyn import RealizedReducedSystem

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
