import numpy as np

from flutterrom.continuation import ContinuationOptions, continue_periodic, find_hopf
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
    mu = diag.mu()
    assert mu.max() > 0.3 and len(mu) > 5
    amp = diag.amplitude(0)
    assert np.abs(amp / np.sqrt(mu) - 1.0).max() < 1e-4
    assert np.abs(diag.periods() - 2 * np.pi / omega).max() < 1e-8
    trivial = max(np.abs(pt.floquet - 1.0).min() for pt in diag.points)
    assert trivial < 1e-6
