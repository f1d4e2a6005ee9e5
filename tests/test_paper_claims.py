"""The paper's quantitative claims, pinned end to end against the full model.

Ziegler-2 (unit masses, springs and links, mass-proportional damping
xi_m = 0.2): order-5 ROMs predict the theta2 amplitude of the post-flutter
limit cycle at loads P_H + mu, and expanding them past the Hopf point
widens the loads they predict well.  Ziegler-3 (the same parameters): the
two-mode ROM predicts all three angles.  Both sides are limit cycles at
exactly that load: the ROM's rotating wave against the full model's
collocated cycle.
"""

import numpy as np
import pytest

from flutterrom.dpim import build_rom_firstorder
from flutterrom.models import build_ziegler2, build_ziegler3, recast_to_dae
from flutterrom.romdyn import measure_limit_cycle, measure_limit_cycle_fom
from flutterrom.spectral import (
    detect_exceptional_point,
    eigen_sweep,
    enforce_jordan,
    solve_master_eigen,
)

MUS = (0.02, 0.05, 0.1, 0.2)
THETA2 = 1


def rom_at(model, P, d, jordan_pair=None):
    """The order-5 ROM of d master modes expanded at load P."""
    dae = recast_to_dae(model, mu0=P)
    spec = solve_master_eigen(dae, d=d)
    if jordan_pair is not None:
        spec = enforce_jordan(spec, jordan_pair)
    return build_rom_firstorder(dae, spec, order=5)


def fom_cycle(model, P):
    ref = measure_limit_cycle_fom(model, P)
    assert ref.converged and ref.reason == "" and ref.amp(THETA2) > 0
    return ref


@pytest.fixture(scope="module")
def ziegler2():
    """The model with its Hopf point P_H and exceptional point P_c."""
    model = build_ziegler2(1, 1, 1, 1, 1, xi_m=0.2)
    traj = eigen_sweep(model, (1.5, 3.0), 40)
    return model, traj.events["P_H"], detect_exceptional_point(traj, model)[0]


@pytest.fixture(scope="module")
def errors(ziegler2):
    """Relative theta2 amplitude error per ROM and load, against the FOM.

    The ROMs: one-mode (d = 2) and two-mode (d = 4) expanded at the Hopf
    point P_H, and the two-mode expansion at the exceptional point P_c with
    its Jordan block enforced.
    """
    model, P_H, P_c = ziegler2
    roms = {"one-mode": (rom_at(model, P_H, 2), P_H), "two-mode": (rom_at(model, P_H, 4), P_H),
            "jordan": (rom_at(model, P_c, 4, (0, 2)), P_c)}
    out = {label: [] for label in roms}
    for mu in MUS:
        ref = fom_cycle(model, P_H + mu)
        for label, (r, P) in roms.items():
            got = measure_limit_cycle(r, P_H + mu - P)
            assert got.converged
            out[label].append(abs(got.amp(THETA2) / ref.amp(THETA2) - 1.0))
    return {label: np.array(errs) for label, errs in out.items()}


@pytest.mark.parametrize("label", ["two-mode", "jordan"])
def test_two_mode_roms_within_1_5_percent(errors, label):
    # measured: two-mode at P_H 9.1e-5 ... 8.3e-3, Jordan at P_c
    # 5.5e-4 ... 1.12e-2, both growing with the load
    assert errors[label].max() < 0.015


def test_one_mode_rom_is_worse_at_every_load(errors):
    # measured: 1.9e-2, 5.2e-2 and 0.107, then no cycle at mu = 0.2: the
    # one-mode branch closes at a second Hopf point near mu = 0.187
    assert np.all(errors["one-mode"] > errors["two-mode"])
    assert np.all(errors["one-mode"] > errors["jordan"])
    assert errors["one-mode"][-1] == 1.0


PAST_MUS = (0.05, 0.1, 0.2, 0.3)


@pytest.fixture(scope="module")
def past_hopf(ziegler2):
    """theta2 cycles at P_H + mu of the FOM and of the o5 ROMs expanded at
    P_H + delta, keyed by (d, delta)."""
    model, P_H, _ = ziegler2
    refs = [fom_cycle(model, P_H + mu) for mu in PAST_MUS]
    cycles = {}
    for d, deltas in ((4, (0.0, 0.1, 0.2)), (2, (0.0, 0.1))):
        for delta in deltas:
            rom = rom_at(model, P_H + delta, d)
            cycles[d, delta] = [measure_limit_cycle(rom, mu - delta) for mu in PAST_MUS]
    return refs, cycles


def test_two_mode_expanded_past_the_hopf_point_is_closer(past_hopf):
    # measured max errors over PAST_MUS: 1.76e-2 at delta = 0, 1.12e-2 at
    # delta = 0.1 and 6.14e-3 at delta = 0.2
    refs, cycles = past_hopf

    def max_error(delta):
        return max(abs(got.amp(THETA2) / ref.amp(THETA2) - 1.0)
                   for got, ref in zip(cycles[4, delta], refs))

    assert max_error(0.1) < max_error(0.0)
    assert max_error(0.2) < max_error(0.0)


def test_one_mode_expanded_past_the_hopf_point_reaches_the_high_loads(past_hopf):
    # at delta = 0 the one-mode branch closes at its second Hopf point near
    # mu = 0.187, so it has no cycle at mu = 0.2 and 0.3, which that point's
    # Hopf cycle alone (2 corrections) decides; expanded at delta = 0.1 it
    # has both
    _, cycles = past_hopf
    for k in (PAST_MUS.index(0.2), PAST_MUS.index(0.3)):
        at_hopf, past = cycles[2, 0.0][k], cycles[2, 0.1][k]
        assert at_hopf.amp(THETA2) == 0.0 and at_hopf.newton == 2
        assert at_hopf.reason.endswith("the cycles of the Hopf point mu = 0.18734 lie below it")
        assert past.reason == "" and past.amp(THETA2) > 0


def test_ziegler3_two_mode_within_half_a_percent_on_every_angle():
    # measured: two-mode <= 2.9e-3 on every angle, one-mode >= 8.3e-3
    model = build_ziegler3(1, 1, 1, 1, 1, 1, 1, xi_m=0.2)
    P_H = eigen_sweep(model, (0.5, 4.0), 60).events["P_H"]
    assert abs(P_H - 1.30532) < 1e-5
    two_mode, one_mode = rom_at(model, P_H, 4), rom_at(model, P_H, 2)
    for mu in (0.02, 0.05, 0.1):
        ref = fom_cycle(model, P_H + mu).amplitude[:3]
        err2 = np.abs(measure_limit_cycle(two_mode, mu).amplitude[:3] / ref - 1.0)
        err1 = np.abs(measure_limit_cycle(one_mode, mu).amplitude[:3] / ref - 1.0)
        assert err2.max() < 0.005
        assert err1.min() > err2.max()


@pytest.mark.parametrize("xi_m", [0.05, 0.1, 0.2])
def test_one_mode_load_radius_is_the_distance_to_the_exceptional_point(xi_m):
    # the one-mode load series converges out to the EP (P_c = 2 exactly
    # here), a square-root branch point of the master eigenvalue, so with c_k
    # the largest |f| on the row z0 mu^k, c_k / c_(k-1) ~ (1 - 3 / (2k)) / R:
    # the Domb-Sykes line through k = 9 and 10 meets 1/k = 0 at 1 / R
    # (Hinch 1991).  Measured 2.4e-10, 1.6e-8 and 1.0e-6 relative
    model = build_ziegler2(1, 1, 1, 1, 1, xi_m=xi_m)
    P_H = eigen_sweep(model, (1.5, 3.0), 40).events["P_H"]
    dae = recast_to_dae(model, mu0=P_H)
    rom = build_rom_firstorder(dae, solve_master_eigen(dae, d=2), order=11)
    c = [np.abs(rom.f[rom.table.index_of((1, 0, k))]).max() for k in range(11)]
    inverse_radius = 10 * c[10] / c[9] - 9 * c[9] / c[8]
    assert abs(1.0 / (inverse_radius * abs(P_H - 2.0)) - 1.0) < 1e-5
