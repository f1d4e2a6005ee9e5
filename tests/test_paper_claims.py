"""The paper's quantitative claims, pinned end to end against the full model.

Ziegler-2 (unit masses, springs and links, mass-proportional damping
xi_m = 0.2): order-5 ROMs predict the theta2 amplitude of the post-flutter
limit cycle at loads P_H + mu.  Both sides are limit cycles at exactly that
load, from the same collocation solver: the ROM's reduced system against
the full model's first-order system.
"""

import numpy as np
import pytest

from flutterrom.dpim import build_rom_firstorder
from flutterrom.models import build_ziegler2, recast_to_dae
from flutterrom.romdyn import measure_limit_cycle, measure_limit_cycle_fom
from flutterrom.spectral import (
    detect_exceptional_point,
    eigen_sweep,
    enforce_jordan,
    solve_master_eigen,
)

MUS = (0.02, 0.05, 0.1, 0.2)
THETA2 = 1


@pytest.fixture(scope="module")
def errors():
    """Relative theta2 amplitude error per ROM and load, against the FOM.

    The ROMs: one-mode (d = 2) and two-mode (d = 4) expanded at the Hopf
    point P_H, and the two-mode expansion at the exceptional point P_c with
    its Jordan block enforced.
    """
    model = build_ziegler2(1, 1, 1, 1, 1, xi_m=0.2)
    traj = eigen_sweep(model, (1.5, 3.0), 40)
    P_H = traj.events["P_H"]
    P_c = detect_exceptional_point(traj, model)[0]

    def rom(P, d, jordan_pair=None):
        dae = recast_to_dae(model, mu0=P)
        spec = solve_master_eigen(dae, d=d)
        if jordan_pair is not None:
            spec = enforce_jordan(spec, jordan_pair)
        return build_rom_firstorder(dae, spec, order=5), P

    roms = {"one-mode": rom(P_H, 2), "two-mode": rom(P_H, 4), "jordan": rom(P_c, 4, (0, 2))}
    out = {label: [] for label in roms}
    for mu in MUS:
        ref = measure_limit_cycle_fom(model, P_H + mu)
        assert ref.converged and ref.reason == "" and ref.amp(THETA2) > 0
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
