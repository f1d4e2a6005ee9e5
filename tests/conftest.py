import numpy as np
import pytest

from flutterrom.dpim import ParametrisationROM
from flutterrom.polytensor import MonomialTable


def hopf_normal_form_rom(rho=0.0, omega=1.0, c_mu=1.0, c3=-1.0, c5=0.0, order=3, c_mu2=0.0):
    """Hand-built one-mode ROM with reduced dynamics

        zdot = (rho + i omega + c_mu mu + c_mu2 mu^2) z + c3 z|z|^2 + c5 z|z|^4

    mapped to two physical coordinates (Re z, Im z), so the limit-cycle
    amplitude of coordinate 0 equals the z radius.
    """
    table = MonomialTable(3, order)
    lam0 = rho + 1j * omega
    W = np.zeros((len(table), 2), dtype=complex)
    f = np.zeros((len(table), 3), dtype=complex)
    mid_z = table.index_of((1, 0, 0))
    mid_zb = table.index_of((0, 1, 0))
    W[mid_z] = np.array([0.5, -0.5j])
    W[mid_zb] = np.conj(W[mid_z])
    f[mid_z, 0] = lam0
    f[mid_zb, 1] = np.conj(lam0)
    f[table.index_of((1, 0, 1)), 0] = c_mu
    f[table.index_of((0, 1, 1)), 1] = np.conj(c_mu)
    if c_mu2:
        f[table.index_of((1, 0, 2)), 0] = c_mu2
        f[table.index_of((0, 1, 2)), 1] = np.conj(c_mu2)
    if order >= 3:
        f[table.index_of((2, 1, 0)), 0] = c3
        f[table.index_of((1, 2, 0)), 1] = np.conj(c3)
    if c5:
        f[table.index_of((3, 2, 0)), 0] = c5
        f[table.index_of((2, 3, 0)), 1] = np.conj(c5)
    return ParametrisationROM(table, W, f, np.diag([lam0, np.conj(lam0)]),
                              conj_map=np.array([1, 0]),
                              meta={"engine": "hand-built", "mu0": 0.0})


@pytest.fixture
def hopf_rom():
    return hopf_normal_form_rom()
