"""Benchmark model builders: Ziegler pendulums, a polynomial second-order
model, their first-order recast, and static equilibrium."""

from .dae import FirstOrderDAE
from .equilibrium import static_equilibrium
from .ziegler import (ZieglerModel, build_ziegler, build_ziegler2, build_ziegler3,
                      recast_to_dae)
from .cubic2 import PolynomialSecondOrderModel

__all__ = [
    "FirstOrderDAE",
    "ZieglerModel",
    "PolynomialSecondOrderModel",
    "build_ziegler",
    "build_ziegler2",
    "build_ziegler3",
    "recast_to_dae",
    "static_equilibrium",
]

