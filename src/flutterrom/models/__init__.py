"""Benchmark model builders: Ziegler pendulums, a polynomial second-order
model, and their first-order recast."""

from .dae import FirstOrderDAE
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
]

