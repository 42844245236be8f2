"""Pseudo-spectral toolkit for an anisotropic dispersive semigroup and the
SQG / stratified Boussinesq systems driven by it."""

from .spectral import (
    Grid2D,
    SpectralField,
    MultiplierSpec,
    forward_transform,
    apply_multiplier,
    sobolev_norm,
    l2_norm,
    linf_norm,
    l1_norm,
)
from .lp import LPBank
from .semigroup import evolve_linear, measure_decay, bessel_j0
from .oscillatory import PhaseSpec, phase_gradient, hessian_det, find_stationary
from .fitting import fit_power_law

__all__ = [
    "Grid2D",
    "SpectralField",
    "MultiplierSpec",
    "forward_transform",
    "apply_multiplier",
    "sobolev_norm",
    "l2_norm",
    "linf_norm",
    "l1_norm",
    "LPBank",
    "evolve_linear",
    "measure_decay",
    "bessel_j0",
    "PhaseSpec",
    "phase_gradient",
    "hessian_det",
    "find_stationary",
    "fit_power_law",
]

__version__ = "0.1.0"
