"""Pseudo-spectral toolkit for an anisotropic dispersive semigroup and the
SQG / stratified Boussinesq systems driven by it.  Import names from their
modules, e.g. `from anisodisp.spectral import Grid2D`."""

__version__ = "0.1.0"
