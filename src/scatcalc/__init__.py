"""scatcalc: a desk-scale numerical workbench for the scattering calculus.

Submodules
----------
quadrature  the product sphere rule, composite Gauss-Legendre panels, the central
            difference and one Richardson step
grid        truncated grids, FFTs, weighted (and variable-order) Sobolev norms
symbols     symbol classes, quantization, composition, parametrices
hamflow     compactified-phase-space charts, bicharacteristic flow, radial sets
commutants  positive-commutator symbol constructions and their identities
helmholtz   generalized eigenfunctions, stationary phase, scattering matrix
scatter1d   one-dimensional reflection/transmission and Liouville-Green probes
radon       flat localized X-ray transform and its normal operator
cli         reproducible experiment driver (`scatcalc` entry point)
"""

from . import bumps, commutants, grid, hamflow, helmholtz, radon, scatter1d, symbols  # noqa: F401

__version__ = "0.1.0"
